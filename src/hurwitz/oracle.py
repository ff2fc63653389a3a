"""Ground-truth realizability by exhaustive search over permutation tuples.

A datum of degree d with partitions A_1..A_n is realizable exactly when
there are permutations s_1..s_n in S_d with the prescribed cycle types,
product equal to the identity, and a transitive joint action.  The search
here is complete:

  * the factor whose conjugacy class is largest is pinned to the canonical
    representative of its type (conjugating a whole tuple preserves all
    three conditions, so this loses nothing),
  * the factor with the second-largest class is never enumerated; it is
    forced by the product condition and checked by cycle type,
  * the remaining factors are built cycle by cycle, smallest class first,
    under a union-find orbit bound: a branch dies when the cycles still to
    be placed cannot merge the current orbits into one,
  * the forced factor's cycle type is checked incrementally while the last
    enumerated factor M is built: with every other factor fixed, the
    product it inverts is A o M o B, so each image M(y) = z fixes one
    product entry B^-1(y) -> A(z).  A branch dies when an entry closes a
    product cycle whose length the forced type has no unused part for, or
    leaves an open chain of product entries longer than every unused part,
  * while the first enumerated factor is built, each image is offered once
    per class of points that the pinned factor's centralizer can swap
    without moving a point already used: an unused point of a pinned
    cycle that holds a used point is its own class, and the points of the
    pinned cycles of one length that hold none form one class, represented
    by its smallest point.  Conjugating a tuple under that centralizer keeps the pinned
    factor and the factor built so far, and the representative is tried
    first, so the first witness found does not change.

One backtrack node is charged per assigned cycle; exceeding the node
budget aborts the search with an ``unknown`` verdict, never a wrong one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .partitions import CandidateDatum, rh_defect
from .perms import (
    Perm,
    canonical_of_type,
    class_size,
    compose,
    cycle_string,
    cycle_type,
    identity,
    inverse,
    is_perm,
    is_transitive,
)
from .verdicts import (
    EXCEPTIONAL,
    LIMIT_BUDGET,
    LIMIT_DEGREE,
    REALIZABLE,
    UNKNOWN,
    DecisionStats,
    Verdict,
)


@dataclass(frozen=True)
class SearchBudget:
    """Resource limits for the exhaustive search."""

    max_degree: int = 12
    max_nodes: int = 100_000_000

    def __post_init__(self) -> None:
        if self.max_degree < 1 or self.max_nodes < 1:
            raise ValueError("budget limits must be positive")


@dataclass(frozen=True)
class ConstellationWitness:
    """A tuple of permutations certifying realizability."""

    degree: int
    perms: tuple[Perm, ...]

    def to_json(self) -> dict:
        return {
            "type": "witness",
            "degree": self.degree,
            "perms": [list(p) for p in self.perms],
        }

    def render(self) -> str:
        return " | ".join(cycle_string(p) for p in self.perms)


def check_witness(datum: CandidateDatum, witness: ConstellationWitness) -> bool:
    """Re-verify a witness from scratch: types, identity product, transitivity."""
    if witness.degree != datum.degree:
        return False
    if len(witness.perms) != len(datum.partitions):
        return False
    for p in witness.perms:
        if len(p) != datum.degree or not is_perm(p):
            return False
    for p, part in zip(witness.perms, datum.partitions):
        if cycle_type(p) != part:
            return False
    acc = identity(datum.degree)
    for p in witness.perms:
        acc = compose(acc, p)
    if acc != identity(datum.degree):
        return False
    return is_transitive(witness.perms, datum.degree)


class BudgetExhausted(Exception):
    pass


class _TupleSearch:
    """Backtracking enumeration of witness tuples for one datum."""

    def __init__(self, datum: CandidateDatum, budget: SearchBudget) -> None:
        self.degree = d = datum.degree
        self.types = [p.parts for p in datum.partitions]
        n = len(self.types)
        sizes = [class_size(p) for p in datum.partitions]
        order = sorted(range(n), key=lambda i: (sizes[i], i))
        self.fixed_pos = order[-1]
        self.forced_pos = order[-2]
        self.middles = order[:-2]
        forced_type = self.types[self.forced_pos]

        self.images: list[list[int] | None] = [None] * n
        fixed = list(canonical_of_type(datum.partitions[self.fixed_pos]))
        self.images[self.fixed_pos] = fixed

        # the pinned factor's cycles, longest first on consecutive points:
        # each cycle's length and base (smallest point), each point's cycle,
        # and how many points of each cycle the first middle factor uses
        # (a cycle with none is untouched)
        self.cycle_len = pinned = self.types[self.fixed_pos]
        self.cycle_base = [sum(pinned[:c]) for c in range(len(pinned))]
        self.cycle_of = [c for c, length in enumerate(pinned) for _ in range(length)]
        self.touched = [0] * len(pinned)

        # union-find over points, seeded with the pinned factor's cycles
        self.parent = list(range(d))
        self.weight = [1] * d
        self.orbits = d
        self.trail: list[int] = []
        for x in range(d):
            self._union(x, fixed[x])

        # merge capacity of everything scheduled after middle mi (forced last)
        forced_cap = d - len(forced_type)
        caps = [d - len(self.types[p]) for p in self.middles]
        self.future_cap = [sum(caps[mi + 1:]) + forced_cap for mi in range(len(caps) + 1)]

        # the product R o L whose inverse is the forced factor, filled in while
        # the last middle is built; its known entries form open chains, and
        # each chain's other end and point count are kept at both of its ends
        self.tracking = False
        self.a_map: Perm = ()
        self.b_inv: Perm = ()
        self.prod = [-1] * d
        self.chain_end = list(range(d))
        self.chain_len = [1] * d
        self.unused = [0] * (d + 1)
        for c in forced_type:
            self.unused[c] += 1
        self.lengths = sorted(set(forced_type), reverse=True)
        self.links: list[tuple[int, ...]] = []

        self.nodes = 0
        self.max_nodes = budget.max_nodes

    # -- union-find with rollback (no path compression) --

    def _find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            x = parent[x]
        return x

    def _union(self, a: int, b: int) -> None:
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return
        if self.weight[ra] < self.weight[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.weight[ra] += self.weight[rb]
        self.orbits -= 1
        self.trail.append(rb)

    def _rollback(self, mark: int) -> None:
        trail = self.trail
        while len(trail) > mark:
            rb = trail.pop()
            ra = self.parent[rb]
            self.parent[rb] = rb
            self.weight[ra] -= self.weight[rb]
            self.orbits += 1

    def _tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.max_nodes:
            raise BudgetExhausted

    # -- the forced factor's product, one entry per image of the last middle --

    def _track(self) -> None:
        """Write R o L = A o M o B, M the last middle (identity if there is none)."""
        n = len(self.types)
        k = self.forced_pos
        # R o L composes the factors after k, then those before it, cyclically
        seq = [(k + j) % n for j in range(1, n)]
        t = seq.index(self.middles[-1]) if self.middles else len(seq)
        self.a_map = self._compose(seq[:t])
        self.b_inv = inverse(self._compose(seq[t + 1:]))

    def _compose(self, positions: list[int]) -> Perm:
        acc = list(range(self.degree))
        for pos in positions:
            acc = [acc[y] for y in self.images[pos]]
        return tuple(acc)

    def _link(self, y: int, z: int) -> bool:
        """Record M(y) = z, which fixes the product entry B^-1(y) -> A(z).

        Returns False, recording nothing, when that entry closes a product
        cycle whose length has no unused part in the forced type, or leaves
        an open chain longer than every unused part.
        """
        if not self.tracking:
            return True
        u = self.b_inv[y]
        v = self.a_map[z]
        ends = self.chain_end
        lens = self.chain_len
        start = ends[u]  # u ends an open chain; v starts one
        if start == v:
            length = lens[u]
            if not self.unused[length]:
                return False
            self.unused[length] -= 1
            self.links.append((length,))
        else:
            end = ends[v]
            merged = lens[u] + lens[v]
            if merged > self._longest_unused():
                return False
            self.links.append((start, u, lens[u], end, v, lens[v]))
            ends[start] = end
            ends[end] = start
            lens[start] = lens[end] = merged
        self.prod[u] = v
        return True

    def _unlink(self) -> None:
        if not self.tracking:
            return
        entry = self.links.pop()
        if len(entry) == 1:
            self.unused[entry[0]] += 1
            return
        start, u, len_u, end, v, len_v = entry
        self.chain_end[start] = u
        self.chain_end[end] = v
        self.chain_len[start] = len_u
        self.chain_len[end] = len_v

    def _longest_unused(self) -> int:
        for length in self.lengths:
            if self.unused[length]:
                return length
        return 0

    # -- search --

    def run(self) -> ConstellationWitness | None:
        if self.middles:
            return self._enter_middle(0)
        # two factors: nothing is enumerated, the product is the pinned factor
        self._track()
        self.tracking = True
        for x in range(self.degree):
            if not self._link(x, x):
                return None
        return self._leaf()

    def _enter_middle(self, mi: int) -> ConstellationWitness | None:
        if mi == len(self.middles):
            return self._leaf()
        pos = self.middles[mi]
        counts: dict[int, int] = {}
        for c in self.types[pos]:
            counts[c] = counts.get(c, 0) + 1
        lengths = sorted(counts, reverse=True)
        img = [-1] * self.degree
        used = [False] * self.degree
        self.images[pos] = img
        last = mi == len(self.middles) - 1
        if last:
            self._track()
        self.tracking = last
        cap = self.degree - len(self.types[pos])
        found = self._place_cycle(mi, img, used, counts, lengths, cap, 0)
        self.tracking = False
        self.images[pos] = None
        return found

    def _place_cycle(self, mi, img, used, counts, lengths, cap, scan_from) -> ConstellationWitness | None:
        leader = scan_from
        degree = self.degree
        while leader < degree and used[leader]:
            leader += 1
        if leader == degree:
            return self._enter_middle(mi + 1)
        fut = self.future_cap[mi]
        used[leader] = True
        if mi == 0:
            self.touched[self.cycle_of[leader]] += 1
        for length in lengths:
            left = counts[length]
            if not left:
                continue
            counts[length] = left - 1
            if length == 1:
                img[leader] = leader
                self._tick()
                if self.orbits - 1 <= cap + fut and self._link(leader, leader):
                    found = self._place_cycle(mi, img, used, counts, lengths, cap, leader + 1)
                    if found is not None:
                        return found
                    self._unlink()
                img[leader] = -1
            else:
                found = self._extend_cycle(mi, img, used, counts, lengths, cap - (length - 1),
                                           leader, leader, length - 1)
                if found is not None:
                    return found
            counts[length] = left
        used[leader] = False
        if mi == 0:
            self.touched[self.cycle_of[leader]] -= 1
        return None

    def _extend_cycle(self, mi, img, used, counts, lengths, cap_after, leader, tip, left) -> ConstellationWitness | None:
        if left == 0:
            img[tip] = leader
            self._tick()
            mark = len(self.trail)
            x = leader
            while True:
                y = img[x]
                self._union(x, y)
                x = y
                if x == leader:
                    break
            if self.orbits - 1 <= cap_after + self.future_cap[mi] and self._link(tip, leader):
                found = self._place_cycle(mi, img, used, counts, lengths, cap_after, leader + 1)
                if found is not None:
                    return found
                self._unlink()
            self._rollback(mark)
            img[tip] = -1
            return None
        # In the first middle factor, the pinned factor's centralizer elements
        # that fix every used point permute and rotate its untouched cycles of
        # each length, so all their points are one class of equivalent images:
        # only the smallest, the base of the first such cycle, is offered.
        first = mi == 0
        touched = self.touched
        cycle_of = self.cycle_of
        offered = 0  # length of the last untouched cycle offered
        for nxt in range(self.degree):
            if used[nxt]:
                continue
            if first:
                c = cycle_of[nxt]
                if not touched[c]:
                    if nxt != self.cycle_base[c] or self.cycle_len[c] == offered:
                        continue
                    offered = self.cycle_len[c]
            if not self._link(tip, nxt):
                continue
            used[nxt] = True
            if first:
                touched[c] += 1
            img[tip] = nxt
            found = self._extend_cycle(mi, img, used, counts, lengths, cap_after, leader, nxt, left - 1)
            if found is not None:
                return found
            self._unlink()
            img[tip] = -1
            used[nxt] = False
            if first:
                touched[c] -= 1
        return None

    def _leaf(self) -> ConstellationWitness | None:
        # every product entry is known and every cycle closed within the
        # forced type, so only transitivity is left to check
        d = self.degree
        prod = self.prod
        mark = len(self.trail)
        for x in range(d):
            self._union(x, prod[x])
        transitive = self.orbits == 1
        self._rollback(mark)
        if not transitive:
            return None
        perms = []
        for pos in range(len(self.types)):
            if pos == self.forced_pos:
                perms.append(inverse(tuple(prod)))
            else:
                perms.append(tuple(self.images[pos]))
        return ConstellationWitness(d, tuple(perms))


def decide(datum: CandidateDatum, budget: SearchBudget | None = None) -> Verdict:
    """Complete search verdict: realizable with witness, exceptional, or unknown.

    Requires a balanced datum.  Degrees above ``budget.max_degree`` return
    unknown("degree-limit") without searching; running out of nodes returns
    unknown("budget").  An exceptional verdict means the search space was
    exhausted.
    """
    budget = budget or SearchBudget()
    if rh_defect(datum) != 0:
        raise ValueError("oracle requires a balanced datum (rh_defect == 0)")
    if datum.degree > budget.max_degree:
        return Verdict(UNKNOWN, "oracle", limit=LIMIT_DEGREE)

    start = time.perf_counter()
    if not datum.partitions:
        # balanced with no branch points means degree 1: the identity cover
        witness = ConstellationWitness(datum.degree, ())
        return Verdict(REALIZABLE, "oracle", certificate=witness,
                       stats=_stats(0, start))

    search = _TupleSearch(datum, budget)
    try:
        witness = search.run()
    except BudgetExhausted:
        return Verdict(UNKNOWN, "oracle", limit=LIMIT_BUDGET, stats=_stats(search.nodes, start))
    if witness is not None:
        if not check_witness(datum, witness):
            raise RuntimeError(f"search produced an invalid witness for {datum}")
        return Verdict(REALIZABLE, "oracle", certificate=witness, stats=_stats(search.nodes, start))
    return Verdict(EXCEPTIONAL, "oracle", stats=_stats(search.nodes, start))


def _stats(nodes: int, start: float) -> DecisionStats:
    return DecisionStats(nodes=nodes, millis=int((time.perf_counter() - start) * 1000))
