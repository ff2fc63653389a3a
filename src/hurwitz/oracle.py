"""Ground-truth realizability by exhaustive search over permutation tuples.

A datum of degree d with partitions A_1..A_n is realizable exactly when
there are permutations s_1..s_n in S_d with the prescribed cycle types,
product equal to the identity, and a transitive joint action.  The search
here is complete:

  * one factor is pinned to the canonical representative of its type
    (conjugating a whole tuple preserves all three conditions, so this
    loses nothing), and one is never enumerated: it is forced by the
    product condition and checked by cycle type.  For three factors whose
    classes are not all of one size, a factor of the largest class is
    forced, since with the others fixed the share of enumerated factors
    that complete to a witness grows with the forced class (the Frobenius
    count), and one of the smallest class is pinned, since its centralizer,
    which the symmetry break below uses, is then the largest.  Otherwise
    the largest class is pinned and the second largest forced: on 4-point
    data, pinning the smallest class costs more nodes,
  * the remaining factors are built cycle by cycle, smallest class first,
  * the forced factor's cycle type is checked incrementally while the last
    enumerated factor M is built: with every other factor fixed, the
    product it inverts is A o M o B, so each image M(y) = z fixes one
    product entry B^-1(y) -> A(z).  A branch dies when an entry closes a
    product cycle whose length the forced type has no unused part for, or
    leaves an open chain of product entries longer than the forced type's
    longest part,
  * each image of an enumerated factor is united with its preimage in a
    union-find as it is placed.  In the last enumerated factor an orbit
    bound, exact at every assigned image, kills a branch when the forced
    factor's merges left (d - len(type), less one per product entry known
    to join two open chains) cannot join the orbits into one.  A step there
    that joins two orbits cannot close a product cycle (the chain it
    extends starts in its preimage's orbit), so it joins two chains too,
    and orbits - merges left never falls.  So a complete tuple is
    transitive, and the leaf only assembles the witness.  The earlier
    factors are not bounded: by balance the bound starts d - 1 merges to
    spare, an edge spends one only when it merges nothing, and with four
    factors the one before the last has at most d - 1 edges,
  * with four or more factors, the last enumerated factor M is solved once
    per subproblem: with X the product of the other enumerated and the
    pinned factors in cyclic order from just after M, A o M o B is
    conjugate to M o X, conjugating by g maps each solution M to gMg^-1,
    and A, B and X preserve every orbit of the factors fixed so far.  So
    whether some M of its type completes a witness depends only on the
    multiset, over those orbits, of X's cycle type inside each, and a
    search skips a subproblem whose key it has already exhausted,
  * while the first enumerated factor is built, each image is offered once
    per class of points that the pinned factor's centralizer can swap
    without moving a point already used: an unused point of a pinned
    cycle that holds a used point is its own class, and the points of the
    pinned cycles of one length that hold none form one class, represented
    by its smallest point.  Conjugating a tuple under that centralizer
    keeps the pinned factor and the factor built so far, and the
    representative is tried first, so the first witness found does not
    change,
  * an image that does not close its cycle is tried in ascending order,
    or, with ``join_first``, which only the engine's pipeline sets, first
    among the unused points outside the orbit of the point being mapped,
    so that it joins two orbits, and then among those inside it, each
    ascending.  The default order builds a factor inside the orbit it
    already has, whose non-transitive tuples the orbit bound kills only
    late.  An untouched pinned cycle holds no used point, so it is never
    in that orbit: the centralizer break offers the same representatives
    in the same order, and on 3-point data an exhaustion visits the same
    nodes in either.

One backtrack node is charged per assigned cycle; exceeding the node
budget aborts the search with an ``unknown`` verdict, never a wrong one.

:func:`sample` is the engine's cheaper first try at a witness (method
``sample``): at most ``SAMPLE_DRAWS`` random tuples, seeded from the
datum's text, with the smallest class's factor pinned, the others but the
largest class's drawn uniformly from their classes, and that one forced.
The first draw relabels every drawn factor and each later draw only one of
them, in turn, so each tuple is still uniform on the drawn classes and
draws n - 2 apart are independent.  With four or more factors a draw also
tests the order with the two factors before the forced one swapped, and
carries a hit there back to the datum's order by one braid move, which
keeps every cycle type and the generated group.  Its witnesses pass
:func:`check_witness` like the search's; a miss proves nothing.
:func:`decide` never samples: it is the search alone, so a scan that runs
both compares two independent methods on realizable data; its default
order also checks the pipeline's ``join_first`` search on every status.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .partitions import CandidateDatum, rh_defect
from .perms import (
    Perm,
    canonical_of_type,
    class_size,
    cycle_string,
    cycles,
    identity,
    inverse,
    is_transitive,
    product,
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


# the most random tuples :func:`sample` draws for one datum before the search
# takes over.  Of the 2,078 3-point data with 8 <= d <= 10 and the 714 4-point
# data with d = 8 that reach the search without it, 100, 200 and 400 draws
# leave 61, 30 and 17, and, testing two cyclic orders a draw, 3, 2 and 0.
# With the pipeline's search offering orbit-joining images first, four
# alternating 20 s pairs of bench/run.py against 200 draws (2 vCPU, CPython
# 3.11) read, on search-n3, decide_tail_ms -35% and decide_per_s +4% at 100
# draws, and +61% and -4% at 400; on search-n4, 100 draws moved both by 1% or
# less.  crosscheck_per_s, which the draws do not touch, moved under 1%.  The
# draws are seeded per datum and do not depend on this cap, so lowering it
# keeps every hit within the new cap byte for byte and hands only later hits
# to the search.  At d = 12, n = 3, the pipeline alone (a fresh engine per
# datum) takes 378,599 nodes at 100 draws against 404,967 at 200, with 1,147
# search rows against 431, and 6-9% less time; at d = 10 and 11, n = 4 it
# takes a third to three fifths more, since the 4-point search costs more
SAMPLE_DRAWS = 100


@dataclass(frozen=True, slots=True)
class SearchBudget:
    """Resource limits for the exhaustive search."""

    max_degree: int = 12
    max_nodes: int = 100_000_000

    def __post_init__(self) -> None:
        if self.max_degree < 1 or self.max_nodes < 1:
            raise ValueError("budget limits must be positive")


@dataclass(frozen=True, slots=True)
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
        # the degree-1 witness has no permutations; it renders as the identity
        return " | ".join(cycle_string(p) for p in self.perms) or "()"


def check_witness(datum: CandidateDatum, witness: ConstellationWitness) -> bool:
    """Re-verify a witness from scratch: cycle types, identity product, transitivity.

    A malformed witness is rejected: the wrong number of permutations, or one
    that is not a sequence of ``degree`` integer images permuting 0..d-1.
    One walk per permutation (:func:`_cycles_fit`) finds a repeated image
    and spends a part of its partition per cycle.
    """
    d = datum.degree
    perms = witness.perms
    if (witness.degree != d or not isinstance(perms, (tuple, list))
            or len(perms) != len(datum.partitions)):
        return False
    for p, part in zip(perms, datum.partitions):
        if not (isinstance(p, (tuple, list)) and len(p) == d and set(map(type, p)) <= {int}
                and min(p) >= 0 and max(p) < d):
            return False
        left = [0] * (d + 1)
        for length in part.parts:
            left[length] += 1
        if not _cycles_fit(p, left):
            return False
    if product(perms, d) != identity(d):
        return False
    return is_transitive(perms, d)


def _cycles_fit(p, left: list[int]) -> bool:
    """Walk each cycle of ``p``, images 0..d-1, once and spend one of ``left``'s
    parts of its length (``left[k]`` counts the parts of length k, k <= d);
    False at a cycle with no part left, or at a walk that ends off its start,
    which only a map that is not injective makes."""
    seen = [False] * len(p)
    for start in range(len(p)):
        if seen[start]:
            continue
        x, length = start, 0
        while not seen[x]:
            seen[x] = True
            x = p[x]
            length += 1
        if x != start or not left[length]:
            return False
        left[length] -= 1
    return True


def _product_fits(x, y, z, left: list[int]) -> bool:
    """Walk each cycle of the product x o y o z of three permutations of
    0..d-1, computing an entry only when the walk visits it, and spend one of
    ``left``'s parts of its length, as :func:`_cycles_fit` does; False at the
    first cycle with no part left, before the rest of the product is built."""
    seen = [False] * len(z)
    for start in range(len(z)):
        if seen[start]:
            continue
        v, length = start, 0
        while not seen[v]:
            seen[v] = True
            v = x[y[z[v]]]
            length += 1
        if not left[length]:
            return False
        left[length] -= 1
    return True


class BudgetExhausted(Exception):
    pass


def _subproblem_key(x: Perm, parent: list[int]) -> tuple:
    """The multiset, over the blocks of a union-find forest ``parent``, of the
    cycle types of ``x`` inside each block; ``x`` must preserve every block.

    Two such pairs are simultaneously conjugate exactly when their keys are
    equal: a conjugation maps blocks to blocks of the same size and, inside
    each, the cycles of ``x`` to cycles of the same length.
    """
    blocks: dict[int, list[int]] = {}
    for cyc in cycles(x):
        p = cyc[0]
        while parent[p] != p:
            p = parent[p]
        blocks.setdefault(p, []).append(len(cyc))
    return tuple(sorted(tuple(sorted(lengths)) for lengths in blocks.values()))


class _TupleSearch:
    """Backtracking enumeration of witness tuples for one datum of three or
    more partitions."""

    def __init__(self, datum: CandidateDatum, budget: SearchBudget, join_first: bool = False) -> None:
        self.degree = d = datum.degree
        self.join_first = join_first
        self.types = [p.parts for p in datum.partitions]
        n = len(self.types)
        sizes = [class_size(p) for p in datum.partitions]
        order = sorted(range(n), key=lambda i: (sizes[i], i))
        if n == 3 and sizes[order[0]] < sizes[order[2]]:
            # force a factor of the largest class, pin one of the smallest
            lo, mid, hi = order
            order = [mid, hi, lo] if sizes[mid] < sizes[hi] else [hi, mid, lo]
        self.fixed_pos = order[-1]
        self.forced_pos = order[-2]
        self.middles = order[:-2]
        forced_type = self.types[self.forced_pos]

        self.images: list[list[int] | None] = [None] * n
        self.images[self.fixed_pos] = list(canonical_of_type(datum.partitions[self.fixed_pos]))

        # the pinned factor's cycles, longest first on consecutive points:
        # each cycle's length and base (smallest point), each point's cycle,
        # and how many points of each cycle the first middle factor uses
        # (a cycle with none is untouched)
        self.cycle_len = pinned = self.types[self.fixed_pos]
        self.cycle_base = [sum(pinned[:c]) for c in range(len(pinned))]
        self.cycle_of = [c for c, length in enumerate(pinned) for _ in range(length)]
        self.touched = [0] * len(pinned)

        # union-find over points without path compression, seeded with the
        # pinned factor's cycles: each point hangs below its cycle's base
        self.parent = [self.cycle_base[c] for c in self.cycle_of]
        self.orbits = len(pinned)

        # the merges the forced factor can still make: d - len(forced type)
        # at first, one less for each product entry that joins two open chains
        self.forced_left = d - len(forced_type)

        # the product R o L whose inverse is the forced factor composes the
        # factors after it, then those before it, cyclically.  Its entries are
        # known one by one while the last middle is built; they form open
        # chains, and each chain's other end and point count are kept at both
        # of its ends
        self.around = [(self.forced_pos + j) % n for j in range(1, n)]
        self.tracking = False
        self.a_map: Perm = ()
        self.b_inv: Perm = ()
        self.chain_end = list(range(d))
        self.chain_len = [1] * d
        self.unused = [0] * (d + 1)
        for c in forced_type:
            self.unused[c] += 1
        self.longest = forced_type[0]  # no open chain may grow past it

        # keys of the last middle's subproblems found to hold no witness
        self.dead: set[tuple] = set()

        self.nodes = 0
        self.max_nodes = budget.max_nodes

    # -- the forced factor's product, one entry per image of the last middle --

    def _track(self) -> tuple | None:
        """Write R o L = A o M o B, M the last middle, and return the
        :func:`_subproblem_key` of X = B o A and the current orbits, or None
        when M is the only middle and there is nothing to skip."""
        seq = self.around
        t = seq.index(self.middles[-1])
        images = self.images
        a_map = self.a_map = product([images[p] for p in seq[:t]], self.degree)
        b_map = product([images[p] for p in seq[t + 1:]], self.degree)
        self.b_inv = inverse(b_map)
        self.tracking = True
        if len(self.middles) == 1:
            return None
        return _subproblem_key([b_map[y] for y in a_map], self.parent)

    # -- search --

    def run(self) -> ConstellationWitness | None:
        return self._enter_middle(0)

    def _enter_middle(self, mi: int) -> ConstellationWitness | None:
        if mi >= len(self.middles):
            return self._leaf()
        key = None
        if mi == len(self.middles) - 1:
            key = self._track()
            if key in self.dead:
                self.tracking = False
                return None
        pos = self.middles[mi]
        counts: dict[int, int] = {}
        for c in self.types[pos]:
            counts[c] = counts.get(c, 0) + 1
        lengths = sorted(counts, reverse=True)
        img = [-1] * self.degree
        used = [False] * self.degree
        self.images[pos] = img
        found = self._place_cycle(mi, img, used, counts, lengths, 0)
        if found is None and key is not None:
            self.dead.add(key)
        self.tracking = False
        self.images[pos] = None
        return found

    def _place_cycle(self, mi, img, used, counts, lengths, scan_from) -> ConstellationWitness | None:
        leader = scan_from
        degree = self.degree
        while leader < degree and used[leader]:
            leader += 1
        if leader == degree:
            return self._enter_middle(mi + 1)
        used[leader] = True
        if mi == 0:
            self.touched[self.cycle_of[leader]] += 1
        for length in lengths:
            left = counts[length]
            if not left:
                continue
            counts[length] = left - 1
            found = self._extend_cycle(mi, img, used, counts, lengths, leader, leader, length - 1)
            if found is not None:
                return found
            counts[length] = left
        used[leader] = False
        if mi == 0:
            self.touched[self.cycle_of[leader]] -= 1
        return None

    def _extend_cycle(self, mi, img, used, counts, lengths, leader, tip, left) -> ConstellationWitness | None:
        """Try every image of ``tip``: an unused point while ``left`` points of
        the cycle are still to come, else the leader, which closes the cycle
        (a fixed point is closed at once).

        Each image is one step, and it unites tip with its image.  In the
        last middle it also links the product entry B^-1(tip) -> A(image) and
        prunes on the forced type; an entry that joins two open chains spends
        one of the forced factor's merges, and the step is pruned unless the
        merges left, ``forced_left``, can still join the orbits into one.
        Every state it changes is restored before the next image.
        """
        tracking = self.tracking
        surplus = 0
        if tracking:
            # forced merges left beyond those the orbits need: a step's own
            # union adds one, its join spends one, and it must stay >= 0.  A
            # union always joins two chains too, so no other merge counts
            surplus = self.forced_left - self.orbits + 1
            # all of tip's product entry but its image is known at this level
            ends = self.chain_end
            lens = self.chain_len
            unused = self.unused
            a_map = self.a_map
            u = self.b_inv[tip]  # ends an open chain that begins at start
            start = ends[u]
            len_u = lens[u]
            longest = self.longest
        if left:
            candidates = range(self.degree)
            parent = self.parent
            root = tip
            while parent[root] != root:
                root = parent[root]
            if self.join_first:
                # the unused points outside tip's orbit, ascending, then those in it
                joining, own = [], []
                for x in candidates:
                    if not used[x]:
                        r = x
                        while parent[r] != r:
                            r = parent[r]
                        (own if r == root else joining).append(x)
                candidates = joining + own
            # In the first middle factor, the pinned factor's centralizer
            # elements that fix every used point permute and rotate its
            # untouched cycles of each length, so all their points are one
            # class of equivalent images: only the smallest, the base of the
            # first such cycle, is offered.
            first = mi == 0
            touched = self.touched
            cycle_of = self.cycle_of
            cycle_base = self.cycle_base
            cycle_len = self.cycle_len
            offered = 0  # length of the last untouched cycle offered
        else:
            candidates = (leader,)
        for nxt in candidates:
            if left:
                if used[nxt]:
                    continue
                if first:
                    c = cycle_of[nxt]
                    if not touched[c]:
                        if nxt != cycle_base[c] or cycle_len[c] == offered:
                            continue
                        offered = cycle_len[c]
            else:
                self.nodes += 1
                if self.nodes > self.max_nodes:
                    raise BudgetExhausted
            spent = 0
            if tracking:
                v = a_map[nxt]  # begins an open chain that ends at end
                if start == v:
                    # closes a product cycle of len_u points
                    if not unused[len_u]:
                        continue
                    unused[len_u] -= 1
                else:
                    end = ends[v]
                    len_v = lens[v]
                    if len_u + len_v > longest:
                        continue
                    ends[start] = end
                    ends[end] = start
                    lens[start] = lens[end] = len_u + len_v
                    # u and v need no union: A and B are products of factors
                    # whose edges are all united, so u ~ tip ~ nxt ~ v already
                    spent = 1
            merged = False
            if left:
                b = nxt
                while parent[b] != b:
                    b = parent[b]
                if b != root:
                    parent[b] = root
                    self.orbits -= 1
                    merged = True
            if surplus + merged >= spent:
                img[tip] = nxt
                self.forced_left -= spent
                if left:
                    used[nxt] = True
                    if first:
                        touched[c] += 1
                    found = self._extend_cycle(mi, img, used, counts, lengths, leader, nxt, left - 1)
                    used[nxt] = False
                    if first:
                        touched[c] -= 1
                else:
                    found = self._place_cycle(mi, img, used, counts, lengths, leader + 1)
                if found is not None:
                    return found
                self.forced_left += spent
                img[tip] = -1
            if merged:
                parent[b] = b
                self.orbits += 1
            if tracking:
                if spent:
                    ends[start] = u
                    ends[end] = v
                    lens[start] = len_u
                    lens[end] = len_v
                else:
                    unused[len_u] += 1
        return None

    def _leaf(self) -> ConstellationWitness:
        # every product entry is known and every cycle closed within the
        # forced type, and the orbit bound held at the last assignment with
        # no merge left, so the tuple is transitive
        perms = list(self.images)
        forced_inverse = product([perms[p] for p in self.around], self.degree)
        perms[self.forced_pos] = inverse(forced_inverse)
        return ConstellationWitness(self.degree, tuple(tuple(p) for p in perms))


# two-point witnesses are built up to this degree; at d = 10**6 one takes ~300 MB
TWO_POINT_DEGREE_MAX = 100_000


def two_point_witness(datum: CandidateDatum) -> ConstellationWitness:
    """The witness of a balanced datum with at most two partitions.

    Balance leaves only the degree-1 datum, whose witness is the empty
    tuple, and [d] [d], whose witness is a d-cycle and its inverse.
    """
    if not datum.partitions:
        return ConstellationWitness(datum.degree, ())
    cyc = canonical_of_type(datum.partitions[0])
    return ConstellationWitness(datum.degree, (cyc, inverse(cyc)))


def sample(datum: CandidateDatum, draws: int) -> tuple[ConstellationWitness | None, int]:
    """Draw up to ``draws`` random tuples for a balanced datum of three or
    more partitions; return the first witness found, or None, and the number
    of draws made.

    The smallest class's factor is pinned and the largest class's is forced,
    as the inverse of the others' product in the search's cyclic order, so
    a draw hits with the transitive count over the product of the drawn
    classes' sizes.  Each of the k = n - 2 other factors is a uniform element
    of its class, the canonical representative with its points relabelled at
    random.  The first draw relabels all k and draw t only the (t mod k)-th:
    each tuple stays uniform on the product of the drawn classes, so each
    draw hits with the same chance, and draws k apart share no relabelling,
    so they are independent.  A relabelling takes d random numbers and one
    sort.  The generator is seeded from the datum's text, so a datum
    always gets the same witness.  A miss proves nothing.

    With Y and Z the two factors just before the forced one and X the
    product of the rest, a draw tests the product X o Y o Z against the
    forced type and, with four or more factors, X o Z o Y too (with three,
    X is the identity and Z o Y a conjugate of Y o Z).  Each test computes a
    product entry only when its cycle walk visits it and stops at the first
    cycle the type has no part for.  A hit on the swapped order is carried
    back by one braid move: Z's slot takes Y^-1 o Z o Y, so that
    X o Y o (Y^-1 o Z o Y) = X o Z o Y.  The move keeps every cycle type and
    the generated group, so transitivity is tested once, before it.
    """
    d = datum.degree
    n = len(datum.partitions)
    sizes = [class_size(p) for p in datum.partitions]
    order = sorted(range(n), key=lambda i: (sizes[i], i))
    pinned, forced = order[0], order[-1]
    images = [canonical_of_type(p) for p in datum.partitions]
    around = [(forced + j) % n for j in range(1, n)]
    *rest, y_pos, z_pos = around
    drawn = [(i, images[i]) for i in around if i != pinned]
    want = [0] * (d + 1)
    for c in datum.partitions[forced].parts:
        want[c] += 1
    points = range(d)
    ident = identity(d)  # X, the product of no factor, when there are three
    r = random.Random(datum.render()).random
    for made in range(1, draws + 1):
        for i, canon in drawn if made == 1 else (drawn[made % len(drawn)],):
            # conjugate by a random relabelling g: g(x) -> g(canon(x))
            g = sorted(points, key=lambda _: r())
            img = images[i] = [0] * d
            for x in points:
                img[g[x]] = g[canon[x]]
        x = images[rest[0]] if rest else ident
        for i in rest[1:]:
            x = [x[v] for v in images[i]]
        y, z = images[y_pos], images[z_pos]
        if _product_fits(x, y, z, want.copy()):
            swapped = False
        elif rest and _product_fits(x, z, y, want.copy()):
            swapped = True
        else:
            continue
        if is_transitive([images[i] for i in around], d):
            perms = list(images)
            if swapped:
                y_inv = inverse(y)
                z = perms[z_pos] = [y_inv[z[y[v]]] for v in points]
            perms[forced] = inverse([x[y[z[v]]] for v in points])
            witness = ConstellationWitness(d, tuple(tuple(p) for p in perms))
            if not check_witness(datum, witness):
                raise RuntimeError(f"sampler produced an invalid witness for {datum}")
            return witness, made
    return None, draws


def decide(datum: CandidateDatum, budget: SearchBudget | None = None, *,
           join_first: bool = False) -> Verdict:
    """Complete search verdict: realizable with witness, exceptional, or unknown.

    Requires a balanced datum.  Degrees above ``budget.max_degree`` return
    unknown("degree-limit") without searching, and data with fewer than
    three partitions get :func:`two_point_witness`, or unknown("degree-limit")
    above ``TWO_POINT_DEGREE_MAX``; running out of nodes returns
    unknown("budget").  An exceptional verdict means the search space was
    exhausted.  ``join_first`` offers each open cycle's images outside the
    mapped point's orbit first; it changes the witness found and the nodes
    spent, never the status.
    """
    budget = budget or SearchBudget()
    if rh_defect(datum) != 0:
        raise ValueError("oracle requires a balanced datum (rh_defect == 0)")
    if datum.degree > budget.max_degree:
        return Verdict(UNKNOWN, "oracle", limit=LIMIT_DEGREE)

    if len(datum.partitions) < 3:
        if datum.degree > TWO_POINT_DEGREE_MAX:
            return Verdict(UNKNOWN, "oracle", limit=LIMIT_DEGREE)
        return Verdict(REALIZABLE, "oracle", certificate=two_point_witness(datum))

    search = _TupleSearch(datum, budget, join_first)
    try:
        witness = search.run()
    except BudgetExhausted:
        return Verdict(UNKNOWN, "oracle", limit=LIMIT_BUDGET, stats=DecisionStats(nodes=search.nodes))
    stats = DecisionStats(nodes=search.nodes)
    if witness is not None:
        if not check_witness(datum, witness):
            raise RuntimeError(f"search produced an invalid witness for {datum}")
        return Verdict(REALIZABLE, "oracle", certificate=witness, stats=stats)
    return Verdict(EXCEPTIONAL, "oracle", stats=stats)
