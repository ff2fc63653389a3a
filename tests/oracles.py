"""Independent reference implementations used to cross-check the package.

These deliberately share no code path with the implementations they check:
cycle lengths and orbits are recomputed inline, splits are enumerated over
labeled groups and the labels forgotten afterwards, and the tuple search
enumerates whole conjugacy classes outright with no canonical pinning, no
cycle-by-cycle construction, and no pruning.  :func:`songxu_datum` builds
the double-cover family datum that the closed form is checked against,
:func:`reference_corollaries` states the corollary filter case by case, with
its length rules, :func:`reference_check_witness` reads the witness
conditions one at a time, and :func:`from_cycles` and :func:`relabel` build
test permutations.
"""

from __future__ import annotations

import itertools
import math

from hurwitz.partitions import CandidateDatum, Partition
from hurwitz.perms import inverse, product


def naive_cycle_lengths(perm: tuple[int, ...]) -> tuple[int, ...]:
    degree = len(perm)
    seen = [False] * degree
    lengths = []
    for start in range(degree):
        if seen[start]:
            continue
        length = 1
        seen[start] = True
        x = perm[start]
        while x != start:
            seen[x] = True
            length += 1
            x = perm[x]
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def reference_check_witness(datum: CandidateDatum, witness) -> bool:
    """The witness conditions one at a time: one sequence of ``degree``
    integer images per partition, each a bijection by its sorted images, of
    the partition's cycle type by :func:`naive_cycle_lengths`, the product of
    all of them the identity, and the orbit of point 0 every point."""
    degree = datum.degree
    perms = witness.perms
    if witness.degree != degree or not isinstance(perms, (tuple, list)):
        return False
    if len(perms) != len(datum.partitions):
        return False
    for p, part in zip(perms, datum.partitions):
        if not isinstance(p, (tuple, list)) or len(p) != degree:
            return False
        if any(type(x) is not int for x in p) or sorted(p) != list(range(degree)):
            return False
        if naive_cycle_lengths(tuple(p)) != part.parts:
            return False
    for x in range(degree):
        y = x
        for p in reversed(perms):  # the last factor acts first
            y = p[y]
        if y != x:
            return False
    orbit = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for p in perms:
            if p[x] not in orbit:
                orbit.add(p[x])
                stack.append(p[x])
    return len(orbit) == degree


def naive_splits(parts: tuple[int, ...], count: int, total: int) -> set[tuple[tuple[int, ...], ...]]:
    """All ways to drop parts into ``count`` labeled groups of sum ``total``,
    with the labels forgotten at the end."""
    results: set[tuple[tuple[int, ...], ...]] = set()
    groups: list[list[int]] = [[] for _ in range(count)]
    remaining = [total] * count

    def assign(idx: int) -> None:
        if idx == len(parts):
            canonical = sorted(
                (tuple(sorted(g, reverse=True)) for g in groups), key=lambda g: (len(g), g)
            )
            results.add(tuple(canonical))
            return
        part = parts[idx]
        for g in range(count):
            if remaining[g] < part:
                continue
            groups[g].append(part)
            remaining[g] -= part
            assign(idx + 1)
            groups[g].pop()
            remaining[g] += part

    assign(0)
    return results


def from_cycles(degree: int, cycle_list) -> tuple[int, ...]:
    """The permutation of 0..degree-1 with the given disjoint cycles."""
    images = list(range(degree))
    for cyc in cycle_list:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            images[a] = b
    assert sorted(images) == list(range(degree)), "cycles overlap or leave the domain"
    return tuple(images)


def relabel(p: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """Conjugate ``p`` by ``g``: rename the points of ``p`` through ``g``."""
    return product([g, p, inverse(g)], len(p))


_class_cache: dict[tuple[int, tuple[int, ...]], list[tuple[int, ...]]] = {}


def class_elements(degree: int, parts: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every permutation of the given cycle type, by filtering all of S_d."""
    key = (degree, parts)
    if key not in _class_cache:
        want = tuple(sorted(parts, reverse=True))
        _class_cache[key] = [
            p for p in itertools.permutations(range(degree)) if naive_cycle_lengths(p) == want
        ]
    return _class_cache[key]


def reference_decide(datum: CandidateDatum) -> str:
    """Zero-optimization search: iterate full classes, force one factor by the
    product condition, check its type and the joint orbit."""
    degree = datum.degree
    types = [p.parts for p in datum.partitions]
    n = len(types)
    if n == 0:
        return "realizable" if degree == 1 else "exceptional"
    if n == 1:
        return "exceptional"

    sizes = [len(class_elements(degree, t)) for t in types]
    forced = max(range(n), key=lambda i: (sizes[i], i))
    others = [i for i in range(n) if i != forced]
    want = tuple(sorted(types[forced], reverse=True))

    for combo in itertools.product(*[class_elements(degree, types[i]) for i in others]):
        perms: list[tuple[int, ...] | None] = [None] * n
        for i, p in zip(others, combo):
            perms[i] = p
        before = tuple(range(degree))
        for i in range(forced - 1, -1, -1):
            src = perms[i]
            before = tuple(src[before[x]] for x in range(degree))
        after = tuple(range(degree))
        for i in range(n - 1, forced, -1):
            src = perms[i]
            after = tuple(src[after[x]] for x in range(degree))
        prod = tuple(after[before[x]] for x in range(degree))
        if naive_cycle_lengths(prod) != want:
            continue
        inv = [0] * degree
        for a, b in enumerate(prod):
            inv[b] = a
        perms[forced] = tuple(inv)
        seen = [False] * degree
        seen[0] = True
        stack = [0]
        reached = 1
        while stack:
            x = stack.pop()
            for p in perms:
                y = p[x]
                if not seen[y]:
                    seen[y] = True
                    reached += 1
                    stack.append(y)
        if reached == degree:
            return "realizable"
    return "exceptional"


def songxu_datum(k: int, x: int, y: int, first: Partition) -> CandidateDatum:
    """The normalized datum {first, [2..2,2y], [2..2,2x]} of degree 2k."""
    second = Partition([2] * (k - y) + [2 * y])
    third = Partition([2] * (k - x) + [2 * x])
    return CandidateDatum(2 * k, [first, second, third])


def reference_corollaries(datum: CandidateDatum, strict: bool) -> list[dict]:
    """Corollaries 1-3 written out case by case, with their own structure
    detection, as ``FilterReport.to_json`` dicts in the package's order.

    Besides the part-size rules this keeps the length rules: a partition
    outside the pair and the third needs at least s (cor1), 2t (cor2) or 12
    (cor3) parts, or more than that with ``strict``, which over-rejects.
    """
    ps = [p.parts for p in datum.partitions]
    gcds = [math.gcd(*p) for p in ps]
    reports = []
    for i, j in itertools.combinations(range(len(ps)), 2):
        g = math.gcd(gcds[i], gcds[j])
        for s in range(2, g + 1):
            if g % s:
                continue
            dp = datum.degree // s
            others = [m for m in range(len(ps)) if m not in (i, j)]

            def corollary(rule, t, third, capped, cap_name, cap, min_length):
                def report(kind, detail, index):
                    reports.append({"rule": f"{rule}.{kind}", "detail": detail, "pair": [i, j],
                                    "s": s, "t": t, "d_prime": dp, "index": index})

                for idx, bound in capped:
                    if ps[idx][0] > bound:
                        report("parts", f"part {ps[idx][0]} of partition {idx} exceeds {bound}", idx)
                for m in others:
                    if m == third:
                        continue
                    if ps[m][0] > cap:
                        report("parts", f"part {ps[m][0]} of partition {m} exceeds {cap_name}={cap}", m)
                    length = len(ps[m])
                    if length <= min_length if strict else length < min_length:
                        report("length", f"partition {m} has length {length}, needs"
                               f" {'>' if strict else '>='} {min_length}", m)

            corollary("cor1", None, None, (), "d'", dp, s)
            for h in others:
                gh = gcds[h]
                if s == 2 and gh >= 2 and dp % gh == 0:
                    half = 2 * dp // gh
                    corollary("cor2", gh, h, ((i, half), (j, half), (h, dp)), "d'/t", dp // gh, 2 * gh)
                elif s == 3 and dp % 4 == 0 and gh % 2 == 0:
                    capped = ((i, 3 * dp // 4), (j, 3 * dp // 4), (h, dp // 2))
                    corollary("cor3", 2, h, capped, "d'/4", dp // 4, 12)
    return reports
