"""Fast necessary-condition filters and the closed-form double-cover family decider.

The filters are one-sided: they only ever flag a datum as exceptional, never
as realizable.  Each rule corresponds to a divisibility or size constraint
that any realizable structured datum must satisfy:

  prop1.case2   pair divisor s = 3 with an even partition needs 4 | d'
  prop1.case3   pair divisor s = 2 needs every other partition gcd to divide d'
  cor1.parts    under an s-pair, non-paired parts are bounded by d' = d/s
  cor1.length   under an s-pair, non-paired lengths are at least s
  cor2.parts    s=2 pair plus a t-divisible partition (t | d') bounds paired
                parts by 2d'/t, the t-partition by d', the rest by d'/t
  cor2.length   same structure: remaining lengths are at least 2t
  cor3.parts    s=3 pair plus an even partition with 4 | d' bounds paired
                parts by 3d'/4, the even partition by d'/2, the rest by d'/4
  cor3.length   same structure: remaining lengths are at least 12

Balance leaves no other gcd >= 2 under a pair divisor s >= 4, and none >= 3
under s = 3, so Proposition 1's rules for those cases have nothing to reject.

Both filters take the tuple :func:`detect_structures` returns
(``prop1_filter(matches)``, ``corollary_filter(datum, matches, strict)``), so
a caller detects once and passes it to both.

Length rules default to the provable weak bounds (>=), the only form the
decision engine and ``verify`` use.  The strict form (>) over-rejects:
(4, {[2,2],[2,2],[2,2]}) is realizable with a non-paired length equal to s,
so only the scan's audit applies it, to report the data it would misjudge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .partitions import CandidateDatum, Partition, _length_multisets, decompose, rh_defect
from .verdicts import EXCEPTIONAL, REALIZABLE, Verdict


@dataclass(frozen=True, slots=True)
class StructureMatch:
    """Two partitions whose every part is divisible by ``divisor``.

    ``subdegree`` is degree/divisor and ``other_gcds`` records, for every
    partition outside the pair, its index and the gcd of its parts.
    """

    pair: tuple[int, int]
    divisor: int
    subdegree: int
    other_gcds: tuple[tuple[int, int], ...]


@dataclass(frozen=True, slots=True)
class FilterReport:
    """One violated necessary condition, with the structure that raised it."""

    rule: str
    detail: str
    pair: tuple[int, int]
    divisor: int
    subdegree: int
    third_divisor: int | None = None
    index: int | None = None

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "detail": self.detail,
            "pair": list(self.pair),
            "s": self.divisor,
            "t": self.third_divisor,
            "d_prime": self.subdegree,
            "index": self.index,
        }


def detect_structures(datum: CandidateDatum) -> tuple[StructureMatch, ...]:
    """All pairs (i, j) and divisors s >= 2 common to every part of both."""
    if rh_defect(datum) != 0:
        raise ValueError("datum must be balanced before structure detection")
    ps = datum.partitions
    out = []
    for i, j in combinations(range(len(ps)), 2):
        g = math.gcd(ps[i].gcd(), ps[j].gcd())
        for s in range(2, g + 1):
            if g % s:
                continue
            others = tuple((m, ps[m].gcd()) for m in range(len(ps)) if m != i and m != j)
            out.append(StructureMatch((i, j), s, datum.degree // s, others))
    return tuple(out)


def prop1_filter(matches: tuple[StructureMatch, ...]) -> list[FilterReport]:
    """Divisibility constraints tying the pair divisor s to the other gcds."""
    reports = []
    for match in matches:
        s = match.divisor
        dp = match.subdegree
        # nothing to check for s >= 4, nor for a gcd g >= 3 under s = 3: the
        # pair's lengths (<= 2d/s) and that partition's (<= d/g) sum to <= d and
        # each other length is <= d - 1, short of the (n-2)d + 2 balance needs
        if s > 3:
            continue
        for m, g in match.other_gcds:
            if g < 2:
                continue
            if s == 3:
                if dp % 4:
                    reports.append(FilterReport(
                        "prop1.case2",
                        f"pair divisor 3 with even partition {m} needs 4 | d', but d'={dp}",
                        match.pair, s, dp, third_divisor=g, index=m))
            elif dp % g:
                reports.append(FilterReport(
                    "prop1.case3",
                    f"gcd {g} of partition {m} does not divide d'={dp}",
                    match.pair, s, dp, third_divisor=g, index=m))
    return reports


def corollary_filter(
    datum: CandidateDatum, matches: tuple[StructureMatch, ...], strict: bool = False
) -> list[FilterReport]:
    """Part-size and length bounds implied by the datum's structures ``matches``.

    ``strict`` switches the length rules from the provable weak form (>=) to
    the strict form (>); see the module docstring for why weak is default.
    """
    reports = []
    ps = datum.partitions
    for match in matches:
        i, j = match.pair
        s = match.divisor
        dp = match.subdegree
        _corollary(reports, ps, match, "cor1", None, None, (), "d'", dp, s, strict)
        for h, g in match.other_gcds:
            if s == 2 and g >= 2 and dp % g == 0:
                capped = ((i, 2 * dp // g), (j, 2 * dp // g), (h, dp))
                _corollary(reports, ps, match, "cor2", g, h, capped, "d'/t", dp // g, 2 * g, strict)
            elif s == 3 and dp % 4 == 0 and g % 2 == 0:
                capped = ((i, 3 * dp // 4), (j, 3 * dp // 4), (h, dp // 2))
                _corollary(reports, ps, match, "cor3", 2, h, capped, "d'/4", dp // 4, 12, strict)
    return reports


def _corollary(reports, ps, match, rule, t, third, capped, cap_name, cap, min_length, strict):
    """Append one corollary's reports for ``match`` with third partition
    ``third`` (None for cor1) and its divisor ``t``.

    ``capped`` holds (index, bound) pairs: that partition's largest part
    must not exceed the bound.  Every other partition outside the pair and
    the third must have parts of at most ``cap`` (named ``cap_name`` in the
    detail) and a length of at least ``min_length`` (more when ``strict``).
    """
    pair, s, dp = match.pair, match.divisor, match.subdegree
    for idx, bound in capped:
        biggest = ps[idx].parts[0]
        if biggest > bound:
            reports.append(FilterReport(
                f"{rule}.parts", f"part {biggest} of partition {idx} exceeds {bound}",
                pair, s, dp, third_divisor=t, index=idx))
    for m, _ in match.other_gcds:
        if m == third:
            continue
        biggest = ps[m].parts[0]
        if biggest > cap:
            reports.append(FilterReport(
                f"{rule}.parts", f"part {biggest} of partition {m} exceeds {cap_name}={cap}",
                pair, s, dp, third_divisor=t, index=m))
        length = len(ps[m])
        if (length <= min_length) if strict else (length < min_length):
            reports.append(FilterReport(
                f"{rule}.length",
                f"partition {m} has length {length}, needs {'>' if strict else '>='} {min_length}",
                pair, s, dp, third_divisor=t, index=m))


def songxu_decide(k: int, x: int, y: int, first: Partition) -> Verdict:
    """Closed-form decision for the double-cover family.

    Realizable iff ``first`` splits into two partitions of k and
    k / gcd(first) >= max(x, y).  The method tag is ``songxu``; no
    certificate is attached at this level.
    """
    if k < 3:
        raise ValueError("k must be at least 3")
    if not (1 <= x <= k and 1 <= y <= k):
        raise ValueError("need 1 <= x, y <= k")
    if len(first) != x + y:
        raise ValueError(f"first partition must have {x + y} parts, has {len(first)}")
    if first.total != 2 * k:
        raise ValueError(f"first partition must sum to {2 * k}, sums to {first.total}")
    ok = bool(decompose(first, 2, k)) and k >= first.gcd() * max(x, y)
    return Verdict(REALIZABLE if ok else EXCEPTIONAL, "songxu")


def _half_uniform_excess(p: Partition, k: int) -> int | None:
    """If ``p`` is [2,...,2,2y] of total 2k, return y; else None."""
    if p.total != 2 * k:
        return None
    big = [a for a in p.parts if a != 2]
    if not big:
        return 1
    if len(big) == 1 and big[0] % 2 == 0:
        y = big[0] // 2
        return y if 1 <= y <= k else None
    return None


def match_songxu_shape(datum: CandidateDatum) -> tuple[int, int, int, Partition] | None:
    """Detect the double-cover family shape; returns (k, x, y, first) or None."""
    if len(datum.partitions) != 3 or datum.degree % 2 or datum.degree < 6:
        return None
    k = datum.degree // 2
    ps = datum.partitions
    for a, b in ((0, 1), (0, 2), (1, 2)):
        rest = 3 - a - b
        y = _half_uniform_excess(ps[a], k)
        x = _half_uniform_excess(ps[b], k)
        if y is None or x is None:
            continue
        first = ps[rest]
        if len(first) != x + y or k < max(x, y):
            continue
        return (k, x, y, first)
    return None


def family_length_budget(s: int, k: int, t: int) -> int:
    """Total length the free partitions must have next to two [s^k] blocks."""
    return (t * s - 2) * k + 2


def family_datum(
    s: int, k: int, t: int, free_partitions: Iterator[Partition] | list[Partition]
) -> tuple[CandidateDatum, str | None]:
    """Assemble (sk, {free..., [s^k], [s^k]}) and its expected outcome.

    The free partitions must be ``t`` nontrivial partitions of ``sk`` whose
    lengths sum to the exact budget; anything else is an error.  When some
    free part is at least k+1 the datum is exceptional by ``cor1.parts`` and
    that rule is returned; otherwise no verdict is asserted.
    """
    if s < 2 or k < 2 or t < 1:
        raise ValueError("need s >= 2, k >= 2, t >= 1")
    frees = [p if isinstance(p, Partition) else Partition.of(p) for p in free_partitions]
    if len(frees) != t:
        raise ValueError(f"expected {t} free partitions, got {len(frees)}")
    degree = s * k
    for p in frees:
        if p.total != degree:
            raise ValueError(f"free partition {p} does not sum to {degree}")
        if p.trivial:
            raise ValueError(f"free partition {p} is trivial")
    budget = family_length_budget(s, k, t)
    have = sum(len(p) for p in frees)
    if have != budget:
        raise ValueError(f"free partition lengths sum to {have}, the budget is {budget}")
    uniform = Partition.of([s] * k)
    datum = CandidateDatum.make(degree, frees + [uniform, uniform])
    assert rh_defect(datum) == 0
    expected = "cor1.parts" if any(p.parts[0] >= k + 1 for p in frees) else None
    return datum, expected


def family_instances(s: int, k: int, t: int) -> Iterator[tuple[CandidateDatum, str]]:
    """All family data with some free part >= k+1 (the exceptional shape).

    Enumerates every multiset of ``t`` nontrivial partitions of sk that
    meets the exact length budget and contains a big part; yields each
    assembled datum with the rule it is expected to trip.
    """
    if s < 2 or k < 2 or t < 1:
        raise ValueError("need s >= 2, k >= 2, t >= 1")
    for chosen in _length_multisets(s * k, t, family_length_budget(s, k, t)):
        if any(p.parts[0] >= k + 1 for p in chosen):
            yield family_datum(s, k, t, list(chosen))[0], "cor1.parts"
