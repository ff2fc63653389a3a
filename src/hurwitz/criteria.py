"""Structures, the reduction theorems' table, the filters they imply, and
the closed-form double-cover family decider.

A structure (:class:`StructureMatch`) is a pair of partitions whose every
part is divisible by s >= 2.  ``_ARITY`` is the single statement of the three
degree-reducing equivalences on it (thm1: an s-divisible pair; thm2: a
2-divisible pair and a t-divisible third; thm3: a 3-divisible pair and an
all-even third): the divisors each takes, and for every role (pair, third,
other) the scale that divides the source and the number of pieces it splits
into, each summing to the child degree u.  A theorem is admissible when the
pair divisor fits, the third's scale divides its gcd and u is whole;
:func:`detect_structures` stores every such choice on the structure
(``reductions``, from :func:`_admissible`), and the engine's plans, the
children in :mod:`hurwitz.reduction` and :func:`corollary_filter` read it.

The filters are one-sided: they only ever flag a datum as exceptional.

  prop1.case2   pair divisor s = 3 with an even partition needs 4 | d'
  prop1.case3   pair divisor s = 2 needs every other partition gcd to divide d'
  cor1.parts    under thm1 no part of a role's source exceeds scale * u
  cor2.parts    the same under thm2, at t = the third's gcd
  cor3.parts    the same under thm3

Both prop1 cases are a third the table's theorem takes with no whole child
degree.  Balance leaves no other gcd >= 2 under a pair divisor s >= 4, and
none >= 3 under s = 3, so Proposition 1 has no other case.
Nor can another partition have fewer parts than its pieces: the lengths sum
to (n-2)d + 2, the pair has at most 2d/s parts, a t-divisible third at most
d/t, and every partition at most d - 1, so each other partition has at least
d + 2 - 2d/s >= s parts, d + 2 - d/t >= 2t beside a thm2 third, and
5d/6 + 2 >= 12 beside a thm3 third.  So the corollaries' length rules are
not checked.

Both filters take the tuple :func:`detect_structures` returns, so a caller
detects once and passes it to both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .partitions import CandidateDatum, Partition, _length_multisets, rh_defect


@dataclass(frozen=True, slots=True)
class StructureMatch:
    """Two partitions whose every part is divisible by ``divisor``.

    ``subdegree`` is degree/divisor and ``other_gcds`` records, for every
    partition outside the pair, its index and the gcd of its parts.
    ``reductions`` holds every (theorem, third, t, child degree) the table
    admits on it, in :func:`_admissible` order.
    """

    pair: tuple[int, int]
    divisor: int
    subdegree: int
    other_gcds: tuple[tuple[int, int], ...]
    reductions: tuple[tuple[str, int | None, int | None, int], ...]


ROLE_PAIR = "pair"
ROLE_THIRD = "third"
ROLE_OTHER = "other"

_ANY = "any"  # a divisor that may be any value >= 2

# per theorem: the pair divisor s and third divisor t it takes (a fixed int,
# _ANY, or None for absent), and for each role the map of s and t to its
# (scale to rebuild the source, piece count); a theorem with a third role
# takes a third partition
_ARITY = {
    "thm1": (_ANY, None, {ROLE_PAIR: lambda s, t: (s, 1), ROLE_OTHER: lambda s, t: (1, s)}),
    "thm2": (2, _ANY, {ROLE_PAIR: lambda s, t: (2, t), ROLE_THIRD: lambda s, t: (t, 2),
                       ROLE_OTHER: lambda s, t: (1, 2 * t)}),
    "thm3": (3, None, {ROLE_PAIR: lambda s, t: (3, 4), ROLE_THIRD: lambda s, t: (2, 6),
                       ROLE_OTHER: lambda s, t: (1, 12)}),
}


def _shape(theorem: str, s: int, t: int | None) -> dict[str, tuple[int, int]]:
    """Each role's (scale, piece count) for ``theorem`` at ``s`` and ``t``."""
    return {role: rule(s, t) for role, rule in _ARITY[theorem][2].items()}


def _admissible(
    s: int, dp: int, other_gcds: tuple[tuple[int, int], ...]
) -> Iterator[tuple[str, int | None, int | None, int]]:
    """Every (theorem, third, t, child degree) the table admits on a pair
    divisible by ``s`` with d' = ``dp`` and the other partitions' gcds.

    Theorems come in table order, thirds in ``other_gcds`` order and a free t
    from the third's gcd down to 2.
    """
    for theorem, (fixed_s, fixed_t, roles) in _ARITY.items():
        if fixed_s != s and fixed_s != _ANY:  # a detected s is >= 2
            continue
        third_role = roles.get(ROLE_THIRD)
        for h, g in other_gcds if third_role else ((None, 0),):
            for t in range(g, 1, -1) if fixed_t == _ANY else (fixed_t,):
                pieces = roles[ROLE_PAIR](s, t)[1]
                if dp % pieces == 0 and (h is None or g % third_role(s, t)[0] == 0):
                    yield theorem, h, t, dp // pieces


def _role_slots(match: StructureMatch, third: int | None) -> list[tuple[int, str]]:
    """(partition index, role) for pair i, pair j, the third (if any), then the
    other partitions in ``match.other_gcds`` order."""
    i, j = match.pair
    head = [(i, ROLE_PAIR), (j, ROLE_PAIR)] + ([] if third is None else [(third, ROLE_THIRD)])
    return head + [(m, ROLE_OTHER) for m, _ in match.other_gcds if m != third]


@dataclass(frozen=True, slots=True)
class FilterReport:
    """One violated necessary condition, with the structure that raised it."""

    rule: str
    detail: str
    match: StructureMatch
    third_divisor: int | None = None
    index: int | None = None

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "detail": self.detail,
            "pair": list(self.match.pair),
            "s": self.match.divisor,
            "t": self.third_divisor,
            "d_prime": self.match.subdegree,
            "index": self.index,
        }


def detect_structures(datum: CandidateDatum) -> tuple[StructureMatch, ...]:
    """All pairs (i, j) and divisors s >= 2 common to every part of both."""
    if rh_defect(datum) != 0:
        raise ValueError("datum must be balanced before structure detection")
    n = len(datum.partitions)
    gcds = [p.gcd() for p in datum.partitions]
    out = []
    for i, j in combinations(range(n), 2):
        g = math.gcd(gcds[i], gcds[j])
        if g < 2:
            continue
        others = tuple((m, gcds[m]) for m in range(n) if m != i and m != j)
        for s in range(2, g + 1):
            if g % s == 0:
                dp = datum.degree // s
                out.append(StructureMatch((i, j), s, dp, others, tuple(_admissible(s, dp, others))))
    return tuple(out)


# Proposition 1's cases: the theorem that would take a partition as its
# third, and the rule and detail reported when its child degree is not whole
_PROP1 = {
    "thm2": ("prop1.case3", "gcd {g} of partition {m} does not divide d'={dp}"),
    "thm3": ("prop1.case2", "pair divisor 3 with even partition {m} needs 4 | d', but d'={dp}"),
}


def prop1_filter(matches: tuple[StructureMatch, ...]) -> list[FilterReport]:
    """Each partition outside the pair that the pair's theorem would take as
    its third (thm2 at t = its gcd, thm3) must leave a whole child degree."""
    reports = []
    for match in matches:
        s = match.divisor
        admitted = {r[:3] for r in match.reductions}
        for theorem, (rule, detail) in _PROP1.items():
            fixed_s, fixed_t, _ = _ARITY[theorem]
            if fixed_s != s:
                continue
            for m, g in match.other_gcds:
                t = g if fixed_t == _ANY else fixed_t
                if g < 2 or g % _shape(theorem, s, t)[ROLE_THIRD][0]:
                    continue  # not a third this theorem takes
                if (theorem, m, t) not in admitted:
                    reports.append(FilterReport(
                        rule, detail.format(g=g, m=m, dp=match.subdegree),
                        match, third_divisor=g, index=m))
    return reports


# each corollary's rule and the name of the other partitions' cap in d'
_COROLLARY = {
    "thm1": ("cor1.parts", "d'"), "thm2": ("cor2.parts", "d'/t"), "thm3": ("cor3.parts", "d'/4")}


def corollary_filter(datum: CandidateDatum, matches: tuple[StructureMatch, ...]) -> list[FilterReport]:
    """Part-size bounds implied by the datum's structures ``matches``.

    Under every admissible reduction (thm2 only at t = the third's gcd) each
    piece sums to the child degree u, so no part of a role's source may
    exceed that role's scale times u.
    """
    reports = []
    ps = datum.partitions
    for match in matches:
        for theorem, third, t, u in match.reductions:
            if t is not None and (third, t) not in match.other_gcds:
                continue  # a free t only at the third's gcd
            shape = _shape(theorem, match.divisor, t)
            rule, cap_name = _COROLLARY[theorem]
            third_divisor = shape[ROLE_THIRD][0] if third is not None else None
            for m, role in _role_slots(match, third):
                cap = shape[role][0] * u
                biggest = ps[m].parts[0]
                if biggest > cap:
                    bound = f"{cap_name}={cap}" if role == ROLE_OTHER else str(cap)
                    reports.append(FilterReport(
                        rule, f"part {biggest} of partition {m} exceeds {bound}",
                        match, third_divisor=third_divisor, index=m))
    return reports


def songxu_decide(k: int, x: int, y: int, first: Partition) -> bool:
    """Closed-form decision for the double-cover family: whether it is realizable.

    Realizable iff ``first`` splits into two partitions of k (decided by
    :func:`_splits_in_half`) and k / gcd(first) >= max(x, y).  No
    certificate is built; the engine certifies a realizable answer itself.
    """
    if k < 3:
        raise ValueError("k must be at least 3")
    if not (1 <= x <= k and 1 <= y <= k):
        raise ValueError("need 1 <= x, y <= k")
    if len(first) != x + y:
        raise ValueError(f"first partition must have {x + y} parts, has {len(first)}")
    if first.total != 2 * k:
        raise ValueError(f"first partition must sum to {2 * k}, sums to {first.total}")
    return _splits_in_half(first, k) and k >= first.gcd() * max(x, y)


def _splits_in_half(first: Partition, k: int) -> bool:
    """Whether ``first``, of total 2k, splits into two partitions of k.

    A subset sum: bit j of ``sums`` is set when some sub-multiset of the
    parts sums to j, and a sub-multiset summing to k leaves a complement
    that sums to k too.  The splits themselves are never built.
    """
    sums = 1
    for part in first.parts:
        sums |= sums << part
    return bool(sums >> k & 1)


def _half_uniform_excess(p: Partition) -> int | None:
    """If ``p`` is [2,...,2,2y], return y; else None."""
    big = [a for a in p.parts if a != 2]
    if not big:
        return 1
    if len(big) == 1 and big[0] % 2 == 0:
        return big[0] // 2
    return None


def match_songxu_shape(datum: CandidateDatum) -> tuple[int, int, int, Partition] | None:
    """Detect the double-cover family shape on a balanced datum; returns
    (k, x, y, first) or None.  Balance gives ``first`` its x + y parts:
    [2,...,2,2y] has k - y + 1, and the three lengths sum to 2k + 2."""
    if len(datum.partitions) != 3 or datum.degree % 2 or datum.degree < 6:
        return None
    k = datum.degree // 2
    ps = datum.partitions
    for a, b in ((0, 1), (0, 2), (1, 2)):
        y = _half_uniform_excess(ps[a])
        x = _half_uniform_excess(ps[b])
        if y is not None and x is not None:
            return (k, x, y, ps[3 - a - b])
    return None


def family_length_budget(s: int, k: int, t: int) -> int:
    """Total length the free partitions must have next to two [s^k] blocks."""
    return (t * s - 2) * k + 2


def family_instances(s: int, k: int, t: int) -> Iterator[tuple[CandidateDatum, str]]:
    """All family data (sk, {free..., [s^k], [s^k]}) with some free part
    >= k+1, the shape ``cor1.parts`` rejects.

    Enumerates every multiset of ``t`` nontrivial free partitions of sk that
    meets the exact length budget and contains a big part; yields each
    assembled datum with the rule it is expected to trip.
    """
    if s < 2 or k < 2 or t < 1:
        raise ValueError("need s >= 2, k >= 2, t >= 1")
    uniform = Partition.of([s] * k)
    for chosen in _length_multisets(s * k, t, family_length_budget(s, k, t)):
        if any(p.parts[0] >= k + 1 for p in chosen):
            yield CandidateDatum.make(s * k, [*chosen, uniform, uniform]), "cor1.parts"
