"""Integer partitions and candidate branching data.

Everything downstream works with two immutable values: a :class:`Partition`
(the multiset of local degrees over one branch point, stored as a
non-increasing tuple) and a :class:`CandidateDatum` (a degree together with
the nontrivial partitions over all branch points).  This module owns
parsing, normalization, the sphere branch-balance check, and the
split/merge algebra that the degree reductions run on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator


class DatumParseError(ValueError):
    """Malformed datum text.  ``position`` is a 0-based offset into the input."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at offset {position})")
        self.position = position


@dataclass(frozen=True, slots=True)
class Partition:
    """A multiset of positive integers, kept sorted non-increasing."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("a partition needs at least one part")
        prev = None
        for p in self.parts:
            if not isinstance(p, int) or p < 1:
                raise ValueError(f"parts must be positive integers, got {p!r}")
            if prev is not None and p > prev:
                raise ValueError("parts must be non-increasing; use Partition.of()")
            prev = p

    @classmethod
    def of(cls, parts: Iterable[int]) -> "Partition":
        """Build a partition from any iterable of positive integers."""
        return cls(tuple(sorted(parts, reverse=True)))

    @property
    def total(self) -> int:
        return sum(self.parts)

    @property
    def trivial(self) -> bool:
        """True iff every part equals 1 (an unbranched fiber)."""
        return self.parts[0] == 1

    def gcd(self) -> int:
        return math.gcd(*self.parts)

    def scaled(self, k: int) -> "Partition":
        return Partition(tuple(p * k for p in self.parts))

    def divided(self, s: int) -> "Partition":
        """Divide every part by ``s``; every part must be divisible."""
        for p in self.parts:
            if p % s:
                raise ValueError(f"part {p} is not divisible by {s}")
        return Partition(tuple(p // s for p in self.parts))

    @property
    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        """Canonical order used everywhere: length first, then lexicographic."""
        return (len(self.parts), self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __str__(self) -> str:
        return "[" + ",".join(str(p) for p in self.parts) + "]"


@dataclass(frozen=True, slots=True)
class CandidateDatum:
    """A degree with the multiset of nontrivial partitions over its branch points.

    Instances are canonical: partitions are sorted by :attr:`Partition.sort_key`
    and trivial partitions are never stored, so equal data compare equal.
    """

    degree: int
    partitions: tuple[Partition, ...]

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError("degree must be positive")
        prev = None
        for p in self.partitions:
            if p.trivial:
                raise ValueError(f"trivial partition {p} must be dropped")
            if p.total != self.degree:
                raise ValueError(f"partition {p} sums to {p.total}, expected degree {self.degree}")
            if prev is not None and p.sort_key < prev:
                raise ValueError("partitions out of canonical order; use CandidateDatum.make()")
            prev = p.sort_key

    @classmethod
    def make(cls, degree: int, partitions: Iterable[Partition | Iterable[int]]) -> "CandidateDatum":
        """Normalize and build: sort parts, drop trivial partitions, sort the datum."""
        norm = []
        for p in partitions:
            part = p if isinstance(p, Partition) else Partition.of(p)
            if not part.trivial:
                norm.append(part)
        norm.sort(key=lambda p: p.sort_key)
        return cls(degree, tuple(norm))

    def render(self) -> str:
        """Canonical text form, reparseable by :func:`parse_datum`."""
        body = " ".join(str(p) for p in self.partitions)
        return f"{self.degree}: {body}" if body else f"{self.degree}:"

    def __str__(self) -> str:
        return self.render()


def rh_defect(datum: CandidateDatum) -> int:
    """Branch balance for sphere-to-sphere covers: (n-2)d + 2 - sum of lengths.

    Zero exactly when the datum is a valid candidate; trivial partitions
    (which are never stored) would contribute nothing.
    """
    n = len(datum.partitions)
    return (n - 2) * datum.degree + 2 - sum(len(p) for p in datum.partitions)


def parse_datum(text: str) -> CandidateDatum:
    """Parse ``"degree: [a,b] [c,d] ..."`` into a normalized datum.

    Grammar: ``datum := degree ":" partition*`` with
    ``partition := "[" int ("," int)* "]"``; integers are positive and
    written in the ASCII digits 0-9.  Errors report a 0-based offset into
    the input.
    """
    i = 0
    n = len(text)

    def skip_ws() -> None:
        nonlocal i
        while i < n and text[i].isspace():
            i += 1

    def read_int(what: str) -> int:
        nonlocal i
        start = i
        while i < n and "0" <= text[i] <= "9":
            i += 1
        if i == start:
            raise DatumParseError(f"expected {what}", start)
        value = int(text[start:i])
        if value == 0:
            raise DatumParseError(f"{what} must be positive, got 0", start)
        return value

    skip_ws()
    degree = read_int("a degree")
    skip_ws()
    if i >= n or text[i] != ":":
        raise DatumParseError("expected ':' after the degree", i)
    i += 1
    skip_ws()

    collected: list[tuple[int, list[int]]] = []
    while i < n:
        if text[i] != "[":
            raise DatumParseError("expected '['", i)
        part_pos = i
        i += 1
        parts = []
        skip_ws()
        parts.append(read_int("a part"))
        skip_ws()
        while i < n and text[i] == ",":
            i += 1
            skip_ws()
            parts.append(read_int("a part"))
            skip_ws()
        if i >= n or text[i] != "]":
            raise DatumParseError("expected ',' or ']'", i)
        i += 1
        collected.append((part_pos, parts))
        skip_ws()

    for pos, parts in collected:
        total = sum(parts)
        if total != degree:
            raise DatumParseError(
                f"partition {Partition.of(parts)} sums to {total}, expected degree {degree}", pos
            )
    return CandidateDatum.make(degree, (parts for _, parts in collected))


def merged(partitions: Iterable[Partition]) -> Partition:
    """Multiset union of several partitions."""
    parts: list[int] = []
    for p in partitions:
        parts.extend(p.parts)
    return Partition.of(parts)


def decompose(partition: Partition, count: int, total: int) -> tuple[tuple[Partition, ...], ...]:
    """All distinct unordered splits of ``partition`` into ``count`` groups summing to ``total``.

    Each split is a tuple of groups in sort-key order.  Groups may be
    trivial (all ones).  Returns the empty tuple when no split exists, e.g.
    when some part exceeds ``total``.  One rule makes every split appear
    once: the groups are filled one at a time, each starts with the largest
    part left, and none is lexicographically greater than the group before
    it, so a split is built only with its groups in non-increasing order.
    """
    if count < 1 or total < 1:
        raise ValueError("count and total must be positive")
    if count * total != partition.total:
        raise ValueError(f"{count} groups of {total} cannot reassemble a total of {partition.total}")

    parts = partition.parts
    free = [True] * len(parts)
    found: list[tuple[Partition, ...]] = []

    def fill(done: tuple, group: tuple, start: int, room: int, bound: tuple | None) -> None:
        # extend ``group`` with free parts from index ``start`` on; ``bound`` is
        # the group before it while ``group`` is a prefix of that group
        if room == 0:
            done += (Partition(group),)
            if len(done) == count:
                found.append(tuple(sorted(done, key=lambda p: p.sort_key)))
            else:
                fill(done, (), free.index(True), total, done[-1].parts)
            return
        last = 0
        for k in range(start, len(parts)):
            p = parts[k]
            if free[k] and p <= room and p != last and (bound is None or p <= bound[len(group)]):
                last = p  # an equal part here would repeat this branch
                free[k] = False
                fill(done, group + (p,), k + 1, room - p,
                     bound if bound and p == bound[len(group)] else None)
                free[k] = True
            if not group:
                break  # a group starts with the largest part left

    fill((), (), 0, total, None)
    return tuple(found)


def partitions_of(total: int) -> Iterator[tuple[int, ...]]:
    """All partitions of ``total`` as non-increasing tuples, in descending-lex order."""

    def gen(remaining: int, bound: int, prefix: list[int]) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield tuple(prefix)
            return
        for p in range(min(bound, remaining), 0, -1):
            prefix.append(p)
            yield from gen(remaining - p, p, prefix)
            prefix.pop()

    yield from gen(total, total, [])


def nontrivial_partitions(total: int) -> list[Partition]:
    """Nontrivial partitions of ``total``, sorted in the canonical datum order."""
    out = [Partition(t) for t in partitions_of(total) if t[0] > 1]
    out.sort(key=lambda p: p.sort_key)
    return out


def enumerate_candidates(degree: int, branch_points: int) -> Iterator[CandidateDatum]:
    """Every candidate datum with the given degree and number of branch points.

    Yields each balanced multiset of nontrivial partitions exactly once, in
    canonical order: the partitions' lengths must sum to (n-2)d + 2.
    """
    if degree < 2:
        raise ValueError("degree must be at least 2")
    if branch_points < 1:
        raise ValueError("need at least one branch point")
    target = (branch_points - 2) * degree + 2
    for chosen in _length_multisets(degree, branch_points, target):
        yield CandidateDatum(degree, chosen)


def _length_multisets(total: int, slots: int, budget: int) -> Iterator[tuple[Partition, ...]]:
    """Every multiset of ``slots`` nontrivial partitions of ``total`` whose
    lengths sum to ``budget``, as canonical-order tuples yielded in canonical
    order.  A running length budget prunes the chooser."""
    options = nontrivial_partitions(total)
    lengths = [len(p) for p in options]
    longest = max(lengths, default=0)
    chosen: list[Partition] = []

    def rec(start: int, slots: int, left: int) -> Iterator[tuple[Partition, ...]]:
        if slots == 0:
            if left == 0:
                yield tuple(chosen)
            return
        for idx in range(start, len(options)):
            length = lengths[idx]
            rest = left - length
            if rest < (slots - 1) * length:
                break  # options are sorted by length; later ones are no shorter
            if rest > (slots - 1) * longest:
                continue
            chosen.append(options[idx])
            yield from rec(idx, slots - 1, rest)
            chosen.pop()

    yield from rec(0, slots, budget)
