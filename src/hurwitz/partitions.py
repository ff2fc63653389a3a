"""Integer partitions and candidate branching data.

Everything downstream works with two immutable values: a :class:`Partition`
(the multiset of local degrees over one branch point, stored as a
non-increasing tuple) and a :class:`CandidateDatum` (a degree together with
the nontrivial partitions over all branch points).  This module owns
parsing, normalization, the sphere branch-balance check, and the
split algebra that the degree reductions run on.
"""

from __future__ import annotations

import math
import re
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
        if type(self.parts) is not tuple or not self.parts:
            raise ValueError(f"parts must be a nonempty tuple, got {self.parts!r}")
        prev = None
        for p in self.parts:
            if type(p) is not int or p < 1:
                raise ValueError(f"parts must be positive ints, got {p!r}")
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
        if type(self.degree) is not int or self.degree < 1:
            raise ValueError(f"degree must be a positive int, got {self.degree!r}")
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


# well-formed datum text: the degree, then the partitions' text, in the
# space (\s) and digit ([0-9]) tokens that _scan_datum reads one at a time
_DATUM_TEXT = re.compile(r"\s*([0-9]+)\s*:\s*((?:\[\s*[0-9]+\s*(?:,\s*[0-9]+\s*)*\]\s*)*)")
_SPACE = re.compile(r"\s*")
_DIGITS = re.compile(r"[0-9]*")


def parse_datum(text: str) -> CandidateDatum:
    """Parse ``"degree: [a,b] [c,d] ..."`` into a normalized datum.

    Grammar: ``datum := degree ":" partition*`` with
    ``partition := "[" int ("," int)* "]"``; integers are positive and
    written in the ASCII digits 0-9.  Errors report a 0-based offset into
    the input.  One regular expression accepts well-formed text; text it
    rejects, a zero, a partition of the wrong sum or an int too long for
    ``int()`` goes to :func:`_scan_datum`, which words the error.
    """
    match = _DATUM_TEXT.fullmatch(text)
    if match is not None:
        body = "".join(match[2].split())  # "[a,b][c,d]..."
        rows = body[1:-1].split("][") if body else []
        try:
            degree = int(match[1])
            rows = [[int(x) for x in row.split(",")] for row in rows]
        except ValueError:  # more digits than the interpreter converts
            return _scan_datum(text)
        if degree and all(sum(row) == degree and 0 not in row for row in rows):
            return CandidateDatum.make(degree, rows)
    return _scan_datum(text)


def _scan_datum(text: str) -> CandidateDatum:
    """:func:`parse_datum` one token at a time, raising
    :class:`DatumParseError` at the offset of the first fault."""

    def skip(i: int) -> int:
        return _SPACE.match(text, i).end()

    def read_int(i: int, what: str) -> tuple[int, int]:
        # the positive int at offset i, and the offset past it and any space
        end = _DIGITS.match(text, i).end()
        if end == i:
            raise DatumParseError(f"expected {what}", i)
        try:
            value = int(text[i:end])
        except ValueError:  # more digits than the interpreter converts
            raise DatumParseError(f"{what} has too many digits", i) from None
        if value == 0:
            raise DatumParseError(f"{what} must be positive, got 0", i)
        return value, skip(end)

    degree, i = read_int(skip(0), "a degree")
    if not text.startswith(":", i):
        raise DatumParseError("expected ':' after the degree", i)
    i = skip(i + 1)

    collected: list[tuple[int, list[int]]] = []
    while i < len(text):
        if text[i] != "[":
            raise DatumParseError("expected '['", i)
        pos, parts = i, []
        while not parts or text.startswith(",", i):  # one part, then one per ','
            part, i = read_int(skip(i + 1), "a part")
            parts.append(part)
        if not text.startswith("]", i):
            raise DatumParseError("expected ',' or ']'", i)
        collected.append((pos, parts))
        i = skip(i + 1)

    for pos, parts in collected:
        total = sum(parts)
        if total != degree:
            raise DatumParseError(
                f"partition {Partition.of(parts)} sums to {total}, expected degree {degree}", pos
            )
    return CandidateDatum.make(degree, (parts for _, parts in collected))


def decompose(partition: Partition, count: int) -> tuple[tuple[Partition, ...], ...]:
    """All distinct unordered splits of ``partition`` into ``count`` groups of equal total.

    ``count`` must be positive and divide the total, else ValueError.  Each
    split is a tuple of groups in sort-key order.  Groups may be trivial
    (all ones).  Returns the empty tuple when no split exists, e.g. when
    some part exceeds a group's total.  One rule makes every split appear
    once: the groups are filled one at a time, each starts with the largest
    part left, and none is lexicographically greater than the group before
    it, so a split is built only with its groups in non-increasing order.
    """
    if count < 1 or partition.total % count:
        raise ValueError(f"{count} equal groups cannot reassemble a total of {partition.total}")
    total = partition.total // count

    parts = partition.parts
    found: list[tuple[Partition, ...]] = []
    # a depth-first walk of (groups done, group, next index, room, bound, used
    # parts as bits); ``bound`` is the group before while ``group`` is a
    # prefix of it.  Branches are pushed in reverse, so they pop in order.
    stack: list[tuple] = [((), (), 0, total, None, 0)]
    while stack:
        done, group, start, room, bound, used = stack.pop()
        if room == 0:
            done += (Partition(group),)
            if len(done) == count:
                found.append(tuple(sorted(done, key=lambda p: p.sort_key)))
            else:  # the next group starts at the first free part
                first = (~used & (used + 1)).bit_length() - 1
                stack.append((done, (), first, total, done[-1].parts, used))
            continue
        branches = []
        last = 0
        top = room if bound is None else min(room, bound[len(group)])
        for k in range(start, len(parts)):
            p = parts[k]
            if p <= top and p != last and not used >> k & 1:
                last = p  # an equal part here would repeat this branch
                branches.append((done, group + (p,), k + 1, room - p,
                                 bound if bound and p == bound[len(group)] else None,
                                 used | 1 << k))
            if not group:
                break  # a group starts with the largest part left
        stack += reversed(branches)
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
