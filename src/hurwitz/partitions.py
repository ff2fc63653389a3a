"""Integer partitions and candidate branching data.

Everything downstream works with two immutable values: a :class:`Partition`
(the multiset of local degrees over one branch point, stored as a
non-increasing tuple) and a :class:`CandidateDatum` (a degree together with
the nontrivial partitions over all branch points).  Each has one
constructor, which takes its input in any order and stores it in canonical
form, so equal values compare equal.  This module owns parsing, the sphere
branch-balance check, and the split algebra that the degree reductions run
on.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterator


class DatumParseError(ValueError):
    """Malformed datum text.  ``position`` is a 0-based offset into the input."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at offset {position})")
        self.position = position


@dataclass(frozen=True, slots=True)
class Partition:
    """A multiset of positive integers.  ``Partition(parts)`` takes any
    nonempty iterable of positive ints and stores it sorted non-increasing."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        parts = tuple(self.parts)
        for p in parts:
            if type(p) is not int or p < 1:
                raise ValueError(f"parts must be positive ints, got {p!r}")
        if not parts:
            raise ValueError("parts must be nonempty")
        object.__setattr__(self, "parts", tuple(sorted(parts, reverse=True)))

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
        return Partition(p // s for p in self.parts)

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

    ``CandidateDatum(degree, partitions)`` takes partitions, or iterables of
    parts, in any order; it drops the trivial ones and stores the rest
    sorted by :attr:`Partition.sort_key`, so equal data compare equal.
    """

    degree: int
    partitions: tuple[Partition, ...]

    def __post_init__(self) -> None:
        if type(self.degree) is not int or self.degree < 1:
            raise ValueError(f"degree must be a positive int, got {self.degree!r}")
        kept = []
        for p in self.partitions:
            p = p if isinstance(p, Partition) else Partition(p)
            if p.total != self.degree:
                raise ValueError(f"partition {p} sums to {p.total}, expected degree {self.degree}")
            if not p.trivial:
                kept.append(p)
        kept.sort(key=lambda p: p.sort_key)
        object.__setattr__(self, "partitions", tuple(kept))

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
    rejects, and text whose datum cannot be built (a zero, a partition of
    the wrong sum, an int too long for ``int()``), goes to
    :func:`_scan_datum`, which words the error.
    """
    match = _DATUM_TEXT.fullmatch(text)
    if match is not None:
        body = "".join(match[2].split())  # "[a,b][c,d]..."
        rows = body[1:-1].split("][") if body else []
        try:
            return CandidateDatum(int(match[1]), [[int(x) for x in row.split(",")] for row in rows])
        except ValueError:
            pass
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
                f"partition {Partition(parts)} sums to {total}, expected degree {degree}", pos
            )
    return CandidateDatum(degree, (parts for _, parts in collected))


def decompose(partition: Partition, count: int) -> tuple[tuple[Partition, ...], ...]:
    """All distinct unordered splits of ``partition`` into ``count`` groups of equal total.

    ``count`` must be positive and divide the total, else ValueError.  Each
    split is a tuple of groups in sort-key order.  Groups may be trivial
    (all ones).  Returns the empty tuple when no split exists, e.g. when
    some part exceeds a group's total.  One rule makes every split appear
    once: the groups are filled one at a time, each takes the largest part
    left, and none is lexicographically greater than the group before it,
    so a split is built only with its groups in non-increasing order.
    """
    if count < 1 or partition.total % count:
        raise ValueError(f"{count} equal groups cannot reassemble a total of {partition.total}")
    total = partition.total // count

    parts = partition.parts
    values = sorted(set(parts), reverse=True)
    found: list[tuple[Partition, ...]] = []
    # a depth-first walk over the distinct values, largest first, of (groups
    # done, copies left of each value, the group's copies of the values so
    # far, room, bound).  Copy counts in value order compare as the parts
    # do, so ``bound`` is the group before while ``group`` is a prefix of
    # it.  Branches take the most copies first and are pushed in reverse,
    # so they pop in order.
    stack: list[tuple] = [((), tuple(map(parts.count, values)), (), total, None)]
    while stack:
        done, left, group, room, bound = stack.pop()
        i = len(group)
        if room == 0:
            group += (0,) * (len(values) - i)
            done += (Partition(v for v, c in zip(values, group) for _ in range(c)),)
            if len(done) == count:
                found.append(tuple(sorted(done, key=lambda p: p.sort_key)))
            else:  # the next group takes the largest value left
                first = next(k for k, c in enumerate(left) if c)
                stack.append((done, left, (0,) * first, total, None if any(group[:first]) else group))
            continue
        v = values[i]
        most = min(left[i], room // v) if bound is None else min(left[i], room // v, bound[i])
        least = 1 if room == total else 0
        if i == len(values) - 1:  # the last value must fill the room
            least = most if most * v == room else most + 1
        stack += [(done, left[:i] + (left[i] - c,) + left[i + 1:], group + (c,), room - c * v,
                   bound if bound and c == bound[i] else None)
                  for c in range(least, most + 1)]
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
