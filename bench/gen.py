"""Input generator for the benchmark, independent of the library.

It has its own partition enumeration, balance rule and shared-divisor
test, so that a change to ``hurwitz.partitions`` cannot silently change
what the benchmark feeds the program.  Data are plain text in the
library's canonical form; the program only ever receives that text.
"""

from __future__ import annotations

import hashlib
import math
from itertools import combinations_with_replacement

Datum = tuple[int, tuple[tuple[int, ...], ...]]


def partitions(total: int, bound: int | None = None):
    """Partitions of ``total`` as non-increasing tuples."""
    bound = total if bound is None else bound
    if total == 0:
        yield ()
        return
    for first in range(min(total, bound), 0, -1):
        for rest in partitions(total - first, first):
            yield (first,) + rest


def balanced(degree: int, parts: tuple[tuple[int, ...], ...]) -> bool:
    """Sphere branch balance: the lengths sum to (n - 2) d + 2."""
    return sum(len(p) for p in parts) == (len(parts) - 2) * degree + 2


def shares_divisor(parts: tuple[tuple[int, ...], ...]) -> bool:
    """True when two partitions have a common divisor >= 2 of all their parts."""
    gcds = [math.gcd(*p) for p in parts]
    return any(
        math.gcd(gcds[i], gcds[j]) >= 2
        for i in range(len(gcds))
        for j in range(i + 1, len(gcds))
    )


def candidates(degree: int, n: int) -> list[Datum]:
    """Every balanced multiset of ``n`` nontrivial partitions of ``degree``.

    Sorted by (length, parts) within a datum and in that order overall,
    which is the library's canonical order.
    """
    options = sorted((p for p in partitions(degree) if p[0] > 1), key=lambda p: (len(p), p))
    out = []

    def pick(start: int, chosen: tuple, length_left: int) -> None:
        slots = n - len(chosen)
        if slots == 0:
            if balanced(degree, chosen):
                out.append((degree, chosen))
            return
        for i in range(start, len(options)):
            # options are sorted by length, so the rest are no shorter
            if slots * len(options[i]) > length_left:
                break
            pick(i, chosen + (options[i],), length_left - len(options[i]))

    pick(0, (), (n - 2) * degree + 2)
    return out


def family(s: int, k: int, t: int) -> list[Datum]:
    """Doubled uniform-fibre data with an oversized free part: all exceptional.

    ``t`` free partitions of ``s*k`` whose lengths fill the balance budget,
    at least one with a part >= k + 1, next to two copies of ``[s]*k``.
    """
    degree = s * k
    uniform = (s,) * k
    options = sorted((p for p in partitions(degree) if p[0] > 1), key=lambda p: (len(p), p))
    out = []
    for frees in combinations_with_replacement(options, t):
        if not any(p[0] >= k + 1 for p in frees):
            continue
        parts = tuple(sorted(frees + (uniform, uniform), key=lambda p: (len(p), p)))
        if balanced(degree, parts):
            out.append((degree, parts))
    return out


def render(datum: Datum) -> str:
    degree, parts = datum
    return f"{degree}: " + " ".join("[" + ",".join(map(str, p)) + "]" for p in parts)


def digest(texts: list[str]) -> str:
    """Short content hash of an ordered input list."""
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()[:16]

