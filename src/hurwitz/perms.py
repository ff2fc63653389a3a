"""Permutations of {0,...,d-1} as image tuples, with cycle-type utilities."""

from __future__ import annotations

from collections import Counter
from math import factorial
from typing import Iterable, Sequence

from .partitions import Partition

Perm = tuple[int, ...]


def identity(degree: int) -> Perm:
    return tuple(range(degree))


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for x, y in enumerate(p):
        inv[y] = x
    return tuple(inv)


def product(perms: Iterable[Perm], degree: int) -> Perm:
    """Compose left to right, the first applied last (so ``product([p, q], d)``
    applies ``q`` first, then ``p``); degrees are not checked."""
    acc = list(range(degree))
    for p in perms:
        acc = [acc[y] for y in p]
    return tuple(acc)


def cycles(p: Perm) -> list[tuple[int, ...]]:
    """Disjoint cycles (fixed points included), each starting at its minimum."""
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        x = p[start]
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = p[x]
        out.append(tuple(cyc))
    return out


def canonical_of_type(t: Partition) -> Perm:
    """The permutation whose cycles fill consecutive points, longest first."""
    images = []
    base = 0
    for length in t.parts:
        images.extend(list(range(base + 1, base + length)) + [base])
        base += length
    return tuple(images)


def class_size(t: Partition) -> int:
    """Size of the conjugacy class with this cycle type (centralizer formula)."""
    centralizer = 1
    for length, mult in Counter(t.parts).items():
        centralizer *= length**mult * factorial(mult)
    return factorial(t.total) // centralizer


def is_transitive(perms: Sequence[Perm], degree: int) -> bool:
    """True iff the generated group has a single orbit on the points."""
    if degree <= 1:
        return True
    if not perms:
        return False
    seen = [False] * degree
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        x = stack.pop()
        for p in perms:
            y = p[x]
            if not seen[y]:
                seen[y] = True
                count += 1
                stack.append(y)
    return count == degree


def cycle_string(p: Perm) -> str:
    """Disjoint-cycle notation on points 1..d, fixed points omitted."""
    chunks = [
        "(" + " ".join(str(x + 1) for x in cyc) + ")" for cyc in cycles(p) if len(cyc) > 1
    ]
    return "".join(chunks) if chunks else "()"
