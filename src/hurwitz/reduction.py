"""Degree-reducing equivalences over structured data.

Each transformation takes a datum with a divisible pair and produces the
strictly smaller candidate data whose realizability is equivalent to the
parent's.  The three theorems thm1-thm3 are stated once, in the table
``criteria._ARITY`` (described in :mod:`hurwitz.criteria`): the divisors
each takes, and every role's scale and piece count.  The one child
enumerator, which checks a plan against the structure's admitted
``reductions`` and takes its child degree from there, and :func:`replay`
both read it.

A :class:`ReductionStep` records the theorem, ``s``, ``t`` and, for each
parent partition, its index, role and pieces; :func:`replay` rebuilds the
rest from the table, so a chain of steps ending in a witness for its last
child is an independently checkable realizability certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from typing import Iterator

from .criteria import _ANY, _ARITY, ROLE_PAIR, ROLE_THIRD, StructureMatch, _role_slots, _shape
from .oracle import ConstellationWitness
from .partitions import CandidateDatum, Partition, decompose, merged, rh_defect


# (source, piece count, child degree) -> every split, as decompose returns it
Splits = dict[tuple[Partition, int, int], tuple[tuple[Partition, ...], ...]]


class StepReplayError(ValueError):
    """A reduction step is internally inconsistent (e.g. tampered pieces)."""


@dataclass(frozen=True, slots=True)
class SplitRecord:
    """How the parent partition at ``index`` was fed into the child datum: the
    partition is its ``role``'s scale times the merged ``pieces``."""

    index: int
    role: str
    pieces: tuple[Partition, ...]

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "role": self.role,
            "pieces": [list(p.parts) for p in self.pieces],
        }


@dataclass(frozen=True, slots=True)
class ReductionStep:
    """``theorem`` at ``s`` and ``t``: a record per parent partition, and the child."""

    theorem: str
    s: int
    t: int | None
    records: tuple[SplitRecord, ...]
    child: CandidateDatum

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "s": self.s,
            "t": self.t,
            "decompositions": [r.to_json() for r in self.records],
            "child": {
                "degree": self.child.degree,
                "partitions": [list(p.parts) for p in self.child.partitions],
            },
        }


@dataclass(frozen=True, slots=True)
class ReductionChain:
    """Steps from the original datum down to a witness for the final child."""

    steps: tuple[ReductionStep, ...]
    base: ConstellationWitness

    def to_json(self) -> dict:
        return {
            "type": "chain",
            "steps": [s.to_json() for s in self.steps],
            "base": self.base.to_json(),
        }

    def render(self) -> str:
        hops = " -> ".join(
            f"{s.theorem}(s={s.s}{f',t={s.t}' if s.t else ''}) d={s.child.degree}" for s in self.steps
        )
        tail = f"base: witness {self.base.render()}"
        return f"{hops}; {tail}" if hops else tail


def replay(step: ReductionStep) -> CandidateDatum:
    """Rebuild and return the parent datum, validating every record.

    A record rebuilds the parent partition at its index as its merged pieces
    times its role's scale.  Raises :class:`StepReplayError` on any
    inconsistency: a field of the wrong type, an ``s`` or ``t`` the theorem
    does not take, a role it lacks, wrong piece counts, records out of index
    order, other than two pair-role records (and one third where the theorem
    has a third role), a rebuilt partition not at its index, or a child that
    does not match the pieces.
    """
    if not (type(step.theorem) is str and step.theorem in _ARITY):
        raise StepReplayError(f"unknown theorem {step.theorem!r}")
    if not isinstance(step.child, CandidateDatum):
        raise StepReplayError(f"child {step.child!r} is not a datum")
    if not isinstance(step.records, tuple):
        raise StepReplayError("records are not a tuple")
    fixed_s, fixed_t, _ = _ARITY[step.theorem]
    for name, fixed, value in (("s", fixed_s, step.s), ("t", fixed_t, step.t)):
        if fixed is None:
            ok = value is None
        else:
            ok = type(value) is int and (value >= 2 if fixed == _ANY else value == fixed)
        if not ok:
            raise StepReplayError(f"{step.theorem} does not take {name}={value!r}")
    shape = _shape(step.theorem, step.s, step.t)
    u = step.child.degree
    sources = []
    all_pieces: list[Partition] = []
    for rec in step.records:
        if not (isinstance(rec, SplitRecord) and type(rec.index) is int
                and type(rec.role) is str and isinstance(rec.pieces, tuple)):
            raise StepReplayError(f"malformed record {rec!r}")
        if rec.role not in shape:
            raise StepReplayError(f"role {rec.role!r} not allowed in {step.theorem}")
        scale, count = shape[rec.role]
        if len(rec.pieces) != count:
            raise StepReplayError(f"record {rec.index}: {len(rec.pieces)} pieces, expected {count}")
        for piece in rec.pieces:
            if not isinstance(piece, Partition) or piece.total != u:
                raise StepReplayError(f"record {rec.index}: piece {piece} is not a partition of {u}")
        sources.append(merged(rec.pieces).scaled(scale))
        all_pieces.extend(rec.pieces)
    if [rec.index for rec in step.records] != list(range(len(sources))):
        raise StepReplayError("records do not list the parent partitions in index order")
    roles = [rec.role for rec in step.records]
    thirds = int(ROLE_THIRD in shape)
    if roles.count(ROLE_PAIR) != 2 or roles.count(ROLE_THIRD) != thirds:
        raise StepReplayError(f"{step.theorem} needs two pair-role records and {thirds} third")
    if CandidateDatum.make(u, all_pieces) != step.child:
        raise StepReplayError("child datum does not match the recorded pieces")
    # the table gives every source one total; make() drops an all-ones one
    parent = CandidateDatum.make(sources[0].total, sources)
    if parent.partitions != tuple(sources):
        raise StepReplayError("a rebuilt partition is not the parent's at its record's index")
    if rh_defect(parent) != 0 or rh_defect(step.child) != 0:
        raise StepReplayError("replayed data are not balanced")
    return parent


def _children(
    theorem: str, datum: CandidateDatum, match: StructureMatch, third: int | None = None,
    t: int | None = None, splits: Splits | None = None,
) -> Iterator[ReductionStep]:
    """Deduplicated steps of ``theorem`` over the cartesian product of every role's splits.

    The datum must be balanced and ``match.reductions`` must hold a row for
    ``theorem``, ``third`` and ``t``; the child degree u is that row's.
    Otherwise iterating raises a ValueError.  The roles are pair i, pair j,
    the third (if any), then the other partitions in ``match.other_gcds``
    order; each source is divided by its role's scale and split into its
    piece count.  Empty when some role has no split.  A one-piece role
    (thm1's pair) is its own only split, so it skips :func:`decompose`.
    ``splits`` maps (source, count, u) to that source's splits: a miss calls
    :func:`decompose` and stores its answer, so one dict shared by many calls
    builds each split once.  Without one, the call gets a fresh dict.
    """
    if rh_defect(datum) != 0:
        raise ValueError("datum must be balanced")
    u = next((row[3] for row in match.reductions if row[:3] == (theorem, third, t)), None)
    if u is None:
        raise ValueError(f"{theorem} does not admit third={third}, t={t} on pair {match.pair}"
                         f" divisible by {match.divisor}, d'={match.subdegree}")
    s = match.divisor
    shape = _shape(theorem, s, t)
    slots = _role_slots(match, third)
    ps = datum.partitions
    splits = {} if splits is None else splits
    option_lists = []
    for m, role in slots:
        scale, count = shape[role]
        source = ps[m].divided(scale) if scale > 1 else ps[m]
        if count == 1:
            options = [(source,)]
        else:
            options = splits.get((source, count, u))
            if options is None:
                options = splits[source, count, u] = decompose(source, count, u)
        if not options:
            return
        option_lists.append(options)
    seen = set()
    for combo in iproduct(*option_lists):
        child = CandidateDatum.make(u, [g for groups in combo for g in groups])
        if child in seen:
            continue
        seen.add(child)
        records = sorted((SplitRecord(m, role, groups) for (m, role), groups in zip(slots, combo)),
                         key=lambda rec: rec.index)
        assert rh_defect(child) == 0
        yield ReductionStep(theorem, s, t, tuple(records), child)


def children_thm1(
    datum: CandidateDatum, match: StructureMatch, splits: Splits | None = None
) -> Iterator[ReductionStep]:
    """Children of degree d/s for an s-divisible pair; empty when some other
    partition admits no split into s partitions of d'."""
    return _children("thm1", datum, match, splits=splits)


def children_thm2(
    datum: CandidateDatum, match: StructureMatch, third: int, t: int,
    splits: Splits | None = None,
) -> Iterator[ReductionStep]:
    """Children of degree d'/t for a 2-divisible pair and a t-divisible third."""
    return _children("thm2", datum, match, third, t, splits)


def children_thm3(
    datum: CandidateDatum, match: StructureMatch, third: int, splits: Splits | None = None
) -> Iterator[ReductionStep]:
    """Children of degree d'/4 for a 3-divisible pair and an all-even third."""
    return _children("thm3", datum, match, third, splits=splits)
