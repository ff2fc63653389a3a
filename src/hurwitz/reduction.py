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
parent partition in order, its role and pieces; :func:`replay` checks it
against the parent and rebuilds the child from the table, so a chain of
steps from a balanced datum, ending in a witness for its last child, is an
independently checkable realizability certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from typing import Iterator

from .criteria import _ANY, _ARITY, ROLE_PAIR, ROLE_THIRD, StructureMatch, _role_slots, _shape
from .oracle import ConstellationWitness
from .partitions import CandidateDatum, Partition, decompose, rh_defect


# (source, piece count) -> every split, as decompose returns it
Splits = dict[tuple[Partition, int], tuple[tuple[Partition, ...], ...]]


class StepReplayError(ValueError):
    """A reduction step is internally inconsistent (e.g. tampered pieces)."""


@dataclass(frozen=True, slots=True)
class SplitRecord:
    """How one parent partition, by position, was fed into the child datum: its
    parts are those of all the ``pieces``, each times its ``role``'s scale."""

    role: str
    pieces: tuple[Partition, ...]

    def to_json(self) -> dict:
        return {"role": self.role, "pieces": [list(p.parts) for p in self.pieces]}


@dataclass(frozen=True, slots=True)
class ReductionStep:
    """``theorem`` at ``s`` and ``t``: a record per parent partition, in order.
    The child is not stored; :func:`replay` rebuilds it from the records."""

    theorem: str
    s: int
    t: int | None
    records: tuple[SplitRecord, ...]

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "s": self.s,
            "t": self.t,
            "decompositions": [r.to_json() for r in self.records],
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
        # every piece of a step is a partition of its child's degree
        hops = " -> ".join(
            f"{s.theorem}(s={s.s}{f',t={s.t}' if s.t else ''}) d={s.records[0].pieces[0].total}"
            for s in self.steps
        )
        tail = f"base: witness {self.base.render()}"
        return f"{hops}; {tail}" if hops else tail


def replay(step: ReductionStep, parent: CandidateDatum) -> CandidateDatum:
    """Check ``step`` against ``parent`` and return the child it reduces to.

    The records are positional: the i-th, its pieces' parts times its role's
    scale, must rebuild the parent's i-th partition, and every piece must be
    a partition of the child degree u = d / (scale times piece count); the
    child is the nontrivial pieces, sorted.  Raises :class:`StepReplayError`
    on any inconsistency: a field of the wrong type, an ``s`` or ``t`` the
    theorem does not take, a role it lacks, wrong piece counts, a piece of
    another total, other than two pair-role records (and one third where
    the theorem has a third role), or a record too many, too few or not
    rebuilding the parent's partition at its position.  Balance is not
    checked: each role's scale times piece count is one K = d/u, so the
    child's N pieces satisfy N - 2 = (n - 2)K and its balance equation is
    the parent's.
    """
    if not isinstance(step, ReductionStep):
        raise StepReplayError(f"{step!r} is not a reduction step")
    if not (type(step.theorem) is str and step.theorem in _ARITY):
        raise StepReplayError(f"unknown theorem {step.theorem!r}")
    fixed_s, fixed_t, _ = _ARITY[step.theorem]
    for name, fixed, value in (("s", fixed_s, step.s), ("t", fixed_t, step.t)):
        if fixed is None:
            ok = value is None
        else:
            ok = type(value) is int and (value >= 2 if fixed == _ANY else value == fixed)
        if not ok:
            raise StepReplayError(f"{step.theorem} does not take {name}={value!r}")
    shape = _shape(step.theorem, step.s, step.t)
    if not (isinstance(step.records, tuple) and len(step.records) == len(parent.partitions)):
        raise StepReplayError("records are not a tuple of one per parent partition")
    scale, count = shape[ROLE_PAIR]
    u = parent.degree // (scale * count)
    pieces: list[Partition] = []
    for i, (rec, source) in enumerate(zip(step.records, parent.partitions)):
        if not (isinstance(rec, SplitRecord) and type(rec.role) is str and isinstance(rec.pieces, tuple)):
            raise StepReplayError(f"malformed record {rec!r}")
        if rec.role not in shape:
            raise StepReplayError(f"role {rec.role!r} not allowed in {step.theorem}")
        scale, count = shape[rec.role]
        if len(rec.pieces) != count:
            raise StepReplayError(f"record {i}: {len(rec.pieces)} pieces, expected {count}")
        if not all(isinstance(piece, Partition) and piece.total == u for piece in rec.pieces):
            raise StepReplayError(f"record {i}: a piece is not a partition of {u}")
        if Partition.of(scale * x for piece in rec.pieces for x in piece.parts) != source:
            raise StepReplayError(f"record {i} does not rebuild the parent's partition {source}")
        pieces.extend(rec.pieces)
    roles = [rec.role for rec in step.records]
    thirds = int(ROLE_THIRD in shape)
    if roles.count(ROLE_PAIR) != 2 or roles.count(ROLE_THIRD) != thirds:
        raise StepReplayError(f"{step.theorem} needs two pair-role records and {thirds} third")
    return CandidateDatum.make(u, pieces)


def _children(
    theorem: str, datum: CandidateDatum, match: StructureMatch, third: int | None = None,
    t: int | None = None, splits: Splits | None = None,
) -> Iterator[tuple[ReductionStep, CandidateDatum]]:
    """Deduplicated (step, child) pairs of ``theorem`` over the cartesian
    product of every role's splits.

    The datum must be balanced and ``match.reductions`` must hold a row for
    ``theorem``, ``third`` and ``t``; the child degree u is that row's.
    Otherwise iterating raises a ValueError.  The children are then balanced
    (see :func:`replay`, which rebuilds each from its step and the datum).
    The roles are pair i, pair j, the third (if any), then the other
    partitions in ``match.other_gcds`` order; each source is divided by its
    role's scale and split into its piece count.  Empty when some role has
    no split.
    ``splits`` maps (source, count) to that source's splits: a miss calls
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
        options = splits.get((source, count))
        if options is None:
            options = splits[source, count] = decompose(source, count)
        if not options:
            return
        option_lists.append(options)
    # the records follow the parent's partitions; slot k holds partition slots[k][0]
    order = sorted(range(len(slots)), key=lambda k: slots[k][0])
    seen = set()
    for combo in iproduct(*option_lists):
        child = CandidateDatum.make(u, [g for groups in combo for g in groups])
        if child in seen:
            continue
        seen.add(child)
        records = tuple(SplitRecord(slots[k][1], combo[k]) for k in order)
        yield ReductionStep(theorem, s, t, records), child


def children_thm1(
    datum: CandidateDatum, match: StructureMatch, splits: Splits | None = None
) -> Iterator[tuple[ReductionStep, CandidateDatum]]:
    """Children of degree d/s for an s-divisible pair; empty when some other
    partition admits no split into s partitions of d'."""
    return _children("thm1", datum, match, splits=splits)


def children_thm2(
    datum: CandidateDatum, match: StructureMatch, third: int, t: int,
    splits: Splits | None = None,
) -> Iterator[tuple[ReductionStep, CandidateDatum]]:
    """Children of degree d'/t for a 2-divisible pair and a t-divisible third."""
    return _children("thm2", datum, match, third, t, splits)


def children_thm3(
    datum: CandidateDatum, match: StructureMatch, third: int, splits: Splits | None = None
) -> Iterator[tuple[ReductionStep, CandidateDatum]]:
    """Children of degree d'/4 for a 3-divisible pair and an all-even third."""
    return _children("thm3", datum, match, third, splits=splits)
