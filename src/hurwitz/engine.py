"""Decision pipeline: balance, base cases, filters, closed form, reductions, search.

The engine decides a datum by the cheapest sufficient means, in order:

  1. unbalanced data are exceptional outright (method ``rh``);
  2. the balanced data with fewer than three partitions, degree 1 and
     [d] [d], are realizable directly by their two-point witness
     (``base-case``);
  3. the datum's structures are detected once; the necessary-condition
     filters reject structured data violating a bound (``filter:<rule>``);
  4. data matching the double-cover family shape get the closed-form
     decision (``songxu``); a realizable answer is still certified through
     a reduction chain or a witness, and a contradiction is an error;
  5. the same structures are reduced: if any child is realizable so is the
     parent; if one structure's children enumerate completely and all are
     exceptional, so is the parent (``reduction:<thm>``).  Unknown children
     only poison the exceptional conclusion;
  6. up to degree ``max_degree``, seeded random tuples are drawn first and
     a witness among them decides realizable (``sample``); a miss proves
     nothing, and the exhaustive search settles whatever remains within
     budget (``oracle``), else the verdict is unknown with a stated limit.
     Each draw is charged as one node of the budget.

Every engine memoizes its verdicts on the normalized datum, and the
reduction splits it has built on (source, piece count, child degree).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Iterator

from . import oracle as oracle_mod
from .criteria import (
    StructureMatch,
    corollary_filter,
    detect_structures,
    match_songxu_shape,
    prop1_filter,
    songxu_decide,
)
from .oracle import ConstellationWitness, SearchBudget, check_witness
from .partitions import CandidateDatum, enumerate_candidates, parse_datum, rh_defect
from .reduction import (
    ReductionChain,
    ReductionStep,
    Splits,
    StepReplayError,
    children_thm1,
    children_thm2,
    children_thm3,
    replay,
)
from .verdicts import (
    EXCEPTIONAL,
    LIMIT_BUDGET,
    LIMIT_DEGREE,
    REALIZABLE,
    UNKNOWN,
    DecisionStats,
    Verdict,
)


class DecisionEngine:
    """Reusable decision context: budget, verdict memo and reduction splits."""

    def __init__(self, budget: SearchBudget | None = None) -> None:
        self.budget = budget or SearchBudget()
        self._memo: dict[CandidateDatum, Verdict] = {}
        self._splits: Splits = {}
        self._nodes = 0
        self._cache_hits = 0

    def decide(self, datum: CandidateDatum | str) -> Verdict:
        """Decide a datum (or datum text); stats cover this call including recursion."""
        if isinstance(datum, str):
            datum = parse_datum(datum)
        start = time.perf_counter()
        nodes0, hits0 = self._nodes, self._cache_hits
        core = self._lookup(datum)
        stats = DecisionStats(
            nodes=self._nodes - nodes0,
            cache_hits=self._cache_hits - hits0,
            millis=int((time.perf_counter() - start) * 1000),
        )
        return replace(core, stats=stats)

    def _lookup(self, datum: CandidateDatum) -> Verdict:
        hit = self._memo.get(datum)
        if hit is not None:
            self._cache_hits += 1
            return hit
        verdict = self._pipeline(datum)
        self._memo[datum] = verdict
        return verdict

    def _pipeline(self, datum: CandidateDatum) -> Verdict:
        if rh_defect(datum) != 0:
            return Verdict(EXCEPTIONAL, "rh")
        if len(datum.partitions) < 3:
            return Verdict(REALIZABLE, "base-case", certificate=oracle_mod.two_point_witness(datum))

        matches = detect_structures(datum)
        reports = tuple(prop1_filter(matches) + corollary_filter(datum, matches))
        if reports:
            return Verdict(EXCEPTIONAL, f"filter:{reports[0].rule}", reasons=reports)

        shape = match_songxu_shape(datum)
        if shape is not None and songxu_decide(*shape).status == EXCEPTIONAL:
            return Verdict(EXCEPTIONAL, "songxu")

        verdict = self._try_reductions(datum, matches)
        if verdict is None:
            verdict = self._sample_then_search(datum)
        if shape is not None:
            # the closed form said realizable; the certificate comes from above
            if verdict.status == EXCEPTIONAL:
                raise RuntimeError(
                    f"closed-form family decision contradicts {verdict.method} on {datum}"
                )
            if verdict.status == REALIZABLE:
                return replace(verdict, method="songxu")
        return verdict

    def _sample_then_search(self, datum: CandidateDatum) -> Verdict:
        """Seeded random draws, then on a miss the search with the nodes left.

        Each draw is charged as one node.  Draws are made only where the
        search would run, so the degree limit stays the search's.
        """
        budget = self.budget
        if datum.degree <= budget.max_degree:
            witness, draws = oracle_mod.sample(datum, min(oracle_mod.SAMPLE_DRAWS, budget.max_nodes))
            self._nodes += draws
            if witness is not None:
                return Verdict(REALIZABLE, "sample", certificate=witness)
            if draws == budget.max_nodes:
                return Verdict(UNKNOWN, "sample", limit=LIMIT_BUDGET)
            budget = replace(budget, max_nodes=budget.max_nodes - draws)
        verdict = oracle_mod.decide(datum, budget)
        self._nodes += verdict.stats.nodes
        return verdict

    def _try_reductions(
        self, datum: CandidateDatum, matches: tuple[StructureMatch, ...]
    ) -> Verdict | None:
        """Realizable/exceptional via some structure, or None when undecided."""
        for plan in _reduction_plans(matches):
            theorem = plan[0][1]
            complete = True
            for step in _plan_children(datum, plan, self._splits):
                child_verdict = self._lookup(step.child)
                if child_verdict.status == REALIZABLE:
                    chain = _extend_chain(step, child_verdict.certificate)
                    return Verdict(REALIZABLE, f"reduction:{theorem}", certificate=chain)
                if child_verdict.status == UNKNOWN:
                    complete = False
            if complete:
                # the enumeration is exhaustive, so no realizable child exists
                return Verdict(EXCEPTIONAL, f"reduction:{theorem}")
        return None


def _reduction_plans(
    matches: tuple[StructureMatch, ...],
) -> list[tuple[tuple, StructureMatch, int | None, int | None]]:
    """Every admissible role assignment as (key, match, third, t), cheapest child
    degree first; ``key`` is (child degree, theorem, pair, third or divisor, t or 0)."""
    plans = [((u, theorem, match.pair, match.divisor if third is None else third, t or 0),
              match, third, t)
             for match in matches for theorem, third, t, u in match.reductions]
    plans.sort(key=lambda plan: plan[0])
    return plans


def _plan_children(datum: CandidateDatum, plan: tuple, splits: Splits) -> Iterator[ReductionStep]:
    """The child steps of one plan from :func:`_reduction_plans`; ``splits``
    is the memo of :func:`hurwitz.reduction._children`."""
    key, match, third, t = plan
    if key[1] == "thm1":
        return children_thm1(datum, match, splits)
    if key[1] == "thm2":
        return children_thm2(datum, match, third, t, splits)
    return children_thm3(datum, match, third, splits)


def _extend_chain(step: ReductionStep, certificate) -> ReductionChain:
    if isinstance(certificate, ReductionChain):
        return ReductionChain((step,) + certificate.steps, certificate.base)
    if isinstance(certificate, ConstellationWitness):
        return ReductionChain((step,), certificate)
    raise TypeError(f"cannot extend a chain with {type(certificate).__name__}")


def decide(datum: CandidateDatum | str, budget: SearchBudget | None = None) -> Verdict:
    """One-shot convenience wrapper around :class:`DecisionEngine`."""
    return DecisionEngine(budget).decide(datum)


def verify(verdict: Verdict, datum: CandidateDatum) -> bool:
    """Re-check a verdict from scratch; False on any inconsistency.

    Certificates are fully re-verified (witness invariants, chain replay and
    linkage, base certificate).  Filter, balance, and closed-form verdicts
    are re-derived; the filters hold only provable bounds, so a filter
    verdict naming a rule that does not fire is rejected, and so is one
    naming a corollary length rule, which balance makes redundant and the
    filters no longer check.  No base case is exceptional.  Exceptional
    verdicts from the search or a reduction carry no certificate; for those
    only structural consistency is checked.
    A malformed certificate is rejected: a witness of the wrong lengths or
    with images that are not a permutation of integers, or a chain whose
    steps, step fields or base are of the wrong type.  An exception raised
    while checking propagates, so a crash in a checker is never reported as
    "invalid".
    """
    if verdict.status == REALIZABLE:
        cert = verdict.certificate
        if isinstance(cert, ConstellationWitness):
            return check_witness(datum, cert)
        if isinstance(cert, ReductionChain):
            return _verify_chain(datum, cert)
        return False
    if verdict.status == EXCEPTIONAL:
        method = verdict.method
        if method == "rh":
            return rh_defect(datum) != 0
        if method.startswith("filter:"):
            rule = method.split(":", 1)[1]
            matches = detect_structures(datum)
            fired = prop1_filter(matches) + corollary_filter(datum, matches)
            return rule in {r.rule for r in fired}
        if method == "songxu":
            shape = match_songxu_shape(datum)
            return shape is not None and songxu_decide(*shape).status == EXCEPTIONAL
        if method.startswith("reduction:") or method == "oracle":
            return rh_defect(datum) == 0
        return False
    if verdict.status == UNKNOWN:
        return verdict.limit in (LIMIT_DEGREE, LIMIT_BUDGET)
    return False


def _verify_chain(datum: CandidateDatum, chain: ReductionChain) -> bool:
    if not isinstance(chain.steps, tuple) or not all(isinstance(s, ReductionStep) for s in chain.steps):
        return False
    if not isinstance(chain.base, ConstellationWitness):
        return False
    current = datum
    for step in chain.steps:
        try:
            parent = replay(step)
        except StepReplayError:
            return False
        if parent != current:
            return False
        current = step.child
    return check_witness(current, chain.base)


# -- scanning --


@dataclass
class ScanReport:
    """Dual adjudication of every candidate in a range."""

    rows: list[dict] = field(default_factory=list)
    disagreements: list[str] = field(default_factory=list)
    counts: dict[tuple[int, int], dict[str, int]] = field(default_factory=dict)
    methods: dict[tuple[int, int], dict[str, int]] = field(default_factory=dict)
    audit: list[str] = field(default_factory=list)

    def summary_lines(self) -> list[str]:
        lines = []
        for (d, n) in sorted(self.counts):
            cell = self.counts[(d, n)]
            total = sum(cell.values())
            methods = self.methods[(d, n)]
            lines.append(
                f"d={d} n={n}: total={total} realizable={cell.get(REALIZABLE, 0)}"
                f" exceptional={cell.get(EXCEPTIONAL, 0)} unknown={cell.get(UNKNOWN, 0)}"
                " by method: " + " ".join(f"{m}={methods[m]}" for m in sorted(methods))
            )
        lines.append(f"disagreements: {len(self.disagreements)}")
        for text in self.disagreements:
            lines.append(f"  DISAGREE {text}")
        lines.append(f"strict-audit (realizable but strict-flagged): {len(self.audit)}")
        for text in self.audit:
            lines.append(f"  AUDIT {text}")
        return lines


def _strict_audit(datum: CandidateDatum, matches: tuple[StructureMatch, ...]) -> bool:
    """Whether the strict corollary bounds, which also demand more parts than
    pieces of every other partition, would flag ``datum``.  Balance gives at
    least as many (see :mod:`hurwitz.criteria`), and exactly 2t or 12 beside
    a thm2 or thm3 third would make it trivial, so only a partition outside
    an s-pair with exactly s parts is left."""
    return bool(corollary_filter(datum, matches)) or any(
        len(datum.partitions[m]) == match.divisor for match in matches for m, _ in match.other_gcds
    )


def _scan_one(task: tuple[str, SearchBudget]) -> tuple[dict, dict]:
    """Decide one candidate by the pipeline and by the search alone; returns
    (jsonl row, the status, disagreement and audit the row lacks).

    Each candidate gets a fresh engine so row content is independent of
    scheduling, and the volatile ``millis`` stat is zeroed: deterministic
    scans must be byte-identical across runs.
    """
    text, budget = task
    datum = parse_datum(text)
    verdict = DecisionEngine(budget).decide(datum)
    oracle_verdict = oracle_mod.decide(datum, budget)
    row = verdict.to_json(datum, input_text=text)
    row["stats"]["millis"] = 0
    row["oracle_status"] = oracle_verdict.status
    meta = {
        "status": oracle_verdict.status if verdict.status == UNKNOWN else verdict.status,
        "disagree": {verdict.status, oracle_verdict.status} == {REALIZABLE, EXCEPTIONAL},
        # a filter false positive is already a disagreement
        "audit": (
            oracle_verdict.status == REALIZABLE
            and _strict_audit(datum, detect_structures(datum))
        ),
    }
    return row, meta


def scan(
    degree_max: int,
    branch_points_max: int,
    budget: SearchBudget | None = None,
    jobs: int = 1,
) -> ScanReport:
    """Adjudicate every candidate with d <= degree_max and n <= branch_points_max.

    Each candidate is decided twice, by the full pipeline and by the search
    alone, and any realizable/exceptional conflict is reported (there must
    be none).  The report also carries per-(d, n) counts by status and by
    the pipeline's method, and the strict-mode audit set: data the strict
    corollary bounds would reject even though they are realizable.  ``jobs``
    worker processes share the candidates; it must be at least 1.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    budget = budget or SearchBudget()
    report = ScanReport()

    tasks = [(datum.render(), budget)
             for d in range(2, degree_max + 1)
             for n in range(1, branch_points_max + 1)
             for datum in enumerate_candidates(d, n)]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_scan_one, tasks, chunksize=8))
    else:
        results = [_scan_one(task) for task in tasks]

    for row, meta in results:
        report.rows.append(row)
        key = (row["degree"], len(row["partitions"]))
        cell = report.counts.setdefault(key, {})
        cell[meta["status"]] = cell.get(meta["status"], 0) + 1
        methods = report.methods.setdefault(key, {})
        methods[row["method"]] = methods.get(row["method"], 0) + 1
        if meta["disagree"]:
            report.disagreements.append(row["input"])
        if meta["audit"]:
            report.audit.append(row["input"])
    return report
