"""Decision pipeline: balance, base cases, filters, closed form, reductions, search.

The engine decides a datum by the cheapest sufficient means, in order:

  1. unbalanced data are exceptional outright (method ``rh``);
  2. degree 1 and the two-partition datum [d] [d], the only balanced data
     with fewer than three partitions, are realizable directly
     (``base-case``);
  3. the datum's structures are detected once; the weak-mode
     necessary-condition filters reject structured data violating a bound
     (``filter:<rule>``);
  4. data matching the double-cover family shape get the closed-form
     decision (``songxu``); a realizable answer is still certified through
     a reduction chain before being reported;
  5. the same structures are reduced: if any child is realizable so is the
     parent; if one structure's children enumerate completely and all are
     exceptional, so is the parent (``reduction:<thm>``).  Unknown children
     only poison the exceptional conclusion;
  6. the exhaustive search settles whatever remains within budget
     (``oracle``), else the verdict is unknown with a stated limit.

Every engine memoizes its verdicts on the normalized datum.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator

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
from .perms import canonical_of_type, inverse
from .reduction import (
    ReductionChain,
    ReductionStep,
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
    """Reusable decision context: budget and memo table."""

    def __init__(self, budget: SearchBudget | None = None) -> None:
        self.budget = budget or SearchBudget()
        self._memo: dict[CandidateDatum, Verdict] = {}
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
        if datum.degree == 1:
            return Verdict(REALIZABLE, "base-case", certificate=ReductionChain((), None))
        if len(datum.partitions) == 2:
            # balance forces [d] [d]: a cycle and its inverse
            cyc = canonical_of_type(datum.partitions[0])
            witness = ConstellationWitness(datum.degree, (cyc, inverse(cyc)))
            return Verdict(REALIZABLE, "base-case", certificate=witness)

        matches = detect_structures(datum)
        reports = tuple(prop1_filter(matches) + corollary_filter(datum, matches))
        if reports:
            return Verdict(EXCEPTIONAL, f"filter:{reports[0].rule}", reasons=reports)

        songxu_realizable = False
        shape = match_songxu_shape(datum)
        if shape is not None:
            closed = songxu_decide(*shape)
            if closed.status == EXCEPTIONAL:
                return Verdict(EXCEPTIONAL, "songxu")
            songxu_realizable = True

        reduced = self._try_reductions(datum, matches)
        if reduced is not None:
            if songxu_realizable:
                if reduced.status == EXCEPTIONAL:
                    raise RuntimeError(
                        f"closed-form family decision contradicts reduction on {datum}"
                    )
                return replace(reduced, method="songxu")
            return reduced

        if datum.degree <= self.budget.max_degree:
            verdict = oracle_mod.decide(datum, self.budget)
            self._nodes += verdict.stats.nodes
            if songxu_realizable:
                if verdict.status == EXCEPTIONAL:
                    raise RuntimeError(
                        f"closed-form family decision contradicts the search on {datum}"
                    )
                if verdict.status == REALIZABLE:
                    return replace(verdict, method="songxu")
            return verdict
        return Verdict(UNKNOWN, "oracle", limit=LIMIT_DEGREE)

    # -- reductions --

    def _reduction_plans(
        self, datum: CandidateDatum, matches: tuple[StructureMatch, ...]
    ) -> list[tuple[str, Callable[[], Iterator[ReductionStep]]]]:
        """Every admissible role assignment, cheapest child degree first."""
        plans: list[tuple[tuple, str, Callable[[], Iterator[ReductionStep]]]] = []
        for match in matches:
            key = (match.subdegree, "thm1", match.pair, match.divisor, 0)
            plans.append((key, "thm1", lambda m=match: children_thm1(datum, m)))
            if match.divisor == 2:
                for h, g in match.other_gcds:
                    if g < 2:
                        continue
                    for t in range(g, 1, -1):
                        if g % t or match.subdegree % t:
                            continue
                        child_degree = match.subdegree // t
                        key = (child_degree, "thm2", match.pair, h, t)
                        plans.append(
                            (key, "thm2",
                             lambda m=match, hh=h, tt=t: children_thm2(datum, m, hh, tt))
                        )
            if match.divisor == 3 and match.subdegree % 4 == 0:
                for h, g in match.other_gcds:
                    if g % 2:
                        continue
                    key = (match.subdegree // 4, "thm3", match.pair, h, 0)
                    plans.append(
                        (key, "thm3", lambda m=match, hh=h: children_thm3(datum, m, hh))
                    )
        plans.sort(key=lambda item: item[0])
        return [(theorem, factory) for _, theorem, factory in plans]

    def _try_reductions(
        self, datum: CandidateDatum, matches: tuple[StructureMatch, ...]
    ) -> Verdict | None:
        """Realizable/exceptional via some structure, or None when undecided."""
        for theorem, factory in self._reduction_plans(datum, matches):
            complete = True
            for step in factory():
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
    are re-derived; filters with the provable weak bounds only, so a filter
    verdict that only the strict bounds support is rejected.  No base case
    is exceptional.  Exceptional verdicts from the search or a reduction
    carry no certificate; for those only structural consistency is checked.
    """
    try:
        return _verify(verdict, datum)
    except Exception:
        return False


def _verify(verdict: Verdict, datum: CandidateDatum) -> bool:
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
    current = datum
    for step in chain.steps:
        try:
            parent = replay(step)
        except StepReplayError:
            return False
        if parent != current:
            return False
        current = step.child
    if chain.base is None:
        return current.degree == 1 and not current.partitions
    return check_witness(current, chain.base)


# -- scanning --


@dataclass
class ScanReport:
    """Dual adjudication of every candidate in a range."""

    degree_max: int
    branch_points_max: int
    mode: str
    rows: list[dict] = field(default_factory=list)
    disagreements: list[str] = field(default_factory=list)
    counts: dict[tuple[int, int], dict[str, int]] = field(default_factory=dict)
    audit: list[str] = field(default_factory=list)

    def summary_lines(self) -> list[str]:
        lines = []
        for (d, n) in sorted(self.counts):
            cell = self.counts[(d, n)]
            total = sum(cell.values())
            lines.append(
                f"d={d} n={n}: total={total} realizable={cell.get(REALIZABLE, 0)}"
                f" exceptional={cell.get(EXCEPTIONAL, 0)} unknown={cell.get(UNKNOWN, 0)}"
            )
        lines.append(f"disagreements: {len(self.disagreements)}")
        for text in self.disagreements:
            lines.append(f"  DISAGREE {text}")
        lines.append(f"strict-audit (realizable but strict-flagged): {len(self.audit)}")
        for text in self.audit:
            lines.append(f"  AUDIT {text}")
        return lines


def _scan_one(task: tuple[str, SearchBudget, str]) -> tuple[dict, dict]:
    """Decide one candidate; returns (jsonl row, report metadata).

    Each candidate gets a fresh engine so row content is independent of
    scheduling, and the volatile ``millis`` stat is zeroed: deterministic
    scans must be byte-identical across runs.
    """
    text, budget, mode = task
    datum = parse_datum(text)
    pipeline_verdict = None
    oracle_verdict = None
    if mode in ("both", "pipeline-only"):
        pipeline_verdict = DecisionEngine(budget).decide(datum)
    if mode in ("both", "oracle-only"):
        oracle_verdict = oracle_mod.decide(datum, budget)

    primary = pipeline_verdict if pipeline_verdict is not None else oracle_verdict
    row = primary.to_json(datum, input_text=text)
    row["stats"]["millis"] = 0
    if mode == "both":
        row["oracle_status"] = oracle_verdict.status

    statuses = [v.status for v in (pipeline_verdict, oracle_verdict) if v is not None]
    resolved = [s for s in statuses if s != UNKNOWN]
    meta = {
        "input": text,
        "status": resolved[0] if resolved else UNKNOWN,
        "disagree": len(set(resolved)) > 1,
        # a weak false positive is already a disagreement in ``both`` mode
        "audit": (
            oracle_verdict is not None
            and oracle_verdict.status == REALIZABLE
            and bool(corollary_filter(datum, detect_structures(datum), strict=True))
        ),
    }
    return row, meta


def scan(
    degree_max: int,
    branch_points_max: int,
    budget: SearchBudget | None = None,
    mode: str = "both",
    jobs: int = 1,
) -> ScanReport:
    """Adjudicate every candidate with d <= degree_max and n <= branch_points_max.

    In ``both`` mode each candidate is decided twice, by the full pipeline
    and by the search alone, and any realizable/exceptional conflict is
    reported (there must be none).  The report also carries per-(d, n)
    status counts and the strict-mode audit set: data the strict corollary
    bounds would reject even though they are realizable.
    """
    if mode not in ("both", "oracle-only", "pipeline-only"):
        raise ValueError(f"unknown scan mode {mode!r}")
    budget = budget or SearchBudget()
    report = ScanReport(degree_max, branch_points_max, mode)

    tasks = []
    keys = []
    for d in range(2, degree_max + 1):
        for n in range(1, branch_points_max + 1):
            for datum in enumerate_candidates(d, n):
                tasks.append((datum.render(), budget, mode))
                keys.append((d, n))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_scan_one, tasks, chunksize=8))
    else:
        results = [_scan_one(task) for task in tasks]

    for (d, n), (row, meta) in zip(keys, results):
        report.rows.append(row)
        cell = report.counts.setdefault((d, n), {})
        cell[meta["status"]] = cell.get(meta["status"], 0) + 1
        if meta["disagree"]:
            report.disagreements.append(meta["input"])
        if meta["audit"]:
            report.audit.append(meta["input"])
    return report
