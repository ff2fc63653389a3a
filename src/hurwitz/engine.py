"""Decision pipeline: balance, base cases, filters, closed form, reductions, search.

The engine decides a datum by the cheapest sufficient means, in order:

  1. unbalanced data are exceptional outright (method ``rh``);
  2. the balanced data with fewer than three partitions, degree 1 and
     [d] [d], are realizable directly by their two-point witness
     (``base-case``), or unknown above ``TWO_POINT_DEGREE_MAX``;
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
     Each draw after the first relabels one drawn factor, in turn, so draws
     n - 2 apart are independent.  With n >= 4 a draw tests two cyclic
     orders, the second with the two factors before the forced one swapped,
     and a braid move carries a hit there back to the datum's order.  Each
     draw is charged as one node of the budget.

Every engine memoizes its verdicts on the normalized datum, the structures
it has detected on the (degree, partition gcds) signature, which is all
structure detection reads, and the reduction splits it has built on
(source, piece count).  Each memo lives and dies with its engine.
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from dataclasses import replace

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
    """Reusable decision context: budget, and memos of verdicts, structures and
    reduction splits."""

    def __init__(self, budget: SearchBudget | None = None) -> None:
        self.budget = budget or SearchBudget()
        self._memo: dict[CandidateDatum, Verdict] = {}
        self._structures: dict[tuple[int, tuple[int, ...]], tuple[StructureMatch, ...]] = {}
        self._splits: Splits = {}
        self._nodes = 0
        self._cache_hits = 0

    def decide(self, datum: CandidateDatum | str) -> Verdict:
        """Decide a datum (or datum text); stats cover this call including recursion."""
        if isinstance(datum, str):
            datum = parse_datum(datum)
        nodes0, hits0 = self._nodes, self._cache_hits
        core = self._lookup(datum)
        stats = DecisionStats(nodes=self._nodes - nodes0, cache_hits=self._cache_hits - hits0)
        return Verdict(core.status, core.method, core.certificate, core.reasons, core.limit, stats)

    def _lookup(self, datum: CandidateDatum) -> Verdict:
        hit = self._memo.get(datum)
        if hit is not None:
            self._cache_hits += 1
            return hit
        verdict = self._pipeline(datum)
        self._memo[datum] = verdict
        return verdict

    def _structures_of(self, datum: CandidateDatum) -> tuple[StructureMatch, ...]:
        """The structures of a balanced datum, detected once per signature."""
        key = (datum.degree, tuple(p.gcd() for p in datum.partitions))
        matches = self._structures.get(key)
        if matches is None:
            matches = self._structures[key] = detect_structures(datum)
        return matches

    def _pipeline(self, datum: CandidateDatum) -> Verdict:
        if rh_defect(datum) != 0:
            return Verdict(EXCEPTIONAL, "rh")
        if len(datum.partitions) < 3:
            if datum.degree > oracle_mod.TWO_POINT_DEGREE_MAX:
                return Verdict(UNKNOWN, "base-case", limit=LIMIT_DEGREE)
            return Verdict(REALIZABLE, "base-case", certificate=oracle_mod.two_point_witness(datum))

        matches = self._structures_of(datum)
        reports = tuple(prop1_filter(matches) + corollary_filter(datum, matches))
        if reports:
            # method names are interned, so a caller that keeps many verdicts
            # keeps each name once
            return Verdict(EXCEPTIONAL, sys.intern(f"filter:{reports[0].rule}"), reasons=reports)

        shape = match_songxu_shape(datum)
        if shape is not None and not songxu_decide(*shape):
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
        """Realizable/exceptional via some structure, or None when undecided.

        Each admitted row (theorem, third, t, u) of a structure is a plan; plans
        run by child degree u, then detection order (pairs, divisors ascending,
        thirds in ``other_gcds`` order; one t per third and u).  Balanced data
        never admit rows of one u under two theorems.
        """
        plans = sorted(((row, match) for match in matches for row in match.reductions),
                       key=lambda plan: plan[0][3])
        for (theorem, third, t, _), match in plans:
            if theorem == "thm1":
                children = children_thm1(datum, match, self._splits)
            elif theorem == "thm2":
                children = children_thm2(datum, match, third, t, self._splits)
            else:
                children = children_thm3(datum, match, third, self._splits)
            method = sys.intern(f"reduction:{theorem}")
            complete = True
            for step, child in children:
                child_verdict = self._lookup(child)
                if child_verdict.status == REALIZABLE:
                    # a realizable child carries a witness or a chain down to one
                    cert = child_verdict.certificate
                    if isinstance(cert, ReductionChain):
                        chain = ReductionChain((step,) + cert.steps, cert.base)
                    else:
                        chain = ReductionChain((step,), cert)
                    return Verdict(REALIZABLE, method, certificate=chain)
                if child_verdict.status == UNKNOWN:
                    complete = False
            if complete:
                # the enumeration is exhaustive, so no realizable child exists
                return Verdict(EXCEPTIONAL, method)
        return None


def decide(datum: CandidateDatum | str, budget: SearchBudget | None = None) -> Verdict:
    """One-shot convenience wrapper around :class:`DecisionEngine`."""
    return DecisionEngine(budget).decide(datum)


def verify(verdict: Verdict, datum: CandidateDatum) -> bool:
    """Re-check a verdict from scratch; False on any inconsistency.

    Balance is read once, first: a realizable claim needs it (a witness on
    unbalanced data is a cover of higher genus), only ``rh`` is exceptional
    without it, and nothing on a base case.  Certificates are fully
    re-verified: a witness, or each chain step replayed from the child
    the one before returned, then the base witness.  Filter and closed-form
    verdicts are re-derived; the filters hold only provable bounds, so a
    filter verdict naming a rule that does not fire is rejected, and so is
    one naming a corollary length rule.  Exceptional verdicts from the
    search or a reduction carry no certificate; for those only balance and
    three partitions are checked.  An unknown verdict passes only on
    balanced data and only as the library emits it: on fewer than three
    partitions ``degree-limit`` from ``oracle``, or from ``base-case`` above
    ``TWO_POINT_DEGREE_MAX``; otherwise ``sample`` or ``oracle`` out of
    ``budget``, or ``oracle`` at its ``degree-limit``.  A malformed verdict
    is rejected: a method that is not a string, a witness not a tuple of
    permutations of the right lengths, or a chain whose steps, fields or
    base are of the wrong type.  An exception raised while checking
    propagates, so a crash in a checker is never reported as "invalid".
    """
    balanced = rh_defect(datum) == 0
    if verdict.status == REALIZABLE:
        if not balanced:
            return False
        cert = verdict.certificate
        if isinstance(cert, ConstellationWitness):
            return check_witness(datum, cert)
        if isinstance(cert, ReductionChain):
            return _verify_chain(datum, cert)
        return False
    if verdict.status == EXCEPTIONAL:
        method = verdict.method
        if type(method) is not str:
            return False
        if method == "rh":
            return not balanced
        if not balanced or len(datum.partitions) < 3:
            return False
        if method.startswith("filter:"):
            rule = method.split(":", 1)[1]
            matches = detect_structures(datum)
            fired = prop1_filter(matches) + corollary_filter(datum, matches)
            return rule in {r.rule for r in fired}
        if method == "songxu":
            shape = match_songxu_shape(datum)
            return shape is not None and not songxu_decide(*shape)
        return method.startswith("reduction:") or method == "oracle"
    if verdict.status == UNKNOWN and balanced:
        claim = (verdict.method, verdict.limit)
        if len(datum.partitions) < 3:
            return claim == ("oracle", LIMIT_DEGREE) or (
                claim == ("base-case", LIMIT_DEGREE)
                and datum.degree > oracle_mod.TWO_POINT_DEGREE_MAX)
        return claim in (("sample", LIMIT_BUDGET), ("oracle", LIMIT_BUDGET), ("oracle", LIMIT_DEGREE))
    return False


def _verify_chain(datum: CandidateDatum, chain: ReductionChain) -> bool:
    if not isinstance(chain.steps, tuple) or not isinstance(chain.base, ConstellationWitness):
        return False
    current = datum
    try:
        for step in chain.steps:
            current = replay(step, current)
    except StepReplayError:
        return False
    return check_witness(current, chain.base)


# -- scanning --


def disagreements(rows: list[dict]) -> list[str]:
    """The inputs of scan rows whose pipeline and search statuses conflict."""
    return [row["input"] for row in rows
            if {row["status"], row["oracle_status"]} == {REALIZABLE, EXCEPTIONAL}]


def summary_lines(rows: list[dict]) -> list[str]:
    """One line per (d, n) cell of scan rows, counting a pipeline ``unknown``
    by the search's status, then the disagreements."""
    counts: dict[tuple[int, int], tuple[Counter, Counter]] = {}
    for row in rows:
        key = (row["degree"], len(row["partitions"]))
        cell, methods = counts.setdefault(key, (Counter(), Counter()))
        cell[row["oracle_status"] if row["status"] == UNKNOWN else row["status"]] += 1
        methods[row["method"]] += 1
    lines = [
        f"d={d} n={n}: total={cell.total()} realizable={cell[REALIZABLE]}"
        f" exceptional={cell[EXCEPTIONAL]} unknown={cell[UNKNOWN]}"
        " by method: " + " ".join(f"{m}={methods[m]}" for m in sorted(methods))
        for (d, n), (cell, methods) in sorted(counts.items())
    ]
    conflicts = disagreements(rows)
    lines.append(f"disagreements: {len(conflicts)}")
    lines += [f"  DISAGREE {text}" for text in conflicts]
    return lines


def _scan_one(task: tuple[str, SearchBudget]) -> dict:
    """Decide one candidate by the pipeline and by the search alone; returns
    the jsonl row, which holds both statuses.

    Each candidate gets a fresh engine so row content is independent of
    scheduling: deterministic scans must be byte-identical across runs.
    """
    text, budget = task
    datum = parse_datum(text)
    row = DecisionEngine(budget).decide(datum).to_json(datum, input_text=text)
    row["oracle_status"] = oracle_mod.decide(datum, budget).status
    return row


def scan(
    degree_max: int,
    branch_points_max: int,
    budget: SearchBudget | None = None,
    jobs: int = 1,
) -> list[dict]:
    """Adjudicate every candidate with d <= degree_max and n <= branch_points_max.

    Each candidate is decided twice, by the full pipeline and by the search
    alone; the scan returns one row per candidate, in enumeration order, and
    :func:`disagreements` and :func:`summary_lines` read the conflicts (there
    must be none) and per-(d, n) counts from the rows.  Up to ``jobs`` worker
    processes share the candidates, never more than there are candidates or
    CPUs, and a scan that would get one runs in this process; ``jobs`` must
    be at least 1.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    budget = budget or SearchBudget()

    tasks = [(datum.render(), budget)
             for d in range(2, degree_max + 1)
             for n in range(1, branch_points_max + 1)
             for datum in enumerate_candidates(d, n)]
    # a process pool starts all its workers up front, however few tasks it gets
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_scan_one, tasks, chunksize=8))
    return [_scan_one(task) for task in tasks]
