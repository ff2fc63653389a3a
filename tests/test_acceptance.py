"""End-to-end acceptance suite.

Each test enforces one release criterion at its stated time bound and
prints one PASS/FAIL line (visible with ``pytest -s``, or on failure).
The heavy sweeps re-derive everything from scratch against the search
oracle; nothing here trusts cached or precomputed verdicts.
"""

import random
import time
from collections import Counter

from hurwitz.cli import main as cli_main
from hurwitz.criteria import (
    corollary_filter,
    detect_structures,
    family_instances,
    prop1_filter,
    songxu_decide,
)
from hurwitz.engine import DecisionEngine, decide, scan, verify
from hurwitz.oracle import SearchBudget, check_witness
from hurwitz.oracle import decide as oracle_decide
from hurwitz.partitions import (
    CandidateDatum,
    Partition,
    decompose,
    enumerate_candidates,
    parse_datum,
    partitions_of,
)
from hurwitz.reduction import children_thm1, children_thm2, children_thm3
from hurwitz.verdicts import EXCEPTIONAL, REALIZABLE, UNKNOWN
from oracles import naive_splits, songxu_datum

BUDGET = SearchBudget()


def _criterion(name: str, ok: bool, note: str = "") -> None:
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if note:
        line += f"  ({note})"
    print(line)
    assert ok, line


_oracle_cache: dict = {}


def oracle_status(datum) -> str:
    if datum not in _oracle_cache:
        _oracle_cache[datum] = oracle_decide(datum, BUDGET).status
    return _oracle_cache[datum]


def test_criterion_eks_datum():
    """The degree-4 landmark is exceptional by both the filter and the search, < 1 s."""
    start = time.perf_counter()
    datum = parse_datum("4: [3,1] [2,2] [2,2]")
    pipeline = decide(datum)
    filter_path = pipeline.status == EXCEPTIONAL and pipeline.method.startswith("filter:")
    search = oracle_decide(datum, BUDGET)
    oracle_path = search.status == EXCEPTIONAL and search.limit is None
    elapsed = time.perf_counter() - start
    _criterion(
        "eks-datum", filter_path and oracle_path and elapsed < 1.0,
        f"filter={pipeline.method}, search exhausted, {elapsed:.3f}s",
    )


def test_criterion_degree_eight_pair():
    """One realizable and one exceptional datum at degree 8, < 30 s each."""
    start = time.perf_counter()
    good = parse_datum("8: [5,3] [2,2,2,2] [3,2,2,1]")
    verdict = oracle_decide(good, BUDGET)
    ok_good = verdict.status == REALIZABLE and check_witness(good, verdict.certificate)
    elapsed_good = time.perf_counter() - start

    start = time.perf_counter()
    bad = parse_datum("8: [5,3] [2,2,2,2] [3,3,1,1]")
    verdict_bad = oracle_decide(bad, BUDGET)
    ok_bad = verdict_bad.status == EXCEPTIONAL and verdict_bad.limit is None
    elapsed_bad = time.perf_counter() - start
    _criterion(
        "degree-eight-pair",
        ok_good and ok_bad and elapsed_good < 30 and elapsed_bad < 30,
        f"witness verified {elapsed_good:.2f}s, exhausted {elapsed_bad:.2f}s",
    )


def test_criterion_thm1_equivalence_scan():
    """For every datum with d <= 10, n = 3 and a pair divisible by 2, 3 or 5:
    some child realizable iff the parent is; zero disagreements, < 10 min."""
    start = time.perf_counter()
    structured = 0
    disagreements = []
    for degree in range(2, 11):
        for datum in enumerate_candidates(degree, 3):
            matches = [m for m in detect_structures(datum) if m.divisor in (2, 3, 5)]
            if not matches:
                continue
            structured += 1
            parent = oracle_status(datum)
            assert parent != UNKNOWN
            for match in matches:
                child_statuses = [oracle_status(child) for _, child in children_thm1(datum, match)]
                assert UNKNOWN not in child_statuses
                derived = REALIZABLE if REALIZABLE in child_statuses else EXCEPTIONAL
                if derived != parent:
                    disagreements.append((datum.render(), match.pair, match.divisor))
    elapsed = time.perf_counter() - start
    _criterion(
        "thm1-equivalence-scan",
        structured > 0 and not disagreements and elapsed < 600,
        f"{structured} structured data, {len(disagreements)} disagreements, {elapsed:.1f}s",
    )


def test_criterion_thm2_thm3_spot_equivalences():
    """Two landmark reductions collapse to the empty degree-1 datum and the
    search agrees both parents are realizable."""
    klein = parse_datum("4: [2,2] [2,2] [2,2]")
    match = [m for m in detect_structures(klein) if m.pair == (0, 1)][0]
    klein_children = list(children_thm2(klein, match, third=2, t=2))
    klein_ok = (
        [child for _, child in klein_children] == [CandidateDatum(1, ())]
        and oracle_status(klein) == REALIZABLE
        and decide(klein).method == "reduction:thm2"
    )

    tetra = parse_datum("12: [3,3,3,3] [3,3,3,3] [2,2,2,2,2,2]")
    match3 = [m for m in detect_structures(tetra) if m.divisor == 3][0]
    tetra_children = list(children_thm3(tetra, match3, third=match3.other_gcds[0][0]))
    tetra_ok = (
        [child for _, child in tetra_children] == [CandidateDatum(1, ())]
        and oracle_decide(tetra, BUDGET).status == REALIZABLE
        and decide(tetra).method == "reduction:thm3"
    )
    _criterion("thm2-thm3-spot", klein_ok and tetra_ok)


def test_criterion_filter_soundness_scan():
    """No weak-mode filter flags a realizable datum, over d <= 8, n <= 4; < 15 min."""
    start = time.perf_counter()
    candidates = 0
    flagged = 0
    false_positives = []
    for degree in range(2, 9):
        for n in range(1, 5):
            for datum in enumerate_candidates(degree, n):
                candidates += 1
                matches = detect_structures(datum)
                reports = prop1_filter(matches) + corollary_filter(datum, matches)
                if not reports:
                    continue
                flagged += 1
                status = oracle_status(datum)
                assert status != UNKNOWN
                if status == REALIZABLE:
                    false_positives.append(datum.render())
    elapsed = time.perf_counter() - start
    _criterion(
        "filter-soundness-scan",
        candidates > 1000 and flagged > 0 and not false_positives and elapsed < 900,
        f"{candidates} candidates, {flagged} flagged, {len(false_positives)} false positives, {elapsed:.1f}s",
    )


def test_criterion_songxu_agreement():
    """Closed form matches the search for all k <= 5, x, y <= k, every first
    partition shape; includes the gcd-failure case."""
    start = time.perf_counter()
    checked = 0
    mismatches = []
    for k in (3, 4, 5):
        for x in range(1, k + 1):
            for y in range(1, k + 1):
                for parts in partitions_of(2 * k):
                    if len(parts) != x + y:
                        continue
                    first = Partition(parts)
                    closed = REALIZABLE if songxu_decide(k, x, y, first) else EXCEPTIONAL
                    datum = songxu_datum(k, x, y, first)
                    if closed != oracle_status(datum):
                        mismatches.append((k, x, y, str(first)))
                    checked += 1
    gcd_case = not songxu_decide(4, 3, 1, Partition.of([2, 2, 2, 2]))
    elapsed = time.perf_counter() - start
    _criterion(
        "songxu-agreement",
        checked > 100 and not mismatches and gcd_case,
        f"{checked} combinations, {len(mismatches)} mismatches, {elapsed:.1f}s",
    )


def test_criterion_family_regression():
    """Every generated family instance (s=2, k in {3,4}, t=2, big part) trips
    cor1.parts and is confirmed exceptional by the search.  Every instance
    with s*k <= 24 and t <= 2 is decided by a filter with no search node, so
    the family command needs no budget."""
    total = 0
    failures = []
    for k in (3, 4):
        instances = list(family_instances(2, k, 2))
        if not instances:
            failures.append(f"no instances for k={k}")
        for datum, rule in instances:
            total += 1
            rules = {r.rule for r in corollary_filter(datum, detect_structures(datum))}
            if rule not in rules:
                failures.append(f"{datum.render()} missing {rule}")
            if oracle_status(datum) != EXCEPTIONAL:
                failures.append(f"{datum.render()} not exceptional")
    filtered = 0
    engine = DecisionEngine()
    for s in range(2, 13):
        for k in range(2, 24 // s + 1):
            for t in (1, 2):
                for datum, rule in family_instances(s, k, t):
                    filtered += 1
                    verdict = engine.decide(datum)
                    if not (verdict.method.startswith("filter:") and verdict.stats.nodes == 0
                            and rule in {r.rule for r in verdict.reasons}):
                        failures.append(f"{datum.render()} decided by {verdict.method}")
    _criterion(
        "family-regression", total >= 5 and filtered == 2642 and not failures,
        f"{total} instances across degrees 6 and 8; {filtered} filtered with s*k <= 24",
    )


def test_criterion_decompose_oracle_equivalence():
    """Splits match the labeled-group brute force on 1000 random multisets."""
    rng = random.Random(90721)
    mismatches = 0
    for _ in range(1000):
        length = rng.randint(1, 12)
        parts = tuple(sorted((rng.randint(1, 9) for _ in range(length)), reverse=True))
        total = sum(parts)
        count = rng.choice([m for m in (1, 2, 3, 4) if total % m == 0])
        source = Partition(parts)
        mine = {tuple(g.parts for g in groups) for groups in decompose(source, count)}
        if mine != naive_splits(parts, count, total // count):
            mismatches += 1
    _criterion("decompose-oracle-equivalence", mismatches == 0, "1000 random multisets")


def test_criterion_scan_determinism(tmp_path):
    """Two deterministic scans emit byte-identical JSONL."""
    first = tmp_path / "first.jsonl"
    second = tmp_path / "second.jsonl"
    for path in (first, second):
        code = cli_main([
            "scan", "--degree-max", "6", "--branch-points-max", "3", "--out", str(path),
        ])
        assert code == 0
    identical = first.read_bytes() == second.read_bytes()
    _criterion("scan-determinism", identical, f"{len(first.read_bytes())} bytes")


def test_prime_degree_report():
    """Exploratory, reported not asserted: exceptional counts at prime degree."""
    for degree in (5, 7):
        rows = scan(degree, 3, BUDGET)
        # a pipeline unknown counts by the search's status, as in the summary
        cell = Counter(row["oracle_status"] if row["status"] == UNKNOWN else row["status"]
                       for row in rows
                       if row["degree"] == degree and len(row["partitions"]) == 3)
        print(
            f"REPORT prime-degree d={degree} n=3: realizable={cell[REALIZABLE]}"
            f" exceptional={cell[EXCEPTIONAL]}"
        )


def test_criterion_certificates_verify():
    """Every realizable verdict across a small dual scan carries a certificate
    that survives independent re-verification."""
    engine = DecisionEngine(BUDGET)
    bad = []
    for degree in range(2, 8):
        for n in range(2, 4):
            for datum in enumerate_candidates(degree, n):
                verdict = engine.decide(datum)
                if not verify(verdict, datum):
                    bad.append(datum.render())
                if verdict.status == REALIZABLE and verdict.certificate is None:
                    bad.append(datum.render())
    _criterion("certificate-soundness", not bad, f"{len(bad)} failures")
