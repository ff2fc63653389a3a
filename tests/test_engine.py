import dataclasses

import pytest

import hurwitz.engine as engine_mod
import hurwitz.oracle as oracle_mod
from hurwitz.criteria import detect_structures
from hurwitz.engine import DecisionEngine, decide, scan, verify
from hurwitz.oracle import ConstellationWitness, SearchBudget
from hurwitz.oracle import decide as oracle_decide
from hurwitz.partitions import CandidateDatum, enumerate_candidates, parse_datum, rh_defect
from hurwitz.reduction import ReductionChain
from hurwitz.verdicts import EXCEPTIONAL, REALIZABLE, UNKNOWN, Verdict


def D(text):
    return parse_datum(text)


def test_pipeline_eks():
    verdict = decide("4: [3,1] [2,2] [2,2]")
    assert verdict.status == EXCEPTIONAL
    assert verdict.method == "filter:cor1.parts"
    assert verdict.reasons


def test_pipeline_klein_chain():
    datum = D("4: [2,2] [2,2] [2,2]")
    verdict = decide(datum)
    assert verdict.status == REALIZABLE
    assert verdict.method.startswith("reduction:")
    assert isinstance(verdict.certificate, ReductionChain)
    assert verify(verdict, datum)


def test_pipeline_zheng_oracle_method():
    datum = D("8: [5,3] [2,2,2,2] [3,3,1,1]")
    assert detect_structures(datum) == ()  # nothing structured to reduce
    verdict = decide(datum)
    assert verdict.status == EXCEPTIONAL
    assert verdict.method == "oracle"


def test_pipeline_prop1_case3():
    verdict = decide("12: [2,2,2,2,2,2] [2,2,2,2,2,2] [8,4]")
    assert verdict.status == EXCEPTIONAL
    assert verdict.method == "filter:prop1.case3"


def test_pipeline_unknown_beyond_degree_limit():
    # degree 40 with no common divisor structure anywhere
    verdict = decide("40: [40] [39,1] [2,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1]")
    assert verdict.status == UNKNOWN
    assert verdict.limit == "degree-limit"


def test_base_cases():
    assert decide(CandidateDatum.make(1, [])).status == REALIZABLE
    assert decide("7: [7] [7]").method == "base-case"
    single = CandidateDatum.make(2, [[2]])
    assert decide(single).status == EXCEPTIONAL
    assert decide(single).method == "rh"  # one partition of 2 is unbalanced


def test_verify_witness_and_chain():
    datum = D("3: [3] [2,1] [2,1]")
    verdict = decide(datum)
    assert verify(verdict, datum)

    chained = D("6: [2,2,2] [2,2,2] [3,3]")
    chain_verdict = decide(chained)
    assert chain_verdict.status == REALIZABLE
    assert verify(chain_verdict, chained)


def test_verify_rejects_tampered_witness():
    datum = D("3: [3] [2,1] [2,1]")
    verdict = decide(datum)
    witness = verdict.certificate
    images = list(witness.perms[0])
    images[0], images[1] = images[1], images[0]
    bad = dataclasses.replace(
        verdict, certificate=ConstellationWitness(3, (tuple(images),) + witness.perms[1:])
    )
    assert not verify(bad, datum)


def test_verify_rejects_missing_certificate():
    datum = D("3: [3] [2,1] [2,1]")
    verdict = dataclasses.replace(decide(datum), certificate=None)
    assert not verify(verdict, datum)


def test_verify_rejects_malformed_witness():
    datum = D("3: [3] [2,1] [2,1]")
    verdict = decide(datum)
    perms = verdict.certificate.perms
    malformed = [
        perms[:2],  # too few permutations
        perms + (perms[0],),  # too many
        (perms[0][:2],) + perms[1:],  # too short
        (perms[0] + (3,),) + perms[1:],  # too long
        ((1.0, 2, 0),) + perms[1:],  # non-integer images
        (("1", "2", "0"),) + perms[1:],
        ((1, 2, None),) + perms[1:],
        ((1, 2, 3),) + perms[1:],  # out of range
        ((1, 2, -1),) + perms[1:],
        ((1, 1, 0),) + perms[1:],  # not a bijection
        (7,) + perms[1:],  # not a sequence
        None,
    ]
    for bad in malformed:
        tampered = dataclasses.replace(verdict, certificate=ConstellationWitness(3, bad))
        assert verify(tampered, datum) is False, bad


def test_verify_rejects_malformed_chain():
    datum = D("4: [2,2] [2,2] [2,2]")
    verdict = decide(datum)
    chain = verdict.certificate
    malformed = [
        ReductionChain((None,), chain.base),
        ReductionChain(list(chain.steps), chain.base),
        ReductionChain(chain.steps, "witness"),
        ReductionChain(5, None),
    ]
    for bad in malformed:
        assert verify(dataclasses.replace(verdict, certificate=bad), datum) is False, bad


def test_verify_propagates_checker_crash(monkeypatch):
    datum = D("3: [3] [2,1] [2,1]")
    verdict = decide(datum)

    def crash(datum, witness):
        raise RuntimeError("checker crashed")

    monkeypatch.setattr(engine_mod, "check_witness", crash)
    with pytest.raises(RuntimeError, match="checker crashed"):
        verify(verdict, datum)


def test_verify_exceptional_methods():
    eks = D("4: [3,1] [2,2] [2,2]")
    assert verify(decide(eks), eks)
    zheng = D("8: [5,3] [2,2,2,2] [3,3,1,1]")
    assert verify(decide(zheng), zheng)


def test_verify_rejects_exceptional_base_case():
    # no base case is exceptional: these three are realizable
    for datum in (CandidateDatum.make(1, []), D("2: [2] [2]"), D("5: [5] [5]")):
        assert decide(datum).status == REALIZABLE
        assert not verify(Verdict(EXCEPTIONAL, "base-case"), datum)


def test_verify_rejects_strict_only_filter_verdict():
    # realizable, but the strict (unsound) cor1 length bound flags it
    klein = D("4: [2,2] [2,2] [2,2]")
    assert not verify(Verdict(EXCEPTIONAL, "filter:cor1.length"), klein)


def test_songxu_realizable_engine_has_certificate():
    datum = D("6: [3,3] [2,2,2] [2,2,2]")
    verdict = decide(datum)
    assert verdict.status == REALIZABLE
    assert verdict.method == "songxu"
    assert verdict.certificate is not None
    assert verify(verdict, datum)


def _outcome(verdict):
    return (verdict.status, verdict.method, verdict.certificate, verdict.reasons, verdict.limit)


def test_memoization_transparent():
    texts = [d.render() for d in enumerate_candidates(6, 3)] + [
        d.render() for d in enumerate_candidates(8, 4) if detect_structures(d)
    ]
    shared = DecisionEngine()
    for text in texts:
        assert _outcome(shared.decide(text)) == _outcome(DecisionEngine().decide(text)), text
    repeat = shared.decide(texts[0])
    assert repeat.stats.cache_hits >= 1


def test_structures_detected_once_per_pipeline(monkeypatch):
    detected = []
    pipelines = []
    real_detect = engine_mod.detect_structures
    real_pipeline = DecisionEngine._pipeline

    def counting_detect(datum):
        detected.append(datum)
        return real_detect(datum)

    def counting_pipeline(self, datum):
        # past the balance check and the degree-1 and [d] [d] base cases
        if rh_defect(datum) == 0 and len(datum.partitions) > 2:
            pipelines.append(datum)
        return real_pipeline(self, datum)

    monkeypatch.setattr(engine_mod, "detect_structures", counting_detect)
    monkeypatch.setattr(DecisionEngine, "_pipeline", counting_pipeline)
    texts = (
        "4: [3,1] [2,2] [2,2]",  # filter
        "4: [2,2] [2,2] [2,2]",  # thm2
        "6: [3,3] [2,2,2] [2,2,2]",  # songxu
        "12: [3,3,3,3] [3,3,3,3] [2,2,2,2,2,2]",  # thm3
        "8: [2,2,2,2] [2,2,2,2] [3,2,2,1] [2,2,1,1,1,1]",  # thm1, children past base cases
        "12: [9,3] [3,3,3,3] [2,2,2,2,1,1,1,1]",  # thm1, children past base cases
        "8: [5,3] [2,2,2,2] [3,3,1,1]",  # no structure: the search
    )
    for text in texts:
        DecisionEngine().decide(text)
    assert len(pipelines) > len(texts)  # child decisions are counted too
    assert detected == pipelines


def test_engine_budget_monotone():
    datum = D("8: [5,3] [2,2,2,2] [3,3,1,1]")
    resolved = None
    for nodes in (2, 64, 4096, 1 << 18):
        status = DecisionEngine(SearchBudget(max_nodes=nodes)).decide(datum).status
        if resolved is None and status != UNKNOWN:
            resolved = status
        elif resolved is not None:
            assert status == resolved
    assert resolved == EXCEPTIONAL


def test_sampled_witness_repeats_across_engines():
    datum = D("8: [5,3] [2,2,2,2] [3,2,2,1]")
    first = DecisionEngine().decide(datum)
    second = DecisionEngine().decide(datum.render())
    assert first.method == second.method == "sample"
    assert first.certificate == second.certificate
    assert first.stats.nodes == second.stats.nodes == 4  # one node per draw
    assert verify(first, datum)


def test_no_draws_gives_the_search_verdict(monkeypatch):
    monkeypatch.setattr(oracle_mod, "SAMPLE_DRAWS", 0)
    searched = 0
    for n, top in ((3, 8), (4, 7)):
        for degree in range(3, top + 1):
            for datum in enumerate_candidates(degree, n):
                verdict = DecisionEngine().decide(datum)
                assert verdict.method != "sample"
                if verdict.method == "oracle":
                    searched += 1
                    alone = oracle_decide(datum)
                    assert (verdict.status, verdict.certificate, verdict.stats.nodes) == (
                        alone.status, alone.certificate, alone.stats.nodes), datum.render()
    assert searched > 400


def test_draws_are_charged_to_the_node_budget():
    # the sampler misses this realizable datum in every draw, and the search
    # alone needs 2,451 nodes for it
    datum = D("10: [7,1,1,1] [7,1,1,1] [7,1,1,1]")
    draws = oracle_mod.SAMPLE_DRAWS
    assert oracle_mod.sample(datum, draws) == (None, draws)
    for max_nodes in (1, draws - 1, draws, draws + 1, draws + 2_450):
        verdict = DecisionEngine(SearchBudget(max_nodes=max_nodes)).decide(datum)
        assert (verdict.status, verdict.limit) == (UNKNOWN, "budget"), max_nodes
    verdict = DecisionEngine(SearchBudget(max_nodes=draws + 2_451)).decide(datum)
    assert (verdict.status, verdict.method) == (REALIZABLE, "oracle")
    assert verdict.stats.nodes == draws + 2_451


def test_scan_small_range():
    report = scan(6, 3)
    assert report.disagreements == []
    cell = report.counts[(4, 3)]
    assert sum(cell.values()) == 6 and cell[EXCEPTIONAL] == 1
    assert report.methods[(4, 3)] == {
        "filter:cor1.parts": 1, "reduction:thm1": 1, "reduction:thm2": 1, "sample": 3}
    assert "4: [2,2] [2,2] [2,2]" in report.audit


def test_scan_modes():
    oracle_only = scan(4, 3, mode="oracle-only")
    pipeline_only = scan(4, 3, mode="pipeline-only")
    assert all("oracle_status" not in row for row in oracle_only.rows)
    assert all("oracle_status" not in row for row in pipeline_only.rows)
    both = scan(4, 3, mode="both")
    assert all(row["oracle_status"] == row["status"] for row in both.rows)


def test_scan_parallel_matches_serial():
    serial = scan(5, 3, jobs=1)
    parallel = scan(5, 3, jobs=2)
    assert serial.rows == parallel.rows


def test_pipeline_agrees_with_oracle_alone():
    for degree in range(2, 8):
        for datum in enumerate_candidates(degree, 3):
            assert decide(datum).status == oracle_decide(datum).status, datum.render()
