import dataclasses

import pytest

import hurwitz.engine as engine_mod
import hurwitz.oracle as oracle_mod
import hurwitz.reduction as reduction_mod
from hurwitz.corpus import load_corpus
from hurwitz.criteria import detect_structures, family_instances
from hurwitz.engine import DecisionEngine, decide, scan, verify
from hurwitz.oracle import ConstellationWitness, SearchBudget
from hurwitz.oracle import decide as oracle_decide
from hurwitz.partitions import (
    CandidateDatum,
    Partition,
    enumerate_candidates,
    merged,
    parse_datum,
    rh_defect,
)
from hurwitz.reduction import ReductionChain, StepReplayError, replay
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
    # the chain reduces to the degree-1 datum, whose witness is the empty tuple
    assert verdict.certificate.base == ConstellationWitness(1, ())
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
    one = decide(CandidateDatum.make(1, []))
    assert (one.status, one.certificate) == (REALIZABLE, ConstellationWitness(1, ()))
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
        ReductionChain(chain.steps, None),
        ReductionChain(5, None),
    ]
    for bad in malformed:
        assert verify(dataclasses.replace(verdict, certificate=bad), datum) is False, bad

    # a step field of the wrong type is a replay error, never a crash
    datum = D("6: [2,2,2] [2,2,2] [3,3]")
    verdict = decide(datum)
    chain = verdict.certificate
    (step,) = chain.steps
    rec = step.records[0]
    bad_records = [
        None,
        dataclasses.replace(rec, index="0"),
        dataclasses.replace(rec, role=None),
        dataclasses.replace(rec, pieces=None),
        dataclasses.replace(rec, pieces=tuple(piece.parts for piece in rec.pieces)),
        dataclasses.replace(rec, pieces=list(rec.pieces)),
    ]
    bad_steps = [dataclasses.replace(step, records=(bad,) + step.records[1:]) for bad in bad_records]
    bad_steps += [
        dataclasses.replace(step, records=list(step.records)),
        dataclasses.replace(step, child="1:"),
        dataclasses.replace(step, theorem=["thm2"]),
    ]
    for bad in bad_steps:
        with pytest.raises(StepReplayError):
            replay(bad)
        bad_chain = ReductionChain((bad,), chain.base)
        assert verify(dataclasses.replace(verdict, certificate=bad_chain), datum) is False, bad

    # forged records whose pieces match their role; each child is rebuilt
    # from the pieces, so only the records' index and role checks can fail
    def forge(datum, match, edit):
        step = next(iter(reduction_mod.children_thm1(datum, match)))
        records = edit(list(step.records))
        child = CandidateDatum.make(step.child.degree, [g for r in records for g in r.pieces])
        return dataclasses.replace(step, records=tuple(records), child=child)

    def ones(records):
        # the [3,2,2,1,1] record's pieces rebuilding [1]*9, which a datum drops
        records[2] = dataclasses.replace(records[2], pieces=(Partition.of([1, 1, 1]),) * 3)
        return records

    def one_pair(records):
        # the second [2,2] recast as an "other" record split into [2] [2]
        records[1] = dataclasses.replace(records[1], role="other", pieces=records[2].pieces)
        return records

    def same_index(records):
        records[1] = dataclasses.replace(records[1], index=0)
        return records

    for text, edit, error in (
        ("9: [3,3,3] [3,3,3] [3,2,2,1,1]", ones, "not the parent's at its record's index"),
        ("4: [2,2] [2,2] [2,2]", one_pair, "two pair-role records"),
        ("4: [2,2] [2,2] [2,2]", same_index, "index order"),
    ):
        datum = D(text)
        match = [m for m in detect_structures(datum) if m.pair == (0, 1)][0]
        bad = forge(datum, match, edit)
        with pytest.raises(StepReplayError, match=error):
            replay(bad)
        forged = Verdict(REALIZABLE, "reduction:thm1", certificate=ReductionChain((bad,), chain.base))
        assert verify(forged, datum) is False, text


def test_shared_divisor_chains_verify_and_reject_index_swaps():
    # every verdict of one engine verifies; in every chain step, swapping the
    # indices of two same-role records that rebuild different partitions is
    # rejected, whether or not the records are then put back in index order
    engine = DecisionEngine()
    chains = forgeries = 0
    for datum in _shared_divisor_data((8, 4), (12, 3), (14, 3), (15, 3), (12, 4)):
        verdict = engine.decide(datum)
        assert verify(verdict, datum), datum.render()
        chain = verdict.certificate
        if not isinstance(chain, ReductionChain):
            continue
        chains += 1
        for k, step in enumerate(chain.steps):
            recs = step.records
            swap = next(((a, b) for a in range(len(recs)) for b in range(a + 1, len(recs))
                         if recs[a].role == recs[b].role
                         and merged(recs[a].pieces) != merged(recs[b].pieces)), None)
            if swap is None:
                continue
            a, b = swap
            swapped = list(recs)
            swapped[a] = dataclasses.replace(recs[a], index=recs[b].index)
            swapped[b] = dataclasses.replace(recs[b], index=recs[a].index)
            for records in (swapped, sorted(swapped, key=lambda r: r.index)):
                bad = dataclasses.replace(step, records=tuple(records))
                with pytest.raises(StepReplayError):
                    replay(bad)
                steps = chain.steps[:k] + (bad,) + chain.steps[k + 1:]
                forged = dataclasses.replace(verdict, certificate=ReductionChain(steps, chain.base))
                assert verify(forged, datum) is False, datum.render()
            forgeries += 1
    assert (chains, forgeries) == (2608, 2498)


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


def _shared_divisor_data(*cells):
    return [datum for d, n in cells for datum in enumerate_candidates(d, n) if detect_structures(datum)]


def _outcome(verdict):
    return (verdict.status, verdict.method, verdict.certificate, verdict.reasons, verdict.limit)


def test_memoization_transparent():
    # one engine's verdict and split memos change no verdict
    texts = [d.render() for d in enumerate_candidates(6, 3)] + [
        d.render() for d in _shared_divisor_data((8, 3), (12, 3), (8, 4))
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


def test_engine_builds_each_split_once(monkeypatch):
    calls = []
    real_decompose = reduction_mod.decompose

    def counting_decompose(partition, count, total):
        calls.append((partition, count, total))
        return real_decompose(partition, count, total)

    monkeypatch.setattr(reduction_mod, "decompose", counting_decompose)
    data = ([parse_datum(entry.datum_text) for entry in load_corpus()]
            + [datum for datum, _ in family_instances(2, 4, 2)]
            + _shared_divisor_data((12, 3)))
    engine = DecisionEngine()
    for datum in data:
        engine.decide(datum)
    first = list(calls)
    assert first and len(set(first)) == len(first)
    calls.clear()
    fresh = DecisionEngine()
    for datum in data:
        fresh.decide(datum)
    assert calls == first  # the splits live and die with their engine


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
    assert all(row["oracle_status"] == row["status"] for row in report.rows)


def test_scan_parallel_matches_serial():
    serial = scan(5, 3, jobs=1)
    parallel = scan(5, 3, jobs=2)
    assert serial.rows == parallel.rows


def test_pipeline_agrees_with_oracle_alone():
    for degree in range(2, 8):
        for datum in enumerate_candidates(degree, 3):
            assert decide(datum).status == oracle_decide(datum).status, datum.render()
