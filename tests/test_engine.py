import dataclasses
import hashlib
import random
from types import SimpleNamespace

import pytest

import hurwitz.engine as engine_mod
import hurwitz.oracle as oracle_mod
import hurwitz.reduction as reduction_mod
from hurwitz.corpus import load_corpus
from hurwitz.criteria import detect_structures, family_instances
from hurwitz.engine import DecisionEngine, decide, scan, summary_lines, verify
from hurwitz.oracle import ConstellationWitness, SearchBudget
from hurwitz.oracle import decide as oracle_decide
from hurwitz.partitions import (
    CandidateDatum,
    Partition,
    enumerate_candidates,
    parse_datum,
    rh_defect,
)
from hurwitz.reduction import ReductionChain, StepReplayError, replay
from hurwitz.verdicts import EXCEPTIONAL, REALIZABLE, UNKNOWN, Verdict
from oracles import reference_check_witness


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


def test_unknown_child_keeps_its_plan_from_proving_exceptional():
    # under max_degree=3 the one thm1 child, 4: [2,2] [3,1] [3,1], is unknown,
    # so its plan's enumeration proves nothing and the datum falls through to
    # the search; with the default budget that child is realizable
    datum = D("8: [4,4] [2,2,2,2] [3,3,1,1]")
    verdict = DecisionEngine(SearchBudget(max_degree=3)).decide(datum)
    assert (verdict.status, verdict.method, verdict.limit) == (UNKNOWN, "oracle", "degree-limit")
    verdict = decide(datum)
    assert (verdict.status, verdict.method) == (REALIZABLE, "reduction:thm1")


def test_base_cases():
    one = decide(CandidateDatum(1, []))
    assert (one.status, one.certificate) == (REALIZABLE, ConstellationWitness(1, ()))
    assert decide("7: [7] [7]").method == "base-case"
    single = CandidateDatum(2, [[2]])
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


@pytest.mark.parametrize("text, perms", [
    ("3: [3] [2,1] [2,1]", ((1, 2, 0), (1, 0, 2), (1, 0, 2))),  # right cycle types, product not 1
    ("3: [2,1] [2,1] [2,1] [2,1]", ((1, 0, 2),) * 4),  # product 1, but point 2 is fixed
], ids=["product-not-identity", "intransitive"])
def test_witness_checks_reject_a_wrong_product_or_orbit(text, perms):
    datum = D(text)
    witness = ConstellationWitness(datum.degree, perms)
    assert not oracle_mod.check_witness(datum, witness)
    assert not reference_check_witness(datum, witness)
    assert not verify(Verdict(REALIZABLE, "sample", witness), datum)


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
        ((True, 2, 0),) + perms[1:],
        (("1", "2", "0"),) + perms[1:],
        ((1, 2, None),) + perms[1:],
        ((1, 2, 3),) + perms[1:],  # out of range
        ((1, 2, -1),) + perms[1:],
        ((-2, 2, 0),) + perms[1:],  # read from the end, -2 would close the 3-cycle (0 1 2)
        ((1, 1, 0),) + perms[1:],  # not a bijection
        ((1, 2, 1),) + perms[1:],  # the walk from 0 re-enters its own 1, not 0
        ((1, 0, 1),) + perms[1:],  # the walk from 2 reaches 1, closed by the walk from 0
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
        dataclasses.replace(rec, role=None),
        dataclasses.replace(rec, pieces=None),
        dataclasses.replace(rec, pieces=tuple(piece.parts for piece in rec.pieces)),
        dataclasses.replace(rec, pieces=list(rec.pieces)),
    ]
    bad_steps = [dataclasses.replace(step, records=(bad,) + step.records[1:]) for bad in bad_records]
    bad_steps += [
        dataclasses.replace(step, records=list(step.records)),
        dataclasses.replace(step, theorem=["thm2"]),
        None,
    ]
    for bad in bad_steps:
        with pytest.raises(StepReplayError):
            replay(bad, datum)
        bad_chain = ReductionChain((bad,), chain.base)
        assert verify(dataclasses.replace(verdict, certificate=bad_chain), datum) is False, bad

    # forged records whose pieces match their role, so only the rebuild and
    # role checks can fail
    def forge(datum, match, edit):
        step, _ = next(iter(reduction_mod.children_thm1(datum, match)))
        return dataclasses.replace(step, records=tuple(edit(list(step.records))))

    def ones(records):
        # the [3,2,2,1,1] record's pieces rebuilding [1]*9, which a datum drops
        records[2] = dataclasses.replace(records[2], pieces=(Partition([1, 1, 1]),) * 3)
        return records

    def one_pair(records):
        # the second [2,2] recast as an "other" record split into [2] [2]
        records[1] = dataclasses.replace(records[1], role="other", pieces=records[2].pieces)
        return records

    def a_third(records):
        # thm1 has no third role
        records[2] = dataclasses.replace(records[2], role="third")
        return records

    for text, edit, error in (
        ("9: [3,3,3] [3,3,3] [3,2,2,1,1]", ones, "does not rebuild"),
        ("4: [2,2] [2,2] [2,2]", one_pair, "two pair-role records"),
        ("4: [2,2] [2,2] [2,2]", a_third, "not allowed in thm1"),
    ):
        datum = D(text)
        match = [m for m in detect_structures(datum) if m.pair == (0, 1)][0]
        bad = forge(datum, match, edit)
        with pytest.raises(StepReplayError, match=error):
            replay(bad, datum)
        forged = Verdict(REALIZABLE, "reduction:thm1", certificate=ReductionChain((bad,), chain.base))
        assert verify(forged, datum) is False, text


def test_shared_divisor_chains_verify_and_reject_index_swaps():
    # every verdict of one engine verifies; in every chain step, swapping the
    # positions of any two records whose parent partitions differ is rejected
    engine = DecisionEngine()
    chains = forgeries = 0
    for datum in _shared_divisor_data((8, 4), (12, 3), (14, 3), (15, 3), (12, 4)):
        verdict = engine.decide(datum)
        assert verify(verdict, datum), datum.render()
        chain = verdict.certificate
        if not isinstance(chain, ReductionChain):
            continue
        chains += 1
        parent = datum
        for k, step in enumerate(chain.steps):
            ps = parent.partitions
            for a in range(len(ps)):
                for b in range(a + 1, len(ps)):
                    if ps[a] == ps[b]:
                        continue
                    records = list(step.records)
                    records[a], records[b] = records[b], records[a]
                    bad = dataclasses.replace(step, records=tuple(records))
                    with pytest.raises(StepReplayError):
                        replay(bad, parent)
                    steps = chain.steps[:k] + (bad,) + chain.steps[k + 1:]
                    forged = dataclasses.replace(verdict, certificate=ReductionChain(steps, chain.base))
                    assert verify(forged, datum) is False, datum.render()
                    forgeries += 1
            parent = replay(step, parent)
    assert (chains, forgeries) == (2608, 11460)


def test_chain_child_of_non_int_degree_cannot_be_built():
    # the last child of this songxu chain is rebuilt by replay with an int
    # degree; a float-degree datum, which once crashed check_witness inside
    # verify(), cannot be built at all
    datum = D("8: [4,4] [2,2,2,2] [2,2,2,2]")
    verdict = decide(datum)
    assert verdict.method == "songxu" and verify(verdict, datum)
    child = datum
    for step in verdict.certificate.steps:
        child = replay(step, child)
    assert child == CandidateDatum(1, ()) and type(child.degree) is int
    for degree in (1.0, True, "1", None):
        with pytest.raises(ValueError, match="degree must be a positive int"):
            CandidateDatum(degree, ())


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
    # no base case is exceptional: these four are realizable, and no
    # exceptional method but rh is accepted on one
    for datum in (CandidateDatum(1, []), D("2: [2] [2]"), D("4: [4] [4]"), D("5: [5] [5]")):
        assert decide(datum).status == REALIZABLE
        for method in ("base-case", "oracle", "reduction:thm1", "filter:cor1.parts", "songxu"):
            assert not verify(Verdict(EXCEPTIONAL, method), datum), (datum.render(), method)


def test_verify_rejects_exceptional_claims_on_unbalanced_data():
    # only rh is exceptional on unbalanced data; a forged filter claim is
    # False, not an error from structure detection
    for text in ("6: [2,2,2] [2,2,2] [4,1,1]", "5: [5]"):
        datum = D(text)
        assert decide(datum).method == "rh"
        assert verify(Verdict(EXCEPTIONAL, "rh"), datum)
        for method in ("filter:cor1.parts", "oracle", "reduction:thm1", "songxu"):
            assert verify(Verdict(EXCEPTIONAL, method), datum) is False, (text, method)


def test_verify_rejects_realizable_claims_on_unbalanced_data():
    # four transpositions of 2 points and three equal 3-cycles have product 1
    # and act transitively, but they make torus covers (Riemann-Hurwitz), so
    # no realizable claim holds on these unbalanced data
    for text, perm, n in (("2: [2] [2] [2] [2]", (1, 0), 4), ("3: [3] [3] [3]", (1, 2, 0), 3)):
        datum = D(text)
        assert rh_defect(datum) == 2 and decide(datum).method == "rh"
        witness = ConstellationWitness(datum.degree, (perm,) * n)
        assert oracle_mod.check_witness(datum, witness)
        for certificate in (witness, ReductionChain((), witness)):
            assert verify(Verdict(REALIZABLE, "oracle", certificate=certificate), datum) is False, text


def test_verify_rejects_non_str_methods():
    klein = D("4: [2,2] [2,2] [2,2]")
    for method in (None, 5, ("x",)):
        assert verify(Verdict(EXCEPTIONAL, method), klein) is False, method


def test_two_point_datum_above_the_degree_bound_is_unknown():
    # the witness of [d] [d] holds two d-cycles, so above the bound none is built
    assert oracle_mod.TWO_POINT_DEGREE_MAX == 100_000
    d = oracle_mod.TWO_POINT_DEGREE_MAX + 1
    datum = D(f"{d}: [{d}] [{d}]")
    big = SearchBudget(max_degree=2 * d)
    for verdict in (decide(datum, big), oracle_decide(datum, big)):
        assert (verdict.status, verdict.limit, verdict.certificate) == (UNKNOWN, "degree-limit", None)
        assert verify(verdict, datum)


def test_verify_rejects_unknown_claims_the_library_cannot_emit():
    klein = D("4: [2,2] [2,2] [2,2]")
    two_point = D("4: [4] [4]")
    forged = [
        # an unbalanced datum is exceptional rh, never unknown
        (Verdict(UNKNOWN, "oracle", limit="budget"), D("5: [5]")),
        (Verdict(UNKNOWN, "oracle", limit="degree-limit"), D("6: [2,2,2] [2,2,2] [4,1,1]")),
        # no method but sample and oracle ends unknown on three partitions
        (Verdict(UNKNOWN, "songxu", limit="degree-limit"), klein),
        (Verdict(UNKNOWN, "reduction:thm1", limit="budget"), klein),
        (Verdict(UNKNOWN, "base-case", limit="degree-limit"), klein),
        # the draws run under the search's degree limit, so only run out of nodes
        (Verdict(UNKNOWN, "sample", limit="degree-limit"), klein),
        (Verdict(UNKNOWN, "oracle", limit=None), klein),
        (Verdict(UNKNOWN, ["oracle"], limit="budget"), klein),
        # a two-point datum is never searched, and base-case is unknown only
        # above the two-point degree bound
        (Verdict(UNKNOWN, "oracle", limit="budget"), two_point),
        (Verdict(UNKNOWN, "sample", limit="budget"), two_point),
        (Verdict(UNKNOWN, "base-case", limit="degree-limit"), two_point),
    ]
    for verdict, datum in forged:
        assert verify(verdict, datum) is False, (verdict.method, verdict.limit, datum.render())
    for method, limit in (("sample", "budget"), ("oracle", "budget"), ("oracle", "degree-limit")):
        assert verify(Verdict(UNKNOWN, method, limit=limit), klein), (method, limit)
    assert verify(Verdict(UNKNOWN, "oracle", limit="degree-limit"), two_point)


def test_every_unknown_verdict_verifies():
    # every engine and search verdict for d <= 7, n = 2..4 under four budgets,
    # each limit reached, verifies
    claims = set()
    for budget in (SearchBudget(), SearchBudget(max_nodes=1), SearchBudget(max_nodes=300),
                   SearchBudget(max_degree=6)):
        engine = DecisionEngine(budget)
        for n in (2, 3, 4):
            for degree in range(2, 8):
                for datum in enumerate_candidates(degree, n):
                    for verdict in (engine.decide(datum), oracle_decide(datum, budget)):
                        assert verify(verdict, datum), (datum.render(), verdict.method)
                        if verdict.status == UNKNOWN:
                            claims.add((verdict.method, verdict.limit))
    assert claims == {("sample", "budget"), ("oracle", "budget"), ("oracle", "degree-limit")}


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


def _count_detections(monkeypatch) -> tuple[list, list]:
    """Record the data structure detection runs on, and those whose pipeline
    passes the balance check and the degree-1 and [d] [d] base cases."""
    detected = []
    pipelines = []
    real_detect = engine_mod.detect_structures
    real_pipeline = DecisionEngine._pipeline

    def counting_detect(datum):
        detected.append(datum)
        return real_detect(datum)

    def counting_pipeline(self, datum):
        if rh_defect(datum) == 0 and len(datum.partitions) > 2:
            pipelines.append(datum)
        return real_pipeline(self, datum)

    monkeypatch.setattr(engine_mod, "detect_structures", counting_detect)
    monkeypatch.setattr(DecisionEngine, "_pipeline", counting_pipeline)
    return detected, pipelines


def test_structures_detected_once_per_pipeline(monkeypatch):
    detected, pipelines = _count_detections(monkeypatch)
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


def test_structures_memo_matches_detection():
    # one engine answers for every datum of a (degree, gcds) signature
    engine = DecisionEngine()
    data = [datum for d in range(2, 13) for datum in enumerate_candidates(d, 3)]
    data += [datum for d in range(2, 9) for datum in enumerate_candidates(d, 4)]
    for datum in data:
        assert engine._structures_of(datum) == detect_structures(datum), datum.render()
    assert len(engine._structures) < len(data)


def _signature(datum):
    return datum.degree, tuple(p.gcd() for p in datum.partitions)


def test_engine_detects_structures_once_per_signature(monkeypatch):
    # the data of the benchmark's structured workload, decided by one engine
    detected, pipelines = _count_detections(monkeypatch)
    data = ([parse_datum(entry.datum_text) for entry in load_corpus()]
            + [datum for datum, _ in family_instances(2, 4, 2)]
            + _shared_divisor_data((8, 3), (9, 3), (10, 3), (8, 4), (12, 3), (14, 3), (15, 3), (12, 4)))
    engine = DecisionEngine()
    for datum in data:
        engine.decide(datum)
    signatures = [_signature(datum) for datum in detected]
    assert len(set(signatures)) == len(signatures)
    assert set(signatures) == {_signature(datum) for datum in pipelines}
    assert (len(signatures), len(pipelines)) == (133, 3579)


def test_scan_detects_each_signature_once_per_row(monkeypatch):
    # each row gets a fresh engine, which detects a signature once
    detected, _ = _count_detections(monkeypatch)
    per_row = []
    real_scan_one = engine_mod._scan_one

    def counting_scan_one(task):
        start = len(detected)
        row = real_scan_one(task)
        per_row.append([_signature(datum) for datum in detected[start:]])
        return row

    monkeypatch.setattr(engine_mod, "_scan_one", counting_scan_one)
    rows = scan(8, 4)
    assert len(rows) == len(per_row) == 1469
    assert all(len(set(signatures)) == len(signatures) for signatures in per_row)
    assert len(detected) == 1551


def test_verdicts_share_method_names():
    # a caller that keeps many verdicts, from one engine or many, keeps each
    # method name once
    names = {}
    for datum in _shared_divisor_data((8, 3), (8, 4)):
        method = decide(datum).method
        assert names.setdefault(method, method) is method, method
    assert {"filter:cor1.parts", "reduction:thm1", "reduction:thm2"} <= set(names)


def test_engine_builds_each_split_once(monkeypatch):
    calls = []
    real_decompose = reduction_mod.decompose

    def counting_decompose(partition, count):
        calls.append((partition, count))
        return real_decompose(partition, count)

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
    # the pipeline's search offers orbit-joining images first; the reference
    # keeps the ascending order, and the two must agree on every status
    monkeypatch.setattr(oracle_mod, "SAMPLE_DRAWS", 0)
    searched = 0
    for n, top in ((3, 8), (4, 7)):
        for degree in range(3, top + 1):
            for datum in enumerate_candidates(degree, n):
                verdict = DecisionEngine().decide(datum)
                assert verdict.method != "sample"
                if verdict.method == "oracle":
                    searched += 1
                    alone = oracle_decide(datum, join_first=True)
                    assert (verdict.status, verdict.certificate, verdict.stats.nodes) == (
                        alone.status, alone.certificate, alone.stats.nodes), datum.render()
                    assert verdict.status == oracle_decide(datum).status, datum.render()
    assert searched > 400


def test_draws_are_charged_to_the_node_budget():
    # the sampler misses this realizable datum in every draw; the pipeline's
    # search then needs 61 nodes for it, and the reference alone 2,451
    datum = D("10: [7,1,1,1] [7,1,1,1] [7,1,1,1]")
    assert oracle_decide(datum).stats.nodes == 2_451
    draws = oracle_mod.SAMPLE_DRAWS
    assert oracle_mod.sample(datum, draws) == (None, draws)
    for max_nodes in (1, draws - 1, draws, draws + 1, draws + 60):
        verdict = DecisionEngine(SearchBudget(max_nodes=max_nodes)).decide(datum)
        assert (verdict.status, verdict.limit) == (UNKNOWN, "budget"), max_nodes
    verdict = DecisionEngine(SearchBudget(max_nodes=draws + 61)).decide(datum)
    assert (verdict.status, verdict.method) == (REALIZABLE, "oracle")
    assert verdict.stats.nodes == draws + 61


def test_a_draw_after_the_first_relabels_one_factor(monkeypatch):
    # the first draw relabels each of the k = n - 2 drawn factors and every
    # later draw one of them, at d random numbers a relabelling: N draws take
    # d * (N + k - 1), and the engine charges each as one node.  A draw's test
    # of the swapped order takes no random number
    calls = 0

    class Counting(random.Random):
        def random(self):
            nonlocal calls
            calls += 1
            return super().random()

    monkeypatch.setattr(oracle_mod, "random", SimpleNamespace(Random=Counting))
    exceptional = parse_datum("8: [2,2,2,2] [2,2,2,2] [5,1,1,1] [3,1,1,1,1,1]")
    assert oracle_decide(exceptional).status == EXCEPTIONAL
    for draws in (1, 2, 3, oracle_mod.SAMPLE_DRAWS):
        calls = 0
        assert oracle_mod.sample(exceptional, draws) == (None, draws)
        assert calls == 8 * (draws + 1)
    for text, hit in (("8: [5,1,1,1] [5,1,1,1] [2,2,2,1,1] [4,1,1,1,1]", 116),
                      ("7: [5,1,1] [4,1,1,1] [3,1,1,1,1] [3,1,1,1,1] [2,1,1,1,1,1]", 81)):
        datum = parse_datum(text)
        k = len(datum.partitions) - 2
        for max_nodes, status in ((hit - 1, UNKNOWN), (hit, REALIZABLE)):
            calls = 0
            verdict = DecisionEngine(SearchBudget(max_nodes=max_nodes)).decide(datum)
            assert (verdict.status, verdict.method, verdict.stats.nodes) == (status, "sample", max_nodes)
            assert calls == datum.degree * (max_nodes + k - 1)


def test_plans_of_one_child_degree_run_in_detection_order():
    # the three pairs of Klein's datum each admit a thm2 row of child degree
    # 1; the first detected, pair (0, 1) with partition 2 as the third, decides
    datum = parse_datum("4: [2,2] [2,2] [2,2]")
    rows = [row for match in detect_structures(datum) for row in match.reductions]
    assert [row for row in rows if row[3] == 1] == [
        ("thm2", 2, 2, 1), ("thm2", 1, 2, 1), ("thm2", 0, 2, 1)]
    verdict = decide(datum)
    assert verdict.method == "reduction:thm2"
    assert [record.role for record in verdict.certificate.steps[0].records] == [
        "pair", "pair", "third"]
    # the plan sort reads the child degree alone: on balanced data the rows of
    # one child degree share their theorem (a thm1 pair at s = 2t and a thm2
    # triple at t, a thm1 pair at s = 12 and a thm3 triple, or thm2 at t = 6
    # and thm3, would spend more than 2d - 2 of the balance)
    for degree in range(4, 13):
        for n in (3, 4):
            for datum in enumerate_candidates(degree, n):
                theorems = {}
                for match in detect_structures(datum):
                    for theorem, _, _, u in match.reductions:
                        assert theorems.setdefault(u, theorem) == theorem, datum.render()


def test_splits_with_hundreds_of_parts_decide():
    # building a split takes one step per part placed and per group closed;
    # these splits take about a thousand, more than the default recursion depth
    for text, status, method in [
        ("990: [988,2] [988,2] [3" + ",1" * 987 + "]", UNKNOWN, "oracle"),
        ("800: [400,400] [400,400] [2,2" + ",1" * 796 + "]", REALIZABLE, "reduction:thm1"),
    ]:
        datum = parse_datum(text)
        verdict = decide(datum)
        assert (verdict.status, verdict.method) == (status, method)
        assert verify(verdict, datum)


def test_scan_statuses_are_pinned():
    # the (input, status) pairs of d <= 8, n <= 4: how a witness is found may
    # move a row's method, certificate and stats, never its status
    text = "".join(f"{row['input']} {row['status']}\n" for row in scan(8, 4))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "91949013869a2d7a702fbed28f452d317fd2cf0a648e25085ea3b9ccf57c939c"
    )


def test_scan_small_range():
    rows = scan(6, 3)
    assert all(row["oracle_status"] == row["status"] for row in rows)
    assert summary_lines(rows) == [
        "d=2 n=2: total=1 realizable=1 exceptional=0 unknown=0 by method: base-case=1",
        "d=3 n=2: total=1 realizable=1 exceptional=0 unknown=0 by method: base-case=1",
        "d=3 n=3: total=1 realizable=1 exceptional=0 unknown=0 by method: sample=1",
        "d=4 n=2: total=1 realizable=1 exceptional=0 unknown=0 by method: base-case=1",
        "d=4 n=3: total=6 realizable=5 exceptional=1 unknown=0 by method:"
        " filter:cor1.parts=1 reduction:thm1=1 reduction:thm2=1 sample=3",
        "d=5 n=2: total=1 realizable=1 exceptional=0 unknown=0 by method: base-case=1",
        "d=5 n=3: total=11 realizable=11 exceptional=0 unknown=0 by method: sample=11",
        "d=6 n=2: total=1 realizable=1 exceptional=0 unknown=0 by method: base-case=1",
        "d=6 n=3: total=39 realizable=34 exceptional=5 unknown=0 by method: filter:cor1.parts=3"
        " filter:prop1.case3=1 oracle=1 reduction:thm1=2 sample=25 songxu=7",
        "disagreements: 0",
    ]


def test_scan_parallel_matches_serial():
    serial = scan(5, 3, jobs=1)
    parallel = scan(5, 3, jobs=2)
    assert serial == parallel


def test_scan_starts_no_more_workers_than_cpus_or_candidates(monkeypatch):
    # a process pool starts every worker up front, so a huge --jobs must not
    # reach it; the pool here only records its size and maps in-process
    import concurrent.futures
    import os

    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    serial = scan(4, 3)
    assert scan(4, 3, jobs=10**6) == serial
    assert all(w <= (os.cpu_count() or 1) for w in started), started
    started.clear()
    for cpus in (3, 1, None):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert scan(4, 3, jobs=10**6) == serial
    assert started == [3]
    started.clear()
    assert scan(1, 3, jobs=10**6) == [] and started == []  # no candidates, no pool


def test_pipeline_agrees_with_oracle_alone():
    for degree in range(2, 8):
        for datum in enumerate_candidates(degree, 3):
            assert decide(datum).status == oracle_decide(datum).status, datum.render()
