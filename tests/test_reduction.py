import dataclasses
from collections import Counter

import pytest

from hurwitz.criteria import detect_structures
from hurwitz.oracle import decide as oracle_decide
from hurwitz.partitions import CandidateDatum, Partition, parse_datum, rh_defect
from hurwitz.reduction import (
    StepReplayError,
    children_thm1,
    children_thm2,
    children_thm3,
    replay,
)
from hurwitz.verdicts import REALIZABLE


def D(text):
    return parse_datum(text)


def match_for(datum, pair_partitions, divisor):
    wanted = {Partition.of(p) for p in pair_partitions}
    for match in detect_structures(datum):
        if match.divisor != divisor:
            continue
        if {datum.partitions[i] for i in match.pair} == wanted:
            return match
    raise AssertionError("no such structure")


# -- thm1 --


def test_thm1_quotients_and_drops_trivial():
    datum = D("6: [2,2,2] [2,2,2] [3,3]")
    match = match_for(datum, [[2, 2, 2], [2, 2, 2]], 2)
    steps = list(children_thm1(datum, match))
    assert [s.child for s in steps] == [CandidateDatum.make(3, [[3], [3]])]


def test_thm1_empty_when_no_split_exists():
    datum = D("4: [2,2] [2,2] [3,1]")
    match = match_for(datum, [[2, 2], [2, 2]], 2)
    assert list(children_thm1(datum, match)) == []


def test_thm1_klein():
    datum = D("4: [2,2] [2,2] [2,2]")
    match = detect_structures(datum)[0]
    steps = list(children_thm1(datum, match))
    assert [s.child for s in steps] == [CandidateDatum.make(2, [[2], [2]])]


def test_thm1_children_are_balanced_and_replayable():
    for text in (
        "8: [4,4] [2,2,2,2] [2,2,2,2]",
        "6: [2,2,2] [2,2,2] [3,3]",
        "9: [3,3,3] [3,3,3] [3,2,2,1,1]",
        "6: [2,2,2] [2,2,2] [2,2,2] [2,1,1,1,1]",
    ):
        datum = D(text)
        for match in detect_structures(datum):
            for step in children_thm1(datum, match):
                assert rh_defect(step.child) == 0
                assert replay(step) == datum


# -- thm2 --


def test_thm2_collapses_klein_to_degree_one():
    datum = D("4: [2,2] [2,2] [2,2]")
    match = [m for m in detect_structures(datum) if m.pair == (0, 1)][0]
    steps = list(children_thm2(datum, match, third=2, t=2))
    assert [s.child for s in steps] == [CandidateDatum.make(1, [])]
    assert replay(steps[0]) == datum


def test_thm2_degree_eight_pair():
    # pair ([4,4],[2,2,2,2]), third [2,2,2,2], t=2: child degree d'/t = 2
    datum = D("8: [4,4] [2,2,2,2] [2,2,2,2]")
    match = [m for m in detect_structures(datum) if m.pair == (0, 1)][0]
    steps = list(children_thm2(datum, match, third=2, t=2))
    assert [s.child for s in steps] == [CandidateDatum.make(2, [[2], [2]])]
    # the equivalence direction: that child is realizable, and so is the parent
    assert oracle_decide(steps[0].child).status == REALIZABLE
    assert oracle_decide(datum).status == REALIZABLE


def test_thm2_preconditions():
    datum = D("8: [4,4] [2,2,2,2] [2,2,2,2]")
    match = [m for m in detect_structures(datum) if m.pair == (0, 1)][0]
    with pytest.raises(ValueError):
        list(children_thm2(datum, match, third=2, t=3))  # 3 divides no part
    with pytest.raises(ValueError):
        list(children_thm2(datum, match, third=0, t=2))  # third inside the pair


# -- thm3 --


def test_thm3_tetrahedral_to_degree_one():
    datum = D("12: [3,3,3,3] [3,3,3,3] [2,2,2,2,2,2]")
    match = [m for m in detect_structures(datum) if m.divisor == 3][0]
    steps = list(children_thm3(datum, match, third=match.other_gcds[0][0]))
    assert [s.child for s in steps] == [CandidateDatum.make(1, [])]
    assert replay(steps[0]) == datum


def test_thm3_gate_examples():
    # an unbalanced variant never reaches the reduction
    bad = CandidateDatum.make(12, [[3, 3, 3, 3], [3, 3, 3, 3], [4, 4, 4]])
    assert rh_defect(bad) == 3
    with pytest.raises(ValueError):
        list(children_thm3(bad, None, third=0))
    # 4 must divide d'
    datum = D("18: [3,3,3,3,3,3] [3,3,3,3,3,3] [4,2,2,2,2,2,2,2]")
    match = [m for m in detect_structures(datum) if m.divisor == 3][0]
    with pytest.raises(ValueError):
        list(children_thm3(datum, match, third=match.other_gcds[0][0]))


# -- replay --


def test_replay_rejects_tampering():
    datum = D("6: [2,2,2] [2,2,2] [3,3]")
    match = match_for(datum, [[2, 2, 2], [2, 2, 2]], 2)
    step = next(iter(children_thm1(datum, match)))
    record = step.records[-1]
    tampered_record = dataclasses.replace(
        record, pieces=(record.pieces[0], Partition.of([2, 1]))
    )
    tampered = dataclasses.replace(
        step, records=step.records[:-1] + (tampered_record,)
    )
    with pytest.raises(StepReplayError):
        replay(tampered)


@pytest.mark.parametrize(
    "text, theorem, s, t",
    [
        ("12: [3,3,3,3] [3,3,3,3] [2,2,2,2,2,2]", "thm3", 7, 5),
        ("12: [3,3,3,3] [3,3,3,3] [2,2,2,2,2,2]", "thm3", 3, 2),
        ("12: [3,3,3,3] [3,3,3,3] [2,2,2,2,2,2]", "thm3", 2, None),
        ("4: [2,2] [2,2] [2,2]", "thm2", 0, 2),
        ("4: [2,2] [2,2] [2,2]", "thm2", 2, None),
        ("4: [2,2] [2,2] [2,2]", "thm2", 2, "2"),
        ("4: [2,2] [2,2] [2,2]", "thm1", 2, 2),
        ("4: [2,2] [2,2] [2,2]", "thm1", 1, None),
        ("4: [2,2] [2,2] [2,2]", "thm1", 2.0, None),
        ("4: [2,2] [2,2] [2,2]", "thm1", True, None),
    ],
)
def test_replay_checks_fixed_parameters(text, theorem, s, t):
    # the theorem fixes s (thm2, thm3) or t (absent in thm1 and thm3), and a
    # free one must be an int >= 2; a mismatch is a StepReplayError, never a
    # TypeError, even where the records would still reassemble the parent
    datum = D(text)
    match = detect_structures(datum)[0]
    if theorem == "thm1":
        step = next(iter(children_thm1(datum, match)))
    elif theorem == "thm2":
        step = next(iter(children_thm2(datum, match, third=2, t=2)))
    else:
        step = next(iter(children_thm3(datum, match, third=match.other_gcds[0][0])))
    assert replay(step) == datum
    with pytest.raises(StepReplayError):
        replay(dataclasses.replace(step, s=s, t=t))


def test_replay_rejects_wrong_child():
    datum = D("4: [2,2] [2,2] [2,2]")
    match = detect_structures(datum)[0]
    step = next(iter(children_thm1(datum, match)))
    tampered = dataclasses.replace(step, child=CandidateDatum.make(2, []))
    with pytest.raises(StepReplayError):
        replay(tampered)


# -- equivalence spot checks (the full sweeps run in the acceptance suite) --


def test_thm1_equivalence_sample():
    # includes the divisor-4 pairs at degree 8, which the acceptance sweep
    # (restricted to divisors 2, 3, 5) does not reach
    for text in (
        "6: [2,2,2] [2,2,2] [3,3]",
        "8: [4,4] [2,2,2,2] [2,2,2,2]",
        "6: [2,2,2] [2,2,2] [4,2]",
        "9: [3,3,3] [3,3,3] [3,2,2,1,1]",
        "8: [8] [4,4] [2,1,1,1,1,1,1]",
        "8: [4,4] [4,4] [3,1,1,1,1,1]",
        "8: [4,4] [4,4] [2,2,1,1,1,1]",
    ):
        datum = D(text)
        parent = oracle_decide(datum).status
        for match in detect_structures(datum):
            statuses = [oracle_decide(s.child).status for s in children_thm1(datum, match)]
            derived = REALIZABLE if REALIZABLE in statuses else "exceptional"
            assert derived == parent


def test_thm2_equivalence_sweep():
    # every degree <= 8 datum with a 2-divisible pair and a t-divisible third
    from hurwitz.partitions import enumerate_candidates

    checked = 0
    for degree in range(4, 9):
        for n in (3, 4):
            for datum in enumerate_candidates(degree, n):
                parent = None
                for match in detect_structures(datum):
                    if match.divisor != 2:
                        continue
                    for third, g in match.other_gcds:
                        for t in range(2, g + 1):
                            if g % t or match.subdegree % t:
                                continue
                            if parent is None:
                                parent = oracle_decide(datum).status
                            statuses = [
                                oracle_decide(s.child).status
                                for s in children_thm2(datum, match, third, t)
                            ]
                            derived = REALIZABLE if REALIZABLE in statuses else "exceptional"
                            assert derived == parent, (datum.render(), match.pair, third, t)
                            checked += 1
    assert checked > 10


def test_every_plan_step_replays():
    # every step of every plan the engine tries, over all data with n = 3 and
    # d <= 14, n = 4 and d <= 10, n = 5 and d <= 7, rebuilds its parent
    from hurwitz.engine import _plan_children, _reduction_plans
    from hurwitz.partitions import enumerate_candidates

    counts = Counter()
    splits = {}
    for n, degree_max in ((3, 14), (4, 10), (5, 7)):
        for degree in range(2, degree_max + 1):
            for datum in enumerate_candidates(degree, n):
                for plan in _reduction_plans(detect_structures(datum)):
                    for step in _plan_children(datum, plan, splits):
                        assert replay(step) == datum, (datum.render(), step.theorem)
                        counts[step.theorem] += 1
    assert counts == {"thm1": 2673, "thm2": 45, "thm3": 1}
