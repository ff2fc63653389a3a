import dataclasses
from collections import Counter

import pytest

from hurwitz.criteria import _ANY, _ARITY, ROLE_PAIR, ROLE_THIRD, _shape, detect_structures
from hurwitz.engine import verify
from hurwitz.oracle import ConstellationWitness
from hurwitz.oracle import decide as oracle_decide
from hurwitz.partitions import CandidateDatum, Partition, parse_datum, rh_defect
from hurwitz.reduction import (
    ReductionChain,
    StepReplayError,
    children_thm1,
    children_thm2,
    children_thm3,
    replay,
)
from hurwitz.verdicts import REALIZABLE, Verdict


def D(text):
    return parse_datum(text)


def match_for(datum, pair_partitions, divisor):
    wanted = {Partition(p) for p in pair_partitions}
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
    assert [child for _, child in steps] == [CandidateDatum(3, [[3], [3]])]


def test_thm1_empty_when_no_split_exists():
    datum = D("4: [2,2] [2,2] [3,1]")
    match = match_for(datum, [[2, 2], [2, 2]], 2)
    assert list(children_thm1(datum, match)) == []


def test_thm1_klein():
    datum = D("4: [2,2] [2,2] [2,2]")
    match = detect_structures(datum)[0]
    steps = list(children_thm1(datum, match))
    assert [child for _, child in steps] == [CandidateDatum(2, [[2], [2]])]


def test_thm1_children_are_balanced_and_replayable():
    for text in (
        "8: [4,4] [2,2,2,2] [2,2,2,2]",
        "6: [2,2,2] [2,2,2] [3,3]",
        "9: [3,3,3] [3,3,3] [3,2,2,1,1]",
        "6: [2,2,2] [2,2,2] [2,2,2] [2,1,1,1,1]",
    ):
        datum = D(text)
        for match in detect_structures(datum):
            for step, child in children_thm1(datum, match):
                assert rh_defect(child) == 0
                assert replay(step, datum) == child


# -- thm2 --


def test_thm2_collapses_klein_to_degree_one():
    datum = D("4: [2,2] [2,2] [2,2]")
    match = [m for m in detect_structures(datum) if m.pair == (0, 1)][0]
    steps = list(children_thm2(datum, match, third=2, t=2))
    assert [child for _, child in steps] == [CandidateDatum(1, [])]
    assert replay(steps[0][0], datum) == CandidateDatum(1, [])


def test_thm2_degree_eight_pair():
    # pair ([4,4],[2,2,2,2]), third [2,2,2,2], t=2: child degree d'/t = 2
    datum = D("8: [4,4] [2,2,2,2] [2,2,2,2]")
    match = [m for m in detect_structures(datum) if m.pair == (0, 1)][0]
    steps = list(children_thm2(datum, match, third=2, t=2))
    assert [child for _, child in steps] == [CandidateDatum(2, [[2], [2]])]
    # the equivalence direction: that child is realizable, and so is the parent
    assert oracle_decide(steps[0][1]).status == REALIZABLE
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
    assert [child for _, child in steps] == [CandidateDatum(1, [])]
    assert replay(steps[0][0], datum) == CandidateDatum(1, [])


def test_thm3_gate_examples():
    # an unbalanced variant never reaches the reduction
    bad = CandidateDatum(12, [[3, 3, 3, 3], [3, 3, 3, 3], [4, 4, 4]])
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
    step, _ = next(iter(children_thm1(datum, match)))
    record = step.records[-1]
    tampered_record = dataclasses.replace(
        record, pieces=(record.pieces[0], Partition([2, 1]))
    )
    tampered = dataclasses.replace(
        step, records=step.records[:-1] + (tampered_record,)
    )
    with pytest.raises(StepReplayError):
        replay(tampered, datum)


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
        step, child = next(iter(children_thm1(datum, match)))
    elif theorem == "thm2":
        step, child = next(iter(children_thm2(datum, match, third=2, t=2)))
    else:
        step, child = next(iter(children_thm3(datum, match, third=match.other_gcds[0][0])))
    assert replay(step, datum) == child
    with pytest.raises(StepReplayError):
        replay(dataclasses.replace(step, s=s, t=t), datum)


def test_replay_rejects_wrong_child():
    # a step stores no child: replay rebuilds it from the parent it is given,
    # so replaying from a parent the records do not rebuild, which would
    # yield another datum's child, is an error
    datum = D("4: [2,2] [2,2] [2,2]")
    match = detect_structures(datum)[0]
    step, child = next(iter(children_thm1(datum, match)))
    assert replay(step, datum) == child
    for text, message in (
        ("4: [2,2] [2,2] [3,1]", "rebuild"),
        ("4: [2,2] [2,2] [2,2] [2,2]", "one per parent"),
        ("4: [2,2] [2,2]", "one per parent"),
        ("2: [2] [2] [2]", "piece"),
    ):
        with pytest.raises(StepReplayError, match=message):
            replay(step, D(text))


def _forgeries():
    """Steps whose records are forged so that one check on the rebuilt values
    fails, with the datum each claims as parent and a word of the expected
    message."""
    six = D("6: [2,2,2] [2,2,2] [3,3]")
    step, _ = next(iter(children_thm1(six, match_for(six, [[2, 2, 2], [2, 2, 2]], 2))))
    other, pair_a, pair_b = step.records  # [3,3] first, then the two [2,2,2]
    # [2,2,2] [2,2,2] [3,3] is out of canonical order
    yield pytest.param(six, dataclasses.replace(step, records=(pair_a, pair_b, other)), "rebuild",
                       id="sources-out-of-order")
    ones = dataclasses.replace(other, pieces=(Partition([1, 1, 1]),) * 2)
    yield pytest.param(six, dataclasses.replace(step, records=(ones, pair_a, pair_b)), "rebuild",
                       id="all-ones-source")
    yield pytest.param(six, dataclasses.replace(step, records=step.records[:2]), "one per parent",
                       id="record-missing")
    # every piece of 4: [2,2] [2,2] [2,2] under thm2 is [1]; pieces [2] claim a child of degree 2
    klein = D("4: [2,2] [2,2] [2,2]")
    match = [m for m in detect_structures(klein) if m.pair == (0, 1)][0]
    step, _ = next(iter(children_thm2(klein, match, third=2, t=2)))
    twos = tuple(dataclasses.replace(r, pieces=(Partition([2]),) * len(r.pieces)) for r in step.records)
    yield pytest.param(klein, dataclasses.replace(step, records=twos), "piece", id="child-of-another-degree")
    # [3,2,2,1,1] rebuilt from pieces of totals 5, 3 and 1 instead of three of 3
    nine = D("9: [3,3,3] [3,3,3] [3,2,2,1,1]")
    step, _ = next(iter(children_thm1(nine, match_for(nine, [[3, 3, 3], [3, 3, 3]], 3))))
    uneven = dataclasses.replace(step.records[2], pieces=(Partition([3, 2]), Partition([2, 1]),
                                                          Partition([1])))
    yield pytest.param(nine, dataclasses.replace(step, records=step.records[:2] + (uneven,)), "piece",
                       id="pieces-of-unequal-totals")


@pytest.mark.parametrize("datum, step, message", _forgeries())
def test_replay_rejects_forged_rebuilt_values(datum, step, message):
    with pytest.raises(StepReplayError, match=message):
        replay(step, datum)
    chain = ReductionChain((step,), ConstellationWitness(1, ()))
    forged = Verdict(REALIZABLE, f"reduction:{step.theorem}", certificate=chain)
    assert verify(forged, datum) is False


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
            statuses = [oracle_decide(child).status for _, child in children_thm1(datum, match)]
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
                                oracle_decide(child).status
                                for _, child in children_thm2(datum, match, third, t)
                            ]
                            derived = REALIZABLE if REALIZABLE in statuses else "exceptional"
                            assert derived == parent, (datum.render(), match.pair, third, t)
                            checked += 1
    assert checked > 10


def test_chain_render():
    # hops joined by arrows, each with its divisors and child degree, then the base
    from hurwitz.engine import decide

    chain = decide(D("8: [8] [4,2,2] [2,2,1,1,1,1]")).certificate
    assert chain.render() == "thm1(s=2) d=4 -> thm1(s=2) d=2; base: witness (1 2) | (1 2)"
    assert ReductionChain((), chain.base).render() == "base: witness (1 2) | (1 2)"


def test_every_plan_step_replays():
    # every step of every plan the engine tries (each row of each structure's
    # ``reductions``), over all data with n = 3 and d <= 14, n = 4 and
    # d <= 10, n = 5 and d <= 7, rebuilds its parent
    from hurwitz.partitions import enumerate_candidates

    counts = Counter()
    splits = {}
    for n, degree_max in ((3, 14), (4, 10), (5, 7)):
        for degree in range(2, degree_max + 1):
            for datum in enumerate_candidates(degree, n):
                for match in detect_structures(datum):
                    for theorem, third, t, _ in match.reductions:
                        if theorem == "thm1":
                            children = children_thm1(datum, match, splits)
                        elif theorem == "thm2":
                            children = children_thm2(datum, match, third, t, splits)
                        else:
                            children = children_thm3(datum, match, third, splits)
                        for step, child in children:
                            assert replay(step, datum) == child, (datum.render(), theorem)
                            assert rh_defect(child) == 0
                            counts[step.theorem] += 1
    assert counts == {"thm1": 2673, "thm2": 45, "thm3": 1}


def test_table_keeps_every_child_of_a_balanced_parent_balanced():
    # in every row the table takes, with s, t <= 12: each role's scale times
    # piece count is one K = d/u, and 2(pair pieces - 1) + (third pieces - K)
    # = 0.  So a parent of n partitions gives N = (n - 2)K + 2 pieces before
    # trivial ones are dropped; the lengths are kept, so the child's balance
    # equation, total length = (N - 2)u + 2, is the parent's, and dropping a
    # trivial piece takes u from both sides
    rows = 0
    for theorem, (fixed_s, fixed_t, _) in _ARITY.items():
        for s in range(2, 13) if fixed_s == _ANY else (fixed_s,):
            for t in range(2, 13) if fixed_t == _ANY else (fixed_t,):
                shape = _shape(theorem, s, t)
                (k,) = {scale * count for scale, count in shape.values()}
                third = shape[ROLE_THIRD][1] - k if ROLE_THIRD in shape else 0
                assert 2 * (shape[ROLE_PAIR][1] - 1) + third == 0, (theorem, s, t)
                rows += 1
    assert rows == 11 + 11 + 1
