import pytest

from hurwitz.criteria import (
    corollary_filter,
    detect_structures,
    family_datum,
    family_instances,
    family_length_budget,
    match_songxu_shape,
    prop1_filter,
    songxu_datum,
    songxu_decide,
)
from hurwitz.oracle import decide as oracle_decide
from hurwitz.partitions import CandidateDatum, Partition, parse_datum, rh_defect
from hurwitz.verdicts import EXCEPTIONAL, REALIZABLE


def D(text):
    return parse_datum(text)


def P(*parts):
    return Partition.of(parts)


def prop1(datum):
    return prop1_filter(detect_structures(datum))


def corollaries(datum, strict=False):
    return corollary_filter(datum, detect_structures(datum), strict=strict)


# -- structure detection --


def test_detect_structures_single_pair():
    datum = D("4: [2,2] [2,2] [3,1]")
    matches = detect_structures(datum)
    assert len(matches) == 1
    match = matches[0]
    assert match.pair == (0, 1) and match.divisor == 2 and match.subdegree == 2
    assert match.other_gcds == ((2, 1),)


def test_detect_structures_all_pairs():
    matches = detect_structures(D("4: [2,2] [2,2] [2,2]"))
    assert [(m.pair, m.divisor, m.subdegree) for m in matches] == [
        ((0, 1), 2, 2),
        ((0, 2), 2, 2),
        ((1, 2), 2, 2),
    ]
    assert all(m.other_gcds[0][1] == 2 for m in matches)


def test_detect_structures_mixed():
    datum = D("6: [3,2,1] [2,2,2] [4,2]")
    matches = detect_structures(datum)
    assert len(matches) == 1
    match = matches[0]
    pair_partitions = {datum.partitions[i] for i in match.pair}
    assert pair_partitions == {P(2, 2, 2), P(4, 2)}
    assert match.divisor == 2 and match.subdegree == 3
    assert match.other_gcds[0][1] == 1


# -- prop1 rules --


def test_prop1_case3():
    reports = prop1(D("12: [2,2,2,2,2,2] [2,2,2,2,2,2] [8,4]"))
    assert any(r.rule == "prop1.case3" and r.third_divisor == 4 for r in reports)


def test_prop1_case2():
    reports = prop1(D("18: [3,3,3,3,3,3] [3,3,3,3,3,3] [4,2,2,2,2,2,2,2]"))
    assert any(r.rule == "prop1.case2" for r in reports)


def test_prop1_passes_compatible_structure():
    assert prop1(D("4: [2,2] [2,2] [2,2]")) == []


# -- corollary rules --


def test_cor1_parts_rejects_oversized_part():
    reports = corollaries(D("4: [2,2] [2,2] [3,1]"))
    assert any(r.rule == "cor1.parts" for r in reports)


def test_cor1_parts_on_family_instance():
    reports = corollaries(D("6: [4,1,1] [2,1,1,1,1] [2,2,2] [2,2,2]"))
    assert any(r.rule == "cor1.parts" for r in reports)


def test_weak_passes_strict_flags():
    datum = D("4: [2,2] [2,2] [2,2]")
    assert corollaries(datum, strict=False) == []
    strict = corollaries(datum, strict=True)
    assert any(r.rule == "cor1.length" for r in strict)


def test_report_json_shape():
    report = corollaries(D("4: [2,2] [2,2] [3,1]"))[0]
    payload = report.to_json()
    assert payload["rule"] == "cor1.parts"
    assert set(payload) == {"rule", "detail", "pair", "s", "t", "d_prime", "index"}


# -- closed-form family --


def test_songxu_realizable_case():
    verdict = songxu_decide(3, 1, 1, P(3, 3))
    assert verdict.status == REALIZABLE and verdict.method == "songxu"
    datum = songxu_datum(3, 1, 1, P(3, 3))
    assert datum == CandidateDatum.make(6, [[3, 3], [2, 2, 2], [2, 2, 2]])
    assert oracle_decide(datum).status == REALIZABLE


def test_songxu_part_size_failure():
    assert songxu_decide(3, 1, 1, P(5, 1)).status == EXCEPTIONAL


def test_songxu_gcd_failure():
    assert songxu_decide(4, 3, 1, P(2, 2, 2, 2)).status == EXCEPTIONAL
    datum = songxu_datum(4, 3, 1, P(2, 2, 2, 2))
    assert datum == CandidateDatum.make(8, [[2, 2, 2, 2], [2, 2, 2, 2], [6, 2]])
    assert oracle_decide(datum).status == EXCEPTIONAL


def test_songxu_preconditions():
    with pytest.raises(ValueError):
        songxu_decide(2, 1, 1, P(2, 2))
    with pytest.raises(ValueError):
        songxu_decide(3, 1, 1, P(3, 2, 1))  # wrong part count
    with pytest.raises(ValueError):
        songxu_decide(3, 2, 1, P(3, 2))  # wrong total


def test_match_songxu_shape():
    assert match_songxu_shape(D("6: [3,3] [2,2,2] [2,2,2]")) is not None
    k, x, y, first = match_songxu_shape(D("8: [2,2,2,2] [2,2,2,2] [6,2]"))
    assert k == 4 and {x, y} <= {1, 3}
    assert match_songxu_shape(D("4: [2,2] [2,2] [2,2]")) is None  # k < 3
    assert match_songxu_shape(D("8: [5,3] [2,2,2,2] [3,2,2,1]")) is None


# -- exceptional family generator --


def test_family_datum_example():
    datum, rule = family_datum(2, 3, 2, [P(4, 1, 1), P(2, 1, 1, 1, 1)])
    assert datum == D("6: [4,1,1] [2,1,1,1,1] [2,2,2] [2,2,2]")
    assert rule == "cor1.parts"
    assert rh_defect(datum) == 0


def test_family_datum_no_big_part_unasserted():
    datum, rule = family_datum(2, 3, 2, [P(2, 2, 1, 1), P(2, 2, 1, 1)])
    assert rule is None
    assert rh_defect(datum) == 0


def test_family_datum_budget_gate():
    assert family_length_budget(3, 2, 2) == 10
    with pytest.raises(ValueError):
        family_datum(3, 2, 2, [P(3, 3), P(2, 2, 1, 1)])


def test_family_instances_small():
    found = list(family_instances(2, 3, 2))
    assert [d.render() for d, _ in found] == ["6: [2,2,2] [2,2,2] [4,1,1] [2,1,1,1,1]"]
    assert all(rule == "cor1.parts" for _, rule in found)


def test_family_instances_empty_when_no_big_part_fits():
    assert list(family_instances(2, 2, 2)) == []


def test_family_instances_balanced():
    for datum, _ in family_instances(2, 4, 2):
        assert rh_defect(datum) == 0
