import pytest

from hurwitz.criteria import (
    _splits_in_half,
    corollary_filter,
    detect_structures,
    family_instances,
    family_length_budget,
    match_songxu_shape,
    prop1_filter,
    songxu_decide,
)
from hurwitz.engine import decide
from hurwitz.oracle import decide as oracle_decide
from hurwitz.partitions import (
    CandidateDatum,
    Partition,
    decompose,
    enumerate_candidates,
    parse_datum,
    partitions_of,
    rh_defect,
)
from hurwitz.verdicts import EXCEPTIONAL, REALIZABLE
from oracles import reference_corollaries, songxu_datum


def D(text):
    return parse_datum(text)


def P(*parts):
    return Partition.of(parts)


def prop1(datum):
    return prop1_filter(detect_structures(datum))


def corollaries(datum):
    return corollary_filter(datum, detect_structures(datum))


# -- structure detection --


def test_detect_structures_single_pair():
    datum = D("4: [2,2] [2,2] [3,1]")
    matches = detect_structures(datum)
    assert len(matches) == 1
    match = matches[0]
    assert match.pair == (0, 1) and match.divisor == 2 and match.subdegree == 2
    assert match.other_gcds == ((2, 1),)
    with pytest.raises(ValueError, match=r"^datum must be balanced before structure detection$"):
        detect_structures(D("5: [5]"))


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
    # realizable, and the partition outside each pair has exactly s = 2 parts,
    # which only the strict length rule would reject
    datum = D("4: [2,2] [2,2] [2,2]")
    assert corollary_filter(datum, detect_structures(datum)) == []
    assert reference_corollaries(datum, strict=True)


def test_corollary_filter_matches_reference():
    # every structured datum with n = 3, d <= 16 and with n <= 5, d <= 10:
    # the table-driven filter gives the hand-written reports in order and no
    # length rule fires; the strict bounds flag the same data and one more
    # family, 2k: [k,k] [2^k] [2^k], whose data are all realizable
    checked = flagged = 0
    strict_only = []
    for n, degree_max in ((2, 10), (3, 16), (4, 10), (5, 10)):
        for degree in range(2, degree_max + 1):
            for datum in enumerate_candidates(degree, n):
                matches = detect_structures(datum)
                if not matches:
                    continue
                checked += 1
                weak = reference_corollaries(datum, strict=False)
                assert [r.to_json() for r in corollary_filter(datum, matches)] == weak, datum.render()
                assert not any(r["rule"].endswith(".length") for r in weak), datum.render()
                strict = bool(reference_corollaries(datum, strict=True))
                assert strict or not weak, datum.render()
                if strict and not weak:
                    strict_only.append(datum.render())
                flagged += bool(weak)
    assert (checked, flagged) == (5543, 437)
    assert strict_only == [CandidateDatum.make(2 * k, [[k, k], [2] * k, [2] * k]).render()
                           for k in range(2, 9)]
    assert all(decide(D(text)).status == REALIZABLE for text in strict_only)


def test_report_json_shape():
    report = corollaries(D("4: [2,2] [2,2] [3,1]"))[0]
    payload = report.to_json()
    assert payload["rule"] == "cor1.parts"
    assert set(payload) == {"rule", "detail", "pair", "s", "t", "d_prime", "index"}


# -- closed-form family --


def test_songxu_realizable_case():
    assert songxu_decide(3, 1, 1, P(3, 3)) is True
    datum = songxu_datum(3, 1, 1, P(3, 3))
    assert datum == CandidateDatum.make(6, [[3, 3], [2, 2, 2], [2, 2, 2]])
    assert oracle_decide(datum).status == REALIZABLE


def test_songxu_part_size_failure():
    assert songxu_decide(3, 1, 1, P(5, 1)) is False


def test_songxu_gcd_failure():
    assert songxu_decide(4, 3, 1, P(2, 2, 2, 2)) is False
    datum = songxu_datum(4, 3, 1, P(2, 2, 2, 2))
    assert datum == CandidateDatum.make(8, [[2, 2, 2, 2], [2, 2, 2, 2], [6, 2]])
    assert oracle_decide(datum).status == EXCEPTIONAL


def test_songxu_preconditions():
    with pytest.raises(ValueError, match=r"^k must be at least 3$"):
        songxu_decide(2, 1, 1, P(2, 2))
    with pytest.raises(ValueError, match=r"^need 1 <= x, y <= k$"):
        songxu_decide(3, 0, 1, P(3, 3))
    with pytest.raises(ValueError, match=r"^first partition must have 2 parts, has 3$"):
        songxu_decide(3, 1, 1, P(3, 2, 1))  # wrong part count
    with pytest.raises(ValueError, match=r"^first partition must sum to 6, sums to 5$"):
        songxu_decide(3, 1, 1, P(3, 2))  # wrong total


def test_half_split_subset_sum_matches_decompose():
    # the closed form's subset sum answers exactly what enumerating the splits
    # into two halves would, on every partition of every even total up to 24
    for total in range(2, 25, 2):
        for parts in partitions_of(total):
            p = Partition(parts)
            assert _splits_in_half(p, total // 2) == bool(decompose(p, 2)), p


def test_match_songxu_shape():
    assert match_songxu_shape(D("6: [3,3] [2,2,2] [2,2,2]")) is not None
    k, x, y, first = match_songxu_shape(D("8: [2,2,2,2] [2,2,2,2] [6,2]"))
    assert k == 4 and {x, y} <= {1, 3}
    assert match_songxu_shape(D("4: [2,2] [2,2] [2,2]")) is None  # k < 3
    assert match_songxu_shape(D("8: [5,3] [2,2,2,2] [3,2,2,1]")) is None


# -- exceptional family generator --


def test_family_length_budget():
    assert family_length_budget(3, 2, 2) == 10


def test_family_instances_small():
    found = list(family_instances(2, 3, 2))
    assert [d.render() for d, _ in found] == ["6: [2,2,2] [2,2,2] [4,1,1] [2,1,1,1,1]"]
    assert all(rule == "cor1.parts" for _, rule in found)
    with pytest.raises(ValueError, match=r"^need s >= 2, k >= 2, t >= 1$"):
        list(family_instances(1, 2, 1))


def test_family_instances_empty_when_no_big_part_fits():
    assert list(family_instances(2, 2, 2)) == []


def test_family_instances_balanced():
    for datum, _ in family_instances(2, 4, 2):
        assert rh_defect(datum) == 0
