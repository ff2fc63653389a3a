import hashlib
import itertools
import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hurwitz.partitions import (
    CandidateDatum,
    DatumParseError,
    Partition,
    decompose,
    enumerate_candidates,
    nontrivial_partitions,
    _scan_datum,
    parse_datum,
    partitions_of,
    rh_defect,
)
from oracles import naive_splits


def P(*parts):
    return Partition(parts)


def test_parse_basic():
    datum = parse_datum("4: [3,1] [2,2] [2,2]")
    assert datum.degree == 4
    assert datum.partitions == (P(2, 2), P(2, 2), P(3, 1))


def test_parse_normalizes_order_and_drops_trivial():
    a = parse_datum("4: [3,1] [2,2] [2,2]")
    b = parse_datum("4: [1,3] [2,2] [1,1,1,1] [2,2]")
    assert a == b


def test_parse_no_partitions():
    assert parse_datum("1:") == CandidateDatum(1, [])
    assert parse_datum(" 4 : ") == CandidateDatum(4, [])


def test_parse_sum_mismatch():
    with pytest.raises(DatumParseError) as err:
        parse_datum("4: [3,2]")
    assert "sums to 5" in str(err.value)


@pytest.mark.parametrize(
    "text",
    ["", "x", "4 [2,2]", "4: [2,2", "4: 2,2", "4: [2 2]", "4: [2,2] extra"],
)
def test_parse_syntax_errors(text):
    with pytest.raises(DatumParseError) as err:
        parse_datum(text)
    assert err.value.position >= 0


@pytest.mark.parametrize(
    "text, offset",
    [("\u0664: [\u0662,\u0662] [\u0662,\u0662] [\u0662,\u0662]", 0),  # Arabic-Indic digits
     ("4: [2,\u00b2] [2,2] [2,2]", 6)],  # a superscript two
)
def test_parse_rejects_non_ascii_digits(text, offset):
    with pytest.raises(DatumParseError) as err:
        parse_datum(text)
    assert err.value.position == offset


def test_parse_zero_and_degree_errors():
    with pytest.raises(DatumParseError):
        parse_datum("4: [2,0,2]")
    with pytest.raises(DatumParseError, match=r"^a degree must be positive, got 0 \(at offset 0\)$") as err:
        parse_datum("0: [1]")
    assert err.value.position == 0
    with pytest.raises(DatumParseError):
        parse_datum("4: [2,-2]")
    if hasattr(sys, "get_int_max_str_digits"):  # the interpreter caps int() of long strings
        for text, where in (("9" * 5000 + ": [1]", 0), ("4: [" + "9" * 5000 + "]", 4)):
            with pytest.raises(DatumParseError, match="has too many digits") as err:
                parse_datum(text)
            assert err.value.position == where


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except DatumParseError as err:
        return str(err), err.position


_WS = st.text(" \t\x1c\u00a0\u2003", max_size=2)
_INT = st.sampled_from(["1", "2", "2", "3", "4", "0", "02", "\u0663", ""])


@st.composite
def _datum_texts(draw):
    """Datum-shaped text: mostly well formed, with missing, zero and non-ASCII
    ints, stray separators, unclosed partitions and wrong sums."""
    out = [draw(_WS), draw(_INT), draw(_WS), draw(st.sampled_from([":", ":", ":", ","])), draw(_WS)]
    for _ in range(draw(st.integers(0, 3))):
        parts = draw(st.lists(st.tuples(_WS, _INT, _WS).map("".join), min_size=1, max_size=4))
        out += ["[", ",".join(parts), draw(st.sampled_from(["]", "]", "]", ""])), draw(_WS)]
    return "".join(out)


@given(st.one_of(_datum_texts(), st.text("0123456789[],:\u0663 \t\x1c\u00a0\u2003", max_size=16)))
def test_parse_paths_agree_property(text):
    # the one-regex path and the scanner alone: the same datum, or the same
    # error at the same offset
    assert _parse_outcome(parse_datum, text) == _parse_outcome(_scan_datum, text)


@pytest.mark.parametrize(
    "text",
    ["04: [02,2] [2,2] [2,2]", "4: [1,,2] [2,2] [2,2]", "4: [] [2,2]", "4: [2,2] [2,2] [2,2] \t\u2003",
     "4: [2,2]\x1c[2,2]", "00:", "4: [2,0,2] [2,2] [2,2]", "4: [" + "1" * 4301 + "]", "1" * 4301 + ": [1]"],
)
def test_parse_paths_agree(text):
    assert _parse_outcome(parse_datum, text) == _parse_outcome(_scan_datum, text)


def test_parse_pins():
    assert parse_datum("04: [02,2] [2,2] [2,2]") == parse_datum("4: [2,2] [2,2] [2,2]")
    assert parse_datum("4: [2,2] [2,2] [2,2] \t\u2003") == parse_datum("4: [2,2] [2,2] [2,2]")
    with pytest.raises(DatumParseError, match=r"^expected a part \(at offset 6\)$"):
        parse_datum("4: [1,,2]")
    with pytest.raises(DatumParseError, match=r"^expected a part \(at offset 4\)$"):
        parse_datum("4: []")
    if hasattr(sys, "get_int_max_str_digits"):  # the interpreter caps int() of long strings
        with pytest.raises(DatumParseError, match=r"^a part has too many digits \(at offset 4\)$"):
            parse_datum("4: [" + "1" * 4301 + "]")


def test_parse_outcomes_are_pinned():
    # every string of length <= 5 over eight symbols (37,449 strings), each
    # with its rendered datum or its error and offset; an intended change to
    # parsing re-pins the digest
    lines = []
    for length in range(6):
        for chars in itertools.product(["1", "0", ":", "[", "]", ",", " ", "\u0663"], repeat=length):
            text = "".join(chars)
            try:
                outcome = parse_datum(text).render()
            except DatumParseError as error:
                outcome = f"{error} @{error.position}"
            lines.append(f"{text!r}\t{outcome}\n")
    assert len(lines) == 37449
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == "0f671f26aab8513c7d0e28f8737c657df8ebbfd3509325ce4d71163c329fb7d1"


def test_render_roundtrip_idempotent():
    datum = parse_datum("4: [1,3] [2,2] [1,1,1,1] [2,2]")
    assert parse_datum(datum.render()) == datum
    assert datum.render() == "4: [2,2] [2,2] [3,1]"


@given(
    st.integers(2, 9).flatmap(
        lambda d: st.lists(
            st.lists(st.integers(1, d), min_size=1).filter(lambda parts: sum(parts) <= d),
            min_size=1,
            max_size=4,
        ).map(lambda rows: (d, rows))
    )
)
def test_render_parse_roundtrip_property(case):
    degree, rows = case
    partitions = [row + [1] * (degree - sum(row)) for row in rows]
    datum = CandidateDatum(degree, partitions)
    assert parse_datum(datum.render()) == datum


def test_partition_invariants():
    p = P(1, 3, 2)
    assert p.parts == (3, 2, 1)
    assert p.total == 6
    assert not p.trivial
    assert P(1, 1).trivial
    assert P(6, 4).gcd() == 2
    with pytest.raises(ValueError):
        Partition([])
    with pytest.raises(ValueError):
        Partition([0, 2])
    with pytest.raises(ValueError):
        Partition([2, -1])
    with pytest.raises(ValueError):
        Partition((2, True))  # a bool would render as [2,True] and hash as (2, 1)
    with pytest.raises(ValueError):
        CandidateDatum(8, [[5, 3], [2, 2, 2, 2], [3, 2, 2, True]])
    with pytest.raises(ValueError, match=r"^partition \[3,2\] sums to 5, expected degree 4$"):
        CandidateDatum(4, (P(3, 2),))
    # input out of canonical form is stored in it, and equals its canonical twin
    assert Partition((1, 3)).parts == (3, 1) and Partition((1, 3)) == Partition((3, 1))
    assert Partition([2, 1]).parts == (2, 1) and hash(Partition([2, 1])) == hash(P(2, 1))
    assert CandidateDatum(2, (P(1, 1),)).partitions == () and CandidateDatum(2, (P(1, 1),)) == CandidateDatum(2, ())
    out_of_order = CandidateDatum(4, (P(3, 1), P(2, 2)))
    assert out_of_order.partitions == (P(2, 2), P(3, 1)) and out_of_order == CandidateDatum(4, (P(2, 2), P(3, 1)))


def test_rh_defect_examples():
    assert rh_defect(parse_datum("4: [3,1] [2,2] [2,2]")) == 0
    assert rh_defect(CandidateDatum(3, [[3], [3], [3]])) == 2
    assert rh_defect(parse_datum("6: [2,2,2] [2,2,2] [3,3]")) == 0


def test_divided():
    assert P(2, 2, 2).divided(2) == P(1, 1, 1)
    assert P(6, 3).divided(3) == P(2, 1)
    with pytest.raises(ValueError):
        P(4, 2).divided(4)


def test_decompose_examples():
    assert decompose(P(3, 3), 2) == ((P(3), P(3)),)
    assert decompose(P(3, 1), 2) == ()
    assert decompose(P(4, 2, 1, 1), 2) == ((P(4), P(2, 1, 1)),)
    assert decompose(P(2, 2, 1, 1), 2) == ((P(2, 1), P(2, 1)),)


def test_decompose_rejects_bad_shape():
    with pytest.raises(ValueError):
        decompose(P(3, 2), 2)


def test_decompose_soundness_and_length_conservation():
    source = P(4, 3, 2, 2, 1)
    for groups in decompose(source, 3):
        assert Partition(x for g in groups for x in g.parts) == source
        assert all(g.total == 4 for g in groups)
        assert sum(len(g) for g in groups) == len(source)


def test_decompose_matches_naive_oracle_random():
    rng = random.Random(1105)
    for _ in range(80):
        length = rng.randint(1, 9)
        parts = tuple(sorted((rng.randint(1, 7) for _ in range(length)), reverse=True))
        total = sum(parts)
        count = rng.choice([m for m in (1, 2, 3, 4) if total % m == 0])
        source = Partition(parts)
        got = {tuple(g.parts for g in groups) for groups in decompose(source, count)}
        assert len(got) == len(decompose(source, count))  # no duplicates
        assert got == naive_splits(parts, count, total // count)


def test_decompose_matches_naive_oracle_exhaustive():
    checked = 0
    for total in range(1, 11):
        for parts in partitions_of(total):
            for count in range(1, 6):
                if total % count:
                    continue
                splits = decompose(Partition(parts), count)
                got = {tuple(g.parts for g in groups) for groups in splits}
                assert len(got) == len(splits), (parts, count)  # no split twice
                assert got == naive_splits(parts, count, total // count), (parts, count)
                checked += 1
    assert checked == 340


def test_decompose_order_is_pinned():
    # the engine tries reduction children in this order, so it picks the chain
    assert decompose(P(4, 3, 2, 2, 1, 1, 1), 2) == (
        (P(4, 3), P(2, 2, 1, 1, 1)),
        (P(4, 2, 1), P(3, 2, 1, 1)),
        (P(3, 2, 2), P(4, 1, 1, 1)),
    )
    assert decompose(P(3, 3, 2, 2, 1, 1, 1, 1, 1), 3) == (
        (P(3, 2), P(3, 2), P(1, 1, 1, 1, 1)),
        (P(3, 2), P(3, 1, 1), P(2, 1, 1, 1)),
        (P(2, 2, 1), P(3, 1, 1), P(3, 1, 1)),
    )


def test_enumerate_candidates_d4_n3():
    found = list(enumerate_candidates(4, 3))
    assert len(found) == 6
    assert CandidateDatum(4, [[3, 1], [2, 2], [2, 2]]) in found
    assert CandidateDatum(4, [[2, 2], [2, 2], [2, 2]]) in found


def test_enumerate_candidates_d2_n2():
    assert list(enumerate_candidates(2, 2)) == [CandidateDatum(2, [[2], [2]])]
    with pytest.raises(ValueError, match=r"^degree must be at least 2$"):
        next(enumerate_candidates(1, 3))
    with pytest.raises(ValueError, match=r"^need at least one branch point$"):
        next(enumerate_candidates(4, 0))


def test_enumerate_candidates_d3_n3():
    # the stated length target (n-2)d + 2 = 5 is met by lengths 1+2+2
    found = list(enumerate_candidates(3, 3))
    assert found == [CandidateDatum(3, [[3], [2, 1], [2, 1]])]


def test_enumerate_candidates_valid_and_unique():
    for degree in range(2, 7):
        for n in range(1, 4):
            found = list(enumerate_candidates(degree, n))
            assert len(set(found)) == len(found)
            for datum in found:
                assert rh_defect(datum) == 0
                assert all(not p.trivial for p in datum.partitions)


def test_nontrivial_partitions_sorted():
    plist = nontrivial_partitions(4)
    assert plist == [P(4), P(2, 2), P(3, 1), P(2, 1, 1)]
