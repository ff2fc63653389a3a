import pytest
from hypothesis import given
from hypothesis import strategies as st

from hurwitz.partitions import Partition
from hurwitz.perms import (
    canonical_of_type,
    class_size,
    compose,
    cycle_string,
    cycle_type,
    cycles,
    from_cycles,
    identity,
    inverse,
    is_transitive,
    product,
    relabel,
)
from oracles import class_elements


def test_cycle_type_examples():
    p = from_cycles(5, [(0, 1, 2), (3, 4)])
    assert cycle_type(p) == Partition.of([3, 2])
    assert cycle_type(identity(4)) == Partition.of([1, 1, 1, 1])
    assert cycle_type(from_cycles(6, [tuple(range(6))])) == Partition.of([6])


def test_canonical_of_type_examples():
    assert canonical_of_type(Partition.of([3, 2])) == from_cycles(5, [(0, 1, 2), (3, 4)])
    assert canonical_of_type(Partition.of([1, 1])) == identity(2)
    assert canonical_of_type(Partition.of([4])) == (1, 2, 3, 0)


def test_compose_convention():
    # apply q first, then p
    p = from_cycles(4, [(0, 1, 2, 3)])
    q = from_cycles(4, [(0, 2, 1)])
    assert compose(p, q) == from_cycles(4, [(0, 3)])
    assert compose(p, identity(4)) == p
    assert compose(p, inverse(p)) == identity(4)
    assert product([p, q], 4) == compose(p, q)


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        compose(identity(3), identity(4))


perm_strategy = st.integers(1, 7).flatmap(lambda d: st.permutations(list(range(d))))


@given(perm_strategy)
def test_inverse_property(images):
    p = tuple(images)
    assert compose(p, inverse(p)) == identity(len(p))
    assert inverse(inverse(p)) == p


@given(perm_strategy, st.randoms())
def test_relabel_preserves_type(images, rng):
    p = tuple(images)
    relabeling = list(range(len(p)))
    rng.shuffle(relabeling)
    assert cycle_type(relabel(p, tuple(relabeling))) == cycle_type(p)


def test_cycles_order():
    p = from_cycles(6, [(3, 4), (0, 2)])
    assert cycles(p) == [(0, 2), (1,), (3, 4), (5,)]


def test_class_size_matches_enumeration():
    for degree in range(2, 6):
        seen = {}
        import itertools

        for parts in set(
            tuple(sorted((len(c) for c in cycles(p)), reverse=True))
            for p in itertools.permutations(range(degree))
        ):
            t = Partition.of(parts)
            assert class_size(t) == len(class_elements(degree, parts))


def test_is_transitive():
    assert is_transitive([from_cycles(3, [(0, 1, 2)])], 3)
    assert not is_transitive([from_cycles(4, [(0, 1)])], 4)
    assert is_transitive([], 1)
    assert not is_transitive([], 2)


def test_cycle_string():
    assert cycle_string(from_cycles(5, [(0, 1, 2), (3, 4)])) == "(1 2 3)(4 5)"
    assert cycle_string(identity(3)) == "()"
