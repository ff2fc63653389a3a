from hypothesis import given
from hypothesis import strategies as st

from hurwitz.partitions import Partition
from hurwitz.perms import (
    canonical_of_type,
    class_size,
    cycle_string,
    cycles,
    identity,
    inverse,
    is_transitive,
    product,
)
from oracles import class_elements, from_cycles, naive_cycle_lengths, relabel


def test_cycle_type_examples():
    p = from_cycles(5, [(0, 1, 2), (3, 4)])
    assert naive_cycle_lengths(p) == (3, 2)
    assert naive_cycle_lengths(identity(4)) == (1, 1, 1, 1)
    assert naive_cycle_lengths(from_cycles(6, [tuple(range(6))])) == (6,)
    assert naive_cycle_lengths(canonical_of_type(Partition.of([4, 2, 1]))) == (4, 2, 1)


def test_canonical_of_type_examples():
    assert canonical_of_type(Partition.of([3, 2])) == from_cycles(5, [(0, 1, 2), (3, 4)])
    assert canonical_of_type(Partition.of([1, 1])) == identity(2)
    assert canonical_of_type(Partition.of([4])) == (1, 2, 3, 0)


def test_compose_convention():
    # product applies its last factor first: q, then p
    p = from_cycles(4, [(0, 1, 2, 3)])
    q = from_cycles(4, [(0, 2, 1)])
    assert product([p, q], 4) == from_cycles(4, [(0, 3)])
    assert product([p, identity(4)], 4) == p
    assert product([p, inverse(p)], 4) == identity(4)


perm_strategy = st.integers(1, 7).flatmap(lambda d: st.permutations(list(range(d))))


@given(perm_strategy)
def test_inverse_property(images):
    p = tuple(images)
    assert product([p, inverse(p)], len(p)) == identity(len(p))
    assert inverse(inverse(p)) == p


@given(perm_strategy, st.randoms())
def test_relabel_preserves_type(images, rng):
    p = tuple(images)
    relabeling = list(range(len(p)))
    rng.shuffle(relabeling)
    assert naive_cycle_lengths(relabel(p, tuple(relabeling))) == naive_cycle_lengths(p)


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
