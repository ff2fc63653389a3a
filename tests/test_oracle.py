import hashlib
import itertools
import random
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hurwitz.oracle as oracle_mod
from hurwitz.oracle import (
    ConstellationWitness,
    SearchBudget,
    _TupleSearch,
    check_witness,
    decide,
)
from hurwitz.partitions import CandidateDatum, Partition, enumerate_candidates, parse_datum
from hurwitz.perms import cycles, inverse
from hurwitz.verdicts import EXCEPTIONAL, REALIZABLE, UNKNOWN
from oracles import reference_check_witness, reference_decide, relabel


def D(text):
    return parse_datum(text)


def test_eks_datum_exceptional():
    assert decide(D("4: [3, 1] [2, 2] [2, 2]")).status == EXCEPTIONAL


def test_klein_datum_realizable_with_valid_witness():
    datum = D("4: [2, 2] [2, 2] [2, 2]")
    verdict = decide(datum)
    assert verdict.status == REALIZABLE
    assert check_witness(datum, verdict.certificate)


def test_degree_three_realizable():
    assert decide(D("3: [3] [2, 1] [2, 1]")).status == REALIZABLE


def test_zheng_pair():
    assert decide(D("8: [5, 3] [2, 2, 2,2] [3, 2, 2,1]")).status == REALIZABLE
    assert decide(D("8: [5, 3] [2, 2, 2,2] [3, 3, 1,1]")).status == EXCEPTIONAL


def test_base_shapes():
    one = decide(CandidateDatum(1, []))
    assert one.status == REALIZABLE and one.certificate.perms == ()
    two = decide(D("5: [5] [5]"))
    assert two.status == REALIZABLE
    assert two.stats.nodes == 0  # nothing is enumerated
    # the closed form: a 5-cycle and its inverse, as in the engine's base case
    assert two.certificate.perms == ((1, 2, 3, 4, 0), (4, 0, 1, 2, 3))
    assert two.certificate == oracle_mod.two_point_witness(D("5: [5] [5]"))
    assert check_witness(D("5: [5] [5]"), two.certificate)


def test_rh_precondition():
    with pytest.raises(ValueError):
        decide(CandidateDatum(3, [[3], [3], [3]]))


def test_degree_limit():
    verdict = decide(D("5: [5] [5]"), SearchBudget(max_degree=4))
    assert verdict.status == UNKNOWN
    assert verdict.limit == "degree-limit"


def test_witness_tampering_detected():
    datum = D("4: [2, 2] [2, 2] [2, 2]")
    witness = decide(datum).certificate
    perms = list(witness.perms)
    images = list(perms[0])
    images[0], images[1] = images[1], images[0]
    perms[0] = tuple(images)
    assert not check_witness(datum, ConstellationWitness(4, tuple(perms)))
    assert not check_witness(datum, ConstellationWitness(4, witness.perms[:2]))


def test_conjugation_invariance():
    datum = D("8: [5, 3] [2, 2, 2,2] [3, 2, 2,1]")
    witness = decide(datum).certificate
    rng = random.Random(77)
    for _ in range(10):
        gamma = list(range(8))
        rng.shuffle(gamma)
        gamma = tuple(gamma)
        moved = ConstellationWitness(8, tuple(relabel(p, gamma) for p in witness.perms))
        assert check_witness(datum, moved)


ORDER_CASES = [
    (4, [[3, 1], [2, 2], [2, 2]], EXCEPTIONAL),
    (4, [[4], [3, 1], [2, 1, 1]], REALIZABLE),
    (7, [[4, 3], [3, 2, 2], [2, 2, 2, 1]], REALIZABLE),
    (8, [[5, 3], [2, 2, 2, 2], [3, 2, 2, 1]], REALIZABLE),
    (8, [[5, 3], [2, 2, 2, 2], [3, 3, 1, 1]], EXCEPTIONAL),
    (8, [[5, 3], [3, 2, 2, 1], [4, 1, 1, 1, 1], [2, 1, 1, 1, 1, 1, 1]], REALIZABLE),
    (8, [[4, 2, 2], [2, 2, 2, 2], [5, 1, 1, 1], [2, 1, 1, 1, 1, 1, 1]], EXCEPTIONAL),
    (8, [[2, 2, 2, 2], [2, 2, 2, 2], [2, 2, 2, 2], [2, 2, 1, 1, 1, 1]], REALIZABLE),
    (10, [[6, 2, 2], [4, 2, 2, 2], [6, 1, 1, 1, 1]], EXCEPTIONAL),
    (10, [[7, 1, 1, 1], [7, 1, 1, 1], [7, 1, 1, 1]], REALIZABLE),
    (10, [[5, 3, 2], [7, 1, 1, 1], [2, 2, 2, 2, 2]], REALIZABLE),
]


def test_datum_order_invariance():
    # CandidateDatum is always in canonical order, so the search runs on a
    # datum-shaped value instead.  Every arrangement puts the pinned, forced
    # and enumerated factors in every position, so the product tracked around
    # the last enumerated factor has identity and non-identity on both sides.
    for degree, partitions, status in ORDER_CASES:
        for order in itertools.permutations(partitions):
            datum = SimpleNamespace(
                degree=degree, partitions=tuple(Partition(p) for p in order)
            )
            witness = _TupleSearch(datum, SearchBudget()).run()
            assert (REALIZABLE if witness else EXCEPTIONAL) == status, order
            if witness:
                assert check_witness(datum, witness), order


def test_agrees_with_reference_at_tiny_scale():
    # complete cross-check against the zero-optimization enumeration
    for degree in range(2, 7):
        for n in range(1, 5):
            for datum in enumerate_candidates(degree, n):
                verdict = decide(datum)
                assert verdict.status == reference_decide(datum), datum.render()
                if verdict.status == REALIZABLE:
                    assert check_witness(datum, verdict.certificate)


def test_budget_monotonicity():
    cases = [
        (D("8: [5, 3] [2, 2, 2,2] [3, 2, 2,1]"), REALIZABLE),
        (D("8: [5, 3] [2, 2, 2,2] [3, 3, 1,1]"), EXCEPTIONAL),
    ]
    for datum, final in cases:
        resolved = None
        nodes = 1
        while nodes <= 1 << 20:
            status = decide(datum, SearchBudget(max_nodes=nodes)).status
            if resolved is None:
                if status != UNKNOWN:
                    resolved = status
            else:
                assert status == resolved  # growing the budget never flips
            nodes *= 8
        assert resolved == final


def test_budget_exhaustion_reports_unknown():
    verdict = decide(D("8: [5, 3] [2, 2, 2,2] [3, 3, 1,1]"), SearchBudget(max_nodes=3))
    assert verdict.status == UNKNOWN
    assert verdict.limit == "budget"


def test_deterministic_witness():
    datum = D("8: [5, 3] [2, 2, 2,2] [3, 2, 2,1]")
    first = decide(datum).certificate
    second = decide(datum).certificate
    assert first == second


def test_forced_type_prune_node_count():
    # the search is deterministic; losing the forced-type prune, the
    # pinned factor's centralizer break or either union of the orbit bound
    # raises this count
    verdict = decide(D("10: [7, 1, 1,1] [7, 1, 1,1] [7, 1, 1,1]"))
    assert verdict.status == REALIZABLE
    assert verdict.stats.nodes == 2_451


def test_pruning_keeps_first_witness():
    # witnesses of the search without the centralizer break: a prune may
    # skip only branches under which the full search finds no witness
    cases = [
        ("10: [7,1,1,1] [7,1,1,1] [7,1,1,1]", (
            (6, 1, 2, 3, 7, 4, 5, 8, 9, 0),
            (0, 9, 1, 2, 3, 5, 6, 4, 7, 8),
            (1, 2, 3, 4, 5, 6, 0, 7, 8, 9),
        )),
        ("8: [4,2,2] [4,1,1,1,1] [4,1,1,1,1] [4,1,1,1,1]", (
            (1, 2, 3, 0, 5, 4, 7, 6),
            (3, 0, 1, 2, 4, 5, 6, 7),
            (4, 1, 2, 3, 5, 6, 0, 7),
            (6, 1, 2, 3, 4, 0, 7, 5),
        )),
    ]
    for text, perms in cases:
        datum = D(text)
        assert decide(datum).certificate == ConstellationWitness(datum.degree, perms), text


def test_later_middles_keep_first_witness():
    # with three enumerated factors, the orbit bound prunes only the last:
    # the first two may leave orbits for the later middles to join.  A bound
    # there that left out the merges of the middles still to come would skip
    # this witness, the first in the search order, and find a later one
    datum = D("6: [3,3] [3,1,1,1] [3,1,1,1] [2,1,1,1,1] [2,1,1,1,1]")
    perms = (
        (2, 4, 3, 0, 5, 1),
        (0, 5, 2, 3, 1, 4),
        (1, 2, 0, 3, 4, 5),
        (1, 0, 2, 3, 4, 5),
        (3, 1, 2, 0, 4, 5),
    )
    assert decide(datum).certificate == ConstellationWitness(6, perms)


def test_every_leaf_is_a_witness(monkeypatch):
    # the orbit bound is exact at every assignment of the last enumerated
    # factor, so the search reaches a complete tuple only when it is
    # transitive: one leaf per realizable datum, none per exceptional one
    leaf = _TupleSearch._leaf
    calls = []

    def counted(self):
        calls.append(None)
        return leaf(self)

    monkeypatch.setattr(_TupleSearch, "_leaf", counted)
    for degree in range(2, 9):
        for n in (3, 4):
            for datum in enumerate_candidates(degree, n):
                calls.clear()
                verdict = decide(datum)
                assert len(calls) == (verdict.status == REALIZABLE), datum.render()


def test_orbit_bound_node_count():
    # uniting a middle edge only when its cycle closes, not spending a
    # forced merge on each product entry that joins two chains, or crediting
    # the last middle's own edges raises the n = 4 count.  The n = 5 count
    # pins a search with two enumerated factors before the last
    for degree, n, total in ((7, 4, 20_833), (7, 5, 64_589)):
        nodes = sum(decide(datum).stats.nodes for datum in enumerate_candidates(degree, n))
        assert nodes == total, n


def test_chain_prune_reads_the_longest_forced_part():
    # the forced factor is [3,2,2,1]: an open chain of product entries dies
    # past three entries, its longest part, even once a product cycle of
    # length 3 has closed and no part of 3 is left
    verdict = decide(D("8: [5,3] [3,2,2,1] [2,2,2,1,1] [2,1,1,1,1,1,1]"))
    assert verdict.status == REALIZABLE
    assert verdict.stats.nodes == 67


def test_three_point_roles_by_class_size():
    # [9,1] has the largest class, so it is forced; the two [6,1,1,1,1]
    # tie for the smallest, and the first is pinned
    search = _TupleSearch(D("10: [9,1] [6,1,1,1,1] [6,1,1,1,1]"), SearchBudget())
    assert (search.fixed_pos, search.forced_pos, search.middles) == (1, 0, [2])
    # equal classes keep the order of the datum: the last is pinned, the
    # one before it forced
    search = _TupleSearch(D("10: [7,1,1,1] [7,1,1,1] [7,1,1,1]"), SearchBudget())
    assert (search.fixed_pos, search.forced_pos, search.middles) == (2, 1, [0])


def test_three_point_roles_node_count_and_witness():
    # pinning [9,1] and forcing a [6,1,1,1,1] raises this count to 11,783
    verdict = decide(D("10: [9,1] [6,1,1,1,1] [6,1,1,1,1]"))
    assert verdict.stats.nodes == 1_016
    assert verdict.certificate == ConstellationWitness(10, (
        (0, 9, 1, 2, 3, 4, 5, 6, 7, 8),
        (1, 2, 3, 4, 5, 0, 6, 7, 8, 9),
        (5, 1, 2, 3, 4, 6, 7, 8, 9, 0),
    ))


def test_every_role_assignment_keeps_status(monkeypatch):
    # distinct fake class sizes in every order make the search pin, force
    # and enumerate each factor in turn: the roles decide only the cost
    data = [datum for degree in range(3, 9) for datum in enumerate_candidates(degree, 3)]
    statuses = {datum: {decide(datum).status} for datum in data}
    for sizes in itertools.permutations((1, 2, 3)):
        # one call per partition, in the datum's order
        fake = itertools.cycle(sizes)
        monkeypatch.setattr(oracle_mod, "class_size", lambda partition: next(fake))
        for datum in data:
            verdict = decide(datum)
            statuses[datum].add(verdict.status)
            if verdict.status == REALIZABLE:
                assert check_witness(datum, verdict.certificate), (sizes, datum.render())
    assert all(len(seen) == 1 for seen in statuses.values())


def test_last_middle_bound_counts_only_forced_merges(monkeypatch):
    # 5: [4,1] [4,1] [3,1,1] pins [3,1,1] as (0 1 2), forces the first [4,1]
    # and enumerates the second, whose 4-cycle from 0 is tried as 0 -> 1 ->
    # 2 first.  Neither step joins two orbits and each joins two product
    # chains, so after 1 -> 2 three orbits are left with one forced merge.
    # In the last middle a union of two orbits always joins two chains too,
    # so that one merge is all that can still join them: the branch dies,
    # though the cycle's last edge could merge.  Crediting that edge keeps
    # the branch.  The witness, the first in the search order, is the same.
    datum = D("5: [4,1] [4,1] [3,1,1]")
    search = _TupleSearch(datum, SearchBudget())
    assert (search.fixed_pos, search.forced_pos, search.middles) == (2, 0, [1])
    extend = _TupleSearch._extend_cycle
    reached = []

    def recorded(self, mi, img, used, counts, lengths, leader, tip, left):
        reached.append((tuple(img), tip, left, self.orbits, self.forced_left))
        return extend(self, mi, img, used, counts, lengths, leader, tip, left)

    monkeypatch.setattr(_TupleSearch, "_extend_cycle", recorded)
    assert search.run() == ConstellationWitness(5, (
        (4, 0, 2, 1, 3),
        (2, 1, 3, 4, 0),
        (1, 2, 0, 3, 4),
    ))
    assert ((1, -1, -1, -1, -1), 1, 2, 3, 2) in reached
    assert ((1, 2, -1, -1, -1), 2, 1, 3, 1) not in reached
    assert all(orbits - 1 <= forced_left for *_, orbits, forced_left in reached)


def _without_skip(monkeypatch):
    """Make every search solve each last-middle subproblem afresh."""
    track = _TupleSearch._track

    def keyless(self):
        track(self)
        return None

    monkeypatch.setattr(_TupleSearch, "_track", keyless)


def test_dead_subproblem_skip_keeps_every_verdict(monkeypatch):
    # the skip prunes only subtrees without a witness, so the first witness
    # found, and every status, is the same without it
    data = [datum for degree in range(2, 8) for datum in enumerate_candidates(degree, 4)]
    data += [datum for degree in range(2, 7) for datum in enumerate_candidates(degree, 5)]
    with_skip = [decide(datum) for datum in data]
    _without_skip(monkeypatch)
    fired = 0
    for datum, verdict in zip(data, with_skip):
        plain = decide(datum)
        assert (plain.status, plain.certificate) == (verdict.status, verdict.certificate)
        assert verdict.stats.nodes <= plain.stats.nodes
        fired += verdict.stats.nodes < plain.stats.nodes
    assert fired


def test_subproblem_key_is_conjugation_invariant():
    rng = random.Random(2024)
    for _ in range(200):
        degree = rng.randint(1, 12)
        points = list(range(degree))
        rng.shuffle(points)
        # random blocks, each a union-find tree, and x permuting each block
        parent = list(range(degree))
        x = list(range(degree))
        cuts = sorted(rng.sample(range(1, degree), rng.randint(0, degree - 1)))
        for block in (points[i:j] for i, j in zip([0] + cuts, cuts + [degree])):
            for k, p in enumerate(block[1:], 1):
                parent[p] = block[rng.randrange(k)]
            images = block[:]
            rng.shuffle(images)
            for p, q in zip(block, images):
                x[p] = q
        gamma = list(range(degree))
        rng.shuffle(gamma)
        moved_x = relabel(tuple(x), tuple(gamma))
        moved_parent = [0] * degree
        for p in range(degree):
            moved_parent[gamma[p]] = gamma[parent[p]]
        key = oracle_mod._subproblem_key(x, parent)
        assert oracle_mod._subproblem_key(moved_x, moved_parent) == key
        assert sum(map(sum, key)) == degree


def test_subproblem_key_tells_blocks_apart():
    # one 2-cycle of x in one block of four points, or in two blocks of two
    x = (1, 0, 2, 3)
    assert oracle_mod._subproblem_key(x, [0, 0, 0, 0]) == ((1, 1, 2),)
    assert oracle_mod._subproblem_key(x, [0, 0, 2, 2]) == ((1, 1), (2,))


def test_dead_subproblem_skip_node_count(monkeypatch):
    # the search builds one [4,1,1,1,1] factor and then solves the other
    # for it: 21 of the 32 subproblems it meets repeat one already found
    # dead, and without the skip this count is 11,804
    datum = D("8: [4,2,1,1] [5,1,1,1] [4,1,1,1,1] [4,1,1,1,1]")
    verdict = decide(datum)
    assert verdict.stats.nodes == 4_231
    _without_skip(monkeypatch)
    plain = decide(datum)
    assert plain.stats.nodes == 11_804
    assert plain.certificate == verdict.certificate


def test_sampler_hits_only_realizable_data_with_valid_witnesses():
    # the search decides each status; the sampler must never return a
    # witness for exceptional data, and every witness it returns must verify
    hits = misses = exceptional = 0
    for n, top in ((3, 10), (4, 8)):
        for degree in range(3, top + 1):
            for datum in enumerate_candidates(degree, n):
                witness, draws = oracle_mod.sample(datum, oracle_mod.SAMPLE_DRAWS)
                if decide(datum).status == EXCEPTIONAL:
                    exceptional += 1
                    assert witness is None and draws == oracle_mod.SAMPLE_DRAWS, datum.render()
                elif witness is None:
                    misses += 1
                else:
                    hits += 1
                    assert 1 <= draws <= oracle_mod.SAMPLE_DRAWS
                    assert check_witness(datum, witness), datum.render()
    assert (exceptional, hits, misses) == (68, 3382, 21)


def test_three_point_draws_are_pinned():
    # one factor is drawn, so every draw relabels it: the draws, and the
    # witness each datum gets, are those of a sampler that relabels every
    # drawn factor in every draw
    digest = hashlib.sha256()
    for degree in range(3, 10):
        for datum in enumerate_candidates(degree, 3):
            witness, draws = oracle_mod.sample(datum, oracle_mod.SAMPLE_DRAWS)
            perms = None if witness is None else witness.perms
            digest.update(f"{datum.render()} {draws} {perms}\n".encode())
    assert digest.hexdigest() == "09b15f7229dfa105413312ff296d7e683789d981fcac961c47e0242d9c22a768"


def test_four_point_draws_are_pinned():
    # each draw tests the drawn factors in two cyclic orders, and a hit on the
    # swapped one is carried back by a braid move: the draws, and the witness
    # each datum gets, of every 4-point datum with d <= 8
    digest = hashlib.sha256()
    for degree in range(3, 9):
        for datum in enumerate_candidates(degree, 4):
            witness, draws = oracle_mod.sample(datum, oracle_mod.SAMPLE_DRAWS)
            perms = None if witness is None else witness.perms
            digest.update(f"{datum.render()} {draws} {perms}\n".encode())
    assert digest.hexdigest() == "7621064e43955dc021f15d5f7a663375b099ee16b7f4f9e93fee8abc49abe239"


def test_a_swapped_order_hit_is_carried_back_by_a_braid_move(monkeypatch):
    # the first draw's product X o Y o Z misses the forced type and X o Z o Y
    # fits it, so Z's slot takes Y^-1 o Z o Y: the witness still lists each
    # factor in the datum's order, of that partition's type
    tests = []
    fits = oracle_mod._product_fits

    def recording(x, y, z, left):
        tests.append(fits(x, y, z, left))
        return tests[-1]

    monkeypatch.setattr(oracle_mod, "_product_fits", recording)
    datum = D("8: [4,4] [3,3,1,1] [4,1,1,1,1] [2,1,1,1,1,1,1]")
    witness, draws = oracle_mod.sample(datum, oracle_mod.SAMPLE_DRAWS)
    assert (draws, tests) == (1, [False, True])
    assert check_witness(datum, witness)
    assert [tuple(sorted(map(len, cycles(p)), reverse=True)) for p in witness.perms] == [
        part.parts for part in datum.partitions]


def test_sampled_witness_literal():
    # seeded from the datum's text, so fixed across runs, processes and
    # hash seeds: the fourth draw hits
    witness, draws = oracle_mod.sample(D("8: [5,3] [2,2,2,2] [3,2,2,1]"), oracle_mod.SAMPLE_DRAWS)
    assert draws == 4
    assert witness.perms == (
        (1, 7, 5, 6, 3, 0, 4, 2),
        (1, 0, 3, 2, 5, 4, 7, 6),
        (4, 1, 6, 5, 7, 3, 2, 0),
    )


SMALL_DATA = [
    datum for degree in range(3, 9) for n in (3, 4) for datum in enumerate_candidates(degree, n)
]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_branch_point_order_keeps_status(data):
    datum = data.draw(st.sampled_from(SMALL_DATA))
    order = data.draw(st.permutations(datum.partitions))
    moved = SimpleNamespace(degree=datum.degree, partitions=tuple(order))
    verdict = decide(moved)
    assert verdict.status == decide(datum).status
    if verdict.status == REALIZABLE:
        assert check_witness(moved, verdict.certificate)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_relabelled_witness_verifies(data):
    datum = data.draw(st.sampled_from(SMALL_DATA))
    verdict = decide(datum)
    assume(verdict.status == REALIZABLE)
    gamma = tuple(data.draw(st.permutations(range(datum.degree))))
    perms = tuple(relabel(p, gamma) for p in verdict.certificate.perms)
    assert check_witness(datum, ConstellationWitness(datum.degree, perms))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL_DATA))
def test_reversed_inverse_witness_verifies(datum):
    # s_1 ... s_n = 1 gives s_n^-1 ... s_1^-1 = 1, with the types reversed
    verdict = decide(datum)
    assume(verdict.status == REALIZABLE)
    perms = tuple(inverse(p) for p in reversed(verdict.certificate.perms))
    reversed_datum = SimpleNamespace(
        degree=datum.degree, partitions=tuple(reversed(datum.partitions))
    )
    assert check_witness(reversed_datum, ConstellationWitness(datum.degree, perms))


_WITNESSES = {}
ODD_IMAGES = st.one_of(st.integers(-2, 10), st.sampled_from([True, False, 1.0, 0.5, -0.0]))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_check_witness_agrees_with_reference(data):
    # a found witness relabelled, or random permutations, then damaged: an
    # image set to any int (out of range, negative, or a second preimage,
    # which re-enters a walk), a bool or a float, two images swapped, one
    # dropped or one appended; each permutation a tuple or a list
    datum = data.draw(st.sampled_from(SMALL_DATA))
    if datum not in _WITNESSES:
        verdict = decide(datum)
        _WITNESSES[datum] = verdict.certificate.perms if verdict.status == REALIZABLE else None
    d, n = datum.degree, len(datum.partitions)
    found = _WITNESSES[datum]
    if found is not None and data.draw(st.booleans()):
        gamma = tuple(data.draw(st.permutations(range(d))))
        perms = [list(relabel(p, gamma)) for p in found]
    else:
        perms = [data.draw(st.permutations(range(d))) for _ in range(n)]
    for _ in range(data.draw(st.integers(0, 2))):
        p = perms[data.draw(st.integers(0, n - 1))]
        kind = data.draw(st.sampled_from(["set", "swap", "drop", "append"]))
        i, j = data.draw(st.integers(0, len(p) - 1)), data.draw(st.integers(0, len(p) - 1))
        if kind == "set":
            p[i] = data.draw(ODD_IMAGES)
        elif kind == "swap":
            p[i], p[j] = p[j], p[i]
        elif kind == "drop":
            del p[i]
        else:
            p.append(j)
    perms = tuple(p if data.draw(st.booleans()) else tuple(p) for p in perms)
    witness = ConstellationWitness(d, perms)
    assert check_witness(datum, witness) == reference_check_witness(datum, witness)
