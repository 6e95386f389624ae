"""Tests for hom-space bimodules, the restriction filtration, and the pairing.

Independent oracles used here:
  * brute-force restriction sums computed directly with ``compose`` (never
    through the module under test's own matrices),
  * section counts re-derived by enumerating all injective right inverses,
  * the pairing and the restriction stages assembled column by column, from
    each surjection's sections and restrictions, against the row-by-row
    builds of the module under test,
  * binomial/factorial dimension formulas evaluated with ``math.comb``,
  * a hand-frozen kernel vector for the smallest nontrivial primitive block,
  * rank-nullity bookkeeping tying cokernel decompositions to exact ranks,
  * the pairing's image basis, from the RREF of its transpose, for the
    cokernel's character,
  * sums of principal minors (sympy determinants) for the characters of
    exterior powers.
"""
from collections import deque
from fractions import Fraction
from itertools import chain, combinations, permutations, product
from math import comb, factorial
from operator import eq

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from fsprim.finsetcat import (FinMap, HomClass, compose, enumerate_hom,
                              hom_character, hom_dimension)
from fsprim.fsfilt import (HomModule, automorphism_block_check,
                           closure_check, coker_action_triviality,
                           coker_theta_decompose,
                           fi_stability_check, filtration_level,
                           filtration_nesting_check, full_fs_bidecompose,
                           hom_module, kring_identity_check,
                           lambda_bar_character,
                           level_bicharacter, primfs_identity_check,
                           primitives, primitives_bidecompose,
                           ses_identity_check, sgn_vanishing_check,
                           subquotient_decompose,
                           subquotient_identity_check,
                           theta_equivariance_check, theta_kernel_level_check,
                           theta_matrix, theta_rank_report)
from fsprim.fsfilt import (_difference, _in_level, _reduced_restriction,
                           _restricted_bicharacter, _transpose)
from fsprim.partitions import (class_size, irrep_dimension, partition_index,
                               partitions_of)
from fsprim.ratlinalg import RatMatrix, solve_membership
from fsprim.repdecomp import (BiClassFunction, BiSchurClass, ClassFunction,
                              InternalConsistencyError, SchurClass,
                              adjacent_transposition, bidecompose_character,
                              class_representative, decompose_character,
                              symmetric_generators)

from test_ratlinalg import (dense, entries, image_basis, permute_rows,
                            sparse_columns, sympy_rref, transpose)

SURJ = HomClass.SURJECTION
INJ = HomClass.INJECTION


def all_permutations(n):
    """Every permutation of degree n, as a value string."""
    return list(map(bytes, permutations(range(1, n + 1))))


def as_map(perm):
    """Reference: a permutation's value string as a validated map, to
    compose."""
    return FinMap(len(perm), len(perm), tuple(perm))


def section_values(values, target_size):
    """Reference: value tuples of the sections of a surjection onto
    ``target_size`` points, in lexicographic order.  A section picks one
    source point from each fibre, so the tuples are the product of the
    fibres."""
    fibres = [[] for _ in range(target_size)]
    for i, v in enumerate(values, start=1):
        fibres[v - 1].append(i)
    return product(*fibres)


def coxeter_perms(module, side):
    """Reference: basis permutations of the n - 1 adjacent transpositions
    (k k+1) on one side, the Coxeter generators of S_n.  Each is its own
    inverse, so no reference built on them depends on the direction in which
    a permutation is read."""
    if side == "left":
        n, act = module.left_degree, module.left_perm
    else:
        n, act = module.right_degree, module.right_perm
    return tuple(act(adjacent_transposition(n, t)) for t in range(1, n))


def inverse(perm):
    """Reference: the permutation undoing ``perm``."""
    return FinMap(perm.source_size, perm.source_size,
                  tuple(sorted(range(1, perm.source_size + 1), key=perm)))


def bischur(mapping):
    return BiSchurClass(mapping)


def bimodule_dimension(cls: BiSchurClass) -> int:
    return sum(mult * irrep_dimension(lam) * irrep_dimension(mu)
               for (lam, mu), mult in cls.terms)


# ------------------------------------------------------------- hom bimodules


def test_hom_module_basis_and_index_roundtrip():
    mod = hom_module(SURJ, 3, 2)
    assert mod.dimension == hom_dimension(SURJ, 3, 2) == 6
    assert mod.basis == tuple(bytes(f.values)
                             for f in enumerate_hom(SURJ, 3, 2))
    for i, f in enumerate(mod.basis):
        assert mod.index[f] == i


def test_hom_module_actions_are_commuting_permutations():
    # Two permutations commute iff their inverses do, so the direction in
    # which a generator's permutation is read does not matter here.
    mod = hom_module(SURJ, 3, 2)
    n = mod.dimension
    for perm in mod.left_generator_perms + mod.right_generator_perms:
        assert sorted(perm) == list(range(n))
    for lp in mod.left_generator_perms:
        for rp in mod.right_generator_perms:
            assert tuple(lp[rp[i]] for i in range(n)) == \
                tuple(rp[lp[i]] for i in range(n))


def test_hom_module_bicharacter_diagonal_entry_counts_fixed_maps():
    # trace at the identity pair is the full dimension
    mod = hom_module(SURJ, 3, 2)
    char = mod.bicharacter()
    left_id = partition_index((1, 1))
    right_id = partition_index((1, 1, 1))
    assert char.values[left_id][right_id] == mod.dimension


def _fixed_point_bicharacter(module):
    """Reference: the basis maps each class pair fixes, counted on the
    basis permutations of one representative per class."""
    left_reps, right_reps = module.class_perms
    points = range(module.dimension)
    return BiClassFunction(module.left_degree, module.right_degree, tuple(
        tuple(sum(map(eq, map(pl.__getitem__, pr), points))
              for pr in right_reps)
        for pl in left_reps))


def test_closed_form_character_matches_the_fixed_point_reference():
    # Both flavors, both orders of the sizes (so the empty spaces too), and
    # the empty sets.
    for b in range(8):
        for a in range(8):
            for flavor, source, target in ((SURJ, b, a), (INJ, a, b)):
                module = hom_module(flavor, source, target)
                assert module.bicharacter() == \
                    _fixed_point_bicharacter(module), (flavor, source, target)
                identity = hom_character(flavor, source, target)[
                    partition_index((1,) * target)][
                    partition_index((1,) * source)]
                assert identity == hom_dimension(flavor, source, target), (
                    flavor, source, target)


def test_full_levels_match_the_restricted_trace_on_the_identity():
    for b in range(7):
        for a in range(b + 1):
            module = hom_module(SURJ, b, a)
            traced = _restricted_bicharacter(
                module, RatMatrix.identity(module.dimension))
            for t in range(b - a, b + 1):
                assert level_bicharacter(b, a, t) == traced, (b, a, t)


@pytest.fixture
def fresh_character_caches():
    """fsfilt with every cache that holds a whole-space character or a
    module's class permutations emptied, before the test and after it."""
    import fsprim.fsfilt as fsfilt
    cached = (fsfilt.hom_module, fsfilt.level_bicharacter,
              fsfilt.full_fs_bidecompose, fsfilt.primitives_bidecompose,
              fsfilt.subquotient_decompose, fsfilt.coker_theta_decompose)
    for fn in cached:
        fn.cache_clear()
    yield fsfilt
    for fn in cached:
        fn.cache_clear()


def _patch_character_entry(monkeypatch, fsfilt, cell, left, right, delta):
    """Add ``delta`` to one entry of Surj(cell)'s closed-form character."""
    real = fsfilt.hom_character
    i, j = partition_index(left), partition_index(right)

    def patched(flavor, source_size, target_size):
        table = real(flavor, source_size, target_size)
        if (flavor, source_size, target_size) != (SURJ, *cell):
            return table
        return tuple(tuple(v + delta if (r, c) == (i, j) else v
                           for c, v in enumerate(row))
                     for r, row in enumerate(table))

    monkeypatch.setattr(fsfilt, "hom_character", patched)


def test_a_wrong_character_entry_fails_the_checks(fresh_character_caches,
                                                  monkeypatch):
    from fsprim.verify import run_check
    # 2 = 1! * 2! at the identity pair adds the regular character of
    # S_1 x S_2, which holds the sign of S_2: still a character, now wrong.
    _patch_character_entry(monkeypatch, fresh_character_caches, (2, 1),
                           (1,), (1, 1), 2)
    assert not sgn_vanishing_check(2, 1)
    for check in ("sgn_vanishing", "primfs_formula"):
        assert [r.status for r in run_check(check, 4)] == ["fail"], check


def test_a_non_character_entry_is_refused(fresh_character_caches,
                                          monkeypatch):
    from fsprim.verify import run_check
    # One more fixed map at the identity pair gives the multiplicities 3/2
    # and 1/2, which no bimodule has.
    _patch_character_entry(monkeypatch, fresh_character_caches, (2, 1),
                           (1,), (1, 1), 1)
    for check in ("sgn_vanishing", "primfs_formula"):
        with pytest.raises(InternalConsistencyError):
            run_check(check, 4)


def test_whole_space_characters_build_no_permutation(fresh_character_caches,
                                                     monkeypatch):
    def refuse(self, perm):
        raise AssertionError("basis permutation built")

    monkeypatch.setattr(HomModule, "left_perm", refuse)
    monkeypatch.setattr(HomModule, "right_perm", refuse)
    for a in range(7):
        assert full_fs_bidecompose(6, a).terms or a == 0, a
    for a in range(1, 7):
        for c in range(a):
            assert sgn_vanishing_check(a, c), (a, c)
    # Level -1 and the pairing's kernel at equal sizes are zero spaces.
    for n in range(7):
        assert subquotient_decompose(0, n, n) == \
            full_fs_bidecompose(n, n), n
        assert coker_theta_decompose(n, n).is_zero(), n


def test_modules_refuse_a_flavor_that_is_not_a_hom_class():
    # By name, the maps were listed as surjections while the character
    # counted injections: dimension 6 against 0 at the identity.
    with pytest.raises(TypeError):
        hom_module("surjection", 3, 2)


def test_sizes_levels_and_powers_that_are_not_ints_are_refused():
    # functools.cache keys 3.0 and True like 3 and 1: each call was accepted
    # once its int twin was cached, or outright when it never reached a
    # size check.
    from fsprim.repdecomp import character_table
    calls = [
        (full_fs_bidecompose, (3.0, 2), (3, 2)),
        (filtration_level, (3.0, 2, 0), (3, 2, 0)),
        (filtration_level, (3, 2, True), (3, 2, 1)),
        (filtration_level, (3, 2, 0.0), (3, 2, 0)),
        (theta_matrix, (2.0, 3), (2, 3)),
        (primitives_bidecompose, (3.0, 2), (3, 2)),
        (coker_theta_decompose, (2, 3.0), (2, 3)),
        (hom_module, (SURJ, 3.0, 2), (SURJ, 3, 2)),
        (level_bicharacter, (3, 2, True), (3, 2, 1)),
        (subquotient_decompose, (True, 3, 2), (1, 3, 2)),
        (lambda_bar_character, (True, 3), (1, 3)),
        (partitions_of, (True,), (1,)),
        (character_table, (True,), (1,)),
    ]
    for fn, bad, good in calls:
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()
        for _ in "before", "after":
            with pytest.raises(TypeError):
                fn(*bad)
            fn(*good)
    # Level -1 is the zero level, and stays valid.
    assert filtration_level(3, 2, -1).cols == 0


def test_actions_refuse_maps_that_are_not_permutations_of_their_side():
    mod = hom_module(SURJ, 3, 2)  # left S_2, right S_3
    for act, g in ((mod.right_perm, bytes((2, 1, 3, 4))),  # too long
                   (mod.right_perm, bytes((2, 1))),        # too short
                   (mod.right_perm, bytes((1, 1, 2))),     # a repeat
                   (mod.right_perm, bytes((1, 2, 4))),     # above n
                   (mod.left_perm, bytes((0, 1))),         # a 0 byte
                   (mod.left_perm, bytes((1, 1))),
                   (mod.left_perm, bytes((2, 1, 3)))):
        with pytest.raises(ValueError, match="permutation of degree"):
            act(g)
    assert mod.left_perm(bytes((2, 1))) == mod.left_generator_perms[0]


def test_actions_take_value_strings_only():
    # A permutation is its value string; a validated map, a tuple or a list
    # spelling the same permutation is a second form, refused by type.
    mod = hom_module(SURJ, 3, 2)  # left S_2, right S_3
    for act, values, perm in (
            (mod.left_perm, (2, 1), mod.left_generator_perms[0]),
            (mod.right_perm, (2, 3, 1), mod.right_generator_perms[1])):
        n = len(values)
        for g in (FinMap(n, n, values), values, list(values),
                  bytearray(values)):
            with pytest.raises(TypeError, match="value string"):
                act(g)
        assert act(bytes(values)) == perm


def _assert_actions_match_composition(flavor, source, target):
    """Oracle: both actions written with compose on validated maps."""
    mod = hom_module(flavor, source, target)
    maps = enumerate_hom(flavor, source, target)
    for pi in all_permutations(target):
        assert mod.left_perm(pi) == tuple(
            mod.index[bytes(compose(as_map(pi), f).values)] for f in maps)
    for sigma in all_permutations(source):
        inv = inverse(as_map(sigma))
        assert mod.right_perm(sigma) == tuple(
            mod.index[bytes(compose(f, inv).values)] for f in maps)


def test_right_action_matches_a_local_reorder_through_six():
    # The right action reorders each value string: position k of
    # f . sigma^{-1} reads f at sigma^{-1}(k).  Degrees 0 and 1 have only
    # the identity, which fixes every map.
    for flavor in (SURJ, INJ):
        for b in range(7):
            for a in range(7):
                mod = hom_module(flavor, b, a)
                sigmas = ([class_representative(mu) for mu in partitions_of(b)]
                          + list(symmetric_generators(b)))
                for sigma in sigmas:
                    inverse = {v - 1: k for k, v in enumerate(sigma)}
                    assert mod.right_perm(sigma) == tuple(
                        mod.index[bytes(f[inverse[k]] for k in range(b))]
                        for f in mod.basis), (flavor, b, a, sigma)
    for flavor, b, a in ((SURJ, 0, 0), (INJ, 0, 3), (SURJ, 1, 1),
                         (INJ, 1, 4)):
        mod = hom_module(flavor, b, a)
        assert mod.right_perm(bytes(range(1, b + 1))) == \
            tuple(range(mod.dimension))
        assert mod.dimension and mod.right_generator_perms == ()


def test_tuple_actions_match_the_composition_reference():
    for flavor in (SURJ, INJ):
        for b in range(5):
            for a in range(b + 1):
                source, target = (b, a) if flavor is SURJ else (a, b)
                _assert_actions_match_composition(flavor, source, target)


def test_actions_of_the_trivial_groups_match_the_composition_reference():
    # Degrees 0 and 1, where the right action is the identity without a
    # byte reordering and the left action translates through a 0- or
    # 1-entry table, against modules of every size on the other side.
    for b in range(7):
        for a in (0, 1):
            _assert_actions_match_composition(SURJ, b, a)
            _assert_actions_match_composition(INJ, a, b)


def _functional_character(a, b):
    """Character of the functionals on injections a -> b, by composition.

    S_a acts on the left by ``h -> h . pi^{-1}`` and S_b on the right by
    ``h -> sigma . h``; the value at a class pair counts the fixed maps.
    """
    injections = enumerate_hom(INJ, a, b)
    return BiClassFunction(a, b, tuple(
        tuple(sum(1 for h in injections
                  if compose(sigma, compose(h, inverse(pi))) == h)
              for sigma in map(as_map, map(class_representative,
                                           partitions_of(b))))
        for pi in map(as_map, map(class_representative, partitions_of(a)))))


def test_transposed_injection_character_is_the_functional_character():
    for b in range(5):
        for a in range(b + 1):
            assert (_transpose(hom_module(INJ, a, b).bicharacter())
                    == _functional_character(a, b)), (a, b)


# ------------------------------------------------------- restriction matrices


def fi_action_on_fs(source_size, target_size, restricted_size):
    """Stacked restriction matrix along all injections into the source.

    The oracle for ``_reduced_restriction``: one block per injection
    ``i: restricted_size -> source_size`` in canonical basis order; the block
    sends a surjection ``[f]`` to ``[f . i]`` when the composite is surjective
    and to zero otherwise.  Restricting to a larger set than the source is a
    contract violation.
    """
    b, a, c = source_size, target_size, restricted_size
    assert 0 <= c <= b, "restricted size must not exceed the source size"
    big = hom_module(SURJ, b, a)
    small = hom_module(SURJ, c, a)
    injections = enumerate_hom(INJ, c, b)
    rows = len(injections) * small.dimension

    def triplets():
        for blk, inj in enumerate(injections):
            base = blk * small.dimension
            for col, f in enumerate(enumerate_hom(SURJ, b, a)):
                g = compose(f, inj)
                if g.is_surjective():
                    yield base + small.index[bytes(g.values)], col, 1

    return RatMatrix.from_triplets(rows, big.dimension, triplets())


def test_restriction_of_single_surjection_along_both_points():
    mat = fi_action_on_fs(2, 1, 1)
    assert (mat.rows, mat.cols) == (2, 1)
    assert mat.entry(0, 0) == 1 and mat.entry(1, 0) == 1


def test_restriction_at_equal_sizes_has_permutation_blocks():
    b, a = 3, 2
    mat = fi_action_on_fs(b, a, b)
    block = hom_dimension(SURJ, b, a)
    injections = enumerate_hom(INJ, b, b)
    assert mat.rows == len(injections) * block
    surjections = enumerate_hom(SURJ, b, a)
    small = {f.values: i for i, f in enumerate(surjections)}
    for k, inj in enumerate(injections):
        for col, f in enumerate(surjections):
            expected_row = k * block + small[compose(f, inj).values]
            assert mat.entry(expected_row, col) == 1


def test_restriction_with_oversized_target_has_no_rows():
    mat = fi_action_on_fs(3, 2, 1)
    assert mat.rows == 0 and mat.cols == 6


def test_restriction_rejects_probe_larger_than_source():
    with pytest.raises(AssertionError):
        fi_action_on_fs(2, 1, 3)


def test_restriction_matrix_matches_brute_force_composition():
    b, a, c = 4, 2, 2
    mat = fi_action_on_fs(b, a, c)
    surjections = enumerate_hom(SURJ, b, a)
    small = enumerate_hom(SURJ, c, a)
    small_index = {f.values: i for i, f in enumerate(small)}
    for k, inj in enumerate(enumerate_hom(INJ, c, b)):
        for col, f in enumerate(surjections):
            g = compose(f, inj)
            for row_in_block, s in enumerate(small):
                expected = 1 if g.is_surjective() and \
                    small_index[g.values] == row_in_block else 0
                assert mat.entry(k * len(small) + row_in_block, col) == expected


def test_reduced_restriction_to_at_most_one_point_matches_brute_force():
    # Increasing injections from sizes 0 and 1, composed one map at a time.
    for b in range(6):
        for a in range(b + 1):
            for c in range(min(b, 1) + 1):
                small = hom_module(SURJ, c, a)
                triplets = []
                for blk, image in enumerate(combinations(range(1, b + 1), c)):
                    inj = FinMap(c, b, image)
                    for col, f in enumerate(enumerate_hom(SURJ, b, a)):
                        g = compose(f, inj)
                        if g.is_surjective():
                            triplets.append((blk * small.dimension
                                             + small.index[bytes(g.values)],
                                             col, 1))
                expected = RatMatrix.from_triplets(
                    comb(b, c) * small.dimension, hom_dimension(SURJ, b, a),
                    triplets)
                assert _reduced_restriction(b, a, c) == expected, (b, a, c)


def reduced_restriction_by_columns(source_size, target_size,
                                   restricted_size):
    """Reference: the restriction stage read column by column.

    Each surjection's column holds 1 in block S at its restriction to S when
    that restriction is onto, one triplet at a time.
    """
    b, a, c = source_size, target_size, restricted_size
    big = hom_module(SURJ, b, a)
    small = hom_module(SURJ, c, a)
    subsets = list(combinations(range(b), c))

    def triplets():
        for blk, subset in enumerate(subsets):
            base = blk * small.dimension
            restricted = (small.index.get(bytes(w[p] for p in subset))
                          for w in big.basis)
            for col, row in enumerate(restricted):
                if row is not None:
                    yield base + row, col, 1

    return RatMatrix.from_triplets(len(subsets) * small.dimension,
                                   big.dimension, triplets())


def has_no_empty_row(mat):
    return all(mat._sparse_rows().values())


def test_reduced_restriction_matches_the_column_reference_through_seven():
    # Includes the cells with empty rows: (b, 0, 0) at b > 0 and c < a.
    for b in range(8):
        for a in range(b + 1):
            for c in range(b + 1):
                stage = _reduced_restriction(b, a, c)
                assert stage == reduced_restriction_by_columns(b, a, c), \
                    (b, a, c)
                assert has_no_empty_row(stage), (b, a, c)


def test_reduced_restriction_kernels_equal_full_kernels():
    for b in range(5):
        for a in range(b + 1):
            for c in range(b):
                full = fi_action_on_fs(b, a, c).kernel_basis()
                reduced = _reduced_restriction(b, a, c).kernel_basis()
                assert full == reduced, (b, a, c)


# ----------------------------------------------------------------- filtration


def test_level_below_zero_is_the_zero_space():
    lvl = filtration_level(3, 2, -1)
    assert lvl.cols == 0
    assert lvl.rows == 6


def test_level_at_or_above_source_size_is_the_full_space():
    for b in range(5):
        for a in range(b + 1):
            full = hom_dimension(SURJ, b, a)
            assert filtration_level(b, a, b).cols == full
            assert filtration_level(b, a, b + 3).cols == full


def test_first_level_of_the_single_surjection_space_is_zero():
    assert filtration_level(2, 1, 0).cols == 0


def test_equal_size_blocks_are_fully_primitive():
    for n in range(5):
        assert automorphism_block_check(n)
        assert primitives(n, n).cols == factorial(n)


def test_automorphism_block_check_reads_the_defining_stage(monkeypatch):
    import fsprim.fsfilt as fsfilt
    from fsprim.verify import run_check
    real = fsfilt._reduced_restriction

    def stage_with_a_relation(source_size, target_size, restricted_size):
        if (source_size, target_size, restricted_size) == (2, 2, 1):
            return dense([[1, -1]])
        return real(source_size, target_size, restricted_size)

    monkeypatch.setattr(fsfilt, "_reduced_restriction", stage_with_a_relation)
    assert not automorphism_block_check(2)
    assert automorphism_block_check(3)
    (report,) = run_check("closure", 3)
    assert report.status == "fail"
    assert report.expected == '{"block_is_full":true,"set_size":2}'
    assert report.computed == '{"block_is_full":false,"set_size":2}'


def test_primitive_dimension_table():
    expected = {(0, 0): 1, (1, 1): 1, (2, 1): 0, (3, 1): 0, (4, 1): 0,
                (3, 2): 1, (4, 2): 1, (5, 2): 1, (4, 3): 13, (5, 3): 29,
                (5, 4): 121}
    for (b, a), dim in expected.items():
        assert primitives(b, a).cols == dim, (b, a)
    for b in range(1, 5):
        assert primitives(b, 0).cols == 0


def test_smallest_nontrivial_primitive_vector_is_frozen():
    block = primitives(3, 2)
    assert block.cols == 1
    column = [block.entry(i, 0) for i in range(6)]
    # basis order (1,1,2),(1,2,1),(1,2,2),(2,1,1),(2,1,2),(2,2,1)
    assert column == [-1, -1, 1, -1, 1, 1]
    # oracle: each single-point restriction cancels exactly
    surjections = enumerate_hom(SURJ, 3, 2)
    for point in (1, 2, 3):
        inj = FinMap(1, 3, (point,))
        sums: dict = {}
        for i, f in enumerate(surjections):
            g = compose(f, inj)
            if g.is_surjective():
                sums[g.values] = sums.get(g.values, 0) + column[i]
        assert all(v == 0 for v in sums.values())


def test_levels_nest_and_are_stable_under_restrictions():
    for b in range(6):
        for a in range(b + 1):
            assert filtration_nesting_check(b, a), (b, a)
            assert fi_stability_check(b, a), (b, a)


def test_primitive_spans_are_stable_under_both_group_actions():
    for b, a in [(3, 2), (4, 2), (4, 3)]:
        mod = hom_module(SURJ, b, a)
        basis = primitives(b, a)
        unit = basis.unit_rows()
        # permute_rows applies each generator, not its inverse; a span
        # stable under a permutation of finite order is stable under its
        # inverse, a positive power, so either direction decides stability.
        for perm in mod.left_generator_perms + mod.right_generator_perms:
            acted = permute_rows(basis, perm)
            coords = acted.select_rows(unit)
            assert basis @ coords == acted


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(-1, 4))
def test_level_dimensions_grow_weakly_with_depth(b, a, t):
    if a > b:
        a = b
    lower = filtration_level(b, a, t).cols
    upper = filtration_level(b, a, t + 1).cols
    assert lower <= upper <= hom_dimension(SURJ, b, a)


# ----------------------------------------------------------- bidecompositions


def test_primitive_block_bidecompositions():
    assert primitives_bidecompose(3, 2) == bischur({((1, 1), (3,)): 1})
    assert primitives_bidecompose(2, 2) == bischur({((2,), (2,)): 1,
                                                    ((1, 1), (1, 1)): 1})
    assert bimodule_dimension(primitives_bidecompose(4, 3)) == 13


def test_full_block_bidecomposition_has_exact_dimension():
    for b in range(5):
        for a in range(b + 1):
            cls = full_fs_bidecompose(b, a)
            assert bimodule_dimension(cls) == hom_dimension(SURJ, b, a)
            assert all(mult > 0 for _, mult in cls.terms)


def test_subquotient_layers_vanish_beyond_source_deficit():
    assert subquotient_decompose(2, 2, 1) == bischur({})
    assert subquotient_decompose(4, 5, 2) == bischur({})


def test_subquotient_layer_zero_is_the_primitive_block():
    for b in range(5):
        for a in range(b + 1):
            assert subquotient_decompose(0, b, a) == \
                primitives_bidecompose(b, a)


def test_top_subquotient_of_single_surjection_space():
    assert subquotient_decompose(1, 2, 1) == bischur({((1,), (2,)): 1})


# -------------------------------------------------------------- the pairing


def test_pairing_at_equal_sizes_inverts_bijections():
    for a in range(5):
        mat = theta_matrix(a, a)
        target = hom_module(INJ, a, a)
        surjections = enumerate_hom(SURJ, a, a)
        assert (mat.rows, mat.cols) == (factorial(a), factorial(a))
        for col, alpha in enumerate(surjections):
            inverse_row = target.index[bytes(inverse(alpha).values)]
            for row in range(mat.rows):
                assert mat.entry(row, col) == (1 if row == inverse_row else 0)


def test_pairing_of_the_two_point_collapse_is_all_ones():
    mat = theta_matrix(1, 2)
    assert (mat.rows, mat.cols) == (2, 1)
    assert mat.entry(0, 0) == 1 and mat.entry(1, 0) == 1


def test_pairing_with_empty_target_has_one_functional_and_no_columns():
    for b in range(1, 5):
        mat = theta_matrix(0, b)
        assert (mat.rows, mat.cols) == (1, 0)


def test_pairing_columns_count_right_inverses():
    # oracle: sections are exactly the injections h with f . h = identity
    a, b = 2, 4
    mat = theta_matrix(a, b)
    target = hom_module(INJ, a, b)
    ident = FinMap(a, a, tuple(range(1, a + 1)))
    for col, f in enumerate(enumerate_hom(SURJ, b, a)):
        expected_rows = {target.index[bytes(h.values)]
                         for h in enumerate_hom(INJ, a, b)
                         if compose(f, h) == ident}
        for row in range(mat.rows):
            assert mat.entry(row, col) == (1 if row in expected_rows else 0)


def test_pairing_section_tuples_are_the_validated_sections():
    # Column f holds the sections of f; the injections h with f . h = id,
    # found on validated maps, cross the fibre-product section tuples
    # through b = 5.  theta(0, b) at b > 0 has one empty row, which is not
    # stored.
    for b in range(8):
        for a in range(b + 1):
            surjections = hom_module(SURJ, b, a).basis
            target = hom_module(INJ, a, b)
            triplets = []
            ident = FinMap(a, a, tuple(range(1, a + 1)))
            for col, f in enumerate(surjections):
                found = list(section_values(f, a))
                if b <= 5:
                    validated = FinMap(b, a, tuple(f))
                    assert found == [h.values for h in enumerate_hom(INJ, a, b)
                                     if compose(validated, h) == ident]
                triplets.extend((target.index[bytes(s)], col, 1)
                                for s in found)
            theta = theta_matrix(a, b)
            assert theta == RatMatrix.from_triplets(
                target.dimension, len(surjections), triplets), (a, b)
            assert has_no_empty_row(theta), (a, b)


def _matrix_equivariance(th, a, b):
    """Reference: ``P_t @ th @ P_s^T == th`` with permuted matrices, for
    every adjacent transposition on each side."""
    source = hom_module(SURJ, b, a)
    target = hom_module(INJ, a, b)
    pairs = chain(
        zip(coxeter_perms(source, "left"), coxeter_perms(target, "right")),
        zip(coxeter_perms(source, "right"), coxeter_perms(target, "left")))
    return all(
        transpose(permute_rows(transpose(permute_rows(th, pt)), ps)) == th
        for ps, pt in pairs)


def test_pairing_commutes_with_both_group_actions():
    # The two-generator check agrees with the adjacent-transposition
    # reference on every cell with b <= 6.
    for b in range(7):
        for a in range(b + 1):
            assert theta_equivariance_check(a, b), (a, b)
            assert _matrix_equivariance(theta_matrix(a, b), a, b), (a, b)


def test_equivariance_fails_for_a_pairing_that_commutes_only_with_a_swap(
        monkeypatch):
    # theta . S_(12), with S the surjections' source action, still commutes
    # with (1 2) on both sides and with every target permutation, but not
    # with the source cycle: conjugating (1 2) by it gives (2 3).
    import fsprim.fsfilt as fsfilt
    cells = [(a, b) for b in range(3, 6) for a in range(2, b + 1)]
    for a, b in cells:
        th = theta_matrix(a, b)
        source = hom_module(SURJ, b, a)
        target = hom_module(INJ, a, b)
        swap = source.right_generator_perms[0]
        assert swap == coxeter_perms(source, "right")[0]
        bad = RatMatrix.from_triplets(th.rows, th.cols, (
            (i, swap[j], v) for i, row in th._sparse_rows().items()
            for j, v in row.items()))
        rows = bad._sparse_rows()
        for ps, pt in ((source.left_generator_perms[0],
                        target.right_generator_perms[0]),
                       (swap, target.left_generator_perms[0])):
            assert {pt[i]: {ps[j]: v for j, v in row.items()}
                    for i, row in rows.items()} == rows, (a, b)
        assert not _matrix_equivariance(bad, a, b), (a, b)
        monkeypatch.setattr(fsfilt, "theta_matrix", lambda a, b: bad)
        assert not theta_equivariance_check(a, b), (a, b)
        monkeypatch.undo()


def test_equivariance_compares_values_not_only_the_support(monkeypatch):
    import fsprim.fsfilt as fsfilt
    a, b = 2, 3
    th = theta_matrix(a, b)
    cols = sparse_columns(th)
    doubled = min((i, j) for j, col in cols.items() for i in col)
    scaled = RatMatrix.from_triplets(th.rows, th.cols, (
        (i, j, 2 if (i, j) == doubled else v)
        for j, col in cols.items() for i, v in col.items()))
    assert ({j: col.keys() for j, col in sparse_columns(scaled).items()}
            == {j: col.keys() for j, col in cols.items()})
    assert not _matrix_equivariance(scaled, a, b)
    monkeypatch.setattr(fsfilt, "theta_matrix", lambda a, b: scaled)
    assert not theta_equivariance_check(a, b)


def test_equivariance_builds_no_matrix_besides_theta(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("matrix operation in the equivariance check")

    cells = [(a, b) for b in range(5) for a in range(b + 1)]
    for a, b in cells:
        theta_matrix(a, b)
    for name in ("_make", "__eq__"):
        monkeypatch.setattr(RatMatrix, name, refuse)
    for a, b in cells:
        assert theta_equivariance_check(a, b), (a, b)


def test_pairing_kernel_is_the_penultimate_filtration_level():
    for a in range(6):
        for b in range(a, 6):
            assert theta_kernel_level_check(a, b), (a, b)


def test_rank_report_flags_the_first_deficient_cell():
    report = theta_rank_report(3, 4)
    assert report["domain_dimension"] == 36
    assert report["codomain_dimension"] == 24
    assert report["rank"] == 23
    assert report["kernel_dimension"] == 13
    assert report["kernel_is_filtration_level"]


def test_rank_report_on_injective_cells():
    report = theta_rank_report(2, 3)
    assert report["domain_dimension"] == 6
    assert report["codomain_dimension"] == 6
    assert report["rank"] == 5
    assert report["kernel_dimension"] == 1
    report = theta_rank_report(2, 2)
    assert report["rank"] == 2 and report["kernel_dimension"] == 0


def _rref_rows(red):
    return red._sparse_rows()


def test_operator_rref_matches_denominator_clearing_reference():
    # Reference: sympy's RREF that clears denominators and eliminates over ZZ.
    for b in range(6):
        for a in range(b + 1):
            operators = [theta_matrix(a, b)] + [
                _reduced_restriction(b, a, c) for c in range(b + 1)]
            for mat in operators:
                red, pivots = mat.rref()
                if not mat.rows or not mat.cols:
                    assert pivots == ()
                    continue
                ref, ref_pivots = sympy_rref(mat, "CD")
                assert pivots == ref_pivots, (a, b, mat)
                assert _rref_rows(red) == ref, (a, b, mat)


def test_pairing_rows_are_the_equal_size_stage_rows():
    # Why the pairing and level b - a - 1 share one elimination.
    def row_set(mat):
        return {frozenset(row.items())
                for row in mat._sparse_rows().values()}

    for b in range(8):
        for a in range(1, b + 1):
            theta = theta_matrix(a, b)
            stage = _reduced_restriction(b, a, a)
            assert theta.rows == stage.rows
            assert row_set(theta) == row_set(stage), (a, b)


def test_permuted_pairing_with_repeated_rows_has_the_same_rref():
    theta = theta_matrix(3, 5)
    red, pivots = theta.rref()
    order = list(reversed(range(theta.rows))) + [0, 0, 7]
    copy = theta.select_rows(order)
    red_copy, pivots_copy = copy.rref()
    assert pivots_copy == pivots
    assert red_copy.rows == theta.rows + 3
    nonzero = _rref_rows(red)
    assert set(nonzero) == set(range(len(pivots)))
    assert _rref_rows(red_copy) == nonzero
    ref, ref_pivots = sympy_rref(copy, "CD")
    assert ref_pivots == pivots and ref == nonzero


# ---------------------------------------------------------------- cokernels


def test_cokernel_examples():
    assert coker_theta_decompose(0, 3) == bischur({((), (3,)): 1})
    assert coker_theta_decompose(1, 2) == bischur({((1,), (1, 1)): 1})
    assert coker_theta_decompose(2, 2) == bischur({})
    assert coker_theta_decompose(2, 4) == bischur({((1, 1), (2, 1, 1)): 1})


def test_cokernel_sweep_is_always_a_sign_hook_pair():
    for a in range(5):
        for b in range(a, 6):
            cls = coker_theta_decompose(a, b)
            if a == b:
                assert cls == bischur({})
            else:
                hook = (b - a,) + (1,) * a
                assert cls == bischur({((1,) * a, hook): 1}), (a, b)


def test_cokernel_dimension_matches_rank_nullity():
    for a in range(4):
        for b in range(a, 6):
            report = theta_rank_report(a, b)
            codim = report["codomain_dimension"] - report["rank"]
            assert bimodule_dimension(coker_theta_decompose(a, b)) == codim


def _image_trace_cokernel(a, b):
    """Reference: the functional space's character minus the restricted
    trace on a basis of the pairing's image (the RREF of its transpose),
    both read on the injection span and then transposed."""
    functionals = hom_module(INJ, a, b)
    image = _restricted_bicharacter(functionals,
                                    image_basis(theta_matrix(a, b)))
    return bidecompose_character(_transpose(
        _difference(functionals.bicharacter(), image)))


def test_kernel_cokernel_matches_the_image_trace_reference():
    for b in range(7):
        for a in range(b + 1):
            assert coker_theta_decompose(a, b) == \
                _image_trace_cokernel(a, b), (a, b)


def test_cokernel_eliminates_only_the_pairing(fresh_character_caches,
                                              monkeypatch):
    from fsprim import ratlinalg
    monkeypatch.setattr(ratlinalg, "_RREF_BY_ROWS", {})
    fresh_character_caches.theta_matrix.cache_clear()
    eliminated = []
    rref = RatMatrix.rref

    def spy(self):
        eliminated.append(self)
        return rref(self)

    monkeypatch.setattr(RatMatrix, "rref", spy)
    for b in range(6):
        for a in range(b + 1):
            eliminated.clear()
            coker_theta_decompose(a, b)
            pairing = theta_matrix(a, b)
            assert eliminated and all(m is pairing for m in eliminated), (
                a, b)


def test_size_decreasing_primitives_act_as_zero_on_cokernels():
    for b in range(6):
        for a in range(b + 1):
            for c in range(a):
                assert coker_action_triviality(a, c, b), (a, c, b)


def _hand_assembled_coker_relations(a, c, b, quotient=True):
    """Reference: the contraction relations entry by entry, from Fraction
    dicts, in quotient coordinates read off the image's non-pivot rows, or
    on the whole functional space, with no pivots, when not ``quotient``.

    The relations span the full tensor exactly when the contraction over
    the shared group vanishes; their corank is the contraction's dimension.
    """
    prim = primitives(a, c)
    p = prim.cols
    image = image_basis(theta_matrix(a, b))
    pivots = image.unit_rows() if quotient else ()
    pivot_col = {j: m for m, j in enumerate(pivots)}
    nonpivots = [j for j in range(image.rows) if j not in pivot_col]
    q = len(nonpivots)
    position = {j: k for k, j in enumerate(nonpivots)}
    image_cols = sparse_columns(image)

    def project(dest):
        if dest in position:
            return {position[dest]: Fraction(1)}
        out = {}
        for j, val in image_cols.get(pivot_col[dest], {}).items():
            k = position.get(j)
            if k is not None:
                out[k] = -val
        return out

    block = prim
    unit = block.unit_rows()
    fs_mod = hom_module(SURJ, a, c)
    target = hom_module(INJ, a, b)
    triplets = []
    col = 0
    # Involutions, so applying the block's permutation and reading the
    # quotient's give the same group element.
    for rperm, lperm in zip(coxeter_perms(fs_mod, "right"),
                            coxeter_perms(target, "right")):
        acted = sparse_columns(
            permute_rows(block, rperm).select_rows(unit))
        quotient_cols = [project(lperm[j]) for j in nonpivots]
        for i in range(p):
            block_col = acted.get(i, {})
            for k in range(q):
                entries = {}
                for r, val in block_col.items():
                    key = r * q + k
                    entries[key] = entries.get(key, 0) + val
                for r, val in quotient_cols[k].items():
                    key = i * q + r
                    entries[key] = entries.get(key, 0) - val
                triplets.extend((key, col, val)
                                for key, val in entries.items() if val)
                col += 1
    return RatMatrix.from_triplets(p * q, col, triplets)


def test_coker_action_agrees_with_the_relation_rank_reference():
    for b in range(7):
        for a in range(b + 1):
            for c in range(a):
                R = _hand_assembled_coker_relations(a, c, b)
                assert coker_action_triviality(a, c, b) == (
                    R.rank() == R.rows), (a, c, b)


def _right_multiplicities(cls):
    """Multiplicity of each right irreducible, counting the left dimensions."""
    out = {}
    for (left, right), mult in cls.terms:
        out[right] = out.get(right, 0) + mult * irrep_dimension(left)
    return out


def test_relation_corank_on_the_functionals_is_the_shared_multiplicity_sum():
    # On the whole functional space the contraction need not vanish: its
    # dimension is sum m_lambda * n_lambda over the shared group.
    coranks = {}
    for b in range(6):
        for a in range(4 if b == 5 else b + 1):
            n = _right_multiplicities(
                bidecompose_character(hom_module(INJ, a, b).bicharacter()))
            for c in range(a):
                m = _right_multiplicities(primitives_bidecompose(a, c))
                R = _hand_assembled_coker_relations(a, c, b, quotient=False)
                coranks[a, c, b] = R.rows - R.rank()
                assert coranks[a, c, b] == sum(
                    mult * n.get(lam, 0) for lam, mult in m.items()), (a, c, b)
    assert coranks[4, 3, 4] == 13 and coranks[3, 2, 5] == 10


def test_coker_action_fails_on_a_shared_irreducible(monkeypatch):
    import fsprim.fsfilt as fsfilt
    a, c, b = 4, 3, 5
    block = {right for (_, right), _ in primitives_bidecompose(a, c).terms}
    assert block == {(4,), (3, 1), (2, 2)}
    hook = (b - a,) + (1,) * a
    for left, trivial in (((3, 1), False), ((2, 1, 1), True)):
        cokernel = bischur({(left, hook): 1})
        monkeypatch.setattr(fsfilt, "coker_theta_decompose",
                            lambda target_size, source_size: cokernel)
        assert coker_action_triviality(a, c, b) is trivial, left


def test_coker_action_builds_no_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("matrix built in the cokernel action check")

    cells = [(a, c, b) for b in range(6) for a in range(b + 1)
             for c in range(a)]
    for a, c, b in cells:
        primitives_bidecompose(a, c)
        coker_theta_decompose(a, b)
    monkeypatch.setattr(RatMatrix, "_make", refuse)
    for a, c, b in cells:
        assert coker_action_triviality(a, c, b), (a, c, b)


def test_sign_component_of_size_decreasing_blocks_vanishes():
    for a in range(1, 7):
        for c in range(a):
            assert sgn_vanishing_check(a, c), (a, c)
    # Level -1 and the pairing's kernel at equal sizes are zero spaces.
    for n in range(7):
        assert subquotient_decompose(0, n, n) == \
            full_fs_bidecompose(n, n), n
        assert coker_theta_decompose(n, n).is_zero(), n


def test_sign_multiplicity_matches_the_fixed_point_count():
    # The source-side sign multiplicity read off the bimodule class equals
    # the inner product of the fixed-point character with the sign.
    for a in range(7):
        sign_row = (1,) * a
        sign = ClassFunction(a, tuple(
            (-1) ** (a - len(mu)) for mu in partitions_of(a)))
        for c in range(a + 1):
            module = hom_module(SURJ, a, c)
            chi = ClassFunction(a, tuple(
                sum(1 for i, j in enumerate(
                    module.right_perm(class_representative(mu))) if i == j)
                for mu in partitions_of(a)))
            counted = Fraction(sum(
                class_size(mu) * x * y
                for mu, x, y in zip(partitions_of(a), chi.values, sign.values)),
                factorial(a))
            terms = full_fs_bidecompose(a, c).terms
            read = sum(mult * irrep_dimension(left)
                       for (left, right), mult in terms if right == sign_row)
            assert read == counted, (a, c)
            if c < a:
                assert sgn_vanishing_check(a, c) == (counted == 0), (a, c)


def test_sign_vanishing_rejects_equal_sizes():
    with pytest.raises(ValueError):
        sgn_vanishing_check(2, 2)


# ----------------------------------------------------------- exterior powers


def test_exterior_power_dimensions_follow_binomials():
    for b in range(1, 7):
        for t in range(b):
            assert lambda_bar_character(t, b)((1,) * b) == comb(b - 1, t), \
                (t, b)


def test_exterior_power_decomposes_as_a_hook():
    assert decompose_character(lambda_bar_character(1, 3)) == \
        SchurClass({(2, 1): 1})
    assert decompose_character(lambda_bar_character(2, 4)) == \
        SchurClass({(2, 1, 1): 1})
    for b in range(2, 6):
        for t in range(1, b):
            hook = (b - t,) + (1,) * t
            assert decompose_character(lambda_bar_character(t, b)) == \
                SchurClass({hook: 1})


def test_exterior_power_edge_conventions():
    assert lambda_bar_character(3, 3)((1, 1, 1)) == 0
    assert lambda_bar_character(0, 4).values == (1,) * 5
    assert decompose_character(lambda_bar_character(0, 4)) == \
        SchurClass({(4,): 1})
    assert lambda_bar_character(0, 0) == ClassFunction(0, (0,))
    assert lambda_bar_character(5, 2).values == (0, 0)


def _principal_minor_character(power, set_size):
    """Reference: the trace of the t-th exterior power of sigma's matrix on
    the augmentation kernel, as the sum of its principal t-minors, each a
    sympy determinant.  The kernel's basis is e_i - e_b for i < b, and a
    kernel vector's coordinates are its first b - 1 entries.  Set size 0
    is the zero space."""
    t, b = power, set_size
    if b == 0:
        return ClassFunction(0, (0,))
    values = []
    for mu in partitions_of(b):
        sigma = as_map(class_representative(mu))
        # Column i is sigma(e_i - e_b) = e_sigma(i) - e_sigma(b), cut to b - 1.
        matrix = sympy.Matrix(b - 1, b - 1, lambda j, i: (
            int(sigma(i + 1) == j + 1) - int(sigma(b) == j + 1)))
        minors = (matrix.extract(rows, rows).det()
                  for rows in map(list, combinations(range(b - 1), t)))
        values.append(sum(minors))
    return ClassFunction(b, tuple(int(v) for v in values))


def test_exterior_power_character_matches_the_principal_minors():
    for b in range(8):
        for t in range(b + 2):
            assert lambda_bar_character(t, b) == \
                _principal_minor_character(t, b), (t, b)


def test_an_off_by_one_exterior_power_entry_fails_the_check(monkeypatch):
    import fsprim.verify as verify
    real = verify.lambda_bar_character
    # Every entry of every cell at bound 4, one unit up or down.
    mutations = [(t, b, k, delta) for b in range(5) for t in range(b + 2)
                 for k in range(len(partitions_of(b))) for delta in (1, -1)]
    for t, b, k, delta in mutations:
        def mutant(power, set_size, t=t, b=b, k=k, delta=delta):
            chi = real(power, set_size)
            if (power, set_size) != (t, b):
                return chi
            values = list(chi.values)
            values[k] += delta
            return ClassFunction(set_size, values)

        monkeypatch.setattr(verify, "lambda_bar_character", mutant)
        try:
            reports = verify.run_check("lambda_bar", 4)
        except InternalConsistencyError:
            continue
        assert [r.status for r in reports] == ["fail"], (t, b, k, delta)


# ------------------------------------------------------------------- closure


def test_composition_of_primitives_stays_primitive():
    for b in range(5):
        for x in range(b + 1):
            for y in range(x + 1):
                assert closure_check(b, x, y), (b, x, y)


def _all_pairs_closure(b, x, y):
    """Reference closure: every product of basis columns of the two primitive
    blocks, each certified by ``solve_membership`` against the goal basis."""
    inner, outer = enumerate_hom(SURJ, b, x), enumerate_hom(SURJ, x, y)
    result = hom_module(SURJ, b, y)
    goal = primitives(b, y)
    inner_cols = sparse_columns(primitives(b, x)).values()
    outer_cols = sparse_columns(primitives(x, y)).values()
    for u in outer_cols:
        for v in inner_cols:
            w = [Fraction(0)] * result.dimension
            for g_idx, cu in u.items():
                for f_idx, cv in v.items():
                    g, f = outer[g_idx], inner[f_idx]
                    w[result.index[bytes(compose(g, f).values)]] += cu * cv
            if solve_membership(goal, w) is None:
                return False
    return True


def test_closure_agrees_with_the_all_pairs_reference():
    for b in range(6):
        for x in range(b + 1):
            for y in range(x + 1):
                assert closure_check(b, x, y) == _all_pairs_closure(b, x, y), (
                    b, x, y)


def test_closure_detects_an_outer_factor_outside_the_primitives(monkeypatch):
    import fsprim.fsfilt as fsfilt
    from fsprim.verify import run_check
    real = fsfilt._module_generator_columns
    full_span = tuple({i: Fraction(1)}
                      for i in range(hom_dimension(SURJ, 3, 2)))

    def outer_is_full_span(source_size, target_size, side):
        if (source_size, target_size, side) == (3, 2, "left"):
            return full_span
        return real(source_size, target_size, side)

    monkeypatch.setattr(fsfilt, "_module_generator_columns",
                        outer_is_full_span)
    assert not closure_check(3, 3, 2)
    assert closure_check(3, 2, 2)
    (report,) = run_check("closure", 3)
    assert report.status == "fail"
    assert report.expected == (
        '{"closed":true,"mid_size":3,"source_size":3,"target_size":2}')
    assert report.computed == (
        '{"closed":false,"mid_size":3,"source_size":3,"target_size":2}')


def _column_vectors(matrix):
    """Every column of ``matrix`` as a sparse {row: Fraction} dict."""
    cols = sparse_columns(matrix)
    return [cols.get(j, {}) for j in range(matrix.cols)]


def _reference_generator_columns(source_size, target_size, side, prime=None):
    """Reference: the generator search with a dense back-substitution.

    It acts by all n - 1 adjacent transpositions and runs every queue to
    its end.  Each new pivot is eliminated from every stored row, in exact
    Fractions, or modulo ``prime`` when one is given.  The level comes from
    ``fsfilt.primitives``, so a test that patches it changes the
    reference's level too.
    """
    import fsprim.fsfilt as fsfilt
    if prime is None:
        scalar, reciprocal = (lambda v: v), (lambda v: 1 / Fraction(v))
    else:
        def scalar(v):
            v = Fraction(v)
            return v.numerator * pow(v.denominator, -1, prime) % prime

        def reciprocal(v):
            return pow(v, -1, prime)
    K = fsfilt.primitives(source_size, target_size)
    dim = K.cols
    if dim == 0:
        return ()
    unit = K.unit_rows()
    module = hom_module(SURJ, source_size, target_size)
    perms = coxeter_perms(module, side)
    actions = [[{r: scalar(v) for r, v in col.items() if scalar(v)}
                for col in _column_vectors(
                    permute_rows(K, p).select_rows(unit))]
               for p in perms]

    rows = {}

    def reduce_vector(vec):
        out = dict(vec)
        for c in sorted(set(out) & rows.keys()):
            coeff = out.pop(c, None)
            if not coeff:
                continue
            for j, val in rows[c].items():
                if j == c:
                    continue
                new = scalar(out.get(j, 0) - coeff * val)
                if new:
                    out[j] = new
                else:
                    out.pop(j, None)
        return out

    def insert(rem):
        pivot = min(rem)
        inv = reciprocal(rem[pivot])
        row = {j: scalar(val * inv) for j, val in rem.items()}
        for other in rows.values():
            coeff = other.get(pivot)
            if coeff:
                for j, val in row.items():
                    if j == pivot:
                        other.pop(j, None)
                        continue
                    new = scalar(other.get(j, 0) - coeff * val)
                    if new:
                        other[j] = new
                    else:
                        other.pop(j, None)
        rows[pivot] = row

    def apply_action(cols, vec):
        out = {}
        for j, coeff in vec.items():
            for r, val in cols[j].items():
                new = scalar(out.get(r, 0) + coeff * val)
                if new:
                    out[r] = new
                else:
                    out.pop(r, None)
        return out

    chosen = []
    while len(rows) < dim:
        candidate = next(j for j in range(dim)
                         if j not in rows or len(rows[j]) != 1)
        chosen.append(candidate)
        queue = deque([{candidate: 1}])
        while queue:
            rem = reduce_vector(queue.popleft())
            if not rem:
                continue
            insert(rem)
            for cols in actions:
                queue.append(apply_action(cols, rem))
    columns = _column_vectors(K)
    return tuple(columns[j] for j in chosen)


def test_sparse_back_substitution_keeps_the_dense_search_generators():
    # The search acts by (1 2) and the n-cycle, stops once the span is
    # full and updates only the stored rows that hold a new pivot; the
    # reference acts by every adjacent transposition, runs each queue to
    # its end and updates every row.  Both must choose one column set.
    import fsprim.fsfilt as fsfilt
    cells = 0
    for b in range(7):
        for a in range(b + 1):
            for side in ("left", "right"):
                got = fsfilt._module_generator_columns(b, a, side)
                assert got == _reference_generator_columns(b, a, side), (
                    b, a, side)
                cells += 1
    assert cells == 56


# A large prime.  Modulo it the dense reference chooses the columns the
# exact search chooses, so a modular search would be no shortcut here.
_LARGE_PRIME = 2_147_483_629


def test_mod_p_generators_are_the_fraction_search_generators():
    import fsprim.fsfilt as fsfilt
    for b in range(6):
        for a in range(b + 1):
            for side in ("left", "right"):
                assert fsfilt._module_generator_columns(b, a, side) == \
                    _reference_generator_columns(b, a, side, _LARGE_PRIME), (
                        b, a, side)


def _level_basis_on_other_unit_rows():
    """Level 1 of Surj(4, 2) in the unit-row basis on rows (0, 1, 3, 6, 8)."""
    from sympy import Matrix
    rows = entries(filtration_level(4, 2, 1))
    unit = (0, 1, 3, 6, 8)
    change = Matrix([list(rows[i]) for i in unit]).inv()
    changed = dense([[Fraction(int(x.p), int(x.q))
                      for x in (Matrix([list(r)]) * change)]
                     for r in rows])
    basis = RatMatrix._make(changed.rows, changed.cols,
                            changed._sparse_rows(), unit_rows=unit)
    assert basis.select_rows(unit) == RatMatrix.identity(len(unit))
    return basis, unit


def test_the_search_is_exact_on_a_basis_with_fraction_actions(monkeypatch):
    # The same stable subspace as the canonical level 1 of Surj(4, 2), in a
    # basis with Fraction values.  The search's orbit vectors start at basis
    # columns and move by basis permutations, so they carry these values,
    # and their coordinates, the entries on the unit rows, have denominator
    # 2 for some generator image.  Every canonical level basis through
    # bound 7 is integral, so only this basis feeds the search Fractions.
    import fsprim.fsfilt as fsfilt
    basis, unit = _level_basis_on_other_unit_rows()
    assert any(v.denominator > 1
               for col in sparse_columns(basis).values() for v in col.values())
    assert any(v.denominator == 2
               for perm in hom_module(SURJ, 4, 2).right_generator_perms
               for col in sparse_columns(
                   permute_rows(basis, perm).select_rows(unit)).values()
               for v in col.values())
    monkeypatch.setattr(fsfilt, "primitives", lambda b, a: basis)
    # The wrapped search is uncached, so the patched level is read.
    searched = fsfilt._module_generator_columns.__wrapped__(4, 2, "right")
    assert searched == _reference_generator_columns(4, 2, "right")
    assert len(searched) < basis.cols


def _fraction_restricted_bicharacter(module, basis):
    """Reference: each restricted trace summed entry by entry in Fractions."""
    unit = basis.unit_rows()
    left_reps, right_reps = module.class_perms

    def trace(pl, pr):
        # The operator sends basis vector i to pl[pr[i]].
        source = {pl[pr[i]]: i for i in range(module.dimension)}
        return sum((basis.entry(source[j], k) for k, j in enumerate(unit)),
                   Fraction(0))

    return BiClassFunction(module.left_degree, module.right_degree, tuple(
        tuple(trace(pl, pr) for pr in right_reps) for pl in left_reps))


def test_restricted_traces_match_the_fraction_reference():
    basis, _ = _level_basis_on_other_unit_rows()
    assert any(v.denominator > 1
               for col in sparse_columns(basis).values() for v in col.values())
    module = hom_module(SURJ, 4, 2)
    assert _restricted_bicharacter(module, basis) == \
        _fraction_restricted_bicharacter(module, basis)
    for b in range(6):
        for a in range(b + 1):
            module = hom_module(SURJ, b, a)
            for t in range(-1, b - a + 1):
                assert level_bicharacter(b, a, t) == \
                    _fraction_restricted_bicharacter(
                        module, filtration_level(b, a, t)), \
                    (b, a, t)
            functionals = hom_module(INJ, a, b)
            image = image_basis(theta_matrix(a, b))
            assert _restricted_bicharacter(functionals, image) == \
                _fraction_restricted_bicharacter(functionals, image), (a, b)


def test_restricted_traces_refuse_a_basis_without_unit_rows():
    # A product has no unit rows even when it is an identity; the refusal
    # is a ValueError, under -O too (tests/test_verify.py).
    module = hom_module(SURJ, 3, 2)
    identity = RatMatrix.identity(module.dimension)
    product = identity @ identity
    assert product == identity and product.unit_rows() is None
    with pytest.raises(ValueError, match="unit rows"):
        _restricted_bicharacter(module, product)


def test_level_test_agrees_with_membership_in_the_level_basis():
    for b in range(5):
        for a in range(b + 1):
            ambient = hom_dimension(SURJ, b, a)
            units = sparse_columns(RatMatrix.identity(ambient))
            for t in range(-1, b + 1):
                basis = filtration_level(b, a, t)
                assert _in_level(b, a, t, basis), (b, a, t)
                outside = 0
                candidates = (list(sparse_columns(basis).values())
                              + list(units.values()))
                for vec in candidates:
                    column = RatMatrix.from_triplets(
                        ambient, 1, ((i, 0, v) for i, v in vec.items()))
                    member = solve_membership(basis,
                                              entries(transpose(column))[0])
                    assert _in_level(b, a, t, column) == (member is not None), (
                        b, a, t, vec)
                    outside += member is None
                # unit vectors span the ambient space, so some lie outside
                # exactly when the level is proper
                assert (outside > 0) == (basis.cols < ambient), (b, a, t)


# ------------------------------------------------- assembly identity checks


def test_level_assembly_reports():
    for level in (1, 2):
        for b in range(level, 5):
            for a in range(b - level + 1):
                assert ses_identity_check(level, b, a).ok, (level, b, a)
    # boundary cells carry the sign-hook correction and still balance
    boundary = ses_identity_check(2, 4, 2)
    assert boundary.ok
    assert boundary.lhs != subquotient_decompose(2, 4, 2)


def test_level_assembly_refuses_cells_outside_the_layer():
    for level, b, a in ((6, 5, 0), (2, 3, 2), (0, 3, 1), (1, 3, -1)):
        with pytest.raises(ValueError):
            ses_identity_check(level, b, a)


def test_primitive_class_identity_per_cell():
    for b in range(5):
        for a in range(b + 1):
            check = primfs_identity_check(b, a)
            assert check.ok, (b, a)
    check = primfs_identity_check(2, 1)
    assert check.lhs == bischur({((1,), (1, 1)): -1})


def test_full_class_identity_per_cell():
    for b in range(5):
        for a in range(b + 1):
            assert kring_identity_check(b, a).ok, (b, a)


def test_the_identity_sums_ask_for_no_block_from_a_smaller_source(
        monkeypatch):
    # Surj(s, a) is empty for s < a, so such a block adds nothing.
    import fsprim.fsfilt as fsfilt

    def refusing(fn):
        def guarded(source_size, target_size):
            if source_size < target_size:
                raise AssertionError(f"block ({source_size}, {target_size})")
            return fn(source_size, target_size)
        return guarded

    for name in ("full_fs_bidecompose", "primitives_bidecompose"):
        monkeypatch.setattr(fsfilt, name, refusing(getattr(fsfilt, name)))
    for b in range(7):
        for a in range(b + 1):
            assert primfs_identity_check(b, a).ok, (b, a)
            assert kring_identity_check(b, a).ok, (b, a)
            for level in range(1, 7):
                assert subquotient_identity_check(level, b, a).ok, \
                    (level, b, a)


def test_subquotient_class_identity_per_cell():
    for b in range(5):
        for a in range(b + 1):
            for level in range(1, b - a + 2):
                assert subquotient_identity_check(level, b, a).ok, \
                    (level, b, a)
