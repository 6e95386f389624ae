"""Tests for symmetric-group characters, decomposition, and class products.

Independent oracles used here:
  * an explicit 2x2 matrix model of the standard representation of degree 3,
  * fixed-point counts for permutation characters,
  * the coset formula for induced characters, evaluated by enumerating the
    full ambient symmetric group (feasible through degree 6).
"""
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest

from fsprim.finsetcat import FinMap, compose
from fsprim.partitions import (
    centralizer_order,
    class_size,
    irrep_dimension,
    partition_index,
    partitions_of,
    weight,
)
from fsprim.ratlinalg import RatMatrix
from fsprim.repdecomp import (
    BiClassFunction,
    BiSchurClass,
    ClassFunction,
    InternalConsistencyError,
    SchurClass,
    adjacent_transposition,
    bidecompose_character,
    biconvolution_right,
    boxtimes,
    character_table,
    class_representative,
    convolution_class,
    decompose_character,
    derham_check,
    invert_identity_check,
    mn_character,
    pieri_e,
    pieri_h,
    sign_class,
    symmetric_generators,
    trivial_class,
)
from fsprim.repdecomp import _induced_product, _irreducible_product

from test_ratlinalg import dense


def all_permutations(n):
    return [FinMap(n, n, p) for p in permutations(range(1, n + 1))]


def as_map(perm):
    """Reference: a permutation's value string as a validated map, to
    compose."""
    return FinMap(len(perm), len(perm), tuple(perm))


def inner_product(f, g):
    """Reference: (1/n!) sum over classes of class size * f * g."""
    parts = partitions_of(f.degree)
    return Fraction(sum(class_size(mu) * x * y
                        for mu, x, y in zip(parts, f.values, g.values)),
                    factorial(f.degree))


def cycle_type_of(perm):
    """Reference: cycle lengths of a permutation, longest first."""
    seen, lengths = set(), []
    for start in range(1, perm.source_size + 1):
        length, i = 0, start
        while i not in seen:
            seen.add(i)
            i = perm(i)
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def inverse(perm):
    """Reference: the permutation undoing ``perm``."""
    return FinMap(perm.source_size, perm.source_size,
                  tuple(sorted(range(1, perm.source_size + 1), key=perm)))


def one_dimensional_character(n, value):
    """Every transposition acting as ``value`` (1 or -1): a permutation of
    cycle type mu is a product of n - len(mu) transpositions."""
    return ClassFunction(n, tuple(value ** (n - len(mu))
                                  for mu in partitions_of(n)))


# ------------------------------------------------------------- permutations


def test_cycle_type_examples():
    assert cycle_type_of(FinMap(4, 4, (1, 2, 3, 4))) == (1, 1, 1, 1)
    assert cycle_type_of(FinMap(3, 3, (2, 3, 1))) == (3,)
    assert cycle_type_of(FinMap(5, 5, (2, 1, 4, 3, 5))) == (2, 2, 1)
    assert cycle_type_of(FinMap(0, 0, ())) == ()


def test_class_representative_types():
    for n in range(7):
        for mu in partitions_of(n):
            assert type(class_representative(mu)) is bytes
            rep = as_map(class_representative(mu))
            assert rep.is_bijective()
            assert cycle_type_of(rep) == mu


def test_class_representative_deterministic_form():
    assert class_representative((3, 2)) == bytes((2, 3, 1, 5, 4))
    assert class_representative((1, 1)) == bytes((1, 2))


def _generated_group(n, generators):
    """Reference: every product of the generators, by breadth-first search."""
    identity = tuple(range(1, n + 1))
    seen = {identity}
    frontier = [identity]
    while frontier:
        step = []
        for g in frontier:
            for s in generators:
                h = tuple(s[v - 1] for v in g)
                if h not in seen:
                    seen.add(h)
                    step.append(h)
        frontier = step
    return seen


def test_symmetric_generators_generate_the_whole_group():
    assert symmetric_generators(0) == symmetric_generators(1) == ()
    assert symmetric_generators(2) == (bytes((2, 1)),)
    for n in range(3, 7):
        swap, cycle = symmetric_generators(n)
        assert swap == bytes((2, 1, *range(3, n + 1)))
        assert cycle == class_representative((n,))
    for n in range(7):
        group = _generated_group(n, symmetric_generators(n))
        assert len(group) == factorial(n), n
        assert group == set(permutations(range(1, n + 1)))


def test_permutation_degrees_are_refused_like_every_degree():
    # Both once read True as degree 1, and a negative degree as too small.
    for bad in (lambda: symmetric_generators(True),
                lambda: adjacent_transposition(True, 1),
                lambda: symmetric_generators(2.0)):
        with pytest.raises(TypeError, match="degree must be an int"):
            bad()
    for bad in (lambda: symmetric_generators(-1),
                lambda: adjacent_transposition(-1, 1)):
        with pytest.raises(ValueError, match="degree must be nonnegative"):
            bad()
    assert adjacent_transposition(2, 1) == bytes((2, 1))


def test_transposition_index_must_be_an_int():
    # True once read as index 1, and 1.0 failed inside bytearray indexing.
    for t in (True, False, 1.0, "1", None):
        with pytest.raises(TypeError, match="index must be an int"):
            adjacent_transposition(3, t)
    for t in (0, 3, -1):
        with pytest.raises(ValueError, match="1 <= t < n"):
            adjacent_transposition(3, t)
    assert adjacent_transposition(3, 2) == bytes((1, 3, 2))


# --------------------------------------------------------------- characters


def test_trivial_character_is_one():
    for n in range(7):
        for mu in partitions_of(n):
            assert mn_character((n,) if n else (), mu) == 1


def test_sign_character_is_parity():
    for n in range(1, 7):
        for mu in partitions_of(n):
            assert mn_character((1,) * n, mu) == (-1) ** (n - len(mu))


def test_standard_character_from_matrix_model():
    # explicit 2-dimensional model of the standard representation of degree 3
    s1 = dense([[-1, 1], [0, 1]])
    s2 = dense([[1, 0], [1, -1]])
    assert s1 @ s1 == s2 @ s2 == RatMatrix.identity(2)
    assert s1 @ s2 @ s1 == s2 @ s1 @ s2
    # one matrix per class: the identity, a transposition, a 3-cycle
    for mu, M in (((1, 1, 1), RatMatrix.identity(2)), ((2, 1), s1),
                  ((3,), s1 @ s2)):
        assert M.entry(0, 0) + M.entry(1, 1) == mn_character((2, 1), mu)
    assert mn_character((2, 1), (3,)) == -1


def test_character_table_degree_three():
    # rows (3),(2,1),(1,1,1); columns over classes (3),(2,1),(1,1,1)
    assert character_table(3) == ((1, 1, 1), (-1, 0, 2), (1, -1, 1))


def test_character_table_degree_four_spot_values():
    idx = {mu: i for i, mu in enumerate(partitions_of(4))}
    table = character_table(4)
    row = table[partition_index((2, 2))]
    assert row[idx[(1, 1, 1, 1)]] == 2
    assert row[idx[(2, 1, 1)]] == 0
    assert row[idx[(2, 2)]] == 2
    assert row[idx[(3, 1)]] == -1
    assert row[idx[(4,)]] == 0
    row = table[partition_index((3, 1))]
    assert row[idx[(1, 1, 1, 1)]] == 3
    assert row[idx[(2, 1, 1)]] == 1
    assert row[idx[(2, 2)]] == -1
    assert row[idx[(3, 1)]] == 0
    assert row[idx[(4,)]] == -1


def test_cached_characters_validate_in_either_call_order():
    for _ in range(2):
        with pytest.raises(ValueError):
            mn_character((2.0, 1.0), (1, 1, 1))
        assert mn_character((2, 1), (1, 1, 1)) == 2
        # A degree that is not an int is refused alike by both, as a type
        # error, before any work.
        for degree_class in (trivial_class, sign_class):
            with pytest.raises(TypeError, match="degree must be an int"):
                degree_class(2.0)
        assert trivial_class(2) == SchurClass({(2,): 1})
        assert sign_class(2) == SchurClass({(1, 1): 1})


def test_bool_parts_and_degrees_are_refused():
    # isinstance(True, int) holds, so a bool once passed as the part 1.
    with pytest.raises(ValueError):
        partition_index((True, True))
    with pytest.raises(ValueError):
        SchurClass({(True,): 1})
    for degree_class in (trivial_class, sign_class):
        with pytest.raises(TypeError):
            degree_class(True)
    # A float degree once failed inside range, a bool one built a function.
    for degree in (True, 2.0):
        row = (1,) * len(partitions_of(int(degree)))
        with pytest.raises(TypeError, match="degree must be an int"):
            ClassFunction(degree, row)
        with pytest.raises(TypeError, match="degree must be an int"):
            BiClassFunction(degree, 1, tuple((v,) for v in row))
        with pytest.raises(TypeError, match="degree must be an int"):
            BiClassFunction(1, degree, (row,))
    with pytest.raises(ValueError):
        BiClassFunction(1, -1, ((),))
    assert partition_index((1, 1)) == 1
    assert trivial_class(1) == SchurClass({(1,): 1})


def test_character_weight_mismatch_rejected():
    with pytest.raises(ValueError):
        mn_character((2, 1), (2, 2))


def test_character_dimension_at_identity():
    for n in range(8):
        for lam in partitions_of(n):
            assert mn_character(lam, (1,) * n) == irrep_dimension(lam)


def test_row_orthogonality_through_degree_seven():
    for n in range(8):
        parts = partitions_of(n)
        table = character_table(n)
        for i, lam in enumerate(parts):
            for j in range(i, len(parts)):
                chi_i = ClassFunction(n, tuple(map(Fraction, table[i])))
                chi_j = ClassFunction(n, tuple(map(Fraction, table[j])))
                expected = 1 if i == j else 0
                assert inner_product(chi_i, chi_j) == expected


def test_column_orthogonality():
    for n in range(7):
        parts = partitions_of(n)
        table = character_table(n)
        for i, mu in enumerate(parts):
            for j, nu in enumerate(parts):
                acc = sum(table[k][i] * table[k][j] for k in range(len(parts)))
                assert acc == (centralizer_order(mu) if i == j else 0)


# ------------------------------------------------------------- decomposition


def test_decompose_regular():
    # The regular character: n! at the identity, 0 elsewhere.
    def regular(n):
        return ClassFunction(n, tuple(factorial(n) if mu == (1,) * n else 0
                                      for mu in partitions_of(n)))
    assert decompose_character(regular(3)) == SchurClass(
        {(3,): 1, (2, 1): 2, (1, 1, 1): 1})
    got = decompose_character(regular(4))
    for lam in partitions_of(4):
        assert got.coefficient(lam) == irrep_dimension(lam)


def test_decompose_permutation_action():
    # The permutation character counts fixed points.
    def fixed_points(n):
        return ClassFunction(n, tuple(mu.count(1) for mu in partitions_of(n)))
    assert decompose_character(fixed_points(3)) == SchurClass(
        {(3,): 1, (2, 1): 1})
    assert decompose_character(fixed_points(5)) == SchurClass(
        {(5,): 1, (4, 1): 1})


def test_decompose_trivial_and_sign():
    for n in range(6):
        assert decompose_character(one_dimensional_character(n, 1)) == \
            SchurClass({(n,) if n else (): 1})
    assert decompose_character(one_dimensional_character(4, -1)) == SchurClass(
        {(1, 1, 1, 1): 1})


def test_class_function_refuses_a_cycle_type_of_another_degree():
    from fsprim.fsfilt import lambda_bar_character
    chi = lambda_bar_character(1, 3)
    assert chi((3,)) == -1  # fixed points of a 3-cycle, less one
    # (2,) has the index of (3,) among the partitions of its own weight,
    # and (1, 1, 1, 1) an index past the end of a degree-3 table.
    for mu in ((2,), (1, 1, 1, 1)):
        with pytest.raises(ValueError):
            chi(mu)


def test_decompose_rejects_corrupted_space():
    # the character a one-dimensional "space" with s_1 acting as 2 would have
    fake = ClassFunction(2, (2, 1))
    with pytest.raises(InternalConsistencyError):
        decompose_character(fake)


def test_decompose_character_rejects_negative():
    # the negative of the sign character is not a genuine character
    n = 3
    vals = tuple(-Fraction(v) for v in character_table(n)[partition_index((1, 1, 1))])
    with pytest.raises(InternalConsistencyError):
        decompose_character(ClassFunction(n, vals))


# ------------------------------------------------------------------ bimodule


def _loop_decompose_character(chi):
    """Reference: one inner product with each irreducible character."""
    table = character_table(chi.degree)
    mults = {}
    for lam, row in zip(partitions_of(chi.degree), table):
        mult = inner_product(chi, ClassFunction(chi.degree, row))
        if mult.denominator != 1 or mult < 0:
            raise InternalConsistencyError(f"multiplicity of {lam} is {mult}")
        mults[lam] = int(mult)
    return SchurClass(mults)


def test_decompose_character_matches_the_inner_product_loop():
    checked = 0
    for n in range(8):
        parts = partitions_of(n)
        regular = tuple(factorial(n) if mu == (1,) * n else 0 for mu in parts)
        for values in character_table(n) + (regular,):
            chi = ClassFunction(n, values)
            assert decompose_character(chi) == _loop_decompose_character(chi)
            # The same values given as Fractions decompose alike.
            assert decompose_character(ClassFunction(
                n, tuple(map(Fraction, values)))) == decompose_character(chi)
            checked += 1
        negative = ClassFunction(n, tuple(-v for v in character_table(n)[0]))
        for decomposer in (decompose_character, _loop_decompose_character):
            with pytest.raises(InternalConsistencyError):
                decomposer(negative)
    assert checked == 53


def _regular_bicharacter(n):
    """Fixed points of x -> g x h^-1: the two-sided regular character."""
    elements = all_permutations(n)
    reps = [as_map(class_representative(mu)) for mu in partitions_of(n)]
    return BiClassFunction(n, n, tuple(
        tuple(sum(1 for x in elements
                  if compose(compose(g, x), inverse(h)) == x)
              for h in reps)
        for g in reps))


def test_bidecompose_group_algebra():
    assert bidecompose_character(_regular_bicharacter(2)) == BiSchurClass(
        {((2,), (2,)): 1, ((1, 1), (1, 1)): 1})
    assert bidecompose_character(_regular_bicharacter(3)) == BiSchurClass(
        {(lam, lam): 1 for lam in partitions_of(3)})
    assert bidecompose_character(_regular_bicharacter(4)) == BiSchurClass(
        {(lam, lam): 1 for lam in partitions_of(4)})


def _fraction_bidecompose_character(chi):
    """Reference: the double inner product summed in Fractions, pair by pair."""
    a, b = chi.left_degree, chi.right_degree
    parts_a, parts_b = partitions_of(a), partitions_of(b)
    table_a, table_b = character_table(a), character_table(b)
    sizes_a = [class_size(mu) for mu in parts_a]
    sizes_b = [class_size(mu) for mu in parts_b]
    order = factorial(a) * factorial(b)
    mults = {}
    for li, lam in enumerate(parts_a):
        for ri, nu in enumerate(parts_b):
            acc = Fraction(0)
            for i in range(len(parts_a)):
                ci = sizes_a[i] * table_a[li][i]
                if not ci:
                    continue
                row = chi.values[i]
                acc += ci * sum(
                    (sizes_b[j] * table_b[ri][j] * row[j]
                     for j in range(len(parts_b))), Fraction(0))
            mult = Fraction(acc, order)
            if mult.denominator != 1 or mult < 0:
                raise InternalConsistencyError(
                    f"multiplicity of {(lam, nu)} is {mult}, "
                    "not a nonnegative integer")
            if mult:
                mults[(lam, nu)] = int(mult)
    dim_at_identity = chi.values[partition_index((1,) * a)][
        partition_index((1,) * b)]
    total = sum(c * irrep_dimension(l) * irrep_dimension(r)
                for (l, r), c in mults.items())
    if total != dim_at_identity:
        raise InternalConsistencyError("dimension bookkeeping failed")
    return BiSchurClass(mults)


def _outer_character(a, li, b, ri):
    left, right = character_table(a)[li], character_table(b)[ri]
    return BiClassFunction(a, b, tuple(tuple(x * y for y in right)
                                       for x in left))


def test_integer_bidecompose_matches_the_fraction_reference():
    checked = 0
    for a in range(7):
        for b in range(7):
            for li, lam in enumerate(partitions_of(a)):
                for ri, nu in enumerate(partitions_of(b)):
                    chi = _outer_character(a, li, b, ri)
                    got = bidecompose_character(chi)
                    assert got == _fraction_bidecompose_character(chi)
                    assert got == BiSchurClass({(lam, nu): 1})
                    checked += 1
    assert checked == 30 * 30
    for n in range(5):
        chi = _regular_bicharacter(n)
        assert bidecompose_character(chi) == \
            _fraction_bidecompose_character(chi)


def test_integer_bidecompose_matches_the_reference_on_levels():
    from fsprim.fsfilt import level_bicharacter
    for b in range(6):
        for a in range(b + 1):
            for t in range(-1, b - a + 1):
                chi = level_bicharacter(b, a, t)
                assert bidecompose_character(chi) == \
                    _fraction_bidecompose_character(chi), (b, a, t)
                # Restricted traces are ints, and the same values given
                # as Fractions decompose alike.
                assert all(type(v) is int for row in chi.values for v in row)
                halves = BiClassFunction(
                    chi.left_degree, chi.right_degree,
                    tuple(tuple(Fraction(2 * v, 2) for v in row)
                          for row in chi.values))
                assert bidecompose_character(halves) == \
                    bidecompose_character(chi)


def test_non_characters_fail_alike_on_both_paths():
    chi = _outer_character(3, 1, 2, 0)
    identity = (partition_index((1, 1, 1)), partition_index((1, 1)))
    fractional = [list(row) for row in chi.values]
    fractional[0][1] += Fraction(1, 3)
    wrong_identity = [list(row) for row in chi.values]
    wrong_identity[identity[0]][identity[1]] += 1
    bad = (BiClassFunction(3, 2, fractional),
           BiClassFunction(3, 2, tuple(tuple(-v for v in row)
                                       for row in chi.values)),
           BiClassFunction(3, 2, wrong_identity))
    for chi in bad:
        messages = []
        for decomposer in (bidecompose_character,
                           _fraction_bidecompose_character):
            with pytest.raises(InternalConsistencyError) as err:
                decomposer(chi)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert "not a nonnegative integer" in messages[0]


def test_bidecompose_single_surjection_space():
    # one basis vector, trivial actions on both sides (degrees 1 and 2)
    chi = BiClassFunction(1, 2, ((1, 1),))
    assert bidecompose_character(chi) == BiSchurClass({((1,), (2,)): 1})


def test_bidecompose_zero_space():
    chi = BiClassFunction(2, 2, ((0, 0), (0, 0)))
    assert bidecompose_character(chi) == BiSchurClass()
    assert bidecompose_character(chi).is_zero()


# -------------------------------------------------------------- formal sums


def test_schur_class_normalization():
    x = SchurClass([((2, 1), 1), ((3,), 2), ((2, 1), -1)])
    assert x.terms == (((3,), 2),)
    assert SchurClass({(2,): 0}).is_zero()
    assert x.coefficient((3,)) == 2 and x.coefficient((1, 1)) == 0


def test_schur_class_canonical_term_order():
    x = SchurClass({(1, 1, 1): 1, (3,): 1, (2, 1): 1, (2,): 5, (): -2})
    assert [lam for lam, _ in x.terms] == [(), (2,), (3,), (2, 1), (1, 1, 1)]


def test_schur_class_arithmetic():
    x = SchurClass({(2,): 1, (1, 1): 2})
    y = SchurClass({(1, 1): -2, (2,): 1})
    assert (x + y) == SchurClass({(2,): 2})
    assert (x - x).is_zero()
    assert (-x).coefficient((1, 1)) == -2
    assert x.scale(3) == SchurClass({(2,): 3, (1, 1): 6})
    assert x.total_dimension() == 1 + 2


def test_schur_class_json_round_trip():
    x = SchurClass({(2, 1): 2, (3,): 1})
    assert x.to_json() == [{"partition": [3], "coefficient": 1},
                           {"partition": [2, 1], "coefficient": 2}]
    assert SchurClass((tuple(d["partition"]), d["coefficient"])
                      for d in x.to_json()) == x


def test_bischur_class_json_round_trip():
    x = BiSchurClass({((1, 1), (2,)): 1, ((2,), (1, 1)): -3})
    assert x.to_json() == [
        {"left": [2], "right": [1, 1], "coefficient": -3},
        {"left": [1, 1], "right": [2], "coefficient": 1}]
    assert BiSchurClass(((tuple(d["left"]), tuple(d["right"])),
                         d["coefficient"]) for d in x.to_json()) == x


def test_bischur_class_order_and_arithmetic():
    x = BiSchurClass({((1,), (2,)): 1, ((1,), (1, 1)): 1})
    y = BiSchurClass({((1,), (1, 1)): -1})
    assert (x + y) == BiSchurClass({((1,), (2,)): 1})
    assert x.total_dimension() == 2
    assert [pair for pair, _ in x.terms] == [((1,), (2,)), ((1,), (1, 1))]
    # Classes over one group and over pairs never compare equal.
    assert SchurClass() != BiSchurClass() and BiSchurClass() != SchurClass()


def test_boxtimes_bilinear():
    x = SchurClass({(2,): 1, (1, 1): -1})
    y = SchurClass({(1,): 2})
    assert boxtimes(x, y) == BiSchurClass(
        {((2,), (1,)): 2, ((1, 1), (1,)): -2})
    assert boxtimes(SchurClass(), y).is_zero()


# -------------------------------------------------------------------- pieri


def test_pieri_examples():
    for t in range(5):
        assert pieri_e((), t) == SchurClass({(1,) * t: 1})
        assert pieri_h((), t) == SchurClass({(t,) if t else (): 1})
    assert pieri_h((1,), 1) == SchurClass({(2,): 1, (1, 1): 1})
    assert pieri_e((2,), 1) == SchurClass({(3,): 1, (2, 1): 1})
    assert pieri_h((2, 1), 2) == SchurClass(
        {(4, 1): 1, (3, 2): 1, (3, 1, 1): 1, (2, 2, 1): 1})
    assert pieri_e((2, 2), 2) == SchurClass(
        {(3, 3): 1, (3, 2, 1): 1, (2, 2, 1, 1): 1})


def test_pieri_single_box_rules_agree():
    for n in range(5):
        for lam in partitions_of(n):
            assert pieri_h(lam, 1) == pieri_e(lam, 1)


def test_pieri_zero_boxes_is_identity():
    for n in range(5):
        for lam in partitions_of(n):
            assert pieri_h(lam, 0) == SchurClass({lam: 1})
            assert pieri_e(lam, 0) == SchurClass({lam: 1})


def test_pieri_fast_paths_match_induced_oracle():
    for w in range(6):
        for lam in partitions_of(w):
            for n in range(1, 4):
                assert pieri_h(lam, n) == _induced_product(lam, (n,))
                assert pieri_e(lam, n) == _induced_product(lam, (1,) * n)


# -------------------------------------------------------------- convolution


def _coset_induced_character(lam, mu, nu):
    """Coset formula: average chi over conjugates landing in the subgroup."""
    p, q = weight(lam), weight(mu)
    n = p + q
    g = as_map(class_representative(nu))
    total = 0
    for x in all_permutations(n):
        h = compose(compose(inverse(x), g), x)
        if all(1 <= h(i) <= p for i in range(1, p + 1)):
            first = _restriction_type(h, 1, p)
            second = _restriction_type(h, p + 1, n)
            total += mn_character(lam, first) * mn_character(mu, second)
    return Fraction(total, factorial_int(p) * factorial_int(q))


def factorial_int(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def _restriction_type(h, lo, hi):
    seen = set()
    lengths = []
    for start in range(lo, hi + 1):
        if start in seen:
            continue
        i, length = start, 0
        while i not in seen:
            seen.add(i)
            i = h(i)
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def test_induced_product_matches_coset_oracle():
    pairs = [((1,), (1,)), ((2,), (1, 1)), ((1, 1), (1, 1)), ((2, 1), (1,)),
             ((2,), (2,)), ((2, 1), (2,)), ((2, 1), (1, 1)), ((3,), (2, 1)),
             ((2, 2), (1, 1)), ((2, 1), (2, 1))]
    for lam, mu in pairs:
        got = _induced_product(lam, mu)
        n = weight(lam) + weight(mu)
        for nu in partitions_of(n):
            expected = _coset_induced_character(lam, mu, nu)
            value = sum(c * mn_character(theta, nu) for theta, c in got.terms)
            assert value == expected, (lam, mu, nu)


def test_convolution_examples():
    one = SchurClass({(): 1})
    x = SchurClass({(2, 1): 2, (3,): -1})
    assert convolution_class(x, one) == x
    assert convolution_class(one, x) == x
    assert convolution_class(
        SchurClass({(1,): 1}), SchurClass({(1,): 1})) == SchurClass(
        {(2,): 1, (1, 1): 1})
    assert convolution_class(
        SchurClass({(2,): 1}), SchurClass({(1, 1): 1})) == SchurClass(
        {(3, 1): 1, (2, 1, 1): 1})


def test_convolution_commutative_weight_six():
    for total in range(7):
        for p in range(total + 1):
            for lam in partitions_of(p):
                for mu in partitions_of(total - p):
                    x = SchurClass({lam: 1})
                    y = SchurClass({mu: 1})
                    assert convolution_class(x, y) == convolution_class(y, x)


def test_convolution_associative_weight_six():
    for total in range(7):
        for p in range(total + 1):
            for q in range(total - p + 1):
                r = total - p - q
                for lam in partitions_of(p):
                    for mu in partitions_of(q):
                        for nu in partitions_of(r):
                            x, y, z = (SchurClass({t: 1}) for t in (lam, mu, nu))
                            left = convolution_class(convolution_class(x, y), z)
                            right = convolution_class(x, convolution_class(y, z))
                            assert left == right, (lam, mu, nu)


def test_convolution_bilinear():
    x = SchurClass({(1,): 1, (2,): -2})
    y = SchurClass({(1,): 3})
    z = SchurClass({(1, 1): 1})
    lhs = convolution_class(x + y, z)
    rhs = convolution_class(x, z) + convolution_class(y, z)
    assert lhs == rhs


def test_biconvolution_right_examples():
    x = BiSchurClass({((1,), (1,)): 1})
    assert biconvolution_right(x, SchurClass({(): 1})) == x
    assert biconvolution_right(x, SchurClass({(1,): 1})) == BiSchurClass(
        {((1,), (2,)): 1, ((1,), (1, 1)): 1})
    assert biconvolution_right(BiSchurClass(), SchurClass({(2,): 5})).is_zero()
    # the left coordinate never changes
    y = biconvolution_right(
        BiSchurClass({((2, 1), (1,)): 1}), SchurClass({(2,): 1}))
    assert all(left == (2, 1) for (left, _), _ in y.terms)
    assert y == BiSchurClass({((2, 1), (3,)): 1, ((2, 1), (2, 1)): 1})


def test_class_products_refuse_the_wrong_kinds_of_class():
    x = SchurClass({(1,): 1})
    xx = BiSchurClass({((1,), (1,)): 1})
    for left, right in ((xx, x), (x, xx), (xx, xx), ({(1,): 1}, x)):
        with pytest.raises(ValueError, match="SchurClass"):
            convolution_class(left, right)
    for left, right in ((x, x), (xx, xx), (x, xx), (xx, {(1,): 1})):
        with pytest.raises(ValueError, match="BiSchurClass by a SchurClass"):
            biconvolution_right(left, right)


# ------------------------------------------------------------------ de rham


def test_derham_small_cases_by_hand():
    # degree 1: (1) - (1); degree 2: (2) - [(2)+(1,1)] + (1,1)
    assert derham_check(1)
    assert derham_check(2)


def test_derham_through_ten():
    for n in range(1, 11):
        assert derham_check(n)


def test_inversion_identity_on_single_classes():
    for w in range(6):
        for lam in partitions_of(w):
            assert invert_identity_check(lam), lam


def test_inversion_identity_expands_then_cancels():
    # window 0 keeps only the bare class; window 1 adds one degree that
    # cancels between the trivial and sign contributions
    assert invert_identity_check((2, 1), window=0)
    assert invert_identity_check((2, 1), window=1)
    assert invert_identity_check((), window=4)


def test_counts_of_the_class_checks_are_ints_and_nonnegative():
    # A bad window is refused, not reported as a failed identity, and a bool
    # is not taken for 1.
    for bad, error in ((-1, ValueError), (True, TypeError),
                       (1.0, TypeError)):
        with pytest.raises(error):
            invert_identity_check((2, 1), bad)
        with pytest.raises(error):
            pieri_e((1,), bad)
        with pytest.raises(error):
            pieri_h((1,), bad)
    with pytest.raises(TypeError):
        invert_identity_check((1,), True)
    for bad in (True, 2.0, None):
        with pytest.raises(TypeError):
            derham_check(bad)
    with pytest.raises(ValueError, match="nonnegative"):
        derham_check(-1)
    with pytest.raises(ValueError, match="at least 1"):
        derham_check(0)


def test_class_function_validation():
    with pytest.raises(ValueError):
        ClassFunction(3, (Fraction(1),))
    with pytest.raises(ValueError):
        BiClassFunction(2, 2, ((Fraction(1),),))
    # a short row would be truncated by a positional contraction
    with pytest.raises(ValueError):
        BiClassFunction(2, 2, ((1, 1), (1,)))
    # values are exact: ints where integral, Fractions otherwise, no floats
    for make in (lambda: BiClassFunction(1, 1, ((0.25,),)),
                 lambda: ClassFunction(2, (1.0, 0.5)),
                 lambda: ClassFunction(2, (1.0, 1))):
        with pytest.raises(TypeError):
            make()
    chi = ClassFunction(3, (Fraction(4, 2), 0, Fraction(1, 3)))
    assert chi.values == (2, 0, Fraction(1, 3))
    assert [type(v) for v in chi.values] == [int, int, Fraction]
    bi = BiClassFunction(1, 2, ((Fraction(6, 3), 1),))
    assert [type(v) for v in bi.values[0]] == [int, int]
    # a bool is not a value, though it is an int
    for make in (lambda: ClassFunction(2, (True, 0)),
                 lambda: BiClassFunction(1, 2, ((Fraction(6, 3), True),))):
        with pytest.raises(TypeError):
            make()


# ------------------------------------------- fast paths against slow paths


def _slow_convolution(x, y):
    """Reference: the uncached products, summed by the validating
    constructor."""
    acc = {}
    for lam, cx in x.terms:
        for mu, cy in y.terms:
            for nu, c in _irreducible_product.__wrapped__(lam, mu).terms:
                acc[nu] = acc.get(nu, 0) + cx * cy * c
    return SchurClass(acc)


def _slow_biconvolution_right(x, y):
    """Reference: biconvolution_right through uncached products and the
    validating constructor."""
    acc = {}
    for (left, right), cx in x.terms:
        for nu, cy in y.terms:
            for out, c in _irreducible_product.__wrapped__(right, nu).terms:
                acc[(left, out)] = acc.get((left, out), 0) + cx * cy * c
    return BiSchurClass(acc)


def _identity_sides(bound):
    """lhs and rhs of every class identity the formula checks evaluate."""
    from fsprim.fsfilt import (kring_identity_check, primfs_identity_check,
                               ses_identity_check, subquotient_identity_check)
    for b in range(bound + 1):
        for a in range(b + 1):
            checks = [primfs_identity_check(b, a), kring_identity_check(b, a)]
            for level in range(1, bound + 1):
                checks.append(subquotient_identity_check(level, b, a))
                if b >= a + level:
                    checks.append(ses_identity_check(level, b, a))
            for chk in checks:
                yield chk.lhs
                yield chk.rhs


def test_trusted_arithmetic_matches_the_validating_constructor():
    sides = list(dict.fromkeys(_identity_sides(6)))
    assert len(sides) == 85
    row, column = trivial_class(1), sign_class(1)
    hook = SchurClass({(2, 1): 1})
    for x, y in zip(sides, sides[1:] + sides[:1]):
        assert x + y == BiSchurClass(x.terms + y.terms)
        assert x - y == BiSchurClass(
            x.terms + tuple((key, -c) for key, c in y.terms))
        for k in (-1, 0, 3):
            assert x.scale(k) == BiSchurClass(
                (key, k * c) for key, c in x.terms)
        for z in (row, column):
            assert biconvolution_right(x, z) == _slow_biconvolution_right(x, z)
        left = SchurClass((lam, c) for (lam, _), c in x.terms)
        right = SchurClass((mu, c) for (_, mu), c in x.terms)
        assert boxtimes(left, right) == BiSchurClass(
            ((lam, mu), cl * cr) for lam, cl in left.terms
            for mu, cr in right.terms)
        assert convolution_class(left, column) == \
            _slow_convolution(left, column)
        assert convolution_class(row, right) == _slow_convolution(row, right)
        if all(weight(mu) <= 4 for mu, _ in right.terms):
            assert convolution_class(hook, right) == \
                _slow_convolution(hook, right)


def test_cached_products_match_the_induced_oracle():
    pairs = 0
    for p in range(8):
        for q in range(8 - p):
            for lam in partitions_of(p):
                for mu in partitions_of(q):
                    assert _irreducible_product(lam, mu) == \
                        _induced_product(lam, mu), (lam, mu)
                    # The operands are taken in the order given, so each
                    # branch must give the same class in either order.
                    assert _irreducible_product(lam, mu) == \
                        _irreducible_product(mu, lam), (lam, mu)
                    pairs += 1
    assert pairs == 249


def test_formal_sums_refuse_mixed_kinds_non_integers_and_floats():
    one, pair = SchurClass({(1,): 1}), BiSchurClass({((1,), (1,)): 1})
    for bad in (lambda: one + pair, lambda: pair + one, lambda: one - pair,
                lambda: one.scale(2.5), lambda: pair.scale(Fraction(1, 2)),
                lambda: boxtimes(pair, one)):
        with pytest.raises(ValueError):
            bad()
    # A bool is an int, but not a coefficient.
    for bad in (lambda: SchurClass({(1,): 2.0}),
                lambda: BiSchurClass({((1,), (1,)): 2.0}),
                lambda: one.scale(2.0),
                lambda: SchurClass({(1,): True}),
                lambda: SchurClass({(1,): False}),
                lambda: BiSchurClass({((1,), (1,)): True}),
                lambda: one.scale(True)):
        with pytest.raises(TypeError):
            bad()

