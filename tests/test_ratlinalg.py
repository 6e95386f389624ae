"""Tests for exact rational linear algebra.

The independent oracle here is a deliberately naive Gaussian elimination
written directly with fractions.Fraction.  Reduced row echelon form is
unique, so the library result must match the naive result cell for cell.
"""
import copy
from collections import defaultdict
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import QQ
from sympy.polys.matrices import DomainMatrix

from fsprim import finsetcat, fsfilt, partitions, ratlinalg, repdecomp, verify
from fsprim.fsfilt import (_module_generator_columns, _reduced_restriction,
                           filtration_level, theta_matrix)
from fsprim.ratlinalg import RatMatrix, solve_membership

# ---------------------------------------------------------------- oracle


def oracle_rref(rows):
    """Textbook row reduction with Fraction arithmetic, first-nonzero pivoting."""
    rows = [list(map(Fraction, r)) for r in rows]
    m = len(rows)
    n = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return [tuple(row) for row in rows], tuple(pivots)


def times(matrix, vector):
    """matrix @ vector, for a vector given as a sequence."""
    product = matrix @ RatMatrix.from_columns(matrix.cols, [vector])
    return tuple(row[0] for row in entries(product))


small_frac = st.fractions(
    min_value=-6, max_value=6, max_denominator=4)

matrices = st.integers(min_value=0, max_value=5).flatmap(
    lambda m: st.integers(min_value=0, max_value=5).flatmap(
        lambda n: st.lists(
            st.lists(small_frac, min_size=n, max_size=n),
            min_size=m, max_size=m)))

# ------------------------------------------------------------ construction


def test_entries_are_fractions_and_dense():
    M = dense([[1, Fraction(2, 4), "3/2"], [0, -1, 2]])
    assert M.rows == 2 and M.cols == 3
    assert entries(M)[0] == (Fraction(1), Fraction(1, 2), Fraction(3, 2))
    assert all(isinstance(x, Fraction) for row in entries(M) for x in row)


def test_float_entries_rejected():
    with pytest.raises(TypeError):
        RatMatrix.from_triplets(1, 1, [(0, 0, 1.0)])
    # A float zero is refused too, not skipped as a zero entry.
    with pytest.raises(TypeError):
        RatMatrix.from_columns(2, [[0.0, 1]])
    with pytest.raises(TypeError):
        solve_membership(RatMatrix.identity(2), [0.0, 1])


def test_triplet_values_agree_across_exact_types():
    cells = [(0, 0, 1), (0, 2, -3), (1, 1, 0), (1, 2, 1)]
    as_int = RatMatrix.from_triplets(2, 3, cells)
    as_fraction = RatMatrix.from_triplets(
        2, 3, [(i, j, Fraction(v)) for i, j, v in cells])
    assert as_int == as_fraction == dense([[1, 0, -3], [0, 0, 1]])
    # A bool is an int, but not an exact value.
    for value in (True, False):
        with pytest.raises(TypeError):
            RatMatrix.from_triplets(1, 1, [(0, 0, value)])


def test_from_triplets_accumulates_duplicates():
    M = RatMatrix.from_triplets(2, 2, [(0, 0, 1), (0, 0, 2), (1, 1, 1), (1, 1, -1)])
    assert M == dense([[3, 0], [0, 0]])


def test_triplet_and_dense_construction_agree():
    by_columns = RatMatrix.from_columns(2, [(0, 2), (1, 0), (0, -3)])
    trips = RatMatrix.from_triplets(2, 3, [(0, 1, 1), (1, 0, 2), (1, 2, -3)])
    assert by_columns == trips
    assert entries(by_columns) == entries(trips)


def test_from_columns():
    M = RatMatrix.from_columns(3, [(1, 0, 0), (1, 1, 0)])
    assert entries(M) == ((Fraction(1), Fraction(1)),
                         (Fraction(0), Fraction(1)),
                         (Fraction(0), Fraction(0)))


def test_identity_and_zeros():
    assert entries(RatMatrix.identity(3)) == entries(
        dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert RatMatrix.zeros(2, 3).is_zero()
    assert RatMatrix.identity(0).rows == 0


# Each public constructor with one size replaced by ``n``.
SHAPED_CONSTRUCTORS = {
    "zeros-rows": lambda n: RatMatrix.zeros(n, 1),
    "zeros-cols": lambda n: RatMatrix.zeros(2, n),
    "identity": lambda n: RatMatrix.identity(n),
    "from_triplets-rows": lambda n: RatMatrix.from_triplets(n, 2, []),
    "from_triplets-cols": lambda n: RatMatrix.from_triplets(2, n, []),
    "from_columns": lambda n: RatMatrix.from_columns(n, []),
}


@pytest.mark.parametrize("build", SHAPED_CONSTRUCTORS.values(),
                         ids=SHAPED_CONSTRUCTORS.keys())
def test_constructors_refuse_a_shape_that_is_not_a_nonnegative_int(build):
    # identity(-2) once had unit rows (), zeros(True, 2) kept rows True,
    # and from_triplets(-1, 2, []) had -1 rows.
    for size in (2.5, True, False, Fraction(2)):
        with pytest.raises(TypeError, match="matrix shape"):
            build(size)
    for size in (-1, -2):
        with pytest.raises(ValueError, match="negative shape"):
            build(size)
    assert build(0).is_zero()
    matrix = build(3)
    assert 3 in (matrix.rows, matrix.cols)


# ------------------------------------------------------------------ rref


def exact_values(matrix):
    """Every stored value is an int or a Fraction: no float, bool or QQ."""
    return all(type(v) in (int, Fraction)
               for row in matrix._sparse_rows().values()
               for v in row.values())


def normalised_values(matrix):
    """Every stored value is an int, or a Fraction that is not integral."""
    return all(type(v) is int or (type(v) is Fraction and v.denominator > 1)
               for row in matrix._sparse_rows().values()
               for v in row.values())


def to_qq(matrix):
    """``matrix`` as a sympy sparse DomainMatrix over real QQ elements."""
    return DomainMatrix({i: {j: QQ(v.numerator, v.denominator)
                             for j, v in row.items()}
                         for i, row in matrix._sparse_rows().items()},
                        (matrix.rows, matrix.cols), QQ)


def from_qq(dm):
    """The nonzero rows of a DomainMatrix over QQ, as {row: {col: Fraction}}."""
    rows = dm.rep.to_sdm()
    assert all(QQ.of_type(v) for row in rows.values() for v in row.values())
    return {i: {j: Fraction(int(v.numerator), int(v.denominator))
                for j, v in row.items()}
            for i, row in rows.items() if row}


def sympy_rref(matrix, method):
    """sympy's RREF of matrix, with its entries converted to QQ first.

    Returns the nonzero rows as {row: {col: Fraction}} and the pivots.  On
    the int values a RatMatrix stores, sympy would invert a pivot as
    ``Aij**-1``, a float, and a float RREF compares equal to the exact one.
    """
    red, pivots = to_qq(matrix).rref(method=method)
    return from_qq(red), tuple(pivots)


def sympy_matmul(left, right):
    """sympy's product over QQ, as {row: {col: Fraction}}: the reference
    for ``@``."""
    return from_qq(to_qq(left).matmul(to_qq(right)))


def dense(rows):
    """The matrix with the given rows (equal-length sequences)."""
    rows = [list(row) for row in rows]
    cols = len(rows[0]) if rows else 0
    assert all(len(row) == cols for row in rows)
    return RatMatrix.from_triplets(len(rows), cols, (
        (i, j, x) for i, row in enumerate(rows) for j, x in enumerate(row)))


def entries(matrix):
    """Every entry of ``matrix`` as a Fraction, row by row."""
    sparse = matrix._sparse_rows()
    return tuple(tuple(Fraction(sparse.get(i, {}).get(j, 0))
                       for j in range(matrix.cols))
                 for i in range(matrix.rows))


def transpose(matrix):
    """The transpose of ``matrix``."""
    return RatMatrix.from_triplets(matrix.cols, matrix.rows, (
        (j, i, x) for i, row in matrix._sparse_rows().items()
        for j, x in row.items()))


def permute_rows(matrix, dest):
    """The matrix whose row dest[i] is row i of ``matrix``."""
    dest = tuple(dest)
    assert sorted(dest) == list(range(matrix.rows))
    return RatMatrix.from_triplets(matrix.rows, matrix.cols, (
        (dest[i], j, x) for i, row in matrix._sparse_rows().items()
        for j, x in row.items()))


def sparse_columns(matrix):
    """Nonzero entries of ``matrix`` as {col: {row: Fraction}}."""
    out = {}
    for i, row in matrix._sparse_rows().items():
        for j, v in row.items():
            out.setdefault(j, {})[i] = Fraction(v)
    return out


def image_basis(matrix):
    """Reference: canonical basis of the column space, one column per pivot.

    The RREF of the transpose, read back as columns; the pivot positions
    are unit rows of the result.
    """
    red_t, pivots_t = transpose(matrix).rref()
    columns = RatMatrix.from_columns(matrix.rows,
                                     entries(red_t)[:len(pivots_t)])
    basis = RatMatrix._make(columns.rows, columns.cols,
                            columns._sparse_rows(), unit_rows=pivots_t)
    assert basis.select_rows(pivots_t) == RatMatrix.identity(len(pivots_t))
    return basis


def test_rref_matches_oracle_fixed():
    big = 10**40
    cases = [
        [[1, 2, 3], [2, 4, 6], [0, 1, 1]],
        [[0, 0], [0, 0]],
        [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 5)]],
        [[2, 0, 1], [0, 3, 1]],
        # Pivots other than 1: -1 negates its row, others leave the ints.
        [[-1, 2, 0], [0, -1, 3]],
        [[2, 1, 0], [4, 3, 5]],
        [[3, 0, 2, 1], [0, 2, 0, 3], [6, 4, 1, 0]],
        # Mixed denominators within and across rows.
        [[Fraction(1, 2), Fraction(2, 3), 1],
         [Fraction(3, 4), 0, Fraction(5, 6)],
         [1, Fraction(-1, 7), Fraction(2, 5)]],
        # Entries near 10**40.
        [[big + 1, big, 3], [big, big - 1, Fraction(1, big + 7)],
         [2, big, -big]],
    ]
    for rows in cases:
        M = dense(rows)
        before = copy.deepcopy(M._sparse_rows())
        R, piv = M.rref()
        exp_rows, exp_piv = oracle_rref(rows)
        assert piv == exp_piv
        assert list(entries(R)) == exp_rows
        assert normalised_values(R)
        assert M._sparse_rows() == before and normalised_values(M)


def test_rref_matches_sympy_gauss_jordan_on_the_operators(monkeypatch):
    # sympy's sparse Gauss--Jordan over QQ is the reference elimination.
    monkeypatch.setattr(ratlinalg, "_RREF_BY_ROWS", {})
    operators = [theta_matrix(a, 6) for a in range(7)]
    operators += [_reduced_restriction(6, a, c)
                  for a in range(7) for c in range(a, 7)]
    for op in operators:
        if not (op.rows and op.cols):
            continue
        # A new instance, so rref() eliminates.
        M = RatMatrix._make(op.rows, op.cols, op._sparse_rows())
        before = copy.deepcopy(M._sparse_rows())
        red, pivots = M.rref()
        ref, ref_pivots = sympy_rref(M, "GJ")
        assert pivots == ref_pivots
        assert red._sparse_rows() == ref
        assert normalised_values(red)
        assert M._sparse_rows() == before and normalised_values(M)


@settings(max_examples=80, deadline=None)
@given(matrices)
def test_rref_matches_oracle(rows):
    M = dense(rows)
    R, piv = M.rref()
    exp_rows, exp_piv = oracle_rref(rows)
    assert piv == exp_piv
    assert list(entries(R)) == exp_rows


def reference_rref(matrix):
    """sympy's denominator-clearing RREF over ZZ, as sparse rows and pivots."""
    if not matrix.rows or not matrix.cols:
        return {}, ()
    return sympy_rref(matrix, "CD")


def fast_rref(matrix):
    red, pivots = matrix.rref()
    assert (red.rows, red.cols) == (matrix.rows, matrix.cols)
    return red._sparse_rows(), pivots


@settings(max_examples=80, deadline=None)
@given(matrices)
def test_rref_matches_denominator_clearing_reference(rows):
    M = dense(rows)
    assert fast_rref(M) == reference_rref(M)


def test_rref_is_shared_by_row_content():
    rows = [[1, 2, 0, 3], [0, Fraction(1, 2), 1, 0], [2, 4, 0, 6]]
    M = dense(rows)
    red, pivots = M.rref()
    # Reordered rows, a repeat and a zero row span the same row space.
    N = dense([rows[1], rows[0], [0, 0, 0, 0], rows[1], rows[2]])
    red_n, pivots_n = N.rref()
    assert pivots_n == pivots
    assert red_n.rows == 5 and red.rows == 3
    assert entries(red_n)[:len(pivots)] == entries(red)[:len(pivots)]
    assert all(not any(row) for row in entries(red_n)[len(pivots):])
    assert fast_rref(N) == reference_rref(N)


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_rank_transpose_invariant(rows):
    M = dense(rows)
    assert M.rank() == transpose(M).rank()
    assert M.rank() <= min(M.rows, M.cols)


# ---------------------------------------------------------------- kernel


@settings(max_examples=80, deadline=None)
@given(matrices)
def test_kernel_basis_properties(rows):
    M = dense(rows)
    K = M.kernel_basis()
    assert K.rows == M.cols
    assert K.cols == M.cols - M.rank()
    if M.rows and K.cols:
        assert (M @ K).is_zero()
    assert K.rank() == K.cols
    unit = K.unit_rows()
    if K.cols:
        assert unit is not None
        for k, i in enumerate(unit):
            row = entries(K)[i]
            assert row[k] == 1 and all(x == 0 for j, x in enumerate(row) if j != k)


def test_kernel_of_zero_map_is_identity():
    K = RatMatrix.zeros(0, 4).kernel_basis()
    assert entries(K) == entries(RatMatrix.identity(4))
    K2 = RatMatrix.zeros(3, 4).kernel_basis()
    assert entries(K2) == entries(RatMatrix.identity(4))


def test_kernel_of_injective_map_is_empty():
    K = dense([[1, 0], [0, 1], [1, 1]]).kernel_basis()
    assert K.cols == 0 and K.rows == 2


def test_kernel_canonical_free_column_form():
    # x + y + z = 0: pivots {0}, free {1, 2}
    K = dense([[1, 1, 1]]).kernel_basis()
    assert entries(K) == ((Fraction(-1), Fraction(-1)),
                         (Fraction(1), Fraction(0)),
                         (Fraction(0), Fraction(1)))
    assert K.unit_rows() == (1, 2)


def test_kernel_from_triplets_matches_dense():
    rows = [[1, 2, 0, 1], [0, 0, 1, -1]]
    trips = [(i, j, v) for i, r in enumerate(rows) for j, v in enumerate(r) if v]
    K1 = RatMatrix.from_columns(2, zip(*rows)).kernel_basis()
    K2 = RatMatrix.from_triplets(2, 4, trips).kernel_basis()
    assert entries(K1) == entries(K2)
    assert K1.unit_rows() == K2.unit_rows()


# ----------------------------------------------------------------- image


@settings(max_examples=80, deadline=None)
@given(matrices)
def test_image_basis_properties(rows):
    M = dense(rows)
    B = image_basis(M)
    assert B.rows == M.rows
    assert B.cols == M.rank()
    assert B.rank() == B.cols
    # every original column lies in the span of the basis
    for column in entries(transpose(M)):
        assert solve_membership(B, column) is not None
    # and every basis column lies in the span of the original columns
    for column in entries(transpose(B)):
        assert solve_membership(M, column) is not None


def test_image_basis_is_canonical_under_column_operations():
    M = dense([[1, 3], [2, 6], [0, 1]])
    # same column span presented differently (scaled, reordered, mixed)
    N = dense([[3, 2, 1], [6, 4, 2], [1, 0, 0]])
    assert entries(image_basis(M)) == entries(image_basis(N))


def test_image_basis_idempotent():
    M = dense([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    B = image_basis(M)
    assert entries(image_basis(B)) == entries(B)


# ------------------------------------------------------------ membership


def test_membership_in_identity_span_returns_vector():
    v = (Fraction(1), Fraction(-2), Fraction(3, 5))
    assert solve_membership(RatMatrix.identity(3), v) == v


def test_membership_repeated_column():
    S = dense([[1], [1]])
    assert solve_membership(S, (3, 3)) == (Fraction(3),)
    assert solve_membership(S, (3, 4)) is None


def test_membership_dimension_mismatch_is_error():
    with pytest.raises(ValueError):
        solve_membership(RatMatrix.identity(3), (1, 2))


def test_membership_empty_span():
    S = RatMatrix.zeros(3, 0)
    assert solve_membership(S, (0, 0, 0)) == ()
    assert solve_membership(S, (0, 1, 0)) is None


@settings(max_examples=80, deadline=None)
@given(matrices, st.integers(min_value=0, max_value=10 ** 6))
def test_membership_certificates_are_exact(rows, seed):
    M = dense(rows)
    x = solve_membership(M, _pseudo_vector(M.rows, seed))
    v = _pseudo_vector(M.rows, seed)
    if x is None:
        # certify non-membership: adjoining v must raise the rank
        if M.rows:
            aug = dense([row + (c,) for row, c in zip(entries(M), v)])
            assert aug.rank() == M.rank() + 1
    else:
        assert len(x) == M.cols
        assert times(M, x) == v


def _pseudo_vector(n, seed):
    out = []
    state = seed
    for _ in range(n):
        state = (state * 1103515245 + 12345) % 2 ** 31
        out.append(Fraction(state % 7 - 3, 1 + state % 3))
    return tuple(out)


@settings(max_examples=40, deadline=None)
@given(matrices)
def test_membership_of_actual_combination(rows):
    M = dense(rows)
    if M.cols == 0 or M.rows == 0:
        return
    combo = times(M, [Fraction(j - 1, 2) for j in range(M.cols)])
    x = solve_membership(M, combo)
    assert x is not None
    assert times(M, x) == combo


def test_membership_leaves_the_shared_rref_table_alone():
    span = dense([[2, 0], [0, 2], [1, 1]])
    before = len(ratlinalg._RREF_BY_ROWS)
    for i in range(1000):
        x = (Fraction(i), Fraction(1, 1 + i % 3))
        assert solve_membership(span, times(span, x)) == x
    assert solve_membership(span, (1, 0, 0)) is None
    assert len(ratlinalg._RREF_BY_ROWS) == before


def test_membership_in_a_kernel_basis_and_its_scaled_copy_agree():
    # A kernel basis has unit rows; its row-scaled copy has none.  Both are
    # eliminated alike and give the same coefficients.
    M = dense([[1, 1, 1, 0], [0, 1, 1, 1]])
    K = M.kernel_basis()
    assert K.unit_rows() is not None
    scaled = dense([[x * 2 for x in row] for row in entries(K)])
    assert scaled.unit_rows() is None
    v = times(K, (1, 2))
    assert solve_membership(K, v) == (Fraction(1), Fraction(2))
    assert solve_membership(scaled, tuple(2 * c for c in v)) == \
        (Fraction(1), Fraction(2))
    assert solve_membership(K, (1, 0, 0, 0)) is None
    assert solve_membership(scaled, (2, 0, 0, 0)) is None


# ------------------------------------------------------------------ misc


def test_matmul_and_transpose():
    A = dense([[1, 2], [0, 1]])
    B = dense([[1, 0, 1], [2, 1, 0]])
    assert entries(A @ B) == ((Fraction(5), Fraction(2), Fraction(1)),
                              (Fraction(2), Fraction(1), Fraction(0)))
    # The transpose helper is a reference route for the fsfilt tests.
    assert entries(transpose(A)) == ((Fraction(1), Fraction(0)),
                                     (Fraction(2), Fraction(1)))
    with pytest.raises(ValueError):
        B @ A


def test_add_sub_scale():
    A = dense([[1, 2], [3, 4]])
    half = dense([[Fraction(1, 2), 0], [0, Fraction(1, 2)]])
    assert entries(A @ half) == (
        (Fraction(1, 2), Fraction(1)), (Fraction(3, 2), Fraction(2)))


def test_unit_rows_are_set_only_where_a_basis_is_made():
    # Nothing searches for unit rows: a matrix whose rows hold an identity
    # has none unless its maker set them.
    A = dense([[0, 1], [1, 0], [2, 3]])
    unset = [A, RatMatrix.from_triplets(2, 2, [(0, 0, 1), (1, 1, 1)]),
             RatMatrix.identity(2) @ RatMatrix.identity(2),
             RatMatrix.identity(3).select_rows((0, 1, 2)),
             RatMatrix.from_columns(2, []), RatMatrix.zeros(2, 3)]
    for M in unset:
        assert M.unit_rows() is None, M
    assert RatMatrix.identity(3).unit_rows() == (0, 1, 2)
    assert RatMatrix.identity(0).unit_rows() == ()
    assert RatMatrix.zeros(4, 0).unit_rows() == ()
    assert RatMatrix.zeros(0, 0).unit_rows() == ()
    assert dense([[1, 1, 1]]).kernel_basis().unit_rows() == (1, 2)
    assert dense([[1, 0], [0, 1]]).kernel_basis().unit_rows() == ()


def test_every_operation_keeps_the_sparse_format():
    # A RatMatrix's nonzero rows are a plain dict of plain row dicts.
    A = dense([[1, 2], [0, Fraction(1, 3)]])
    B = RatMatrix.from_triplets(2, 2, [(0, 1, 1)])
    results = [A, B, RatMatrix.identity(2), RatMatrix.zeros(2, 3),
               RatMatrix.from_columns(2, [(1, 0)]), A @ B,
               A.select_rows((1, 1)), A.rref()[0], A.kernel_basis()]
    for M in results:
        rows = M._sparse_rows()
        assert type(rows) is dict and exact_values(M)
        assert all(type(row) is dict and row for row in rows.values())


def assert_product_matches_sympy(left, right):
    product = left @ right
    assert (product.rows, product.cols) == (left.rows, right.cols)
    assert exact_values(product)
    # The reference holds no zero value and no empty row.
    assert product._sparse_rows() == sympy_matmul(left, right)


def test_product_matches_sympy_on_the_level_products():
    # Every product that _in_level forms on a filtration level, b <= 5.
    for b in range(6):
        for a in range(b + 1):
            for t in range(-1, b - a + 1):
                basis = filtration_level(b, a, t)
                for c in range(b + 1):
                    assert_product_matches_sympy(
                        _reduced_restriction(b, a, c), basis)


def shaped_rows(m, n):
    """Strategy: m rows of n Fractions, a whole zero row often.

    Entries are drawn from a few values half the time, so that products
    often cancel to zero.
    """
    entry = small_frac | st.sampled_from(
        (1, -1, Fraction(1, 2), Fraction(-1, 2)))
    row = st.lists(entry, min_size=n, max_size=n)
    return st.lists(st.just([0] * n) | row, min_size=m, max_size=m)


def shaped(rows, cols):
    """The matrix with the given rows, of ``cols`` columns even with none."""
    return RatMatrix.from_triplets(len(rows), cols, (
        (i, j, x) for i, row in enumerate(rows) for j, x in enumerate(row)))


@settings(max_examples=80, deadline=None)
@given(st.tuples(*[st.integers(min_value=0, max_value=4)] * 3).flatmap(
    lambda shape: st.tuples(st.just(shape),
                            shaped_rows(shape[0], shape[1]),
                            shaped_rows(shape[1], shape[2]))))
def test_product_matches_sympy(case):
    (m, k, n), left, right = case
    assert_product_matches_sympy(shaped(left, k), shaped(right, n))


class ReferenceEchelon:
    """The reference for :class:`ratlinalg._Echelon`: an incremental RREF
    that keeps its rows reduced at every store.

    :meth:`store` clears the new pivot from every stored row that holds
    it, found through ``holders`` (column -> nonreduced pivots whose rows
    hold it), so ``rows`` is the RREF of the rows fed so far at all times
    and :meth:`finish` has nothing to do.
    """

    def __init__(self):
        self.rows = {}
        self.reduced = set()  # pivots whose row holds nothing but the pivot
        self.nonreduced = set()
        self.holders = defaultdict(set)

    def reduce(self, row):
        reduced, rows = self.reduced, self.rows
        Ai = {j: v for j, v in row.items() if j not in reduced}
        for j in self.nonreduced & Ai.keys():
            Aj = rows[j]
            Aij = Ai.pop(j)
            both = Aj.keys() & Ai.keys()
            for k in Aj.keys() - both - {j}:
                Ai[k] = -Aij * Aj[k]
            for k in both:
                if Aik := Ai[k] - Aij * Aj[k]:
                    Ai[k] = Aik
                else:
                    del Ai[k]
        return Ai

    def store(self, Ai):
        rows, holders = self.rows, self.holders
        j = min(Ai)
        Aij = Ai[j]
        if Aij == -1:
            for l in Ai:
                Ai[l] = -Ai[l]
        elif Aij != 1:
            inverse = Fraction(1, Aij)
            for l in Ai:
                Ai[l] *= inverse
        for l, v in Ai.items():
            if type(v) is not int and v.denominator == 1:
                Ai[l] = v.numerator
        rows[j] = Ai
        others = Ai.keys() - {j}
        for k in holders.pop(j, ()):
            Ak = rows[k]
            Akj = Ak.pop(j)
            both = others & Ak.keys()
            for l in others - both:
                Akl = -Akj * Ai[l]
                Ak[l] = (Akl if type(Akl) is int or Akl.denominator != 1
                         else Akl.numerator)
                holders[l].add(k)
            for l in both:
                if Akl := Ak[l] - Akj * Ai[l]:
                    Ak[l] = (Akl if type(Akl) is int or Akl.denominator != 1
                             else Akl.numerator)
                else:
                    del Ak[l]
                    holders[l].remove(k)
            if len(Ak) == 1:
                self.reduced.add(k)
                self.nonreduced.remove(k)
        if others:
            self.nonreduced.add(j)
            for l in others:
                holders[l].add(j)
        else:
            self.reduced.add(j)

    def finish(self):
        pass


def feed(echelon, rows):
    """Feed ``rows`` to ``echelon`` in order, storing every remainder."""
    for row in rows:
        if remainder := echelon.reduce(row):
            echelon.store(remainder)


def reference_gauss_jordan(sparse_rows):
    """_gauss_jordan's nonzero RREF rows and pivots, by the reference."""
    echelon = ReferenceEchelon()
    feed(echelon, sorted(filter(None, sparse_rows.values()), key=min,
                         reverse=True))
    pivots = tuple(sorted(echelon.rows))
    return {i: echelon.rows[p] for i, p in enumerate(pivots)}, pivots


@pytest.fixture
def empty_caches(monkeypatch):
    """Every functools cache of fsprim and the shared RREF table emptied,
    before the test and after it, so the test sees every elimination."""
    caches = [fn for module in (finsetcat, fsfilt, partitions, repdecomp,
                                verify)
              for fn in vars(module).values() if hasattr(fn, "cache_clear")]
    for fn in caches:
        fn.cache_clear()
    monkeypatch.setattr(ratlinalg, "_RREF_BY_ROWS", {})
    yield
    for fn in caches:
        fn.cache_clear()


def test_every_elimination_of_the_bound_6_sweep_matches_the_reference(
        empty_caches, monkeypatch):
    eliminated = []
    gauss_jordan = ratlinalg._gauss_jordan

    def spy(sparse_rows):
        eliminated.append(sparse_rows)
        return gauss_jordan(sparse_rows)

    monkeypatch.setattr(ratlinalg, "_gauss_jordan", spy)
    assert all(r.status == "pass" for r in verify.collect_reports(6))
    assert len(eliminated) >= 20
    for sparse_rows in eliminated:
        assert gauss_jordan(sparse_rows) == \
            reference_gauss_jordan(sparse_rows)


def test_the_generator_search_picks_the_reference_columns(monkeypatch):
    # The search finishes the echelon before each pick; the reference keeps
    # its rows reduced throughout, so its finish() does nothing.
    cells = [(b, a, side) for b in range(7) for a in range(b + 1)
             for side in ("left", "right")]
    found = {cell: _module_generator_columns(*cell) for cell in cells}
    monkeypatch.setattr(fsfilt, "_Echelon", ReferenceEchelon)
    for cell in cells:
        assert _module_generator_columns.__wrapped__(*cell) == found[cell], \
            cell


@settings(max_examples=80, deadline=None)
@given(st.tuples(*[st.integers(min_value=0, max_value=5)] * 2).flatmap(
    lambda shape: st.tuples(st.just(shape[1]),
                            shaped_rows(shape[0], shape[1]))),
       st.randoms(use_true_random=False))
def test_the_echelon_gives_the_rref_in_any_row_order(case, rng):
    # _gauss_jordan feeds rows by descending first column and the generator
    # search in breadth-first order; the rows here come shuffled, with
    # their Fraction values as drawn, integral ones included.
    cols, rows = case
    fed = [{j: Fraction(x) for j, x in enumerate(row) if x} for row in rows]
    rng.shuffle(fed)
    before = copy.deepcopy(fed)
    echelon = ratlinalg._Echelon()
    feed(echelon, fed)
    echelon.finish()
    assert fed == before
    pivots = tuple(sorted(echelon.rows))
    red = {i: echelon.rows[p] for i, p in enumerate(pivots)}
    assert (red, pivots) == reference_rref(shaped(rows, cols))
    assert normalised_values(RatMatrix._make(len(red), cols, red))
    assert singleton_pivots(echelon) == units_in_span(rows, cols)


def singleton_pivots(echelon):
    """The pivots whose row in ``echelon`` is the pivot alone."""
    return {p for p, row in echelon.rows.items() if len(row) == 1}


def units_in_span(rows, cols):
    """The columns j whose unit vector lies in the span of ``rows`` (dense
    sequences of length cols): adding it leaves the reference rank as it is.
    """
    rank = len(reference_rref(shaped(rows, cols))[1])
    return {j for j in range(cols) if len(reference_rref(shaped(
        [*rows, [int(k == j) for k in range(cols)]], cols))[1]) == rank}


# Rows whose pivots are often not 1 or -1: scaling divides, and the stored
# rows hold Fractions.
scaled_rows = st.integers(min_value=1, max_value=6).flatmap(
    lambda cols: st.tuples(st.just(cols), st.lists(st.dictionaries(
        st.integers(min_value=0, max_value=cols - 1),
        st.sampled_from((2, -3, Fraction(3, 2), Fraction(-2, 5))) | small_frac,
        max_size=cols), max_size=7)))


@settings(max_examples=120, deadline=None)
@given(scaled_rows, st.lists(st.booleans(), min_size=7, max_size=7))
def test_finishing_among_the_feeds_gives_the_rows_of_one_final_finish(
        case, finish_after):
    cols, rows = case
    rows = [{j: v for j, v in row.items() if v} for row in rows]
    once = ratlinalg._Echelon()
    feed(once, rows)
    once.finish()
    often = ratlinalg._Echelon()
    reference = ReferenceEchelon()
    for k, (row, finish) in enumerate(zip(rows, finish_after), 1):
        feed(often, [row])
        feed(reference, [row])
        if finish:
            # After a finish the rows are the RREF of the rows fed so far,
            # and a row is its pivot alone exactly when the pivot's unit
            # vector is in their span: the generator search reads that.
            often.finish()
            assert often.rows == reference.rows
            assert singleton_pivots(often) == units_in_span(
                [[r.get(j, 0) for j in range(cols)] for r in rows[:k]], cols)
    often.finish()
    assert often.rows == once.rows == reference.rows
    assert all(type(v) is int or v.denominator > 1
               for row in once.rows.values() for v in row.values())


def test_the_echelon_stores_an_integral_fraction_as_an_int():
    # Clearing the second pivot from the first row leaves 1/2 + 1/2 there.
    echelon = ratlinalg._Echelon()
    feed(echelon, ({0: 1, 1: 1, 2: Fraction(1, 2)},
                   {1: 1, 2: Fraction(-1, 2)}))
    # Storing the second row left the first as it was.
    assert echelon.rows[0] == {0: 1, 1: 1, 2: Fraction(1, 2)}
    echelon.finish()
    assert echelon.rows == {0: {0: 1, 2: 1}, 1: {1: 1, 2: Fraction(-1, 2)}}
    assert type(echelon.rows[0][2]) is int


class OneSlotTable(dict):
    """An RREF table in which every row set of a column count collides."""

    def get(self, key):
        return super().get(key[0])

    def __setitem__(self, key, value):
        super().__setitem__(key[0], value)


@pytest.mark.parametrize("table", [dict, OneSlotTable])
def test_a_row_set_shares_its_kernel_only_with_an_equal_row_set(
        monkeypatch, table):
    monkeypatch.setattr(ratlinalg, "_RREF_BY_ROWS", table())
    rows = [[1, 1, 0, 0, 1], [0, 1, 1, 0, 0], [2, 2, 0, 0, 2]]
    K = dense(rows).kernel_basis()
    # Reordered, repeated and zero rows leave the row set as it is.
    same = dense([rows[1], [0] * 5, rows[0], rows[2], rows[1]])
    assert same.kernel_basis() is K
    # One row more, one row less, or one row changed is another row set.
    for other in (rows + [[0, 0, 0, 1, 1]], rows[1:],
                  [rows[0], [0, 1, 1, 0, 1], rows[2]]):
        M = dense(other)
        kernel = M.kernel_basis()
        assert kernel is not K
        assert (M @ kernel).is_zero()
        assert kernel.cols == M.cols - len(oracle_rref(other)[1])
        assert M.rref() == (RatMatrix._make(M.rows, M.cols,
                                            reference_rref(M)[0]),
                            reference_rref(M)[1])


def test_the_pairing_and_its_restriction_stage_share_one_kernel(
        empty_caches):
    # theta(a, b) and the stage (b, a, a) have one row set: a row of either
    # asks f to agree with a bijection onto [a] from an a-subset of [b].
    # At a = b the level is -1, the zero level, built without elimination.
    for b in range(6):
        for a in range(1, b):
            assert theta_matrix(a, b).kernel_basis() is \
                filtration_level(b, a, b - a - 1), (a, b)


def test_an_integral_fraction_from_a_product_equals_its_int():
    # A product of Fractions runs in Fraction arithmetic and may store
    # Fraction(4) where a constructor stores 4; the two compare and hash
    # alike, and the elimination returns ints.
    P = dense([[Fraction(3, 2), 1]]) @ dense([[2], [1]])
    assert exact_values(P) and not normalised_values(P)
    assert P == dense([[4]])
    red, pivots = P.rref()
    assert red == RatMatrix.identity(1) and normalised_values(red)


def test_repeated_calls_are_deterministic():
    rows = [[1, 2, 3, 4], [2, 4, 6, 8], [1, 0, 1, 0]]
    a = dense(rows).kernel_basis()
    b = dense(rows).kernel_basis()
    assert entries(a) == entries(b)
    assert entries(image_basis(dense(rows))) == \
        entries(image_basis(dense(rows)))


def test_select_rows():
    M = dense([[1, 2], [3, 4], [5, 6]])
    S = M.select_rows((2, 0, 0))
    assert entries(S) == ((Fraction(5), Fraction(6)),
                         (Fraction(1), Fraction(2)),
                         (Fraction(1), Fraction(2)))
    assert M.select_rows(()).rows == 0


def test_sparse_columns():
    M = dense([[0, Fraction(1, 2)], [0, 0], [3, 0]])
    assert sparse_columns(M) == {1: {0: Fraction(1, 2)}, 0: {2: Fraction(3)}}
