"""Exact linear algebra over arbitrary-precision rationals.

The public type is :class:`RatMatrix`, an immutable matrix of exact
rationals.  Row reduction, rank, kernels, images and membership
certificates are all exact; no floating point appears anywhere.

Arithmetic and elimination run on a sparse sympy ``DomainMatrix`` over QQ.
A table of ``fractions.Fraction`` entries is kept only for matrices built
from one, and is otherwise built from the sparse form when rows or columns
are read.

Elimination is sparse Gauss--Jordan over QQ (``rref(method="GJ")``).
sympy's default choice for QQ clears denominators and eliminates over ZZ
instead, which is much slower on the operators this package builds: 1.10 s
against 0.23 s on the pairing matrix theta(4, 6) and 21.7 s against 2.6 s on
theta(4, 7) (sympy 1.14 with pure-Python QQ, one core of a 2-core x86-64
host).  Reduced row echelon form is mathematically unique, so every derived
object (kernel basis, image basis, solution coefficients) is canonical and
deterministic whichever exact method computes it.

Matrices with the same set of nonzero rows span the same row space and so
have the same nonzero RREF rows and pivots.  Results are therefore shared by
row content: a matrix whose row set was already eliminated (for example a
row permutation of it, or a copy with repeated rows) reuses that result,
padded with zero rows to its own row count.

Kernel and image bases are produced in free-column echelon form: there is a
set of rows (the "unit rows") on which the basis columns restrict to an
identity matrix.  That structure makes membership tests cheap -- candidate
coefficients can be read off the unit rows and certified by one exact
multiplication -- and downstream code uses it to compute traces of group
actions restricted to a stable subspace in time linear in the rank.
"""
from __future__ import annotations

from fractions import Fraction

from sympy.polys.domains import QQ
from sympy.polys.matrices import DomainMatrix

_ZERO = Fraction(0)
_ONE = Fraction(1)
_QQ_ZERO = QQ.zero
_QQ_ONE = QQ.one

# Small rationals are interned so that large mostly-0/1 matrices share entry
# objects instead of allocating one Fraction per cell.
_INTERN: dict[tuple[int, int], Fraction] = {(0, 1): _ZERO, (1, 1): _ONE}


def _frac(num: int, den: int = 1) -> Fraction:
    if -64 <= num <= 64 and 0 < den <= 64:
        key = (num, den)
        got = _INTERN.get(key)
        if got is not None:
            return got
        val = Fraction(num, den)
        if val.numerator == num and val.denominator == den:
            _INTERN[key] = val
        return val
    return Fraction(num, den)


def _to_frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return _frac(x.numerator, x.denominator)
    if isinstance(x, int):
        return _frac(x)
    if isinstance(x, float):
        raise TypeError("floating point is not allowed in RatMatrix")
    f = Fraction(x)
    return _frac(f.numerator, f.denominator)


def _qq(x) -> "QQ":
    f = x if isinstance(x, Fraction) else Fraction(x)
    return QQ(f.numerator, f.denominator)


def _qq_to_frac(q) -> Fraction:
    return _frac(int(q.numerator), int(q.denominator))


def _dm_rows(dm: DomainMatrix) -> dict[int, dict[int, object]]:
    """Nonzero entries of a DomainMatrix as {row: {col: element}}."""
    return {i: dict(row) for i, row in dm.rep.to_sdm().items()}


# Nonzero RREF rows and pivots, keyed by (cols, frozenset of nonzero rows):
# equal row sets span equal row spaces, whose RREF is unique.  Like the
# functools caches on the operators, it lives as long as the process.
_RREF_BY_ROWS: dict[tuple, tuple[dict[int, dict[int, object]],
                                 tuple[int, ...]]] = {}


class RatMatrix:
    """Immutable matrix of exact rationals, stored sparsely."""

    __slots__ = ("rows", "cols", "_entries", "_dm", "_rref", "_unit_rows",
                 "_sdm")

    def __init__(self, entries):
        table = tuple(tuple(_to_frac(x) for x in row) for row in entries)
        assert all(len(row) == len(table[0]) for row in table), "ragged rows"
        self.rows = len(table)
        self.cols = len(table[0]) if table else 0
        self._entries = table
        self._dm = None
        self._rref = None
        self._unit_rows = False  # False = not yet detected; None = absent
        self._sdm = None

    @classmethod
    def _make(cls, rows: int, cols: int, dm: DomainMatrix,
              unit_rows=False) -> "RatMatrix":
        self = object.__new__(cls)
        self.rows = rows
        self.cols = cols
        self._entries = None
        self._dm = dm
        self._rref = None
        self._unit_rows = unit_rows
        self._sdm = None
        return self

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        assert rows >= 0 and cols >= 0
        return cls._make(rows, cols, DomainMatrix({}, (rows, cols), QQ))

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        dm = DomainMatrix({i: {i: _QQ_ONE} for i in range(n)}, (n, n), QQ)
        return cls._make(n, n, dm, unit_rows=tuple(range(n)))

    @classmethod
    def from_columns(cls, rows: int, columns) -> "RatMatrix":
        """Matrix whose j-th column is columns[j] (each of length rows)."""
        dod: dict[int, dict[int, object]] = {}
        columns = list(columns)
        for j, col in enumerate(columns):
            col = list(col)
            assert len(col) == rows, "column length mismatch"
            for i, x in enumerate(col):
                f = _to_frac(x)
                if f:
                    dod.setdefault(i, {})[j] = _qq(f)
        return cls._make(rows, len(columns), DomainMatrix(dod, (rows, len(columns)), QQ))

    @classmethod
    def from_triplets(cls, rows: int, cols: int, triplets) -> "RatMatrix":
        """Matrix from (row, col, value) triplets; duplicate cells accumulate."""
        dod: dict[int, dict[int, object]] = {}
        for i, j, v in triplets:
            assert 0 <= i < rows and 0 <= j < cols
            q = _qq(v)
            row = dod.setdefault(i, {})
            got = row.get(j)
            row[j] = q if got is None else got + q
        for i, row in list(dod.items()):
            dead = [j for j, v in row.items() if not v]
            for j in dead:
                del row[j]
            if not row:
                del dod[i]
        return cls._make(rows, cols, DomainMatrix(dod, (rows, cols), QQ))

    # -- representations ------------------------------------------------

    @property
    def dm(self) -> DomainMatrix:
        if self._dm is None:
            dod: dict[int, dict[int, object]] = {}
            for i, row in enumerate(self._entries):
                r = {j: _qq(x) for j, x in enumerate(row) if x}
                if r:
                    dod[i] = r
            self._dm = DomainMatrix(dod, (self.rows, self.cols), QQ)
        return self._dm

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        if self._entries is None:
            sparse = _dm_rows(self._dm)
            table = []
            for i in range(self.rows):
                row = sparse.get(i)
                if not row:
                    table.append((_ZERO,) * self.cols)
                else:
                    table.append(tuple(
                        _qq_to_frac(row[j]) if j in row else _ZERO
                        for j in range(self.cols)))
            self._entries = tuple(table)
        return self._entries

    def _sparse_rows(self) -> dict[int, dict[int, object]]:
        """Cached nonzero entries as {row: {col: QQ element}} (read-only)."""
        if self._sdm is None:
            self._sdm = _dm_rows(self.dm)
        return self._sdm

    def entry(self, i: int, j: int) -> Fraction:
        assert 0 <= i < self.rows and 0 <= j < self.cols
        if self._entries is not None:
            return self._entries[i][j]
        row = self._sparse_rows().get(i)
        if row is None or j not in row:
            return _ZERO
        return _qq_to_frac(row[j])

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i]

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(row[j] for row in self.entries)

    def rows_dict(self) -> dict[int, dict[int, Fraction]]:
        """Nonzero entries as {row: {col: Fraction}}."""
        return {i: {j: _qq_to_frac(v) for j, v in row.items()}
                for i, row in self._sparse_rows().items()}

    def sparse_columns(self) -> dict[int, dict[int, Fraction]]:
        """Nonzero entries as {col: {row: Fraction}}."""
        out: dict[int, dict[int, Fraction]] = {}
        for i, row in self._sparse_rows().items():
            for j, v in row.items():
                out.setdefault(j, {})[i] = _qq_to_frac(v)
        return out

    def permute_rows(self, dest) -> "RatMatrix":
        """Matrix whose row dest[i] is row i of self (dest a permutation)."""
        dest = tuple(dest)
        assert len(dest) == self.rows and set(dest) == set(range(self.rows))
        dod = {dest[i]: dict(row) for i, row in self._sparse_rows().items()}
        return RatMatrix._make(self.rows, self.cols,
                               DomainMatrix(dod, (self.rows, self.cols), QQ))

    def select_rows(self, indices) -> "RatMatrix":
        """Matrix formed by rows indices[0], indices[1], ... of self."""
        indices = tuple(indices)
        assert all(0 <= i < self.rows for i in indices)
        sparse = self._sparse_rows()
        dod: dict[int, dict[int, object]] = {}
        for k, i in enumerate(indices):
            row = sparse.get(i)
            if row:
                dod[k] = dict(row)
        return RatMatrix._make(len(indices), self.cols,
                               DomainMatrix(dod, (len(indices), self.cols), QQ))

    # -- algebra ---------------------------------------------------------

    def transpose(self) -> "RatMatrix":
        return RatMatrix._make(self.cols, self.rows, self.dm.transpose())

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        assert isinstance(other, RatMatrix)
        assert self.cols == other.rows, "shape mismatch in product"
        return RatMatrix._make(self.rows, other.cols, self.dm.matmul(other.dm))

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        assert self.rows == other.rows and self.cols == other.cols
        return RatMatrix._make(self.rows, self.cols, self.dm + other.dm)

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        assert self.rows == other.rows and self.cols == other.cols
        return RatMatrix._make(self.rows, self.cols, self.dm - other.dm)

    def scale(self, c) -> "RatMatrix":
        q = _qq(_to_frac(c))
        return RatMatrix._make(self.rows, self.cols, self.dm * q)

    def hstack(self, other: "RatMatrix") -> "RatMatrix":
        assert self.rows == other.rows
        return RatMatrix._make(self.rows, self.cols + other.cols,
                               self.dm.hstack(other.dm))

    def vstack(self, other: "RatMatrix") -> "RatMatrix":
        assert self.cols == other.cols
        dod = {i: dict(row) for i, row in self._sparse_rows().items()}
        for i, row in other._sparse_rows().items():
            dod[self.rows + i] = dict(row)
        return RatMatrix._make(
            self.rows + other.rows, self.cols,
            DomainMatrix(dod, (self.rows + other.rows, self.cols), QQ))

    def mul_vector(self, vec) -> tuple[Fraction, ...]:
        xs = [_qq(_to_frac(x)) for x in vec]
        assert len(xs) == self.cols
        out = [_QQ_ZERO] * self.rows
        for i, row in self._sparse_rows().items():
            acc = _QQ_ZERO
            for j, v in row.items():
                if xs[j]:
                    acc += v * xs[j]
            out[i] = acc
        return tuple(_qq_to_frac(q) for q in out)

    def trace(self) -> Fraction:
        assert self.rows == self.cols, "trace requires a square matrix"
        acc = _QQ_ZERO
        for i, row in self._sparse_rows().items():
            v = row.get(i)
            if v is not None:
                acc += v
        return _qq_to_frac(acc)

    def is_zero(self) -> bool:
        return not self._sparse_rows()

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        if self.rows != other.rows or self.cols != other.cols:
            return False
        return self._sparse_rows() == other._sparse_rows()

    __hash__ = None

    def __repr__(self) -> str:
        return f"RatMatrix({self.rows}x{self.cols})"

    # -- elimination ------------------------------------------------------

    def rref(self) -> tuple["RatMatrix", tuple[int, ...]]:
        """Reduced row echelon form and pivot columns (both canonical)."""
        if self._rref is None:
            if self.rows == 0 or self.cols == 0:
                self._rref = (self, ())
            else:
                sparse = self.dm.rep.to_sdm()
                key = (self.cols, frozenset(frozenset(row.items())
                                            for row in sparse.values() if row))
                shared = _RREF_BY_ROWS.get(key)
                if shared is None:
                    red, pivots = self.dm.rref(method="GJ")
                    shared = _RREF_BY_ROWS[key] = (_dm_rows(red),
                                                   tuple(pivots))
                nonzero, pivots = shared
                red = DomainMatrix(nonzero, (self.rows, self.cols), QQ)
                self._rref = (RatMatrix._make(self.rows, self.cols, red),
                              pivots)
        return self._rref

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> "RatMatrix":
        """Canonical basis of the right null space, one column per free column.

        The result K satisfies self @ K == 0 exactly, has cols - rank columns,
        and restricts to the identity on the free-column rows (ascending), so
        K.unit_rows() is exactly the free column set.
        """
        red, pivots = self.rref()
        pivot_set = set(pivots)
        free = [j for j in range(self.cols) if j not in pivot_set]
        free_index = {f: k for k, f in enumerate(free)}
        dod: dict[int, dict[int, object]] = {}
        for k, f in enumerate(free):
            dod.setdefault(f, {})[k] = _QQ_ONE
        red_rows = _dm_rows(red.dm)
        for r_idx, p in enumerate(pivots):
            row = red_rows.get(r_idx, {})
            out = {}
            for j, val in row.items():
                k = free_index.get(j)
                if k is not None:
                    out[k] = -val
            if out:
                dod[p] = out
        dm = DomainMatrix(dod, (self.cols, len(free)), QQ)
        return RatMatrix._make(self.cols, len(free), dm,
                               unit_rows=tuple(free))

    def image_basis(self) -> "RatMatrix":
        """Canonical basis of the column space, one column per pivot.

        Computed as the reduced row echelon form of the transpose, read back
        as columns; the pivot positions become unit rows of the result.
        """
        red_t, pivots_t = self.transpose().rref()
        red_rows = _dm_rows(red_t.dm)
        dod: dict[int, dict[int, object]] = {}
        for k in range(len(pivots_t)):
            for j, val in red_rows.get(k, {}).items():
                dod.setdefault(j, {})[k] = val
        dm = DomainMatrix(dod, (self.rows, len(pivots_t)), QQ)
        return RatMatrix._make(self.rows, len(pivots_t), dm,
                               unit_rows=tuple(pivots_t))

    def det(self) -> Fraction:
        assert self.rows == self.cols, "determinant requires a square matrix"
        if self.rows == 0:
            return _ONE
        return _qq_to_frac(self.dm.det())

    def unit_rows(self):
        """Row set on which the columns restrict to an identity, if one exists.

        Returns a tuple J with self[J[k], k] == 1 and row J[k] zero elsewhere,
        or None when no such rows exist.  Kernel and image bases carry this
        structure by construction.
        """
        if self._unit_rows is False:
            found: dict[int, int] = {}
            for i, row in self._sparse_rows().items():
                if len(row) == 1:
                    (j, v), = row.items()
                    if v == _QQ_ONE and (j not in found or i < found[j]):
                        found[j] = i
            if len(found) == self.cols:
                self._unit_rows = tuple(found[j] for j in range(self.cols))
            else:
                self._unit_rows = None
        return self._unit_rows


def rank(matrix: RatMatrix) -> int:
    """Rank over the rationals (exact)."""
    return matrix.rank()


def kernel_basis(matrix: RatMatrix) -> RatMatrix:
    """Canonical right-null-space basis; matrix @ result == 0 exactly."""
    return matrix.kernel_basis()


def image_basis(matrix: RatMatrix) -> RatMatrix:
    """Canonical column-space basis with rank(matrix) columns."""
    return matrix.image_basis()


def solve_membership(span: RatMatrix, vector):
    """Coefficients expressing vector in the column span, or None.

    The returned tuple x (length span.cols) satisfies span @ x == vector
    exactly; absence of a solution returns None.  A length mismatch between
    vector and span.rows is a contract violation, not a math result.
    """
    vec = tuple(_to_frac(x) for x in vector)
    assert len(vec) == span.rows, (
        f"dimension mismatch: vector of length {len(vec)} against "
        f"{span.rows} rows")
    unit = span.unit_rows()
    if unit is not None:
        x = tuple(vec[i] for i in unit)
        return x if span.mul_vector(x) == vec else None
    if span.cols == 0:
        return () if all(v == 0 for v in vec) else None
    aug = span.hstack(RatMatrix.from_columns(span.rows, [vec]))
    red, pivots = aug.rref()
    if span.cols in pivots:
        return None
    coeffs = [_ZERO] * span.cols
    red_rows = _dm_rows(red.dm)
    for k, p in enumerate(pivots):
        val = red_rows.get(k, {}).get(span.cols)
        if val is not None:
            coeffs[p] = _qq_to_frac(val)
    return tuple(coeffs)
