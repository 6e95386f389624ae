"""Exact linear algebra over arbitrary-precision rationals.

The public type is :class:`RatMatrix`, an immutable matrix of exact
rationals: build (from triplets, zeros, identity), multiply, select rows,
read an entry, compare, and eliminate (RREF, rank, kernel basis).
``from_columns`` and :func:`solve_membership` (membership in a column span)
serve the tests and ``perfbench/tracing.py``; no check calls them.  The 0/1
operators of ``fsfilt`` pass their row dicts to ``RatMatrix._make``.  All of
it is exact; no floating point appears anywhere.

A matrix stores its nonzero entries as {row: {col: value}}, a value being an
``int`` when integral and a ``fractions.Fraction`` otherwise (constructors
and elimination normalise; a matrix product of Fractions may leave an
integral Fraction, which compares and hashes like its int).  Floats are
refused.  Every operation, the product included, reads and builds these
row dicts directly.

Elimination is exact Gauss--Jordan (:func:`_gauss_jordan`) through one
incremental echelon (:class:`_Echelon`), the one elimination loop of the
package.  Rows are fed forward: each new row is cleared of the stored
pivots and stored under its least column, scaled to pivot 1, with no other
row touched.  :meth:`_Echelon.finish` back-substitutes on demand, and the
stored rows are then the reduced row echelon form.  ``_gauss_jordan`` feeds
every row, by descending first column, and finishes once; the closure
generator search in ``fsfilt`` feeds the coordinates of its orbit vectors
and finishes before each pick.  On the 0/1 operators the package eliminates
the loop runs on ints, divides only at a pivot other than 1 or -1, whose
row becomes Fractions, and stores an integral value as an int.  Nothing is
rounded, and reduced row echelon form is unique, so the result is the
matrix sympy's Gauss--Jordan over QQ gives, in any row order, at a
fraction of the cost: the operators this package builds are integer
matrices whose RREF entries are small integers, and Python ints skip the
gcd that every rational operation pays.  On theta(4, 7), 840 x 8400, the
RREF takes 0.25 s against 1.8 s over QQ (sympy 1.14 with pure-Python QQ,
one core of a 2-core x86-64 host).  Every derived object (kernel basis,
solution coefficients) is canonical and deterministic whichever exact
method computes it.

Matrices with the same set of nonzero rows span the same row space and so
have the same nonzero RREF rows and pivots, and the same kernel basis.
Results are therefore shared by row content: a matrix whose row set was
already eliminated (for example a row permutation of it, or a copy with
repeated rows) reuses that elimination, padded with zero rows to its own
row count, and the kernel basis computed from it.  The shared table is
keyed by the column count and a hash of the row set; the first matrix's
own row dicts are kept as the witness, and a hit is compared with them
exactly.  The augmented matrix that :func:`solve_membership` eliminates is
a one-off and is not kept.

Kernel bases are produced in free-column echelon form: there is a set of
rows (the "unit rows") on which the basis columns restrict to an identity
matrix.  Unit rows are set by ``identity``, ``zeros`` (empty, with no
columns) and ``kernel_basis``, and are otherwise ``None``.  Downstream code
uses that structure to compute traces of group actions restricted to a
stable subspace in time linear in the rank.
The checks test membership in a kernel through the operator itself (``v``
lies in the kernel of ``A`` exactly when ``A @ v`` is zero); the general
test :func:`solve_membership` eliminates the augmented matrix
``[span | vector]``.
"""
from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush

_ZERO = Fraction(0)


def _exact(x):
    """An exact rational as an int when integral, else a Fraction; no floats
    and no bools."""
    if type(x) is int:
        return x
    if isinstance(x, (bool, float)):
        raise TypeError(f"not an exact rational: {x!r}")
    f = x if isinstance(x, Fraction) else Fraction(x)
    return f.numerator if f.denominator == 1 else f


def _shape(*sizes) -> None:
    """Refuse a matrix shape that is not nonnegative ints: TypeError for any
    other type (a float or a bool), ValueError below 0."""
    for n in sizes:
        if type(n) is not int:
            raise TypeError(f"a matrix shape is ints, not {n!r}")
        if n < 0:
            raise ValueError(f"negative shape: {n}")


class _Echelon:
    """A sparse row echelon form of the rows fed so far, reduced on demand.

    ``rows`` maps each pivot column to its row {col: int or Fraction}: the
    pivot is the row's least column, with entry 1, and the row is zero on
    every pivot stored before it.  A row is fed in two steps: :meth:`reduce`
    clears every stored pivot from it, and :meth:`store` scales a nonzero
    remainder to pivot 1 under its least column and touches no other row.
    :meth:`finish` back-substitutes, after which every stored row is zero
    on every other pivot: the rows are then the reduced row echelon form,
    in which a row is its pivot alone exactly when the pivot's unit vector
    lies in the span.

    Sound because:

    * a stored row's columns all lie at or after its pivot, so clearing the
      pivots of a new row in increasing column order only brings in later
      columns, and each pivot it meets is cleared once;
    * reducing adds multiples of stored rows to the new row, storing scales
      it, and back-substitution adds multiples of rows with later pivots to
      rows with earlier ones, so the span is the span of the rows fed in;
    * every operation is exact: ints and Fractions mix without rounding,
      and a stored value is an int whenever it is integral;
    * the RREF of a row space is unique, so whatever order the rows come
      in, and wherever :meth:`finish` is called among the feeds, the rows
      after it are those of sympy's Gauss--Jordan over QQ on the same rows.
    """

    __slots__ = ("rows", "fresh")

    def __init__(self):
        self.rows: dict[int, dict[int, object]] = {}
        self.fresh = set()  # pivots stored since the last finish

    def reduce(self, row: dict) -> dict:
        """A new dict: row minus the combination of stored rows that clears
        every pivot from it.  It is empty when row lies in the span."""
        rows = self.rows
        Ai = dict(row)
        # The pivots met so far; a stored row brings in later columns only.
        heap = [j for j in Ai if j in rows]
        heapify(heap)
        while heap:
            j = heappop(heap)
            Aij = Ai.get(j)
            if Aij is None:  # met twice, and cleared at the first
                continue
            # Row j holds j itself, so this clears column j too.
            for k, v in rows[j].items():
                Aik = Ai.get(k)
                if Aik is None:
                    Ai[k] = -Aij * v
                    if k in rows:
                        heappush(heap, k)
                elif Aik := Aik - Aij * v:
                    Ai[k] = Aik
                else:
                    del Ai[k]
        return Ai

    def store(self, Ai: dict) -> None:
        """Store a nonzero remainder of :meth:`reduce` under its least
        column, scaled to pivot 1; Ai itself becomes the row."""
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
        self.rows[j] = Ai
        self.fresh.add(j)

    def finish(self) -> None:
        """Back-substitute: clear from every stored row the pivots stored
        since the last call, from the last pivot down.

        A row stored before the last call is zero on the pivots it knew,
        and a row stored since on the pivots stored before it, so in both
        only the new pivots remain to clear.  Taken from the last pivot
        down, the row of each such pivot is already reduced, and clearing
        it brings in no pivot.
        """
        fresh, rows = self.fresh, self.rows
        if not fresh:
            return
        last = max(fresh)
        for p in sorted(rows, reverse=True):
            Ap = rows[p]
            if p >= last or len(Ap) == 1:
                continue
            new = Ap.keys() & fresh
            new.discard(p)
            for q in new:
                Apq = Ap[q]
                # Row q holds q itself, so this clears column q too.  An
                # integral Fraction is stored as its int, as in store().
                for l, v in rows[q].items():
                    Apl = Ap.get(l)
                    if Apl is None:
                        Apl = -Apq * v
                    elif not (Apl := Apl - Apq * v):
                        del Ap[l]
                        continue
                    Ap[l] = (Apl if type(Apl) is int or Apl.denominator != 1
                             else Apl.numerator)
        fresh.clear()


def _gauss_jordan(sparse_rows: dict) -> tuple[dict, tuple[int, ...]]:
    """Nonzero RREF rows {row: {col: int or Fraction}} and pivot columns.

    The nonzero rows are fed as they are to an :class:`_Echelon` by
    descending first nonzero column, and :meth:`_Echelon.finish` runs once
    at the end.  ``sparse_rows``, a {row: {col: value}} mapping, and its
    row dicts are not modified: :meth:`_Echelon.reduce` builds a new dict.
    """
    rows = sorted(filter(None, sparse_rows.values()), key=min)
    echelon = _Echelon()
    while rows:
        if remainder := echelon.reduce(rows.pop()):
            echelon.store(remainder)
    echelon.finish()
    pivots = tuple(sorted(echelon.rows))
    # Fresh dicts without the slack that finish() leaves in updated rows:
    # the result is kept for the life of the process (_RREF_BY_ROWS).
    return {i: dict(echelon.rows[p]) for i, p in enumerate(pivots)}, pivots


def _row_set(sparse_rows: dict) -> frozenset:
    """The set of nonzero rows, each as a frozenset of its items."""
    return frozenset(frozenset(row.items())
                     for row in sparse_rows.values() if row)


class _Elimination:
    """The elimination of one row set: ``witness`` is the {row: {col:
    value}} dict of the first matrix eliminated, ``rows`` and ``pivots``
    the nonzero RREF rows and pivots, and ``kernel`` the kernel basis once
    a matrix has asked for it."""

    __slots__ = ("witness", "rows", "pivots", "kernel")

    def __init__(self, witness: dict):
        self.witness = witness
        self.rows, self.pivots = _gauss_jordan(witness)
        self.kernel = None


# One _Elimination per row set, keyed by (cols, hash of the row set): equal
# row sets span equal row spaces, whose RREF is unique.  A hit is compared
# with its witness exactly.  Like the functools caches on the operators,
# whose row dicts are the witnesses, it lives as long as the process.
_RREF_BY_ROWS: dict[tuple[int, int], _Elimination] = {}


class RatMatrix:
    """Immutable matrix of exact rationals, stored sparsely.

    The nonzero rows are a plain dict {row: {col: int or Fraction}}, read
    through :meth:`_sparse_rows`.  Row dicts are shared between matrices and
    never modified.
    """

    __slots__ = ("rows", "cols", "_dod", "_rref", "_elimination",
                 "_unit_rows")

    @classmethod
    def _make(cls, rows: int, cols: int, dod: dict,
              unit_rows=None) -> "RatMatrix":
        """The rows x cols matrix whose nonzero rows are dod (not copied)."""
        self = object.__new__(cls)
        self.rows, self.cols, self._dod = rows, cols, dod
        self._rref = self._elimination = None
        self._unit_rows = unit_rows
        return self

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        _shape(rows, cols)
        return cls._make(rows, cols, {}, unit_rows=None if cols else ())

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        _shape(n)
        return cls._make(n, n, {i: {i: 1} for i in range(n)},
                         unit_rows=tuple(range(n)))

    @classmethod
    def from_columns(cls, rows: int, columns) -> "RatMatrix":
        """Matrix whose j-th column is columns[j] (each of length rows)."""
        _shape(rows)
        dod: dict[int, dict[int, object]] = {}
        columns = list(columns)
        for j, col in enumerate(columns):
            col = list(col)
            if len(col) != rows:
                raise ValueError("column length mismatch")
            for i, x in enumerate(col):
                if q := _exact(x):
                    dod.setdefault(i, {})[j] = q
        return cls._make(rows, len(columns), dod)

    @classmethod
    def from_triplets(cls, rows: int, cols: int, triplets) -> "RatMatrix":
        """Matrix from (row, col, value) triplets; duplicate cells accumulate."""
        _shape(rows, cols)
        dod: dict[int, dict[int, object]] = {}
        for i, j, v in triplets:
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(
                    f"triplet ({i}, {j}) outside a {rows}x{cols} matrix")
            q = v if type(v) is int else _exact(v)
            row = dod.setdefault(i, {})
            got = row.get(j)
            row[j] = q if got is None else _exact(got + q)
        for i, row in list(dod.items()):
            dead = [j for j, v in row.items() if not v]
            for j in dead:
                del row[j]
            if not row:
                del dod[i]
        return cls._make(rows, cols, dod)

    # -- reading entries ------------------------------------------------

    def _sparse_rows(self) -> dict[int, dict[int, object]]:
        """Nonzero entries as {row: {col: int or Fraction}} (read-only)."""
        return self._dod

    @property
    def dm(self):
        """The rows as a sympy ``DomainMatrix`` under a nominal QQ tag."""
        # Only perfbench/tracing.py reads this view (``dm.rep.to_sdm()``).
        from sympy.polys.domains import QQ
        from sympy.polys.matrices import DomainMatrix
        return DomainMatrix(dict(self._dod), (self.rows, self.cols), QQ)

    def entry(self, i: int, j: int) -> Fraction:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise ValueError(f"entry ({i}, {j}) outside a "
                             f"{self.rows}x{self.cols} matrix")
        v = self._sparse_rows().get(i, {}).get(j)
        return _ZERO if v is None else Fraction(v)

    def select_rows(self, indices) -> "RatMatrix":
        """Matrix formed by rows indices[0], indices[1], ... of self."""
        indices = tuple(indices)
        if not all(0 <= i < self.rows for i in indices):
            raise ValueError("row index out of range")
        sparse = self._sparse_rows()
        return RatMatrix._make(len(indices), self.cols, {
            k: sparse[i] for k, i in enumerate(indices) if i in sparse})

    # -- algebra ---------------------------------------------------------

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if not (isinstance(other, RatMatrix) and self.cols == other.rows):
            raise ValueError("shape mismatch in product")
        # Row i of the product is the sum of A[i, k] * (row k of B) over the
        # k that are nonzero in both; a sum that reaches zero is dropped.
        # The loop is sympy's sparse ``sdm_matmul``.
        B = other._dod
        B_knz = set(B)
        C = {}
        for i, Ai in self._dod.items():
            Ci = {}
            for k in set(Ai) & B_knz:
                Aik = Ai[k]
                for j, Bkj in B[k].items():
                    if j not in Ci:
                        Ci[j] = Aik * Bkj
                    elif Cij := Ci[j] + Aik * Bkj:
                        Ci[j] = Cij
                    else:
                        del Ci[j]
            if Ci:
                C[i] = Ci
        return RatMatrix._make(self.rows, other.cols, C)

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
            sparse = self._sparse_rows()
            row_set = _row_set(sparse)
            key = (self.cols, hash(row_set))
            shared = _RREF_BY_ROWS.get(key)
            if shared is None:
                shared = _RREF_BY_ROWS[key] = _Elimination(sparse)
            elif shared.witness is not sparse and (
                    row_set != _row_set(shared.witness)):
                shared = _Elimination(sparse)  # a hash collision: not kept
            self._elimination = shared
            self._rref = (RatMatrix._make(self.rows, self.cols, shared.rows),
                          shared.pivots)
        return self._rref

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> "RatMatrix":
        """Canonical basis of the right null space, one column per free column.

        The result K satisfies self @ K == 0 exactly, has cols - rank columns,
        and restricts to the identity on the free-column rows (ascending), so
        K.unit_rows() is exactly the free column set.  It depends only on
        the row set and the column count, so every matrix that shares the
        RREF shares one K.
        """
        self.rref()
        shared = self._elimination
        if shared.kernel is None:
            pivot_set = set(shared.pivots)
            free = [j for j in range(self.cols) if j not in pivot_set]
            free_index = {f: k for k, f in enumerate(free)}
            dod: dict[int, dict[int, object]] = {f: {k: 1}
                                                 for k, f in enumerate(free)}
            for r_idx, p in enumerate(shared.pivots):
                out = {}
                for j, val in shared.rows[r_idx].items():
                    k = free_index.get(j)
                    if k is not None:
                        out[k] = -val
                if out:
                    dod[p] = out
            shared.kernel = RatMatrix._make(self.cols, len(free), dod,
                                            unit_rows=tuple(free))
        return shared.kernel

    def unit_rows(self):
        """The tuple J with self[J[k], k] == 1 and row J[k] zero elsewhere,
        as its maker set it, or None."""
        return self._unit_rows


def solve_membership(span: RatMatrix, vector):
    """Coefficients expressing vector in the column span, or None.

    The returned tuple x (length span.cols) satisfies span @ x == vector
    exactly; absence of a solution returns None.  A length mismatch between
    vector and span.rows is a contract violation (``ValueError``), not a math
    result.
    """
    vector = list(vector)
    if len(vector) != span.rows:
        raise ValueError(f"dimension mismatch: vector of length "
                         f"{len(vector)} against {span.rows} rows")
    target = {i: q for i, x in enumerate(vector) if (q := _exact(x))}
    # The augmented rows [span | vector].  A one-off elimination: sharing it
    # would keep one entry per vector.
    augmented = {i: dict(row) for i, row in span._sparse_rows().items()}
    for i, x in target.items():
        augmented.setdefault(i, {})[span.cols] = x
    red_rows, pivots = _gauss_jordan(augmented)
    if span.cols in pivots:
        return None
    coeffs = [_ZERO] * span.cols
    for k, p in enumerate(pivots):
        coeffs[p] = Fraction(red_rows[k].get(span.cols, 0))
    return tuple(coeffs)
