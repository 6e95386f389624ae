"""Symmetric-group character theory and decomposition into irreducibles.

Irreducible characters come from the Murnaghan-Nakayama recursion on
beta-numbers.  Representations enter only through their characters (ints
where integral, else Fractions; never floats): one group's as a
:class:`ClassFunction`, two-sided actions' as :class:`BiClassFunction`.
Decomposition goes through exact character inner products in one routine,
:func:`bidecompose_character` (a one-group character is the bicharacter
whose left group is S_0), and the multiplicities are validated (integral,
nonnegative, dimensions adding up) before anything is returned -- a
violation raises :class:`InternalConsistencyError` rather than producing a
wrong answer.

Formal integer combinations of irreducibles live in :class:`SchurClass`
(one group) and :class:`BiSchurClass` (ordered pairs, left/covariant factor
first); their constructors validate every key and coefficient, and sums,
products and decompositions are built from keys already valid.  The
juxtaposition product is :func:`convolution_class`: Pieri rules for a row
or column factor, else the exact induced-character oracle, once per pair
of irreducibles.  All caches are module-level functools caches; external
behavior is that of pure functions.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from itertools import product as iproduct
from math import comb, factorial, lcm, prod
from operator import mul

from .partitions import (
    CycleType,
    Partition,
    assert_partition,
    class_size,
    _positions,
    conjugate,
    irrep_dimension,
    partition_index,
    partitions_of,
    weight,
)
from .ratlinalg import _exact


class InternalConsistencyError(Exception):
    """A structural invariant failed; the offending object is corrupted."""


# --------------------------------------------------------------- permutations


def adjacent_transposition(n: int, t: int) -> bytes:
    """The permutation of degree n exchanging t and t+1, as a value string.

    Like the degree, t must be an int and not a bool."""
    if type(t) is not int:
        raise TypeError(f"transposition index must be an int: {t!r}")
    if not 1 <= t < _degree(n):
        raise ValueError("transposition index must satisfy 1 <= t < n")
    vals = bytearray(range(1, n + 1))
    vals[t - 1], vals[t] = vals[t], vals[t - 1]
    return bytes(vals)


def class_representative(mu: CycleType) -> bytes:
    """Value string of a permutation of cycle type mu: consecutive blocks
    cycle.  As for every map, the k-th byte is the image of k + 1."""
    assert_partition(mu)
    vals = bytearray()
    start = 1
    for part in mu:
        vals.extend(range(start + 1, start + part))
        vals.append(start)
        start += part
    return bytes(vals)


def symmetric_generators(n: int) -> tuple[bytes, ...]:
    """Two permutations generating S_n: (1 2) and the n-cycle (1 2 ... n).

    Both are value strings.  Conjugating (1 2) by powers of the cycle gives
    every adjacent transposition (k k+1), and those generate S_n.  At n = 2
    the cycle is (1 2) itself, so there is one generator, and below 2 none.
    """
    if _degree(n) < 2:
        return ()
    swap = adjacent_transposition(n, 1)
    return (swap,) if n == 2 else (swap, class_representative((n,)))


# ----------------------------------------------------------------- characters


def mn_character(lam: Partition, mu: CycleType) -> int:
    """Irreducible character value chi_lam(mu) for lam, mu of equal weight.

    Murnaghan-Nakayama recursion on beta-numbers: peel a border strip of
    length mu[0] (move one beta-number down by mu[0]), with sign given by
    the number of beta-numbers jumped over.
    """
    assert_partition(lam)
    assert_partition(mu)
    if weight(lam) != weight(mu):
        raise ValueError("character arguments must have equal weight")
    return _mn_character(lam, mu)


@cache
def _mn_character(lam: Partition, mu: CycleType) -> int:
    """:func:`mn_character` of two partitions of equal weight, unvalidated."""
    if not mu:
        return 1
    strip, rest = mu[0], mu[1:]
    k = len(lam)
    betas = [lam[i] + (k - 1 - i) for i in range(k)]
    beta_set = set(betas)
    total = 0
    for b in betas:
        nb = b - strip
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for x in betas if nb < x < b)
        new_betas = sorted((beta_set - {b}) | {nb}, reverse=True)
        newlam = tuple(p for i, p in
                       ((i, new_betas[i] - (k - 1 - i)) for i in range(k))
                       if p > 0)
        total += (-1) ** height * _mn_character(newlam, rest)
    return total


@lru_cache(maxsize=None, typed=True)
def character_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Row per irreducible, column per class, both in canonical partition order."""
    parts = partitions_of(n)
    return tuple(tuple(mn_character(lam, mu) for mu in parts) for lam in parts)


@dataclass(frozen=True)
class ClassFunction:
    """Rational class function on the symmetric group of the given degree.

    values[i] is the value on the class whose cycle type is
    partitions_of(degree)[i], an int when integral and else a Fraction.
    """

    degree: int
    values: tuple[int | Fraction, ...]

    def __post_init__(self):
        _degree(self.degree)
        object.__setattr__(self, "values", tuple(map(_exact, self.values)))
        if len(self.values) != len(partitions_of(self.degree)):
            raise ValueError("one value per cycle type required")

    def __call__(self, mu: CycleType) -> int | Fraction:
        """The value on cycle type mu: ValueError unless mu is a partition
        of the degree."""
        index = partition_index(mu)
        if weight(mu) != self.degree:
            raise ValueError(f"cycle type {mu!r} is not of degree "
                             f"{self.degree}")
        return self.values[index]


@dataclass(frozen=True)
class BiClassFunction:
    """Rational function of a pair of classes, one from each of two groups.

    values[i][j] is the value at (left class i, right class j) in canonical
    partition order for the respective degrees, stored as by ClassFunction.
    """

    left_degree: int
    right_degree: int
    values: tuple[tuple[int | Fraction, ...], ...]

    def __post_init__(self):
        _degree(self.left_degree)
        _degree(self.right_degree)
        object.__setattr__(self, "values", tuple(
            tuple(map(_exact, row)) for row in self.values))
        if len(self.values) != len(partitions_of(self.left_degree)) or any(
                len(row) != len(partitions_of(self.right_degree))
                for row in self.values):
            raise ValueError("one value per pair of cycle types required")


# ---------------------------------------------------------------- formal sums


def _coefficient(c) -> int:
    """An int coefficient: ValueError if not integral, TypeError if bool or
    float."""
    if type(c) is int:
        return c
    if isinstance(c, bool):
        raise TypeError(f"a bool is not a coefficient: {c!r}")
    if int(c) != c:
        raise ValueError(f"coefficients must be integers: {c!r}")
    if isinstance(c, float):
        raise TypeError(f"floating point is not allowed: {c!r}")
    return int(c)


class _FormalSum:
    """Integer formal sum of keys, zero coefficients pruned.

    Terms are kept in the canonical order of ``_sort_key``; the sum is
    immutable and hashable, and equals only a sum of the same class.  A
    subclass supplies the key validation (``_key``), the sort key, the
    dimension of one key and the JSON shape of one key (``_key_json``).
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        acc: dict = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for key, c in items:
            key = self._key(key)
            acc[key] = acc.get(key, 0) + _coefficient(c)
        self._terms = self._trusted(acc)._terms

    @classmethod
    def _trusted(cls, acc: dict):
        """The sum of ``{key: int}`` whose keys this module knows are valid."""
        out = cls.__new__(cls)
        out._terms = tuple(sorted(((key, c) for key, c in acc.items() if c),
                                  key=lambda kc: cls._sort_key(kc[0])))
        return out

    @property
    def terms(self) -> tuple:
        return self._terms

    def coefficient(self, key) -> int:
        for k, c in self._terms:
            if k == key:
                return c
        return 0

    def is_zero(self) -> bool:
        return not self._terms

    def total_dimension(self) -> int:
        """Sum of coefficient * dimension of the key over all terms."""
        return sum(c * self._dimension(key) for key, c in self._terms)

    def scale(self, c: int):
        c = _coefficient(c)
        return self._trusted({key: k * c for key, k in self._terms})

    def __add__(self, other):
        if type(other) is not type(self):
            raise ValueError("cannot add formal sums of different kinds")
        acc = dict(self._terms)
        for key, c in other._terms:
            acc[key] = acc.get(key, 0) + c
        return self._trusted(acc)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._terms == other._terms

    def __hash__(self):
        return hash(self._terms)

    def __repr__(self) -> str:
        terms = " + ".join(f"{c}*{key}" for key, c in self._terms) or "0"
        return f"{type(self).__name__}({terms})"

    def to_json(self) -> list:
        """JSON-ready list of the terms in canonical order."""
        return [dict(self._key_json(key), coefficient=c)
                for key, c in self._terms]


class SchurClass(_FormalSum):
    """Integer formal sum of partitions, zero coefficients pruned.

    Terms are kept in canonical order (by weight, then by position within
    partitions_of); the class is immutable and hashable.  ``to_json`` gives
    a list of {partition, coefficient}.
    """

    __slots__ = ()

    @staticmethod
    def _key(lam: Partition) -> Partition:
        assert_partition(lam)
        return lam

    @staticmethod
    def _sort_key(lam: Partition):
        w = weight(lam)
        return w, _positions(w)[lam]

    _dimension = staticmethod(irrep_dimension)

    @staticmethod
    def _key_json(lam: Partition) -> dict:
        return {"partition": list(lam)}


class BiSchurClass(_FormalSum):
    """Integer formal sum of ordered partition pairs (left, right).

    The left coordinate is the covariant factor, the right coordinate the
    contravariant one; terms are canonically ordered by (left weight, left
    index, right weight, right index).  ``to_json`` gives a list of {left,
    right, coefficient}.
    """

    __slots__ = ()

    @staticmethod
    def _key(pair) -> tuple[Partition, Partition]:
        lam, mu = pair
        assert_partition(lam)
        assert_partition(mu)
        return lam, mu

    @staticmethod
    def _sort_key(pair):
        return SchurClass._sort_key(pair[0]) + SchurClass._sort_key(pair[1])

    @staticmethod
    def _dimension(pair) -> int:
        return irrep_dimension(pair[0]) * irrep_dimension(pair[1])

    @staticmethod
    def _key_json(pair) -> dict:
        return {"left": list(pair[0]), "right": list(pair[1])}

    def coefficient(self, lam: Partition, mu: Partition) -> int:
        return super().coefficient((lam, mu))


def boxtimes(x: SchurClass, y: SchurClass) -> BiSchurClass:
    """External product: bilinear pairing of terms into ordered pairs."""
    if type(x) is not SchurClass or type(y) is not SchurClass:
        raise ValueError("boxtimes pairs two SchurClass values")
    return BiSchurClass._trusted({(lam, mu): cx * cy for lam, cx in x.terms
                                  for mu, cy in y.terms})


def _degree(n) -> int:
    """n, if it is a nonnegative int: TypeError for any other type (a float
    or a bool), ValueError if negative."""
    if type(n) is not int:
        raise TypeError(f"degree must be an int: {n!r}")
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return n


# typed: a float or bool degree misses the cache, and is refused.
@lru_cache(maxsize=None, typed=True)
def trivial_class(n: int) -> SchurClass:
    """Class of the trivial representation: the single-row partition (n)."""
    n = _degree(n)
    return SchurClass({(n,) if n else (): 1})


@lru_cache(maxsize=None, typed=True)
def sign_class(n: int) -> SchurClass:
    """Class of the sign representation: the single-column partition (1^n)."""
    return SchurClass({(1,) * _degree(n): 1})


# -------------------------------------------------------------- decomposition


def decompose_character(chi: ClassFunction) -> SchurClass:
    """Multiplicities of irreducibles in a genuine character.

    Decomposed as the bicharacter of S_0 x S_n, whose left group has one
    class and one irreducible, so :func:`bidecompose_character` does the
    validation: a multiplicity that is not a nonnegative integer, or
    dimensions that do not add up to the character's value at the identity,
    mean the input was not the character of an actual representation and
    raise InternalConsistencyError.
    """
    pairs = bidecompose_character(
        BiClassFunction(0, chi.degree, (chi.values,)))
    return SchurClass._trusted({right: c for (_, right), c in pairs.terms})


@cache
def _weighted_character_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Character table with each column scaled by its class size."""
    sizes = [class_size(mu) for mu in partitions_of(n)]
    return tuple(tuple(s * v for s, v in zip(sizes, row))
                 for row in character_table(n))


@cache
def _dimensions(n: int) -> tuple[int, ...]:
    """Irreducible dimensions of degree n, in partitions_of order."""
    return tuple(map(irrep_dimension, partitions_of(n)))


def bidecompose_character(chi: BiClassFunction) -> BiSchurClass:
    """Multiplicities of external products of irreducibles in a bicharacter.

    The multiplicity of lam x nu is sum_{i,j} |C_i| chi_lam(i) |C_j|
    chi_nu(j) chi(i, j) / (a! b!).  It is computed in integers: the values
    are scaled by the lcm L of their denominators (1 for every genuine
    character), contracted with the class-weighted right table and then
    with the left one, and each sum is divided by a! b! L at the end.
    """
    a, b = chi.left_degree, chi.right_degree
    parts_a, parts_b = partitions_of(a), partitions_of(b)
    scale = lcm(*(v.denominator for row in chi.values for v in row))
    rows = [[v.numerator * (scale // v.denominator) for v in row]
            for row in chi.values]
    # half[i][ri]: row i contracted with the weighted character of nu_ri.
    half = [[sum(map(mul, weights, row))
             for weights in _weighted_character_table(b)]
            for row in rows]
    order = factorial(a) * factorial(b) * scale
    dims_a, dims_b = _dimensions(a), _dimensions(b)
    mults: dict[tuple[Partition, Partition], int] = {}
    total = 0
    for li, (lam, weights) in enumerate(
            zip(parts_a, _weighted_character_table(a))):
        for ri, nu in enumerate(parts_b):
            acc = sum(w * h[ri] for w, h in zip(weights, half))
            mult, rem = divmod(acc, order)
            if rem or mult < 0:
                raise InternalConsistencyError(
                    f"multiplicity of {(lam, nu)} is {Fraction(acc, order)}, "
                    "not a nonnegative integer")
            if mult:
                mults[(lam, nu)] = mult
                total += mult * dims_a[li] * dims_b[ri]
    # The identity class (1^n) is the last in partitions_of(n).
    if total != chi.values[-1][-1]:
        raise InternalConsistencyError("dimension bookkeeping failed")
    return BiSchurClass._trusted(mults)


# ------------------------------------------------------- products of classes


def pieri_h(lam: Partition, n: int) -> SchurClass:
    """All partitions adding n boxes to lam, no two in the same column."""
    assert_partition(lam)
    n = _degree(n)
    rows = list(lam) + [0]
    found = []

    def place(i: int, budget: int, built: list[int]) -> None:
        if i == len(rows):
            if budget == 0:
                found.append(tuple(p for p in built if p))
            return
        low = rows[i]
        high = low + budget
        if i >= 1:
            high = min(high, rows[i - 1])
        for m in range(low, high + 1):
            place(i + 1, budget - (m - low), built + [m])

    place(0, n, [])
    return SchurClass((mu, 1) for mu in found)


def pieri_e(lam: Partition, t: int) -> SchurClass:
    """All partitions adding t boxes to lam, no two in the same row.

    Computed by conjugating the no-two-in-a-column rule: transpose, add a
    horizontal strip, transpose back.
    """
    assert_partition(lam)
    t = _degree(t)
    return SchurClass((conjugate(mu), c)
                      for mu, c in pieri_h(conjugate(lam), t).terms)


def _induced_product(lam: Partition, mu: Partition) -> SchurClass:
    """Product of two irreducibles via the exact induced character.

    The induced character value at a class nu of the full group is a sum
    over the ways of splitting the cycle multiset of nu between the two
    factors; the multinomial factor counts which copies of each cycle
    length go left.  Decomposing that character gives the multiplicities
    (the Littlewood-Richardson numbers), fully validated.
    """
    p, q = weight(lam), weight(mu)
    n = p + q
    values = []
    for nu in partitions_of(n):
        sizes = sorted(set(nu), reverse=True)
        counts = [nu.count(s) for s in sizes]
        total = 0
        for ks in iproduct(*[range(c + 1) for c in counts]):
            if sum(k * s for k, s in zip(ks, sizes)) != p:
                continue
            ways = prod(comb(c, k) for c, k in zip(counts, ks))
            nu1 = tuple(s for s, k in zip(sizes, ks) for _ in range(k))
            nu2 = tuple(s for s, k, c in zip(sizes, ks, counts)
                        for _ in range(c - k))
            total += ways * _mn_character(lam, nu1) * _mn_character(mu, nu2)
        values.append(total)
    out = decompose_character(ClassFunction(n, tuple(values)))
    if out.total_dimension() != comb(n, p) * irrep_dimension(lam) * \
            irrep_dimension(mu):
        raise InternalConsistencyError("induced dimension bookkeeping failed")
    return out


@cache
def _irreducible_product(lam: Partition, mu: Partition) -> SchurClass:
    """Product of two irreducibles: a Pieri rule or the induced character."""
    if len(lam) <= 1:
        return pieri_h(mu, weight(lam))
    if len(mu) <= 1:
        return pieri_h(lam, weight(mu))
    if all(part == 1 for part in lam):
        return pieri_e(mu, len(lam))
    if all(part == 1 for part in mu):
        return pieri_e(lam, len(mu))
    return _induced_product(lam, mu)


def convolution_class(x: SchurClass, y: SchurClass) -> SchurClass:
    """Bilinear product of classes; on irreducibles, the induction product.

    Single-row and single-column factors use the Pieri fast paths; the
    general case uses the induced-character oracle.  The empty partition is
    the unit.
    """
    if type(x) is not SchurClass or type(y) is not SchurClass:
        raise ValueError("convolution_class multiplies two SchurClass values")
    acc: dict[Partition, int] = {}
    for lam, cx in x.terms:
        for mu, cy in y.terms:
            for nu, c in _irreducible_product(lam, mu).terms:
                acc[nu] = acc.get(nu, 0) + cx * cy * c
    return SchurClass._trusted(acc)


def biconvolution_right(x: BiSchurClass, y: SchurClass) -> BiSchurClass:
    """Convolution applied in the right (contravariant) coordinate only."""
    if type(x) is not BiSchurClass or type(y) is not SchurClass:
        raise ValueError(
            "biconvolution_right multiplies a BiSchurClass by a SchurClass")
    acc: dict[tuple[Partition, Partition], int] = {}
    for (left, right), cx in x.terms:
        for nu, cy in y.terms:
            for out, c in _irreducible_product(right, nu).terms:
                key = (left, out)
                acc[key] = acc.get(key, 0) + cx * cy * c
    return BiSchurClass._trusted(acc)


def derham_check(n: int) -> bool:
    """Alternating sum of row-times-column products telescopes to zero.

    Checks sum over t of (-1)^t * (n-t) * (1^t) products vanishing, the
    exactness pattern of the algebraic de Rham complex in degree n.
    """
    if _degree(n) < 1:
        raise ValueError("the de Rham degree must be at least 1")
    total = SchurClass()
    for t in range(n + 1):
        term = convolution_class(trivial_class(n - t), sign_class(t))
        total = total + term.scale((-1) ** t)
    return total.is_zero()


def invert_identity_check(lam, window: int | None = None) -> bool:
    """Alternating trivial-then-sign convolutions recover a single class.

    For x the class of one irreducible, sums (-1)^t (x . triv_l) . sgn_t over
    all l, t with l + t <= window.  Every added degree d >= 1 receives its
    complete set of contributions within the window, and those cancel exactly
    (the same telescoping as derham_check), so the truncated double sum must
    equal x on the nose.  The default window keeps products within total
    weight 7 while always exercising at least two added degrees.
    """
    w = weight(lam)
    window = max(2, 5 - w) if window is None else _degree(window)
    x = SchurClass({lam: 1})
    total = SchurClass()
    for level in range(window + 1):
        lifted = convolution_class(x, trivial_class(level))
        for t in range(window - level + 1):
            term = convolution_class(lifted, sign_class(t))
            total = total + term.scale((-1) ** t)
    return total == x
