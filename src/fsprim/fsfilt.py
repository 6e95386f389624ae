"""Hom-space bimodules of finite-set maps and their restriction filtration.

This module linearizes hom-sets of maps between finite sets and studies three
interacting structures, all over exact rational arithmetic:

* **Two-sided symmetric-group actions.**  On the span of maps ``source ->
  target``, a permutation ``pi`` of the target acts on the left by
  post-composition, ``[f] -> [pi . f]``, and a permutation ``sigma`` of the
  source acts on the right by inverse pre-composition,
  ``[f] -> [f . sigma^{-1}]``.  Both are permutation actions on the canonical
  lexicographic basis and they commute.

* **The section-sum pairing** ``theta_matrix``: a surjection ``f`` is sent to
  the indicator sum of its sections inside the space of functionals on
  injections, which is the injection span ``target -> source`` with its
  sides exchanged.  At equal sizes this is the bijection-inversion
  permutation matrix; in general its kernel is a filtration level (see
  below) and its cokernel is an exact, computable sign-hook bimodule.

* **The restriction filtration.**  Level ``t`` of the span of surjections
  ``source -> target`` is the joint kernel of all restriction maps along
  injections from a set of size ``source - t - 1``; level 0 consists of the
  *primitive* vectors killed by every proper restriction.  The filtration is
  exhaustive, nested, stable under both group actions and under all
  restriction operators, and its subquotients decompose exactly at the
  character level.

The character of a whole hom-space is the closed-form count of the maps each
class pair fixes (:func:`hom_character`).  Characters of subspaces are
computed by restricted traces on canonical kernel bases (each such basis
restricts to an identity on its ``unit_rows``), and those of quotients and
of the pairing's cokernel as differences of such characters, so every
decomposition reported here is an exact integer statement, never a
numerical estimate.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, combinations, product, repeat
from math import comb
from operator import itemgetter
from typing import NamedTuple

from .finsetcat import HomClass, hom_character, hom_dimension, hom_values
from .partitions import partitions_of
from .ratlinalg import RatMatrix, _Echelon
from .repdecomp import (BiClassFunction, BiSchurClass, ClassFunction,
                        SchurClass, _degree, bidecompose_character, boxtimes,
                        class_representative, convolution_class,
                        biconvolution_right, sign_class,
                        symmetric_generators, trivial_class)

__all__ = [
    "HomModule", "hom_module",
    "filtration_level", "primitives",
    "level_bicharacter", "primitives_bidecompose", "full_fs_bidecompose",
    "subquotient_decompose",
    "theta_matrix", "theta_equivariance_check", "theta_kernel_level_check",
    "theta_rank_report", "sign_hook_class", "coker_theta_decompose",
    "coker_action_triviality",
    "lambda_bar_character",
    "sgn_vanishing_check",
    "closure_check", "automorphism_block_check",
    "filtration_nesting_check", "fi_stability_check",
    "IdentityCheck", "primfs_identity_check", "kring_identity_check",
    "subquotient_identity_check", "ses_identity_check",
]

_SURJ = HomClass.SURJECTION
_INJ = HomClass.INJECTION


# ------------------------------------------------------------- hom bimodules


class HomModule:
    """Permutation bimodule spanned by the maps source -> target of a flavor.

    ``basis`` holds the maps' value strings (see :func:`hom_values`) in
    canonical order and ``index`` sends a value string to its position; a
    string that is not a map of the flavor is absent.  A target permutation
    ``pi`` acts on the left by ``[f] -> [pi . f]``, which translates each
    byte of ``f``, and a source permutation ``sigma`` on the right by
    ``[f] -> [f . sigma^{-1}]``, which reorders its bytes.  A permutation is
    its value string too, and both actions run over the whole basis at once;
    they refuse an argument that is not ``bytes`` with ``TypeError``, and a
    value string that is not a permutation of its side's degree with
    ``ValueError``.  Matrices act on column vectors.
    Each side's generator permutations are those of (1 2) and the n-cycle
    (:func:`symmetric_generators`), two elements that generate S_n, so a
    statement checked on them holds for the whole group.  The character of
    the whole space is the closed-form fixed-map count of
    :func:`hom_character`, so it builds no permutation.
    """

    def __init__(self, flavor: HomClass, source_size: int, target_size: int):
        self.flavor = flavor
        self.left_degree = target_size
        self.right_degree = source_size
        self.basis = hom_values(flavor, source_size, target_size)
        self.dimension = len(self.basis)
        self.index = dict(zip(self.basis, range(self.dimension)))

    def left_perm(self, pi: bytes) -> tuple[int, ...]:
        """Basis permutation of the left action: i -> index of pi acting on i."""
        _require_permutation(pi, self.left_degree)
        table = bytes.maketrans(bytes(range(1, self.left_degree + 1)), pi)
        return tuple(map(self.index.__getitem__,
                         map(bytes.translate, self.basis, repeat(table))))

    def right_perm(self, sigma: bytes) -> tuple[int, ...]:
        _require_permutation(sigma, self.right_degree)
        if self.right_degree < 2:  # S_0 and S_1 are trivial
            return tuple(range(self.dimension))
        # Position k of f . sigma^{-1} reads f at sigma^{-1}(k).
        preimage = sorted(range(self.right_degree), key=sigma.__getitem__)
        return tuple(map(self.index.__getitem__,
                         map(bytes, map(itemgetter(*preimage), self.basis))))

    @cached_property
    def left_generator_perms(self) -> tuple[tuple[int, ...], ...]:
        """Left basis permutations of (1 2) and the target cycle."""
        return tuple(map(self.left_perm,
                         symmetric_generators(self.left_degree)))

    @cached_property
    def right_generator_perms(self) -> tuple[tuple[int, ...], ...]:
        """Right basis permutations of (1 2) and the source cycle."""
        return tuple(map(self.right_perm,
                         symmetric_generators(self.right_degree)))

    @cached_property
    def class_perms(self) -> tuple[tuple[tuple[int, ...], ...],
                                   tuple[tuple[int, ...], ...]]:
        """Left and right basis permutations of one representative per class.

        Only restricted traces on a subspace basis read them; the whole
        space's character is :meth:`bicharacter`.
        """
        return (tuple(self.left_perm(class_representative(mu))
                      for mu in partitions_of(self.left_degree)),
                tuple(self.right_perm(class_representative(mu))
                      for mu in partitions_of(self.right_degree)))

    def bicharacter(self) -> BiClassFunction:
        """Joint character: the fixed maps of each class pair, in closed form."""
        return BiClassFunction(self.left_degree, self.right_degree,
                               hom_character(self.flavor, self.right_degree,
                                             self.left_degree))

    def __repr__(self) -> str:
        return (f"HomModule({self.flavor.value}, left=S_{self.left_degree}, "
                f"right=S_{self.right_degree}, dim={self.dimension})")


def _require_permutation(g: bytes, degree: int) -> None:
    if not isinstance(g, bytes):
        raise TypeError(f"need a permutation value string: {g!r}")
    if sorted(g) != list(range(1, degree + 1)):
        raise ValueError(f"need a permutation of degree {degree}: {g!r}")


# Typed, like every cache here: 3.0 and True miss the entries of 3 and 1.
@lru_cache(maxsize=None, typed=True)
def hom_module(flavor: HomClass, source_size: int, target_size: int) -> HomModule:
    """Span of maps source -> target of the given flavor, with both actions."""
    return HomModule(flavor, source_size, target_size)


# ------------------------------------------------------- restriction operators


def _level(t) -> int:
    """t, if it is an int of at least -1: TypeError for any other type (a
    float or a bool), ValueError below -1."""
    if type(t) is not int:
        raise TypeError(f"level must be an int: {t!r}")
    if t < -1:
        raise ValueError("the level must be at least -1")
    return t


@lru_cache(maxsize=None, typed=True)
def _reduced_restriction(source_size: int, target_size: int,
                         restricted_size: int) -> RatMatrix:
    """Restriction blocks along increasing injections only; same kernel.

    Every injection factors as an increasing injection followed by a
    permutation of the restricted set, and pre-composing by that permutation
    permutes the rows within a block; dropping the non-increasing blocks
    therefore preserves the row space and hence the kernel.

    Row ``blk * |Surj(c, a)| + index(g)`` holds the maps f with f|_S = g for
    the blk-th subset S; as g is onto, every such f is a surjection.
    """
    b, a, c = source_size, target_size, restricted_size
    if not 0 <= c <= b:
        raise ValueError("restricted size must lie between 0 and the source")
    big = hom_module(_SURJ, b, a)
    small = hom_module(_SURJ, c, a)
    return RatMatrix._make(comb(b, c) * small.dimension, big.dimension,
                           _agreeing_rows(big, product(
                               combinations(range(1, b + 1), c), small.basis)))


def _agreeing_rows(module: HomModule, partial_maps) -> dict[int, dict]:
    """Row i: {index of f: 1} over the maps f of ``module`` that agree with
    the i-th partial map, a pair (points, values) asking f(p) = v, with the
    source points counted from 1.

    The values of each partial map must hit every target, so that each map
    agreeing with it is a surjection; it is then one word of ``product``
    over the allowed letters, which lists the words in basis order.  Empty
    rows are left out.
    """
    index = module.index.__getitem__
    free = [bytes(range(1, module.left_degree + 1))] * module.right_degree
    fixed = [(v,) for v in range(module.left_degree + 1)]
    dod = {}
    for i, (points, values) in enumerate(partial_maps):
        alphabet = free.copy()
        for p, v in zip(points, values):
            alphabet[p - 1] = fixed[v]
        if row := dict.fromkeys(map(index, map(bytes, product(*alphabet))), 1):
            dod[i] = row
    return dod


def _in_level(source_size: int, target_size: int, level: int,
              matrix: RatMatrix) -> bool:
    """True iff every column of ``matrix`` lies in level t of Surj(b, a).

    Level t is the kernel of the restriction stage to size b - t - 1, so one
    product decides all columns at once.  For t >= b - a there is no
    surjection from the restricted size onto a, and the level is the whole
    span.
    """
    b, a, t = source_size, target_size, level
    if t >= b - a:
        return True
    return (_reduced_restriction(b, a, b - t - 1) @ matrix).is_zero()


@lru_cache(maxsize=None, typed=True)
def filtration_level(source_size: int, target_size: int,
                     level: int) -> RatMatrix:
    """Canonical basis of filtration level ``t`` inside surjections b -> a.

    The columns span the subspace of the surjection span killed by every
    restriction along injections from a set of size b - t - 1; the basis
    restricts to the identity on its ``unit_rows``.  Level -1 is zero and
    levels >= b - a are the whole span.
    """
    b, a, t = source_size, target_size, _level(level)
    dim = hom_dimension(_SURJ, b, a)
    if t <= -1:
        return RatMatrix.zeros(dim, 0)
    if t >= b - a:
        return RatMatrix.identity(dim)
    return _reduced_restriction(b, a, b - t - 1).kernel_basis()


def primitives(source_size: int, target_size: int) -> RatMatrix:
    """Level 0: vectors annihilated by every proper injection restriction."""
    return filtration_level(source_size, target_size, 0)


# ----------------------------------------------------------- exact characters


def _restricted_bicharacter(module: HomModule,
                            basis: RatMatrix) -> BiClassFunction:
    """Joint character of both actions restricted to an invariant subspace.

    ``basis`` must have unit rows J (it restricts to the identity there);
    a basis without them is refused with ``ValueError``.
    For the operator P sending basis vector i to p(i), the restricted trace
    of P is sum_k basis[p^{-1}(J_k), k], and the same sum over p(J_k) is the
    restricted trace of P^{-1}; this reads the latter, with no inverse to
    build.  The two are equal: every element of S_a x S_b is conjugate to its
    inverse, and the character of a stable subspace is a class function.
    Exactness relies on the subspace being stable under both actions, which
    holds for every kernel basis of the equivariant operators of this
    module.  A basis with no columns spans zero, whose character is zero
    with no permutation read.
    """
    if not basis.cols:
        return BiClassFunction(module.left_degree, module.right_degree, tuple(
            (0,) * len(partitions_of(module.right_degree))
            for _ in partitions_of(module.left_degree)))
    unit = basis.unit_rows()
    if unit is None:
        raise ValueError("restricted traces need a basis with unit rows")
    sparse = basis._sparse_rows()
    left_reps, right_reps = module.class_perms

    def trace(pl: tuple[int, ...], pr: tuple[int, ...]) -> int | Fraction:
        acc = 0
        for k, j in enumerate(unit):
            row = sparse.get(pl[pr[j]])
            if row:
                acc += row.get(k, 0)
        return acc

    values = tuple(tuple(trace(pl, pr) for pr in right_reps)
                   for pl in left_reps)
    return BiClassFunction(module.left_degree, module.right_degree, values)


@lru_cache(maxsize=None, typed=True)
def level_bicharacter(source_size: int, target_size: int,
                      level: int) -> BiClassFunction:
    """Exact joint character of a filtration level.

    A level at or above ``source_size - target_size`` is the whole span, with
    the closed-form character; a proper level is read by restricted traces.
    """
    b, a, t = source_size, target_size, _level(level)
    module = hom_module(_SURJ, b, a)
    if t >= b - a:
        return module.bicharacter()
    return _restricted_bicharacter(module, filtration_level(b, a, t))


@lru_cache(maxsize=None, typed=True)
def primitives_bidecompose(source_size: int, target_size: int) -> BiSchurClass:
    """Exact bimodule decomposition of the primitive (level 0) subspace."""
    return bidecompose_character(
        level_bicharacter(source_size, target_size, 0))


@lru_cache(maxsize=None, typed=True)
def full_fs_bidecompose(source_size: int, target_size: int) -> BiSchurClass:
    """Exact bimodule decomposition of the whole surjection span."""
    return bidecompose_character(
        hom_module(_SURJ, source_size, target_size).bicharacter())


def _difference(upper: BiClassFunction,
                lower: BiClassFunction) -> BiClassFunction:
    """Class function ``upper - lower``: the character of a quotient."""
    return BiClassFunction(upper.left_degree, upper.right_degree, tuple(
        tuple(u - l for u, l in zip(urow, lrow))
        for urow, lrow in zip(upper.values, lower.values)))


def _transpose(chi: BiClassFunction) -> BiClassFunction:
    """The same class function with its left and right groups exchanged."""
    return BiClassFunction(chi.right_degree, chi.left_degree,
                           tuple(zip(*chi.values)))


@lru_cache(maxsize=None, typed=True)
def subquotient_decompose(level: int, source_size: int,
                          target_size: int) -> BiSchurClass:
    """Exact decomposition of filtration level ``level`` modulo level-1.

    Computed as a character difference of nested invariant subspaces, which
    identifies the quotient bimodule exactly in characteristic zero.  Zero
    whenever ``level`` exceeds ``source_size - target_size``.
    """
    b, a, ell = source_size, target_size, _degree(level)
    return bidecompose_character(_difference(level_bicharacter(b, a, ell),
                                             level_bicharacter(b, a, ell - 1)))


# ------------------------------------------------------- section-sum pairing


@lru_cache(maxsize=None, typed=True)
def theta_matrix(target_size: int, source_size: int) -> RatMatrix:
    """Section-sum pairing matrix from surjections into injection functionals.

    Column of a surjection ``f: source -> target`` carries 1 in the row of
    every section of ``f`` (injections ``h: target -> source`` with
    ``f . h = id``).  This is the section-sum pairing read by rows:
    ``f . h = id`` says that f agrees with h^{-1} on h's image and is free at
    the other points, and every such f hits all of the target, so row h holds
    every map with f(h(v)) = v.  At equal sizes this is the permutation
    matrix of bijection inversion.
    """
    a, b = target_size, source_size
    if not 0 <= a <= b:
        raise ValueError("pairing needs target no larger than source")
    injections = hom_module(_INJ, a, b).basis
    surjections = hom_module(_SURJ, b, a)
    return RatMatrix._make(len(injections), surjections.dimension,
                           _agreeing_rows(surjections, zip(
                               injections, repeat(range(1, a + 1)))))


def theta_equivariance_check(target_size: int, source_size: int) -> bool:
    """True iff the pairing intertwines both group actions exactly.

    Each side of the surjections pairs with the other side of the injections.
    Both modules act by the same two generators of that side's group, (1 2)
    and the n-cycle, and the elements commuting with the pairing form a
    subgroup, so checking the generators checks the whole group.  For a
    generator with basis permutations ``ps`` and ``pt`` the pairing must
    satisfy ``P_t @ th @ P_s^T == th``: moving entry (i, j) to (pt[i], ps[j])
    must give back the same entries, values included.
    """
    a, b = target_size, source_size
    rows = theta_matrix(a, b)._sparse_rows()
    source = hom_module(_SURJ, b, a)
    target = hom_module(_INJ, a, b)
    pairs = chain(
        zip(source.left_generator_perms, target.right_generator_perms),
        zip(source.right_generator_perms, target.left_generator_perms))
    return all(
        {pt[i]: {ps[j]: v for j, v in row.items()}
         for i, row in rows.items()} == rows
        for ps, pt in pairs)


def theta_kernel_level_check(target_size: int, source_size: int) -> bool:
    """True iff ker(pairing) is exactly the level just below full.

    A vector pairs to zero with every injection functional precisely when all
    its equal-size restrictions vanish, so the kernel must coincide -- as a
    canonical basis, byte for byte -- with filtration level b - a - 1.  At
    a = b the level is -1 and the pairing is injective.
    """
    a, b = target_size, source_size
    kernel = theta_matrix(a, b).kernel_basis()
    expected = filtration_level(b, a, b - a - 1)
    return kernel == expected


def theta_rank_report(target_size: int, source_size: int) -> dict:
    """Exact rank bookkeeping of the pairing, including any deficiency."""
    a, b = target_size, source_size
    th = theta_matrix(a, b)
    r = th.rank()
    return {
        "target_size": a,
        "source_size": b,
        "domain_dimension": th.cols,
        "codomain_dimension": th.rows,
        "rank": r,
        "kernel_dimension": th.cols - r,
        "kernel_is_filtration_level": theta_kernel_level_check(a, b),
    }


def sign_hook_class(target_size: int, source_size: int) -> BiSchurClass:
    """The sign-hook class sgn_a ⊠ (b - a, 1^a); zero when a = b.

    The pairing's cokernel at target a and source b >= a, and the
    correction term of the identities below.
    """
    a, b = target_size, source_size
    if not 0 <= a <= b:
        raise ValueError("sign hook needs target no larger than source")
    if a == b:
        return BiSchurClass()
    return boxtimes(sign_class(a), SchurClass({(b - a,) + (1,) * a: 1}))


@lru_cache(maxsize=None, typed=True)
def coker_theta_decompose(target_size: int, source_size: int) -> BiSchurClass:
    """Exact decomposition of the pairing's cokernel bimodule.

    The pairing intertwines each side of the surjections with the other
    side of the injection functionals, so its image is the surjection span
    modulo the kernel (rank-nullity, equivariantly).  The cokernel's
    character, with the surjections' sides, is therefore the functional
    space's transposed character minus the surjections' plus the kernel's,
    the last a restricted trace on the basis from the pairing's own RREF.
    Empty at equal sizes, and the full functional space below a
    positive-size source with empty target.
    """
    a, b = target_size, source_size
    if not 0 <= a <= b:
        raise ValueError("pairing needs target no larger than source")
    source = hom_module(_SURJ, b, a)
    kernel = _restricted_bicharacter(source, theta_matrix(a, b).kernel_basis())
    return bidecompose_character(_difference(
        _transpose(hom_module(_INJ, a, b).bicharacter()),
        _difference(source.bicharacter(), kernel)))


def coker_action_triviality(target_size: int, low_size: int,
                            source_size: int) -> bool:
    """True iff strictly size-decreasing primitive blocks kill the cokernel.

    Composing a cokernel representative of the pairing at ``(target,
    source)`` with a primitive vector of the strictly size-decreasing block
    ``target -> low`` gives the tensor of the block, a right module of the
    shared group S_target acting through its source, with the cokernel, a
    left S_target-module acting through post-composition, taken over the
    group algebra.  Triviality says that tensor vanishes.

    It is decided exactly from the two cached classes.  In characteristic
    zero both modules are semisimple (Maschke).  A right module becomes a
    left one through ``g -> g^{-1}`` without changing its class, and Specht
    modules are absolutely irreducible and self-dual, so ``S^lambda (x)
    S^mu`` over the group algebra has dimension 1 if lambda = mu and 0
    otherwise.  The tensor therefore has dimension ``sum m_lambda *
    n_lambda`` over the block's multiplicities m and the cokernel's n.
    These are nonnegative, so nothing cancels: the tensor vanishes iff no
    irreducible is both a right partition of the block and a left partition
    of the cokernel.  A zero cokernel, as at equal sizes, needs no block.
    """
    a, c, b = target_size, low_size, source_size
    if not 0 <= c < a <= b:
        raise ValueError("cokernel action needs low < target <= source")
    cokernel = {left for (left, _), _ in coker_theta_decompose(a, b).terms}
    return not cokernel or cokernel.isdisjoint(
        right for (_, right), _ in primitives_bidecompose(a, c).terms)


# -------------------------------------------------- augmentation-kernel power


def lambda_bar_character(power: int, set_size: int) -> ClassFunction:
    """Character of the exterior power of the coordinate-sum kernel.

    The kernel V of the all-ones functional on the permutation space Q^b
    carries the natural action of S_b, and Q^b = V + trivial.  For a
    permutation sigma, the trace on the t-th exterior power of a space is
    the coefficient of x^t in det(1 + x sigma) on that space.  A cycle of
    length m has the m-th roots of unity z as eigenvalues on its coordinates,
    and prod_z (1 + x z) = 1 - (-x)^m, so on Q^b the determinant is the
    product of 1 - (-x)^m over the cycles of sigma, and on V it is that
    product divided by the trivial summand's 1 + x.  Dividing the first
    cycle's factor gives (1 - (-x)^m_1) / (1 + x) = sum_{k < m_1} (-x)^k, so
    at cycle type mu = (m_1, m_2, ...) the character is the coefficient of
    x^t in sum_{k < m_1} (-x)^k * prod_{i >= 2} (1 - (-x)^{m_i}).  At the
    identity this is binomial(b - 1, t); it vanishes for t >= b.  Set size 0
    is the zero space of S_0, and power 0 is the trivial character.
    """
    t, b = _degree(power), _degree(set_size)
    if b == 0:
        return ClassFunction(0, (0,))
    values = []
    for mu in partitions_of(b):
        poly = [(-1) ** k for k in range(mu[0])]
        for m in mu[1:]:
            # Multiply by 1 - (-1)^m x^m.
            poly += [0] * m
            for k in range(len(poly) - 1, m - 1, -1):
                poly[k] -= (-1) ** m * poly[k - m]
        values.append(poly[t] if t < len(poly) else 0)
    return ClassFunction(b, tuple(values))


# ------------------------------------------------------ primitive block checks


def sgn_vanishing_check(source_size: int, target_size: int) -> bool:
    """True iff the sign isotype is absent from the source-side action.

    Considers the span of surjections source -> target (target strictly
    smaller) as a representation of the source symmetric group acting by
    inverse pre-composition, and checks that the multiplicity of the sign
    representation is zero: no term of the span's bimodule class has the
    single column (1^source) on the right.  Multiplicities are nonnegative,
    so no term cancels another.
    """
    a, c = source_size, target_size
    if not 0 <= c < a:
        raise ValueError("sign vanishing needs a strictly smaller target")
    sign = (1,) * a
    return all(right != sign
               for (_, right), _ in full_fs_bidecompose(a, c).terms)


def automorphism_block_check(set_size: int) -> bool:
    """True iff the primitive block at equal sizes is the whole bijection span.

    Compares ``primitives(n, n)`` with the identity, and, for n >= 1, with
    the kernel of the restriction stage to size n - 1 that defines level 0
    (no surjection from a smaller set reaches n, so that kernel is the whole
    span too).
    """
    n = set_size
    full = RatMatrix.identity(hom_dimension(_SURJ, n, n))
    return (primitives(n, n) == full
            and (n == 0
                 or _reduced_restriction(n, n, n - 1).kernel_basis() == full))


# ------------------------------------------------------------------ closure


@lru_cache(maxsize=None, typed=True)
def _module_generator_columns(source_size: int, target_size: int,
                              side: str) -> tuple[dict[int, object], ...]:
    """Basis columns generating the primitive level under one side's action.

    The search runs over vectors of maps, {basis index: int or Fraction},
    seeded with a column of the level basis K.  A generator of S_n, (1 2)
    or the n-cycle, moves a vector by its basis permutation, which
    relabels the vector's keys; the level is action-stable, so the image
    is in the level again.  K restricts to an identity on its unit rows, so
    a level vector's coordinates are its entries there, and those are what
    one exact echelon (``ratlinalg._Echelon``) receives.  The column set
    grows greedily: each chosen column's orbit is fed to the echelon vector
    by vector, and the echelon back-substitutes (``finish``) once before
    each pick, so its rows are then the reduced echelon form of the span.
    A unit coordinate vector lies in the span exactly when its coordinate
    is a pivot whose reduced row has a single entry, so the next column is
    the first that is not such a pivot.  The search stops as soon as the
    span is the whole level.  Columns are returned as exact sparse {row:
    int or Fraction} vectors of K.

    The columns do not depend on the generating set or on the order the
    vectors arrive in.  Every vector that enlarges the span has its
    generator images queued, so once a candidate's queue is empty the span
    is closed under both generators.  The group is finite, so each inverse
    is a positive power and the span is closed under the whole group: it
    is the Q-submodule generated by the candidates so far.  Its reduced
    echelon form is unique, and the next candidate is read from it alone.
    """
    K = primitives(source_size, target_size)
    dim = K.cols
    if dim == 0:
        return ()
    module = hom_module(_SURJ, source_size, target_size)
    perms = (module.left_generator_perms if side == "left"
             else module.right_generator_perms)
    position = {u: k for k, u in enumerate(K.unit_rows())}
    columns: list[dict[int, object]] = [{} for _ in range(dim)]
    for i, row in K._sparse_rows().items():
        for j, v in row.items():
            columns[j][i] = v
    echelon = _Echelon()
    chosen: list[int] = []
    while len(echelon.rows) < dim:
        echelon.finish()
        candidate = next(j for j in range(dim)
                         if len(echelon.rows.get(j, ())) != 1)
        chosen.append(candidate)
        queue = deque([columns[candidate]])
        while queue:
            vector = queue.popleft()
            remainder = echelon.reduce({position[i]: v
                                        for i, v in vector.items()
                                        if i in position})
            if not remainder:
                continue
            # A compact copy: the reduction cancels most entries, a dict
            # keeps the slack of its deletions, and the stored row is read
            # at every later reduction and pivot that meets it.
            echelon.store(dict(remainder))
            if len(echelon.rows) == dim:
                # Every vector still queued would reduce to zero.
                break
            for perm in perms:
                queue.append({perm[i]: v for i, v in vector.items()})
    return tuple(columns[j] for j in chosen)


def closure_check(source_size: int, mid_size: int, target_size: int) -> bool:
    """True iff primitive blocks compose into the primitive block.

    For sizes target <= mid <= source, every composite of a primitive vector
    of maps mid -> target with a primitive vector of maps source -> mid must
    land in the primitive subspace of maps source -> target.  Composition is
    bilinear and ``(pi . u) o (v . sigma) = pi . (u o v) . sigma``, and the
    goal level is stable under both actions, so the products of generators
    span all products: the outer factor is generated under its left action,
    the inner under its right action.  The generator products form the
    columns of one matrix, certified by one product with the goal level's
    restriction stage.
    """
    b, x, y = source_size, mid_size, target_size
    if not 0 <= y <= x <= b:
        raise ValueError("closure needs target <= mid <= source")
    inner_cols = _module_generator_columns(b, x, "right")
    outer_cols = _module_generator_columns(x, y, "left")
    inner_basis = hom_module(_SURJ, b, x).basis
    outer_basis = hom_module(_SURJ, x, y).basis
    result_index = hom_module(_SURJ, b, y).index
    mid = bytes(range(1, x + 1))

    def triplets():
        col = 0
        for u in outer_cols:
            # g . f translates each byte of f through g's value string.
            outer = [(bytes.maketrans(mid, outer_basis[g_idx]), cu)
                     for g_idx, cu in u.items()]
            for v in inner_cols:
                for table, cu in outer:
                    for f_idx, cv in v.items():
                        composite = inner_basis[f_idx].translate(table)
                        yield result_index[composite], col, cu * cv
                col += 1

    products = RatMatrix.from_triplets(len(result_index),
                                       len(outer_cols) * len(inner_cols),
                                       triplets())
    return _in_level(b, y, 0, products)


# ------------------------------------------------------ filtration invariants


def filtration_nesting_check(source_size: int, target_size: int) -> bool:
    """True iff each level's basis lies inside the next level's span."""
    b, a = source_size, target_size
    return all(_in_level(b, a, t + 1, filtration_level(b, a, t))
               for t in range(-1, b))


def fi_stability_check(source_size: int, target_size: int) -> bool:
    """True iff every proper level restricts into the same level blockwise.

    For each proper level t and each restricted size c < source at which
    level t is still proper (c > target + t), applies the increasing-injection
    restriction blocks to the level basis and verifies each block lands in
    level t of the smaller surjection span.  Non-increasing blocks are row
    permutations of increasing ones, and levels are stable under the source
    action, so the increasing blocks decide all blocks.
    """
    b, a = source_size, target_size
    for t in range(0, b - a):
        K = filtration_level(b, a, t)
        for c in range(a + t + 1, b):
            small_dim = hom_dimension(_SURJ, c, a)
            image = _reduced_restriction(b, a, c) @ K
            for blk in range(comb(b, c)):
                rows = range(blk * small_dim, (blk + 1) * small_dim)
                if not _in_level(c, a, t, image.select_rows(rows)):
                    return False
    return True


# ---------------------------------------------------- class-level identities


class IdentityCheck(NamedTuple):
    ok: bool
    lhs: BiSchurClass
    rhs: BiSchurClass


def primfs_identity_check(source_size: int, target_size: int) -> IdentityCheck:
    """Primitive class as an alternating convolution of full surjection classes.

    [primitives(b,a)] plus the signed sign-pair correction (-1)^{b-a}
    [sgn_a x sgn_b] for b > a equals the alternating sum over t of
    [surjections(b-t,a)] convolved on the right with the sign class of t.
    The sum runs over t <= b - a: a smaller source has no surjections.
    """
    b, a = source_size, target_size
    lhs = primitives_bidecompose(b, a)
    if b > a:
        lhs = lhs + boxtimes(sign_class(a), sign_class(b)).scale(
            (-1) ** (b - a))
    rhs = BiSchurClass()
    for t in range(b - a + 1):
        rhs = rhs + biconvolution_right(full_fs_bidecompose(b - t, a),
                                        sign_class(t)).scale((-1) ** t)
    return IdentityCheck(lhs == rhs, lhs, rhs)


def kring_identity_check(source_size: int, target_size: int) -> IdentityCheck:
    """Primitive-times-trivial convolution against the full surjection class.

    The sum over layers of [primitives(b-l,a)] convolved with the trivial
    class of l equals [surjections(b,a)] plus the sign-hook class exactly
    when b > a.  The sum runs over l <= b - a: no smaller source is onto a.
    """
    b, a = source_size, target_size
    lhs = BiSchurClass()
    for ell in range(b - a + 1):
        lhs = lhs + biconvolution_right(primitives_bidecompose(b - ell, a),
                                        trivial_class(ell))
    rhs = full_fs_bidecompose(b, a)
    if b > a:
        rhs = rhs + sign_hook_class(a, b)
    return IdentityCheck(lhs == rhs, lhs, rhs)


def subquotient_identity_check(level: int, source_size: int,
                               target_size: int) -> IdentityCheck:
    """Subquotient class via alternating trivial-times-sign convolutions.

    The directly computed subquotient equals the alternating sum over t of
    [surjections(b-l-t,a)] convolved with (trivial_l * sign_t), minus the
    signed sign-pair correction when b - l > a, minus the sign-hook term
    exactly at b = a + l.  The sum runs over t <= b - l - a, as above.
    """
    ell, b, a = level, source_size, target_size
    if ell < 1:
        raise ValueError("subquotient identity needs level >= 1")
    lhs = subquotient_decompose(ell, b, a)
    rhs = BiSchurClass()
    for t in range(b - ell - a + 1):
        mixer = convolution_class(trivial_class(ell), sign_class(t))
        rhs = rhs + biconvolution_right(full_fs_bidecompose(b - ell - t, a),
                                        mixer).scale((-1) ** t)
    if b - ell > a:
        pair = boxtimes(sign_class(a), sign_class(b - ell))
        rhs = rhs - biconvolution_right(pair, trivial_class(ell)).scale(
            (-1) ** (b - ell - a))
    if b == a + ell:
        rhs = rhs - sign_hook_class(a, b)
    return IdentityCheck(lhs == rhs, lhs, rhs)


def ses_identity_check(level: int, source_size: int,
                       target_size: int) -> IdentityCheck:
    """Subquotient assembly: one filtration layer from smaller primitives.

    For a cell with b >= a + level, the level/(level-1) subquotient, plus
    the sign-hook term exactly at b = a + level, equals the primitives of
    (b - level, a) convolved on the right with the trivial class of the
    layer.  Cells with b < a + level have no layer and are refused.
    """
    ell, b, a = level, source_size, target_size
    if ell < 1 or a < 0 or b < a + ell:
        raise ValueError("assembly needs level >= 1 and source >= target "
                         "+ level")
    lhs = subquotient_decompose(ell, b, a)
    if b == a + ell:
        lhs = lhs + sign_hook_class(a, b)
    rhs = biconvolution_right(primitives_bidecompose(b - ell, a),
                              trivial_class(ell))
    return IdentityCheck(lhs == rhs, lhs, rhs)
