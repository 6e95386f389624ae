"""Maps between finite sets at bounded cardinality.

Objects are the skeletal finite sets {1, ..., n}; only the size matters.
This module enumerates hom-sets in two flavors (surjections and
injections) and gives closed-form counts that cross-check the enumerations:
of all maps, and of the maps fixed by each pair of conjugacy classes.

A map's basis form is its value string: the ``bytes`` whose k-th byte is
the image of k + 1.  The lexicographic order on value strings is a frozen
contract: it defines the canonical basis of every linearized hom-space
downstream, so changing it would silently permute every matrix in the
package.  Value strings of one length compare exactly like the int tuples
they spell, so this order is the lexicographic order of value arrays.  A
byte holds values up to 255; ``bytes`` refuses a larger value with
``ValueError``, so a target of more than 255 points is refused.

:class:`FinMap`, :func:`compose` and :func:`enumerate_hom` are the validated
view of the same maps, for callers outside the package and as an oracle;
nothing in the package builds a ``FinMap``.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum, unique
from functools import lru_cache
from itertools import permutations, product, repeat
from math import comb, perm, prod
from operator import add

from .partitions import partitions_of


@unique
class HomClass(Enum):
    """Which maps between finite sets count as morphisms."""

    SURJECTION = "surjection"
    INJECTION = "injection"


@dataclass(frozen=True)
class FinMap:
    """A map {1..source_size} -> {1..target_size}, given by its value array.

    values[i-1] is the image of i (everything is 1-based).  Equality is
    pointwise; maps are immutable and hashable.
    """

    source_size: int
    target_size: int
    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if self.source_size < 0 or self.target_size < 0:
            raise ValueError("set sizes must be nonnegative")
        if len(self.values) != self.source_size:
            raise ValueError("value array length mismatch")
        if not all(isinstance(v, int) and 1 <= v <= self.target_size
                   for v in self.values):
            raise ValueError("value out of range")

    def __call__(self, i: int) -> int:
        if not 1 <= i <= self.source_size:
            raise ValueError("point outside the source")
        return self.values[i - 1]

    def is_surjective(self) -> bool:
        return len(set(self.values)) == self.target_size

    def is_injective(self) -> bool:
        return len(set(self.values)) == self.source_size

    def is_bijective(self) -> bool:
        return self.source_size == self.target_size and self.is_injective()

    def __repr__(self) -> str:
        return (f"FinMap({self.source_size}->{self.target_size}, "
                f"{list(self.values)})")


def compose(g: FinMap, f: FinMap) -> FinMap:
    """g after f: apply f first, then g."""
    if g.source_size != f.target_size:
        raise ValueError("composition size mismatch")
    return FinMap(f.source_size, g.target_size,
                  tuple(g.values[v - 1] for v in f.values))


def _require_hom(flavor: HomClass, *sizes: int) -> None:
    """TypeError unless flavor is a HomClass and the sizes are ints (not
    bools); ValueError if a size is negative."""
    if not isinstance(flavor, HomClass) or {*map(type, sizes)} != {int}:
        raise TypeError(f"need a HomClass and int sizes: {flavor!r}, {sizes}")
    if min(sizes) < 0:
        raise ValueError("set sizes must be nonnegative")


# typed: a bool or float size misses the cached int entry, and is refused.
@lru_cache(maxsize=None, typed=True)
def hom_values(flavor: HomClass, source_size: int,
               target_size: int) -> tuple[bytes, ...]:
    """Value strings of all maps source -> target of a flavor, in order.

    Lexicographic order of the value strings is the canonical basis order of
    the linearized hom-space.  Empty-set conventions: with an empty source
    there is exactly one (empty) map, an injection into any target and a
    surjection onto the empty target only; with an empty target and
    nonempty source there are none.

    Injections, and surjections between sets of one size, are the ordered
    selections of distinct targets, which ``permutations`` yields in
    lexicographic order from the sorted range.  A surjection from b > a >= 2
    points is a word w followed by a last letter v: either w is onto all a
    targets and v is any of them, or w is onto the a - 1 targets other than
    v, relabelled from {1..a-1} in increasing order.  The two cases are
    disjoint, and both lists of w are the cached smaller cells, so the work
    grows with the number of surjections, not with a**b; one sort restores
    the lexicographic order.
    """
    _require_hom(flavor, source_size, target_size)
    b, a = source_size, target_size
    targets = bytes(range(1, a + 1))
    if flavor is HomClass.INJECTION or b == a:
        return tuple(map(bytes, permutations(targets, b)))
    if b < a or a == 0:
        return ()
    if a == 1:
        return (targets * b,)
    onto_all = hom_values(flavor, b - 1, a)
    onto_rest = hom_values(flavor, b - 1, a - 1)
    words = []
    for v in targets:
        last = bytes((v,))
        relabel = bytes.maketrans(targets[:-1], targets.replace(last, b""))
        words += map(add, onto_all, repeat(last))
        words += map(add, map(bytes.translate, onto_rest, repeat(relabel)),
                     repeat(last))
    words.sort()
    return tuple(words)


@lru_cache(maxsize=None, typed=True)
def enumerate_hom(flavor: HomClass, source_size: int,
                  target_size: int) -> tuple[FinMap, ...]:
    """All maps source -> target of a flavor, as validated ``FinMap``s.

    The maps of :func:`hom_values`, in the same order.
    """
    return tuple(FinMap(source_size, target_size, values)
                 for values in hom_values(flavor, source_size, target_size))


def hom_dimension(flavor: HomClass, source_size: int, target_size: int) -> int:
    """Closed-form count of maps source -> target of the given flavor: the
    :func:`hom_character` at the identity pair, whose classes come last."""
    return hom_character(flavor, source_size, target_size)[-1][-1]


@lru_cache(maxsize=None, typed=True)
def hom_character(flavor: HomClass, source_size: int,
                  target_size: int) -> tuple[tuple[int, ...], ...]:
    """Closed-form count of the maps fixed by each pair of classes.

    Row i, column j counts the maps f source -> target of the flavor with
    pi . f = f . sigma, where pi has the i-th cycle type of
    ``partitions_of(target_size)`` and sigma the j-th of
    ``partitions_of(source_size)``.  That is the character of the linearized
    hom-space at (pi, sigma), with pi acting by post-composition and sigma
    by inverse pre-composition; at the identity pair it is
    :func:`hom_dimension`.

    Such an f is fixed by its value y at one point x of each sigma-cycle C:
    f(sigma^k x) = pi^k y is consistent exactly when the pi-cycle D through
    y has a length dividing |C|.  So the fixed maps with image inside a
    union U of pi-cycles number N(U) = prod_C sum_{D in U, |D| divides |C|}
    |D|.  The image of a fixed map is a union of pi-cycles, so the fixed
    surjections number sum_U (-1)^(#cycles(pi) - |U|) N(U) by Moebius
    inversion over the subsets of pi's cycles; subsets that keep k_l of the
    n_l cycles of each length l share N(U) and are counted together,
    weighted by prod_l C(n_l, k_l).  An injective fixed map sends each
    sigma-cycle of length l onto its own pi-cycle of length l, in l ways, so
    the fixed injections number prod_l n_l!/(n_l - m_l)! * l^m_l over the
    m_l l-cycles of sigma, which is 0 when some m_l > n_l.
    """
    _require_hom(flavor, source_size, target_size)
    b, a = source_size, target_size
    count = (_fixed_surjections if flavor is HomClass.SURJECTION
             else _fixed_injections)
    sources = [Counter(sigma).items() for sigma in partitions_of(b)]
    return tuple(count(Counter(pi), sources) for pi in partitions_of(a))


def _fixed_surjections(cycles: Counter, sources) -> tuple[int, ...]:
    """One row of :func:`hom_character`: pi has ``cycles[l]`` l-cycles, and
    each entry of ``sources`` lists a sigma's (length, count) pairs."""
    terms = []
    for kept in product(*(range(n + 1) for n in cycles.values())):
        weight = ((-1) ** (cycles.total() - sum(kept))
                  * prod(map(comb, cycles.values(), kept)))
        terms.append((weight, [(length, length * k)
                               for length, k in zip(cycles, kept) if k]))
    return tuple(
        sum(weight * prod(sum(size for length, size in points
                              if not c % length) ** m for c, m in sigma)
            for weight, points in terms)
        for sigma in sources)


def _fixed_injections(cycles: Counter, sources) -> tuple[int, ...]:
    return tuple(prod(perm(cycles[length], m) * length ** m
                      for length, m in sigma)
                 for sigma in sources)
