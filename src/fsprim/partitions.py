"""Partition and cycle-type combinatorics for symmetric-group bookkeeping.

Partitions are plain tuples of weakly decreasing positive integers; the empty
tuple is the unique partition of 0.  A cycle type is a partition read as the
multiset of cycle lengths of a permutation, so a cycle type of weight n labels
a conjugacy class of the symmetric group on n letters.

The enumeration order produced by :func:`partitions_of` (largest part first,
then recursively on the remainder -- i.e. descending lexicographic within a
fixed weight, which is the graded reverse-lexicographic order once weights are
compared first) is a frozen external contract: every formal sum, report and
serialization in this package lists partitions in that order.  Partitions
serialize as decreasing integer arrays, e.g. ``[2, 1]``, with ``[]`` for the
empty partition.
"""
from __future__ import annotations

from functools import cache, lru_cache
from math import factorial

Partition = tuple[int, ...]
CycleType = tuple[int, ...]


def assert_partition(parts) -> None:
    """Raise ValueError unless parts is a weakly decreasing tuple of positive
    integers (``int`` itself: a bool is refused)."""
    if not isinstance(parts, tuple):
        raise ValueError(f"partition must be a tuple: {parts!r}")
    if not all(type(p) is int and p > 0 for p in parts):
        raise ValueError(f"parts must be positive integers: {parts!r}")
    if not all(parts[i] >= parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"parts must be weakly decreasing: {parts!r}")


def weight(parts: Partition) -> int:
    """Total number of boxes of the partition."""
    return sum(parts)


@lru_cache(maxsize=None, typed=True)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, each exactly once, in the canonical order.

    The order is graded reverse-lexicographic: within the fixed weight n the
    list runs from (n) down to (1, ..., 1), comparing part sequences
    lexicographically with larger leading parts first.  For example
    partitions_of(3) == ((3,), (2, 1), (1, 1, 1)).
    """
    if type(n) is not int:  # a bool or a float, which the cache keeps apart
        raise TypeError(f"can only partition an int: {n!r}")
    if n < 0:
        raise ValueError("cannot partition a negative number")

    def gen(m: int, maxpart: int):
        if m == 0:
            yield ()
            return
        for k in range(min(m, maxpart), 0, -1):
            for rest in gen(m - k, k):
                yield (k,) + rest

    return tuple(gen(n, n))


@cache
def _positions(n: int) -> dict[Partition, int]:
    """Position of each partition of n inside partitions_of(n)."""
    return {parts: i for i, parts in enumerate(partitions_of(n))}


def partition_index(parts: Partition) -> int:
    """Position of a partition inside partitions_of(weight(parts))."""
    assert_partition(parts)
    return _positions(weight(parts))[parts]


def conjugate(parts: Partition) -> Partition:
    """Transpose of the Young diagram; an involution."""
    assert_partition(parts)
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p > i) for i in range(parts[0]))


def hook_lengths(parts: Partition) -> tuple[tuple[int, ...], ...]:
    """Hook length of every box, row by row."""
    assert_partition(parts)
    conj = conjugate(parts)
    return tuple(
        tuple(parts[i] - (j + 1) + conj[j] - i for j in range(parts[i]))
        for i in range(len(parts)))


def irrep_dimension(parts: Partition) -> int:
    """Number of standard Young tableaux of the given shape.

    Computed by the hook length formula; this is the dimension of the
    irreducible symmetric-group representation labelled by the partition.
    """
    assert_partition(parts)
    n = weight(parts)
    denom = 1
    for row in hook_lengths(parts):
        for h in row:
            denom *= h
    dim, rem = divmod(factorial(n), denom)
    assert rem == 0
    return dim


def centralizer_order(mu: CycleType) -> int:
    """Order of the centralizer of a permutation with the given cycle type.

    For cycle type mu with m_i parts equal to i this is the usual
    prod_i i**m_i * m_i!.
    """
    assert_partition(mu)
    mult: dict[int, int] = {}
    for p in mu:
        mult[p] = mult.get(p, 0) + 1
    z = 1
    for i, m in mult.items():
        z *= i ** m * factorial(m)
    return z


def class_size(mu: CycleType) -> int:
    """Size of the conjugacy class with cycle type mu in degree weight(mu)."""
    n = weight(mu)
    size, rem = divmod(factorial(n), centralizer_order(mu))
    assert rem == 0
    return size
