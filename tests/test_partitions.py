"""Tests for partition and cycle-type combinatorics.

Derived expected values are frozen from independent brute-force oracles that
are spelled out (or reproduced) in this file: exhaustive generation of weakly
decreasing tuples, standard-tableau counting by direct enumeration, and
permutation enumeration via itertools.
"""
from __future__ import annotations

import itertools
from math import factorial

import pytest
from hypothesis import given, strategies as st

from fsprim.partitions import (
    assert_partition,
    centralizer_order,
    class_size,
    conjugate,
    hook_lengths,
    irrep_dimension,
    partition_index,
    partitions_of,
    weight,
)


def brute_partitions(n):
    """Oracle: all weakly decreasing positive tuples summing to n."""
    found = set()
    if n == 0:
        return {()}
    for k in range(1, n + 1):
        for tail in brute_partitions(n - k):
            if not tail or tail[0] <= k:
                found.add((k,) + tail)
    return found


def brute_standard_tableaux(shape):
    """Oracle: count standard Young tableaux by filling boxes one by one."""
    boxes = [(i, j) for i, row in enumerate(shape) for j in range(row)]
    n = len(boxes)
    count = 0
    for perm in itertools.permutations(range(1, n + 1)):
        filling = {box: label for box, label in zip(boxes, perm)}
        ok = True
        for (i, j), label in filling.items():
            if j + 1 < shape[i] and filling[(i, j + 1)] < label:
                ok = False
                break
            if i + 1 < len(shape) and shape[i + 1] > j and filling[(i + 1, j)] < label:
                ok = False
                break
        if ok:
            count += 1
    return count


def cycle_type_of(perm):
    """Cycle type of a permutation given in one-line notation (1-based)."""
    n = len(perm)
    seen = [False] * n
    lengths = []
    for i in range(n):
        if not seen[i]:
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j] - 1
                length += 1
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def test_partitions_of_zero():
    assert partitions_of(0) == ((),)


def test_partitions_of_three_order():
    assert partitions_of(3) == ((3,), (2, 1), (1, 1, 1))


def test_partitions_of_four_order():
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


def test_partitions_of_six_count():
    # Frozen from the brute-force oracle below.
    assert len(partitions_of(6)) == 11


@pytest.mark.parametrize("n", range(9))
def test_partitions_of_matches_brute_force(n):
    got = partitions_of(n)
    assert len(got) == len(set(got))
    assert set(got) == brute_partitions(n)


@pytest.mark.parametrize("n", range(9))
def test_partitions_of_order_is_descending_lex(n):
    got = partitions_of(n)
    assert list(got) == sorted(got, reverse=True)


def test_partition_index_roundtrip():
    for n in range(8):
        for i, lam in enumerate(partitions_of(n)):
            assert partition_index(lam) == i


def test_conjugate_examples():
    assert conjugate((3,)) == (1, 1, 1)
    assert conjugate((2, 1)) == (2, 1)
    # Frozen from a hand transpose of the diagram of (4, 2).
    assert conjugate((4, 2)) == (2, 2, 1, 1)
    assert conjugate(()) == ()


@given(st.integers(min_value=0, max_value=10).flatmap(
    lambda n: st.sampled_from(partitions_of(n))))
def test_conjugate_is_an_involution(lam):
    assert_partition(conjugate(lam))
    assert conjugate(conjugate(lam)) == lam
    assert weight(conjugate(lam)) == weight(lam)


def test_irrep_dimension_trivial_row():
    for n in range(8):
        lam = (n,) if n else ()
        assert irrep_dimension(lam) == 1


def test_irrep_dimension_two_one():
    # Frozen from brute_standard_tableaux((2, 1)) == 2.
    assert brute_standard_tableaux((2, 1)) == 2
    assert irrep_dimension((2, 1)) == 2


def test_irrep_dimension_hook_b5():
    # (b-1, 1) with b = 5: dimension 4 (one fewer than the number of points).
    assert irrep_dimension((4, 1)) == 4


@pytest.mark.parametrize("shape", [(2, 2), (3, 1), (3, 2), (2, 2, 1), (4, 2)])
def test_irrep_dimension_matches_tableau_enumeration(shape):
    assert irrep_dimension(shape) == brute_standard_tableaux(shape)


def test_hook_lengths_of_two_two():
    assert hook_lengths((2, 2)) == ((3, 2), (2, 1))


@pytest.mark.parametrize("n", range(1, 9))
def test_sum_of_squared_dimensions(n):
    assert sum(irrep_dimension(lam) ** 2 for lam in partitions_of(n)) == factorial(n)


def test_class_size_examples_degree_three():
    assert class_size((1, 1, 1)) == 1
    # Frozen by enumerating the permutations of S_3 with each cycle type.
    counts = {}
    for perm in itertools.permutations(range(1, 4)):
        mu = cycle_type_of(perm)
        counts[mu] = counts.get(mu, 0) + 1
    assert counts[(3,)] == 2
    assert counts[(2, 1)] == 3
    assert class_size((3,)) == 2
    assert class_size((2, 1)) == 3


@pytest.mark.parametrize("n", range(1, 7))
def test_class_sizes_match_enumeration(n):
    counts = {}
    for perm in itertools.permutations(range(1, n + 1)):
        mu = cycle_type_of(perm)
        counts[mu] = counts.get(mu, 0) + 1
    for mu in partitions_of(n):
        assert class_size(mu) == counts[mu]
        assert centralizer_order(mu) * counts[mu] == factorial(n)


@pytest.mark.parametrize("n", range(9))
def test_class_sizes_sum_to_group_order(n):
    assert sum(class_size(mu) for mu in partitions_of(n)) == factorial(n)


def test_empty_partition_degree_zero():
    assert weight(()) == 1 - 1
    assert centralizer_order(()) == 1
    assert class_size(()) == 1
    assert irrep_dimension(()) == 1


def test_assert_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        assert_partition((1, 2))
    with pytest.raises(ValueError):
        assert_partition((2, 0))
    with pytest.raises(ValueError):
        assert_partition([2, 1])


def test_cached_lookups_validate_in_either_call_order():
    for _ in range(2):
        with pytest.raises(ValueError):
            partition_index((2.0, 1.0))
        assert partition_index((2, 1)) == 1
        with pytest.raises(ValueError):
            centralizer_order((2.0, 1.0))
        assert centralizer_order((2, 1)) == 2
