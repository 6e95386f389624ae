"""Tests for finite-set map enumeration, composition, and sections.

The sections of a surjection f are the maps s with f . s = identity; the
package keeps no function for them, so they are found here on the
validated view, as the injections that compose with f to the identity.

Oracles: raw product-and-filter counts written inline (independent of the
library's own enumeration path), plus closed-form factorial identities.
"""
from itertools import permutations, product
from operator import lt

import pytest
from hypothesis import given, settings, strategies as st

from fsprim.finsetcat import (
    FinMap,
    HomClass,
    compose,
    enumerate_hom,
    hom_character,
    hom_dimension,
    hom_values,
)

FLAVORS = (HomClass.SURJECTION, HomClass.INJECTION)


def identity(n):
    return FinMap(n, n, tuple(range(1, n + 1)))


def sections(f):
    """Reference: the right inverses of f among the injections, in order."""
    return tuple(s for s in enumerate_hom(HomClass.INJECTION, f.target_size,
                                          f.source_size)
                 if compose(f, s) == identity(f.target_size))


def brute_maps(flavor, b, a):
    """Independent enumeration: filter all a^b value arrays by predicate."""
    out = []
    for values in product(range(1, a + 1), repeat=b):
        hit = len(set(values))
        if hit == (a if flavor is HomClass.SURJECTION else b):
            out.append(values)
    return out


# ------------------------------------------------------------- FinMap type


def test_finmap_validation():
    FinMap(2, 3, (1, 3))
    with pytest.raises(ValueError):
        FinMap(2, 3, (1,))
    with pytest.raises(ValueError):
        FinMap(2, 3, (1, 4))
    with pytest.raises(ValueError):
        FinMap(2, 3, (0, 1))


def test_finmap_equality_is_pointwise():
    assert FinMap(2, 2, (1, 2)) == identity(2)
    assert FinMap(2, 2, (1, 2)) != FinMap(2, 2, (2, 1))
    assert FinMap(1, 2, (1,)) != FinMap(1, 3, (1,))


def test_finmap_predicates():
    assert FinMap(3, 2, (1, 2, 1)).is_surjective()
    assert not FinMap(3, 2, (1, 1, 1)).is_surjective()
    assert FinMap(2, 3, (3, 1)).is_injective()
    assert not FinMap(2, 3, (1, 1)).is_injective()
    assert FinMap(3, 3, (2, 3, 1)).is_bijective()
    assert not FinMap(2, 3, (1, 2)).is_bijective()


def test_finmap_call():
    f = FinMap(3, 3, (2, 3, 1))
    assert [f(i) for i in (1, 2, 3)] == [2, 3, 1]


# ------------------------------------------------------------ enumeration


def test_frozen_lex_orders():
    assert [m.values for m in enumerate_hom(HomClass.SURJECTION, 3, 2)] == [
        (1, 1, 2), (1, 2, 1), (1, 2, 2), (2, 1, 1), (2, 1, 2), (2, 2, 1)]
    assert [m.values for m in enumerate_hom(HomClass.INJECTION, 2, 3)] == [
        (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)]
    assert [m.values for m in enumerate_hom(HomClass.INJECTION, 3, 3)] == [
        (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]


def test_lex_order_property():
    for flavor in FLAVORS:
        for b in range(5):
            for a in range(5):
                vals = [m.values for m in enumerate_hom(flavor, b, a)]
                assert vals == sorted(vals)
                assert len(set(vals)) == len(vals)


def test_enumeration_matches_brute_force():
    # Every size pair through 6, so empty sources and targets and, for
    # injections, every source larger than its target are among them.
    for flavor in FLAVORS:
        for b in range(7):
            for a in range(7):
                got = [m.values for m in enumerate_hom(flavor, b, a)]
                assert got == brute_maps(flavor, b, a), (flavor, b, a)


def test_value_strings_match_brute_force():
    # Both flavours and every size pair through 6, empty sets included.
    for flavor in FLAVORS:
        for b in range(7):
            for a in range(7):
                got = hom_values(flavor, b, a)
                assert all(type(v) is bytes for v in got)
                assert [tuple(v) for v in got] == brute_maps(flavor, b, a), (
                    flavor, b, a)


def test_surjections_match_brute_force_through_seven_and_at_eight():
    # Past a = b + 1 both sides are empty, as at a = b + 1 itself.
    cells = [(b, a) for b in range(8) for a in range(b + 2)]
    cells += [(8, a) for a in range(7)]
    for b, a in cells:
        got = hom_values(HomClass.SURJECTION, b, a)
        assert list(map(tuple, got)) == \
            brute_maps(HomClass.SURJECTION, b, a), (b, a)


def test_surjections_through_eight_increase_hit_every_target_and_count():
    for b in range(9):
        for a in range(b + 2):
            got = hom_values(HomClass.SURJECTION, b, a)
            assert all(map(lt, got, got[1:])), (b, a)
            targets = set(range(1, a + 1))
            assert all(len(w) == b and set(w) == targets for w in got)
            assert len(got) == sum((-1) ** j * _choose(a, j) * (a - j) ** b
                                   for j in range(a + 1)), (b, a)


def test_surjections_onto_one_point_need_no_recursion():
    assert hom_values(HomClass.SURJECTION, 2000, 1) == (b"\x01" * 2000,)


def test_value_strings_refuse_targets_beyond_a_byte():
    assert hom_values(HomClass.INJECTION, 0, 255) == (b"",)
    assert len(hom_values(HomClass.INJECTION, 1, 255)) == 255
    for flavor in FLAVORS:
        with pytest.raises(ValueError):
            hom_values(flavor, 0, 256)
        with pytest.raises(ValueError):
            hom_values(flavor, -1, 2)


def test_empty_set_conventions():
    assert enumerate_hom(HomClass.SURJECTION, 2, 0) == ()
    assert enumerate_hom(HomClass.INJECTION, 3, 0) == ()
    assert enumerate_hom(HomClass.INJECTION, 0, 3) == (FinMap(0, 3, ()),)
    assert enumerate_hom(HomClass.SURJECTION, 0, 0) == (FinMap(0, 0, ()),)
    assert enumerate_hom(HomClass.INJECTION, 0, 0) == (FinMap(0, 0, ()),)
    assert enumerate_hom(HomClass.SURJECTION, 0, 2) == ()
    assert enumerate_hom(HomClass.SURJECTION, 2, 3) == ()
    assert enumerate_hom(HomClass.INJECTION, 4, 3) == ()


# ------------------------------------------------------------- dimensions


def test_dimension_examples():
    assert hom_dimension(HomClass.SURJECTION, 3, 2) == 6
    assert hom_dimension(HomClass.INJECTION, 2, 3) == 6
    assert hom_dimension(HomClass.SURJECTION, 6, 3) == 540
    assert hom_dimension(HomClass.INJECTION, 0, 0) == 1
    assert hom_dimension(HomClass.INJECTION, 3, 0) == 0
    assert hom_dimension(HomClass.SURJECTION, 6, 4) == 1560
    assert hom_dimension(HomClass.SURJECTION, 6, 5) == 1800
    assert hom_dimension(HomClass.SURJECTION, 5, 4) == 240
    assert hom_dimension(HomClass.INJECTION, 4, 4) == 24


def test_dimension_matches_enumeration_small():
    for flavor in FLAVORS:
        for b in range(6):
            for a in range(6):
                assert len(enumerate_hom(flavor, b, a)) == \
                    hom_dimension(flavor, b, a), (flavor, b, a)


def test_dimension_matches_raw_counts_through_seven():
    # raw predicate counting over value arrays, no FinMap objects
    for b in range(8):
        for a in range(8):
            if a ** b > 200_000:
                continue
            surj = inj = 0
            for values in product(range(1, a + 1), repeat=b):
                hit = len(set(values))
                surj += hit == a
                inj += hit == b
            assert surj == hom_dimension(HomClass.SURJECTION, b, a)
            assert inj == hom_dimension(HomClass.INJECTION, b, a)


def test_dimension_boundary_cells_at_seven():
    # the big cells skipped above, checked against factorial identities
    assert hom_dimension(HomClass.SURJECTION, 7, 7) == 5040
    assert hom_dimension(HomClass.INJECTION, 7, 7) == 5040
    # surjections 7->6: choose the doubled fiber then order: C(7,2)*6!
    assert hom_dimension(HomClass.SURJECTION, 7, 6) == 21 * 720
    # inclusion-exclusion for surjections 7->3
    n = sum((-1) ** j * _choose(3, j) * (3 - j) ** 7 for j in range(4))
    assert hom_dimension(HomClass.SURJECTION, 7, 3) == n == 1806


def test_dimension_matches_stirling_and_falling_factorials_through_twelve():
    # hom_dimension is the closed-form character at the identity pair; the
    # counts it must give are a! S(b, a) surjections (sympy's Stirling
    # numbers of the second kind) and a!/(a - b)! injections.
    from math import factorial, perm

    from sympy.functions.combinatorial.numbers import stirling
    for b in range(13):
        for a in range(13):
            assert hom_dimension(HomClass.SURJECTION, b, a) == \
                int(stirling(b, a)) * factorial(a), (b, a)
            assert hom_dimension(HomClass.INJECTION, b, a) == \
                (perm(a, b) if b <= a else 0), (b, a)


def test_hom_functions_refuse_flavors_and_sizes_of_other_types():
    # A flavor's name is not a flavor: with it, hom_values would list the
    # surjections and hom_character count the injections.
    for flavor in ("surjection", "injection", None):
        for fn in (hom_values, hom_character, hom_dimension, enumerate_hom):
            with pytest.raises(TypeError):
                fn(flavor, 3, 2)
    # Bools and floats are refused, also after the int entry is cached.
    for fn in (hom_values, hom_character, hom_dimension, enumerate_hom):
        for flavor in FLAVORS:
            fn(flavor, 2, 1)
            fn(flavor, 1, 2)
            for sizes in ((2, True), (True, 2), (2.0, 1), (1, 2.0)):
                with pytest.raises(TypeError):
                    fn(flavor, *sizes)
    for fn in (hom_values, hom_character, hom_dimension):
        with pytest.raises(ValueError):
            fn(HomClass.SURJECTION, -1, 2)


def _choose(n, k):
    from math import comb
    return comb(n, k)


# ------------------------------------------------------------ composition


def test_compose_examples():
    f = FinMap(3, 2, (1, 2, 2))
    assert compose(identity(2), f) == f
    assert compose(f, identity(3)) == f
    g = FinMap(2, 1, (1, 1))
    assert compose(g, f) == FinMap(3, 1, (1, 1, 1))
    inj = FinMap(1, 2, (2,))
    surj = FinMap(2, 1, (1, 1))
    assert compose(surj, inj) == identity(1)


def test_compose_size_mismatch():
    with pytest.raises(ValueError):
        compose(FinMap(2, 2, (1, 2)), FinMap(2, 3, (1, 2)))


small_maps = st.integers(min_value=0, max_value=4).flatmap(
    lambda b: st.integers(min_value=1, max_value=4).flatmap(
        lambda a: st.tuples(
            st.just(b), st.just(a),
            st.lists(st.integers(min_value=1, max_value=a),
                     min_size=b, max_size=b).map(tuple))))


@settings(max_examples=60, deadline=None)
@given(small_maps, st.data())
def test_compose_associative(triple, data):
    b, a, values = triple
    f = FinMap(b, a, values)
    c = data.draw(st.integers(min_value=1, max_value=4))
    g_vals = data.draw(st.lists(st.integers(min_value=1, max_value=c),
                                min_size=a, max_size=a).map(tuple))
    d = data.draw(st.integers(min_value=1, max_value=4))
    h_vals = data.draw(st.lists(st.integers(min_value=1, max_value=d),
                                min_size=c, max_size=c).map(tuple))
    g = FinMap(a, c, g_vals)
    h = FinMap(c, d, h_vals)
    assert compose(h, compose(g, f)) == compose(compose(h, g), f)


def test_wide_subcategory_closure():
    for b, m, a in [(3, 2, 2), (4, 3, 2), (3, 3, 2), (2, 2, 2)]:
        for f in enumerate_hom(HomClass.SURJECTION, b, m):
            for g in enumerate_hom(HomClass.SURJECTION, m, a):
                assert compose(g, f).is_surjective()
    for b, m, a in [(1, 2, 3), (2, 3, 4), (2, 2, 3)]:
        for f in enumerate_hom(HomClass.INJECTION, b, m):
            for g in enumerate_hom(HomClass.INJECTION, m, a):
                assert compose(g, f).is_injective()


# --------------------------------------------------------------- sections


def test_sections_of_unique_surjection_to_point():
    f = FinMap(2, 1, (1, 1))
    assert sections(f) == (FinMap(1, 2, (1,)), FinMap(1, 2, (2,)))


def test_sections_of_bijection_is_inverse():
    for values in permutations(range(1, 5)):
        g = FinMap(4, 4, values)
        inverse = tuple(sorted(range(1, 5), key=g))
        assert sections(g) == (FinMap(4, 4, inverse),)


def test_sections_fiber_type_2_1():
    f = FinMap(3, 2, (1, 1, 2))
    assert [s.values for s in sections(f)] == [(1, 3), (2, 3)]


def test_sections_against_brute_filter():
    for b, a in [(3, 2), (4, 2), (4, 3), (3, 1)]:
        for f in enumerate_hom(HomClass.SURJECTION, b, a):
            brute = [s for s in (FinMap(a, b, values) for values in
                                 product(range(1, b + 1), repeat=a))
                     if compose(f, s) == identity(a)]
            assert list(sections(f)) == brute


def test_sections_are_injective_and_count_by_fibers():
    from math import prod
    for b in range(5):
        for a in range(b + 1):
            for f in enumerate_hom(HomClass.SURJECTION, b, a):
                secs = sections(f)
                fiber_sizes = [f.values.count(t) for t in range(1, a + 1)]
                assert len(secs) == prod(fiber_sizes)
                assert len(secs) >= 1
                for s in secs:
                    assert s.is_injective()
                    assert compose(f, s) == identity(a)


def test_sections_requires_surjective():
    # A map that misses a point has no right inverse.
    for f in (FinMap(2, 3, (1, 2)), FinMap(3, 2, (1, 1, 1)),
              FinMap(0, 1, ())):
        assert sections(f) == ()


def test_sections_lex_order():
    for f in enumerate_hom(HomClass.SURJECTION, 4, 2):
        vals = [s.values for s in sections(f)]
        assert vals == sorted(vals)
