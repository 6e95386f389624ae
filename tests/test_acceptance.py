"""Acceptance suite: twelve criteria, one test (one pass/fail line) each.

Run with ``pytest -v tests/test_acceptance.py`` to get exactly one line per
criterion.  Every check is exact — rational arithmetic throughout, zero
tolerance — and independent oracles are kept inline: counting formulas,
explicitly built permutation matrices, hook-content dimension counts, and
the induced-character product.
"""

import time
from fractions import Fraction
from math import comb, factorial

from sympy.functions.combinatorial.numbers import stirling

from fsprim.finsetcat import HomClass, enumerate_hom, hom_dimension
from fsprim.fsfilt import (
    coker_theta_decompose,
    filtration_level,
    hom_module,
    lambda_bar_character,
    theta_matrix,
)
from fsprim.partitions import partitions_of
from fsprim.ratlinalg import RatMatrix
from fsprim.repdecomp import (
    SchurClass,
    _induced_product,
    boxtimes,
    decompose_character,
    derham_check,
    invert_identity_check,
    pieri_e,
    pieri_h,
    sign_class,
)
from fsprim.verify import (
    kring_fs_check,
    primfs_formula,
    run_check,
    subquotient_formula,
)


def test_criterion_01_hom_set_counts_match_closed_forms():
    start = time.perf_counter()
    for b in range(8):
        for a in range(b + 1):
            surjections = enumerate_hom(HomClass.SURJECTION, b, a)
            assert len(surjections) == factorial(a) * int(
                stirling(b, a, kind=2))
            assert len(surjections) == hom_dimension(
                HomClass.SURJECTION, b, a)
            injections = enumerate_hom(HomClass.INJECTION, a, b)
            assert len(injections) == factorial(b) // factorial(b - a)
            assert len(injections) == hom_dimension(
                HomClass.INJECTION, a, b)
    assert time.perf_counter() - start < 10.0


def test_criterion_02_equal_size_pairing_is_inversion_permutation_matrix():
    for a in range(7):
        domain = enumerate_hom(HomClass.SURJECTION, a, a)
        target = hom_module(HomClass.INJECTION, a, a)
        triplets = [(target.index[bytes(sorted(range(1, a + 1), key=alpha))],
                     j, Fraction(1))
                    for j, alpha in enumerate(domain)]
        expected = RatMatrix.from_triplets(target.dimension, len(domain),
                                           triplets)
        assert theta_matrix(a, a) == expected


def test_criterion_03_pairing_cokernel_is_the_sign_hook_class():
    for b in range(7):
        for a in range(b + 1):
            got = coker_theta_decompose(a, b)
            if a == b:
                assert got.is_zero()
            else:
                hook = (b - a,) + (1,) * a
                assert got == boxtimes(sign_class(a), SchurClass({hook: 1}))


def test_criterion_04_reduced_exterior_powers_are_single_hooks():
    for b in range(8):
        for t in range(b + 2):
            chi = lambda_bar_character(t, b)
            got = decompose_character(chi)
            dimension = chi((1,) * b)
            if 0 <= t < b:
                hook = (b - t,) + (1,) * t
                assert got == SchurClass({hook: 1})
                assert dimension == comb(b - 1, t)
            else:
                assert got.is_zero()
                assert dimension == 0


def test_criterion_05_filtration_levels_nest_exhaust_and_are_stable():
    (report,) = run_check("filtration", 6)
    assert report.status == "pass", (report.expected, report.computed)
    # Spot-check the exhaustion and trivial ends directly.
    assert filtration_level(5, 2, -1).cols == 0
    assert filtration_level(5, 2, 5).cols == hom_dimension(
        HomClass.SURJECTION, 5, 2)


def test_criterion_06_primitive_blocks_form_a_wide_subcategory():
    (report,) = run_check("closure", 6)
    assert report.status == "pass", (report.expected, report.computed)


def test_criterion_07_sign_isotype_vanishes_below_the_diagonal():
    (report,) = run_check("sgn_vanishing", 6)
    assert report.status == "pass", (report.expected, report.computed)


def test_criterion_08_subquotient_assembly_holds_for_every_layer():
    reports = run_check("ses", 6)
    for report in reports:
        assert report.status == "pass", (report.parameters,
                                         report.expected, report.computed)
    assert [r.parameters["level"] for r in reports] == list(range(1, 7))


def test_criterion_09_alternating_cancellation_and_inversion_identities():
    for n in range(1, 11):
        assert derham_check(n)
    for w in range(6):
        for lam in partitions_of(w):
            assert invert_identity_check(lam)


def test_criterion_10_primitive_class_formula_headline_sweep():
    report = primfs_formula(6)
    assert report.status == "pass", (report.expected, report.computed)


def test_criterion_11_full_class_and_subquotient_formulas_within_budget():
    start = time.perf_counter()
    kring = kring_fs_check(5)
    assert kring.status == "pass", (kring.expected, kring.computed)
    sub = subquotient_formula(5)
    assert sub.status == "pass", (sub.expected, sub.computed)
    assert time.perf_counter() - start < 300.0


def test_criterion_12_pieri_fast_paths_and_orthogonality_relations():
    for w in range(6):
        for lam in partitions_of(w):
            for n in range(4):
                assert pieri_h(lam, n) == _induced_product(
                    lam, (n,) if n else ())
                assert pieri_e(lam, n) == _induced_product(lam, (1,) * n)
    (report,) = run_check("orthogonality", 0)
    assert report.status == "pass", (report.expected, report.computed)
