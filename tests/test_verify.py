"""Tests for the check registry, report determinism, artifacts, and the CLI.

Oracles: report JSON is round-tripped through json.loads and compared against
schema expectations; determinism is checked byte-for-byte across repeated
in-process renders and across two separate interpreter processes (which run
with different hash seeds); CSV dimension rows are cross-checked against
independently computed hom-space dimensions; exit codes are driven through
both the library entry point and the argparse CLI.
"""

import hashlib
import json
import os
import subprocess
import sys
import types

import pytest

import fsprim.verify as verify
from fsprim.finsetcat import HomClass, hom_dimension
from fsprim.fsfilt import (IdentityCheck, filtration_level,
                           lambda_bar_character, primitives)
from fsprim.repdecomp import BiSchurClass
from fsprim.verify import (
    CHECK_IDS,
    CheckReport,
    collect_reports,
    dimension_table,
    kring_fs_check,
    main,
    primfs_formula,
    render_dimension_csv,
    render_reports_json,
    run_check,
    subquotient_formula,
)

from test_ratlinalg import sparse_columns

BOUND2_SEQUENCE = [
    "dimension_counts", "orthogonality", "derham", "theta_equivariance",
    "theta_injectivity", "coker_theta", "coker_action", "lambda_bar",
    "filtration", "closure", "sgn_vanishing", "ses", "ses",
    "primfs_formula", "kring_fs_check", "subquotient_formula",
]


# ------------------------------------------------------------ report type


def test_fail_report_requires_expected_and_computed():
    with pytest.raises(ValueError):
        CheckReport("x", {}, "fail")
    with pytest.raises(ValueError):
        CheckReport("x", {}, "bogus-status")
    report = CheckReport("x", {"bound": 1}, "fail", "1", "2", elapsed=0.5)
    assert report.as_dict() == {"check": "x", "parameters": {"bound": 1},
                                "status": "fail", "expected": "1",
                                "computed": "2"}


def test_elapsed_never_serialized():
    reports = collect_reports(1)
    assert any(r.elapsed > 0 for r in reports)
    payload = json.loads(render_reports_json(reports))
    for item in payload:
        assert "elapsed" not in item
        assert set(item) <= {"check", "parameters", "status",
                             "expected", "computed"}


def test_elapsed_excluded_from_equality():
    a = CheckReport("x", {}, "pass", elapsed=0.1)
    b = CheckReport("x", {}, "pass", elapsed=9.9)
    assert a == b


# ------------------------------------------------------- registry and order


def test_canonical_run_order_at_bound_two():
    assert [r.check for r in collect_reports(2)] == BOUND2_SEQUENCE


def test_inversion_check_addressable_but_not_in_full_run():
    assert "invert" in CHECK_IDS
    assert "invert" not in BOUND2_SEQUENCE
    (report,) = run_check("invert", 1)
    assert report.status == "pass"
    assert report.parameters == {"max_weight": 5}


def test_unknown_check_id_raises():
    with pytest.raises(KeyError):
        run_check("nonsense", 2)


def test_fixed_range_checks_ignore_bound():
    (orth,) = run_check("orthogonality", 0)
    assert orth.status == "pass"
    assert orth.parameters == {"max_degree": 7}
    (der,) = run_check("derham", 0)
    assert der.status == "pass"
    assert der.parameters == {"max_degree": 10}


def test_bound_zero_runs_vacuously_green():
    reports = collect_reports(0)
    assert all(r.status in ("pass", "vacuous") for r in reports)
    by_check = {r.check: r.status for r in reports}
    assert by_check["coker_action"] == "vacuous"
    assert by_check["sgn_vanishing"] == "vacuous"
    assert by_check["primfs_formula"] == "vacuous"
    assert "ses" not in by_check


def test_formula_ops_require_positive_bound():
    for op in (primfs_formula, kring_fs_check, subquotient_formula):
        with pytest.raises(ValueError):
            op(0)


def test_sweeps_refuse_negative_bounds():
    for check_id in CHECK_IDS:
        with pytest.raises(ValueError):
            run_check(check_id, -1)
    with pytest.raises(ValueError):
        collect_reports(-1)
    for table in (dimension_table, render_dimension_csv):
        with pytest.raises(ValueError):
            table(-1)


def test_sweeps_refuse_bounds_that_are_not_ints():
    # True and 2.5 compare like ints, so a sweep would report them a pass.
    for bound in (True, 2.5):
        for check_id in ("dimension_counts", "orthogonality", "closure"):
            with pytest.raises(TypeError):
                run_check(check_id, bound)
        with pytest.raises(TypeError):
            collect_reports(bound)
        for op in (primfs_formula, kring_fs_check, subquotient_formula,
                   dimension_table, render_dimension_csv):
            with pytest.raises(TypeError):
                op(bound)


def test_parameters_record_what_actually_ran():
    reports = collect_reports(2)
    for r in reports:
        if r.check in ("kring_fs_check", "subquotient_formula"):
            assert r.parameters == {"bound": 2}


def test_collect_reports_runs_every_check_at_the_bound(monkeypatch):
    calls = []

    def spy(check_id, bound):
        calls.append((check_id, bound))
        return [CheckReport(check_id, {"bound": bound}, "pass")]

    monkeypatch.setattr(verify, "run_check", spy)
    reports = verify.collect_reports(6)
    assert calls == [(check_id, 6) for check_id in verify._RUN_ORDER]
    assert [r.check for r in reports] == list(verify._RUN_ORDER)


# ------------------------------------------------------------- determinism


def test_reports_render_byte_identical_in_process():
    first = render_reports_json(collect_reports(2))
    second = render_reports_json(collect_reports(2))
    assert first == second
    assert render_dimension_csv(3) == render_dimension_csv(3)


def _child_env() -> dict:
    """The environment of a child that imports fsprim from these sources."""
    src = os.path.dirname(os.path.dirname(verify.__file__))
    return dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                PYTHONPATH=os.pathsep.join(
                    filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_reports_byte_identical_across_processes(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        result = subprocess.run(
            [sys.executable, "-m", "fsprim.verify", "--max-size", "1",
             "verify", "all", "--json", str(path)],
            capture_output=True, text=True, env=_child_env())
        assert result.returncode == 0, result.stderr
    assert paths[0].read_bytes() == paths[1].read_bytes()


# sha256 of `verify all --max-size 5 --json`; any change to it is a change
# to the reports and must be made on purpose.
BOUND5_REPORT_SHA256 = (
    "66ff2e93813bb3efbc430b1902460774cb86ff68068fc7cbee8842264b6df347")


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_bound5_report_bytes_are_pinned(tmp_path, flags):
    path = tmp_path / "reports.json"
    result = subprocess.run(
        [sys.executable, *flags, "-m", "fsprim.verify", "--max-size", "5",
         "verify", "all", "--json", str(path)],
        capture_output=True, text=True, env=_child_env())
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        BOUND5_REPORT_SHA256


def test_runs_without_sympy(tmp_path):
    # sympy is a test dependency only; with it unimportable, the bound-5
    # reports keep their pinned bytes.
    path = tmp_path / "reports.json"
    code = f"""
import sys
sys.modules["sympy"] = None
from fsprim.verify import main
raise SystemExit(main(["--max-size", "5", "verify", "all",
                       "--json", {str(path)!r}]))
"""
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True, env=_child_env())
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        BOUND5_REPORT_SHA256


def test_contracts_hold_under_optimize():
    # python -O strips assert statements; these contracts must not be.
    code = """
from fractions import Fraction
from fsprim.finsetcat import (FinMap, HomClass, compose, enumerate_hom,
                              hom_character, hom_dimension, hom_values)
from fsprim.fsfilt import (_reduced_restriction, _restricted_bicharacter,
                           closure_check,
                           coker_action_triviality, coker_theta_decompose,
                           filtration_level, hom_module,
                           lambda_bar_character, ses_identity_check,
                           sgn_vanishing_check, sign_hook_class,
                           subquotient_decompose, subquotient_identity_check,
                           theta_matrix)
from fsprim.partitions import assert_partition, partitions_of
from fsprim.ratlinalg import RatMatrix, solve_membership
from fsprim.repdecomp import (BiClassFunction, BiSchurClass, ClassFunction,
                              SchurClass, adjacent_transposition,
                              biconvolution_right, convolution_class,
                              derham_check, invert_identity_check,
                              mn_character, pieri_e, pieri_h, sign_class,
                              trivial_class)
from fsprim.verify import (CheckReport, collect_reports, dimension_table,
                           kring_fs_check, primfs_formula,
                           render_dimension_csv, run_check,
                           subquotient_formula)
M = hom_module(HomClass.SURJECTION, 3, 2)
A = RatMatrix.from_triplets(2, 2, [(0, 0, 1), (0, 1, 2), (1, 0, 3), (1, 1, 4)])
B = RatMatrix.from_triplets(1, 3, [(0, 0, 1), (0, 1, 2), (0, 2, 3)])
for call in (lambda: FinMap(2, 1, (5, 7)), lambda: theta_matrix(3, 2),
             lambda: CheckReport("x", {}, "fail"),
             lambda: CheckReport("x", {}, "bogus-status"),
             lambda: primfs_formula(0), lambda: kring_fs_check(0),
             lambda: subquotient_formula(0),
             lambda: run_check("closure", -1), lambda: collect_reports(-1),
             lambda: dimension_table(-1), lambda: render_dimension_csv(-1),
             lambda: A @ B,
             lambda: RatMatrix.from_columns(2, [(1, 2, 3)]),
             lambda: RatMatrix.from_triplets(2, 2, [(2, 0, 1)]),
             lambda: A.select_rows((2,)), lambda: A.entry(2, 0),
             lambda: RatMatrix.zeros(-1, 0),
             lambda: solve_membership(A, (1, 2, 3)),
             lambda: _reduced_restriction(2, 1, 3),
             lambda: closure_check(2, 3, 1),
             lambda: ses_identity_check(2, 3, 2),
             lambda: coker_action_triviality(2, 3, 4),
             lambda: sgn_vanishing_check(2, 3),
             lambda: filtration_level(2, 1, -2),
             lambda: _restricted_bicharacter(
                 M, RatMatrix.identity(6) @ RatMatrix.identity(6)),
             lambda: M.right_perm(bytes((2, 1, 3, 4))),
             lambda: M.right_perm(bytes((1, 1, 2))),
             lambda: M.left_perm(bytes((1, 1))),
             lambda: M.left_perm(bytes((3, 1))),
             lambda: subquotient_decompose(-1, 2, 1),
             lambda: subquotient_identity_check(0, 2, 1),
             lambda: coker_theta_decompose(3, 2),
             lambda: sign_hook_class(3, 2),
             lambda: lambda_bar_character(1, -1),
             lambda: lambda_bar_character(1, 3)((2,)),
             lambda: lambda_bar_character(1, 3)((1, 1, 1, 1)),
             lambda: compose(FinMap(3, 3, (1, 2, 3)), FinMap(1, 2, (2,))),
             lambda: FinMap(2, 2, (2, 1))(0),
             lambda: FinMap(2, 2, (2, 1))(3),
             lambda: enumerate_hom(HomClass.SURJECTION, 2, -1),
             lambda: hom_values(HomClass.INJECTION, -1, 2),
             lambda: hom_values(HomClass.SURJECTION, 1, 256),
             lambda: hom_dimension(HomClass.INJECTION, 2, -1),
             lambda: adjacent_transposition(3, 0),
             lambda: mn_character((2, 1), (2,)),
             lambda: sign_class(-2), lambda: trivial_class(-1),
             lambda: partitions_of(-1),
             lambda: ClassFunction(3, (1,)),
             lambda: BiClassFunction(2, 2, ((1, 1),)),
             lambda: BiClassFunction(2, 2, ((1, 1), (1,))),
             lambda: BiSchurClass({((2,), (1, 1)): Fraction(5, 2)}),
             lambda: SchurClass({(2,): 1.5}),
             lambda: SchurClass({(1, 2): 1}),
             lambda: BiSchurClass({((2,), (0,)): 1}),
             lambda: pieri_h((1,), -1), lambda: pieri_e((1,), -1),
             lambda: derham_check(0),
             lambda: invert_identity_check((2, 1), -1),
             lambda: convolution_class(BiSchurClass({((1,), (1,)): 1}),
                                       SchurClass({(1,): 1})),
             lambda: biconvolution_right(SchurClass({(1,): 1}),
                                         SchurClass({(1,): 1})),
             lambda: assert_partition([1]), lambda: assert_partition((0,)),
             lambda: assert_partition((1, 2))):
    try:
        call()
    except ValueError:
        continue
    raise SystemExit("accepted")
for call in (lambda: RatMatrix.from_triplets(1, 1, [(0, 0, 0.5)]),
             lambda: run_check("dimension_counts", True),
             lambda: run_check("orthogonality", 2.5),
             lambda: collect_reports(True),
             lambda: primfs_formula(True), lambda: kring_fs_check(2.5),
             lambda: subquotient_formula(True),
             lambda: dimension_table(True), lambda: render_dimension_csv(2.5),
             lambda: ClassFunction(True, (1,)),
             lambda: ClassFunction(2.0, (1, 1)),
             lambda: BiClassFunction(True, 1, ((1,),)),
             lambda: BiClassFunction(1, 2.0, ((1, 1),)),
             lambda: M.left_perm(FinMap(2, 2, (2, 1))),
             lambda: M.right_perm((2, 3, 1)),
             lambda: SchurClass({(1,): True}),
             lambda: ClassFunction(2, (True, 0)),
             lambda: RatMatrix.from_triplets(1, 1, [(0, 0, True)]),
             lambda: hom_values("surjection", 3, 2),
             lambda: hom_character(HomClass.INJECTION, 2, True),
             lambda: hom_dimension(HomClass.SURJECTION, 2.0, 1),
             lambda: derham_check(True), lambda: pieri_e((1,), True),
             lambda: invert_identity_check((1,), True)):
    try:
        call()
    except TypeError:
        continue
    raise SystemExit("accepted a bool or a float")
"""
    result = subprocess.run([sys.executable, "-O", "-c", code],
                            capture_output=True, text=True, env=_child_env())
    assert result.returncode == 0, result.stdout + result.stderr


# ------------------------------------------------------ individual checks


def test_injectivity_findings_list_the_deficient_cells():
    (report,) = run_check("theta_injectivity", 4)
    assert report.status == "pass"
    computed = json.loads(report.computed)
    assert computed == json.loads(report.expected)
    deficient = {(c["target_size"], c["source_size"]): c["kernel_dimension"]
                 for c in computed}
    assert deficient[(3, 4)] == 13
    assert all(c["kernel_is_filtration_level"] for c in computed)
    assert (2, 3) in deficient and deficient[(2, 3)] == 1
    assert (2, 2) not in deficient


def _theta_missing_one_entry(monkeypatch, cell):
    import fsprim.fsfilt as fsfilt
    from fsprim.ratlinalg import RatMatrix
    real = fsfilt.theta_matrix

    def corrupted(a, b):
        mat = real(a, b)
        if (a, b) != cell:
            return mat
        cols = sparse_columns(mat)
        dropped = min((i, j) for j, col in cols.items() for i in col)
        return RatMatrix.from_triplets(
            mat.rows, mat.cols,
            ((i, j, v) for j, col in cols.items() for i, v in col.items()
             if (i, j) != dropped))

    monkeypatch.setattr(fsfilt, "theta_matrix", corrupted)


def test_theta_kernel_check_detects_a_dropped_entry(monkeypatch):
    from fsprim.fsfilt import theta_kernel_level_check
    _theta_missing_one_entry(monkeypatch, (3, 5))
    assert not theta_kernel_level_check(3, 5)
    assert theta_kernel_level_check(2, 5)


def test_theta_injectivity_fails_on_a_dropped_entry(monkeypatch):
    _theta_missing_one_entry(monkeypatch, (3, 5))
    (report,) = run_check("theta_injectivity", 5)
    assert report.status == "fail"
    wrong = [c for c in json.loads(report.computed)
             if not c["kernel_is_filtration_level"]]
    assert [(c["target_size"], c["source_size"]) for c in wrong] == [(3, 5)]


def test_theta_equivariance_detects_a_dropped_entry(monkeypatch):
    from fsprim.fsfilt import theta_equivariance_check
    _theta_missing_one_entry(monkeypatch, (2, 3))
    assert not theta_equivariance_check(2, 3)
    assert theta_equivariance_check(1, 3)
    (report,) = run_check("theta_equivariance", 3)
    assert report.status == "fail"
    assert (report.expected, report.computed) == (
        '{"equivariant":true,"source_size":3,"target_size":2}',
        '{"equivariant":false,"source_size":3,"target_size":2}')


def test_theta_equivariance_detects_generators_on_the_wrong_side(
        monkeypatch):
    import fsprim.fsfilt as fsfilt
    from fsprim.fsfilt import theta_equivariance_check
    real = fsfilt.hom_module

    def wrong_sides(flavor, source_size, target_size):
        module = real(flavor, source_size, target_size)
        if flavor is not HomClass.INJECTION:
            return module
        return types.SimpleNamespace(
            left_generator_perms=module.right_generator_perms,
            right_generator_perms=module.left_generator_perms)

    monkeypatch.setattr(fsfilt, "hom_module", wrong_sides)
    assert not theta_equivariance_check(2, 3)


def test_ses_reports_one_per_layer():
    reports = run_check("ses", 3)
    assert [r.parameters["level"] for r in reports] == [1, 2, 3]
    assert all(r.status == "pass" for r in reports)


def test_formula_checks_pass_at_small_bounds():
    assert primfs_formula(3).status == "pass"
    assert kring_fs_check(3).status == "pass"
    assert subquotient_formula(3).status == "pass"


def test_fail_report_pinpoints_first_differing_coefficient(monkeypatch):
    real = verify.kring_identity_check

    def skewed(b, a):
        chk = real(b, a)
        if (b, a) == (2, 1):
            bad = chk.lhs + BiSchurClass({((1,), (2,)): 3})
            return IdentityCheck(False, bad, chk.rhs)
        return chk

    monkeypatch.setattr(verify, "kring_identity_check", skewed)
    report = kring_fs_check(2)
    assert report.status == "fail"
    expected = json.loads(report.expected)
    computed = json.loads(report.computed)
    assert expected == {"source_size": 2, "target_size": 1,
                        "left": [1], "right": [2], "coefficient": 1}
    assert computed == {"source_size": 2, "target_size": 1,
                        "left": [1], "right": [2], "coefficient": 4}


def test_subquotient_formula_fails_at_a_corrupted_cached_pieri_product(
        monkeypatch):
    from fsprim.repdecomp import SchurClass, _irreducible_product
    product = _irreducible_product((1,), (1,))
    assert product == SchurClass({(2,): 1, (1, 1): 1})
    (report,) = run_check("subquotient_formula", 4)
    assert report.status == "pass"
    monkeypatch.setattr(product, "_terms", (((2,), 1), ((1, 1), 2)))
    assert _irreducible_product((1,), (1,)) is product
    (report,) = run_check("subquotient_formula", 4)
    assert report.status == "fail"


def test_orthogonality_detects_a_corrupted_table(monkeypatch):
    import fsprim.repdecomp as repdecomp
    real = repdecomp.character_table

    def corrupted(n):
        table = real(n)
        if n == 3:
            rows = [list(row) for row in table]
            rows[0][0] += 1
            return tuple(tuple(row) for row in rows)
        return table

    monkeypatch.setattr(verify, "character_table", corrupted)
    (report,) = run_check("orthogonality", 0)
    assert report.status == "fail"
    assert json.loads(report.computed)["degree"] == 3


_SKEW = BiSchurClass({((1,), (2,)): 1})


def _skew_identity(chk):
    return IdentityCheck(False, chk.lhs + _SKEW, chk.rhs)


def _false(_):
    return False


def _level_of_dimension(dim):
    return lambda _: types.SimpleNamespace(cols=dim)


# (check, name patched in fsprim.verify, its arguments at the faulty cell,
#  corruption of the real result there, expected, computed).  Each check
# runs at bound 3 and must fail at exactly that cell, with these payloads.
_FAULTS = {
    "dimension_counts-surjections": (
        "dimension_counts", "hom_values", (HomClass.SURJECTION, 3, 2),
        lambda maps: maps[1:],
        '{"source_size":3,"surjections":6,"target_size":2}',
        '{"source_size":3,"surjections":5,"target_size":2}'),
    "dimension_counts-hom_dimension": (
        "dimension_counts", "hom_dimension", (HomClass.SURJECTION, 3, 2),
        lambda dim: dim + 1,
        '{"source_size":3,"surjections_hom_dimension":6,"target_size":2}',
        '{"source_size":3,"surjections_hom_dimension":7,"target_size":2}'),
    "dimension_counts-injections": (
        "dimension_counts", "hom_values", (HomClass.INJECTION, 2, 3),
        lambda maps: maps[1:],
        '{"injections":6,"source_size":3,"target_size":2}',
        '{"injections":5,"source_size":3,"target_size":2}'),
    "derham": (
        "derham", "derham_check", (4,), _false,
        '{"cancels":true,"degree":4}',
        '{"cancels":false,"degree":4}'),
    "invert": (
        "invert", "invert_identity_check", ((2, 1),), _false,
        '{"partition":[2,1],"recovered":true}',
        '{"partition":[2,1],"recovered":false}'),
    "theta_equivariance": (
        "theta_equivariance", "theta_equivariance_check", (1, 2), _false,
        '{"equivariant":true,"source_size":2,"target_size":1}',
        '{"equivariant":false,"source_size":2,"target_size":1}'),
    "coker_theta": (
        "coker_theta", "coker_theta_decompose", (1, 2),
        lambda cls: cls + _SKEW,
        '{"class":[{"coefficient":1,"left":[1],"right":[1,1]}],'
        '"source_size":2,"target_size":1}',
        '{"class":[{"coefficient":1,"left":[1],"right":[2]},'
        '{"coefficient":1,"left":[1],"right":[1,1]}],'
        '"source_size":2,"target_size":1}'),
    "coker_action": (
        "coker_action", "coker_action_triviality", (1, 0, 2), _false,
        '{"acts_trivially":true,"low_size":0,"source_size":2,"target_size":1}',
        '{"acts_trivially":false,"low_size":0,"source_size":2,'
        '"target_size":1}'),
    "lambda_bar-dimension": (
        "lambda_bar", "lambda_bar_character", (1, 3),
        lambda _: lambda_bar_character(0, 3),
        '{"dimension":2,"power":1,"set_size":3}',
        '{"dimension":1,"power":1,"set_size":3}'),
    "lambda_bar-class": (
        "lambda_bar", "lambda_bar_character", (0, 2),
        lambda _: lambda_bar_character(1, 2),
        '{"class":[{"coefficient":1,"partition":[2]}],"power":0,"set_size":2}',
        '{"class":[{"coefficient":1,"partition":[1,1]}],"power":0,'
        '"set_size":2}'),
    "filtration-empty": (
        "filtration", "filtration_level", (2, 1, -1), _level_of_dimension(1),
        '{"holds":true,"property":"empty_at_depth_-1","source_size":2,'
        '"target_size":1}',
        '{"holds":false,"property":"empty_at_depth_-1","source_size":2,'
        '"target_size":1}'),
    "filtration-exhaustion": (
        "filtration", "filtration_level", (2, 1, 2), _level_of_dimension(0),
        '{"holds":true,"property":"exhaustion","source_size":2,'
        '"target_size":1}',
        '{"holds":false,"property":"exhaustion","source_size":2,'
        '"target_size":1}'),
    "filtration-nesting": (
        "filtration", "filtration_nesting_check", (2, 1), _false,
        '{"holds":true,"property":"nesting","source_size":2,"target_size":1}',
        '{"holds":false,"property":"nesting","source_size":2,'
        '"target_size":1}'),
    "filtration-stability": (
        "filtration", "fi_stability_check", (2, 1), _false,
        '{"holds":true,"property":"injection_stability","source_size":2,'
        '"target_size":1}',
        '{"holds":false,"property":"injection_stability","source_size":2,'
        '"target_size":1}'),
    "closure-automorphisms": (
        "closure", "automorphism_block_check", (2,), _false,
        '{"block_is_full":true,"set_size":2}',
        '{"block_is_full":false,"set_size":2}'),
    "closure-composition": (
        "closure", "closure_check", (2, 1, 0), _false,
        '{"closed":true,"mid_size":1,"source_size":2,"target_size":0}',
        '{"closed":false,"mid_size":1,"source_size":2,"target_size":0}'),
    "sgn_vanishing": (
        "sgn_vanishing", "sgn_vanishing_check", (2, 1), _false,
        '{"sign_multiplicity":0,"source_size":2,"target_size":1}',
        '{"sign_multiplicity":"nonzero","source_size":2,"target_size":1}'),
    "ses": (
        "ses", "ses_identity_check", (2, 2, 0), _skew_identity,
        '{"coefficient":0,"left":[1],"level":2,"right":[2],"source_size":2,'
        '"target_size":0}',
        '{"coefficient":1,"left":[1],"level":2,"right":[2],"source_size":2,'
        '"target_size":0}'),
    "primfs_formula": (
        "primfs_formula", "primfs_identity_check", (2, 1), _skew_identity,
        '{"coefficient":0,"left":[1],"right":[2],"source_size":2,'
        '"target_size":1}',
        '{"coefficient":1,"left":[1],"right":[2],"source_size":2,'
        '"target_size":1}'),
    "subquotient_formula": (
        "subquotient_formula", "subquotient_identity_check", (1, 2, 1),
        _skew_identity,
        '{"coefficient":1,"left":[1],"level":1,"right":[2],"source_size":2,'
        '"target_size":1}',
        '{"coefficient":2,"left":[1],"level":1,"right":[2],"source_size":2,'
        '"target_size":1}'),
}


@pytest.mark.parametrize("fault", sorted(_FAULTS))
def test_check_fails_at_an_injected_fault(monkeypatch, fault):
    check, name, cell, corrupt, expected, computed = _FAULTS[fault]
    real = getattr(verify, name)

    def patched(*args):
        result = real(*args)
        return corrupt(result) if args == cell else result

    monkeypatch.setattr(verify, name, patched)
    reports = run_check(check, 3)
    failed = [r for r in reports if r.status == "fail"]
    assert len(failed) == 1
    assert all(r.status == "pass" for r in reports if r is not failed[0])
    assert (failed[0].expected, failed[0].computed) == (expected, computed)


# ------------------------------------------------------------- artifacts


def test_run_all_writes_reports_and_dimension_table(tmp_path):
    out = tmp_path / "reports.json"
    csv_out = tmp_path / "dims.csv"
    assert main(["--max-size", "2", "verify", "all",
                 "--json", str(out), "--csv", str(csv_out)]) == 0
    payload = json.loads(out.read_text())
    assert [item["check"] for item in payload] == BOUND2_SEQUENCE
    assert out.read_text() == render_reports_json(collect_reports(2))
    assert csv_out.read_text() == render_dimension_csv(2)


def test_run_all_reports_io_failure_distinctly(tmp_path, capsys):
    missing = tmp_path / "no-such-dir" / "reports.json"
    assert main(["--max-size", "0", "verify", "all",
                 "--json", str(missing)]) == 2
    assert "failed to write report artifact" in capsys.readouterr().err


def test_run_all_fails_with_exit_one_on_mathematical_failure(
        monkeypatch, tmp_path):
    real = verify.kring_identity_check

    def skewed(b, a):
        chk = real(b, a)
        if (b, a) == (1, 1):
            return IdentityCheck(False,
                                 chk.lhs + BiSchurClass({((1,), (1,)): 1}),
                                 chk.rhs)
        return chk

    monkeypatch.setattr(verify, "kring_identity_check", skewed)
    out = tmp_path / "reports.json"
    assert main(["--max-size", "1", "verify", "all", "--json", str(out)]) == 1
    payload = json.loads(out.read_text())
    failed = [item for item in payload if item["status"] == "fail"]
    assert len(failed) == 1
    assert failed[0]["check"] == "kring_fs_check"
    assert "expected" in failed[0] and "computed" in failed[0]


def test_dimension_table_matches_independent_dimensions():
    header, rows = dimension_table(3)
    assert header == ["source_size", "target_size", "dim_full",
                      "dim_primitive", "dim_level_1", "dim_level_2",
                      "dim_level_3"]
    assert len(rows) == 10
    for row in rows:
        b, a, full, prim, *levels = row
        assert full == hom_dimension(HomClass.SURJECTION, b, a)
        assert prim == primitives(b, a).cols
        assert levels == [filtration_level(b, a, t).cols
                          for t in (1, 2, 3)]
    csv_text = render_dimension_csv(3)
    assert csv_text.splitlines()[0] == ",".join(header)
    assert "3,2,6,1,6,6,6" in csv_text.splitlines()


# -------------------------------------------------------------------- CLI


def test_cli_dims_prints_csv(capsys):
    assert main(["--max-size", "2", "dims"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "source_size,target_size,dim_full,dim_primitive," \
                       "dim_level_1,dim_level_2"
    assert lines[1] == "0,0,1,1,1,1"


def test_cli_theta_prints_rank_report_and_matrix(capsys):
    assert main(["theta", "--a", "2", "--b", "2"]) == 0
    out = capsys.readouterr().out
    assert "rank 2" in out
    assert "kernel_dimension 0" in out
    assert "kernel_is_filtration_level true" in out
    rows = [line for line in out.splitlines()
            if set(line.split()) <= {"0", "1"}]
    assert rows == ["1 0", "0 1"]


def test_cli_theta_prints_the_report_in_its_key_order(capsys):
    assert main(["theta", "--a", "2", "--b", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:7] == ["target_size 2", "source_size 4",
                         "domain_dimension 14", "codomain_dimension 12",
                         "rank 9", "kernel_dimension 5",
                         "kernel_is_filtration_level true"]
    assert lines[7] == "0 0 0 1 1 1 1 0 0 0 0 0 0 0"
    assert len(lines) == 7 + 12


def test_cli_theta_omits_oversized_matrices(capsys):
    assert main(["theta", "--a", "3", "--b", "5"]) == 0
    out = capsys.readouterr().out
    assert "matrix omitted" in out


@pytest.mark.parametrize("command", [["theta"], ["decompose", "--flavor", "fs"],
                                     ["filtration"]], ids=lambda c: c[0])
def test_cli_one_cell_commands_reject_bad_sizes(command, capsys):
    assert main([*command, "--a", "3", "--b", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: require 0 <= a <= b\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", [["theta"], ["decompose", "--flavor", "fs"],
                                     ["decompose", "--flavor", "fi"],
                                     ["filtration"]],
                         ids=["theta", "decompose-fs", "decompose-fi",
                              "filtration"])
def test_cli_one_cell_commands_refuse_sizes_above_255(command, capsys):
    assert main([*command, "--a", "1", "--b", "256"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: require b <= 255\n"
    assert captured.out == ""


_ONE_CELL_COMMANDS = [
    ["theta", "--a", "1", "--b", "2"],
    ["decompose", "--flavor", "fs", "--b", "2", "--a", "1"],
    ["filtration", "--b", "2", "--a", "1"]]


@pytest.mark.parametrize("command", [
    ["dims", "--max-size", "2"], *_ONE_CELL_COMMANDS,
    ["verify", "derham", "--max-size", "2"]], ids=lambda c: c[0])
def test_cli_reports_an_unwritable_json_path(command, tmp_path, capsys):
    missing = tmp_path / "no-such-dir" / "x.json"
    assert main([*command, "--json", str(missing)]) == 2
    assert "failed to write report artifact" in capsys.readouterr().err


@pytest.mark.parametrize("position", ["leading", "trailing"])
@pytest.mark.parametrize("flag", ["--max-size", "--csv"])
@pytest.mark.parametrize("command", _ONE_CELL_COMMANDS, ids=lambda c: c[0])
def test_cli_one_cell_commands_refuse_sweep_flags(command, flag, position,
                                                  tmp_path, capsys):
    value = "3" if flag == "--max-size" else str(tmp_path / "x.csv")
    argv = ([flag, value, *command] if position == "leading"
            else [*command, flag, value])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {command[0]} does not take {flag}\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_cli_decompose_surjection_span(capsys):
    assert main(["decompose", "--flavor", "fs", "--b", "3", "--a", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "[2] [3] 1" in lines
    assert "[1, 1] [2, 1] 1" in lines
    assert len(lines) == 4


def test_cli_decompose_injection_span(capsys):
    assert main(["decompose", "--flavor", "fi", "--b", "3", "--a", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["[3] [1] 1", "[2, 1] [1] 1"]


def test_cli_decompose_empty_prints_zero(capsys):
    assert main(["decompose", "--flavor", "fs", "--b", "1", "--a", "0"]) == 0
    assert capsys.readouterr().out.splitlines() == ["0"]


def test_cli_filtration_lists_levels_and_layers(capsys):
    assert main(["filtration", "--b", "3", "--a", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "level -1 dimension 0" in out
    assert "level 0 dimension 1" in out
    assert "level 3 dimension 6" in out
    assert any(line.startswith("layer 0 class ") for line in out)
    assert any(line.startswith("layer 1 class ") for line in out)


def test_cli_verify_single_check(capsys):
    assert main(["--max-size", "2", "verify", "coker_theta"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("pass     coker_theta")
    assert "all 1 checks passed" in out


def test_cli_verify_unknown_check(capsys):
    assert main(["verify", "nonsense"]) == 2
    err = capsys.readouterr().err
    assert "unknown check" in err
    assert "coker_theta" in err


def test_cli_rejects_negative_bound(capsys):
    assert main(["--max-size", "-1", "verify", "all"]) == 2
    captured = capsys.readouterr()
    assert "--max-size must be nonnegative" in captured.err
    assert "passed" not in captured.out
    assert main(["dims", "--max-size", "-3"]) == 2


def test_cli_verify_refuses_a_run_without_reports(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["--max-size", "0", "verify", "ses", "--json", str(out)]) == 2
    captured = capsys.readouterr()
    assert "no report" in captured.err
    assert "passed" not in captured.out
    assert not out.exists()


def test_cli_verify_all_names_vacuous_reports(capsys):
    # At bound 0 some sweeps visit no cell; those are never counted as passes.
    assert main(["--max-size", "0", "verify", "all"]) == 0
    out = capsys.readouterr().out.splitlines()
    vacuous = sum(line.startswith("vacuous ") for line in out)
    passed = sum(line.startswith("pass ") for line in out)
    assert vacuous and passed
    assert out[-1] == f"{passed} passed, {vacuous} vacuous"


def test_collect_reports_builds_no_finmap():
    # Every map in the package is its value string; FinMap is the validated
    # view for outside callers.  A fresh process, so no cache hides one.
    code = """
from fsprim.finsetcat import FinMap
from fsprim.verify import collect_reports
built = []
post_init = FinMap.__post_init__
def counted(self):
    built.append(self)
    post_init(self)
FinMap.__post_init__ = counted
collect_reports(3)
FinMap(1, 1, (1,))
print(len(built))
"""
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True, env=_child_env())
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["1"]


def test_cli_verify_all_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "r.json"
    csv_out = tmp_path / "d.csv"
    code = main(["--max-size", "1", "verify", "all",
                 "--json", str(out), "--csv", str(csv_out)])
    assert code == 0
    assert json.loads(out.read_text())
    assert csv_out.read_text().startswith("source_size,target_size,")
    stdout = capsys.readouterr().out
    assert "all 15 checks passed" in stdout


def test_cli_global_flags_accepted_before_subcommand(tmp_path):
    out = tmp_path / "r.json"
    assert main(["--max-size", "1", "--json", str(out),
                 "verify", "derham"]) == 0
    assert json.loads(out.read_text())[0]["check"] == "derham"


def test_cli_json_artifacts_for_inspection_subcommands(tmp_path, capsys):
    theta_out = tmp_path / "theta.json"
    assert main(["theta", "--a", "2", "--b", "3",
                 "--json", str(theta_out)]) == 0
    payload = json.loads(theta_out.read_text())
    assert payload["rank"] == 5
    assert payload["kernel_dimension"] == 1
    assert len(payload["matrix"]) == 6

    dec_out = tmp_path / "dec.json"
    assert main(["decompose", "--flavor", "fs", "--b", "2", "--a", "1",
                 "--json", str(dec_out)]) == 0
    assert json.loads(dec_out.read_text()) == [
        {"left": [1], "right": [2], "coefficient": 1}]

    filt_out = tmp_path / "filt.json"
    assert main(["filtration", "--b", "2", "--a", "1",
                 "--json", str(filt_out)]) == 0
    payload = json.loads(filt_out.read_text())
    assert payload["level_dimensions"]["-1"] == 0
    assert payload["level_dimensions"]["2"] == 1
    capsys.readouterr()
