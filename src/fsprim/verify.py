"""Named exact verification checks, deterministic reports, and the CLI.

Every check runs in exact rational arithmetic and reports ``pass``, ``fail``,
or ``vacuous``.  Reports serialize deterministically — timing is kept in
memory only and never written — so repeated runs over the same inputs produce
byte-identical JSON and CSV artifacts.

The registry maps stable check ids to sweep functions.  ``run_all`` executes
the registered checks in a fixed canonical order and returns a process exit
status: 0 when no check failed, 1 when at least one check reported ``fail``,
and 2 when a report file could not be written (I/O trouble is never conflated
with a mathematical failure).  Inside ``run_all`` the two most expensive
formula sweeps (``kring_fs_check`` and ``subquotient_formula``) are capped at
bound 5 to keep the full run within minutes; invoking either check directly
honours the requested bound.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from math import comb, factorial
from pathlib import Path
from typing import Callable

from sympy.functions.combinatorial.numbers import stirling

from .finsetcat import HomClass, enumerate_hom, hom_dimension
from .fsfilt import (
    automorphism_block_check,
    closure_check,
    coker_action_triviality,
    coker_theta_decompose,
    filtration_level,
    filtration_nesting_check,
    fi_stability_check,
    full_fs_bidecompose,
    hom_module,
    kring_identity_check,
    lambda_bar_rep,
    primfs_identity_check,
    primitives,
    ses_check,
    sgn_vanishing_check,
    subquotient_decompose,
    subquotient_identity_check,
    theta_equivariance_check,
    theta_matrix,
    theta_rank_report,
)
from .partitions import (
    centralizer_order,
    class_size,
    partition_index,
    partitions_of,
    weight,
)
from .repdecomp import (
    BiSchurClass,
    SchurClass,
    boxtimes,
    character_table,
    decompose,
    derham_check,
    invert_identity_check,
    sign_class,
)

__all__ = [
    "CheckReport",
    "primfs_formula",
    "kring_fs_check",
    "subquotient_formula",
    "run_check",
    "run_all",
    "dimension_table",
    "render_reports_json",
    "render_dimension_csv",
    "main",
    "CHECK_IDS",
]


# --------------------------------------------------------------- reports


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one named check, with enough context to reproduce it.

    ``expected`` and ``computed`` are serialized values (classes, dimensions,
    or cell findings) and are always present when ``status`` is ``fail``.
    ``elapsed`` is wall-clock seconds; it is excluded from serialization so
    that report artifacts are byte-identical across runs.
    """

    check: str
    parameters: dict
    status: str
    expected: str | None = None
    computed: str | None = None
    elapsed: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        assert self.status in ("pass", "fail", "vacuous")
        if self.status == "fail":
            assert self.expected is not None and self.computed is not None

    def as_dict(self) -> dict:
        out: dict = {
            "check": self.check,
            "parameters": self.parameters,
            "status": self.status,
        }
        if self.expected is not None:
            out["expected"] = self.expected
        if self.computed is not None:
            out["computed"] = self.computed
        return out


def _serialize(value) -> str:
    """Canonical compact JSON for report payloads (classes included)."""
    if isinstance(value, (SchurClass, BiSchurClass)):
        value = value.to_json()
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _pair_sort_key(pair: tuple[tuple[int, ...], tuple[int, ...]]):
    left, right = pair
    return (weight(left), partition_index(left),
            weight(right), partition_index(right))


def _first_difference(lhs: BiSchurClass, rhs: BiSchurClass):
    """First (left, right) partition pair whose coefficients disagree."""
    pairs = {pair for pair, _ in lhs.terms} | {pair for pair, _ in rhs.terms}
    for pair in sorted(pairs, key=_pair_sort_key):
        if lhs.coefficient(*pair) != rhs.coefficient(*pair):
            return pair
    return None


def _identity_failure(cell_params: dict, lhs: BiSchurClass,
                      rhs: BiSchurClass) -> tuple[str, str]:
    """Expected/computed payloads pinpointing the first differing coefficient."""
    pair = _first_difference(lhs, rhs)
    assert pair is not None
    left, right = pair
    base = dict(cell_params, left=list(left), right=list(right))
    expected = _serialize(dict(base, coefficient=rhs.coefficient(left, right)))
    computed = _serialize(dict(base, coefficient=lhs.coefficient(left, right)))
    return expected, computed


# ---------------------------------------------------- named formula ops


def primfs_formula(bound: int) -> CheckReport:
    """Per-cell identity: primitive class as alternating full-class sums.

    For every cell (source b, target a) with a <= b <= bound, the primitive
    block's bidecomposition plus its signed sign-pair correction must equal
    the alternating sum over t of the full surjection-span classes convolved
    on the right with sign classes.  Exact equality of BiSchurClass values.
    """
    assert bound >= 1
    start = time.perf_counter()
    for b in range(bound + 1):
        for a in range(b + 1):
            chk = primfs_identity_check(b, a)
            if not chk.ok:
                expected, computed = _identity_failure(
                    {"source_size": b, "target_size": a}, chk.lhs, chk.rhs)
                return CheckReport("primfs_formula", {"bound": bound}, "fail",
                                   expected, computed,
                                   time.perf_counter() - start)
    return CheckReport("primfs_formula", {"bound": bound}, "pass",
                       elapsed=time.perf_counter() - start)


def kring_fs_check(bound: int) -> CheckReport:
    """Per-cell identity: trivial-convolved primitives recover full classes.

    For every cell (b, a) with a <= b <= bound, the sum over layer sizes of
    the primitive classes convolved on the right with trivial classes must
    equal the full surjection-span class plus the single hook correction at
    the extreme layer.  Exact equality of BiSchurClass values.
    """
    assert bound >= 1
    start = time.perf_counter()
    for b in range(bound + 1):
        for a in range(b + 1):
            chk = kring_identity_check(b, a)
            if not chk.ok:
                expected, computed = _identity_failure(
                    {"source_size": b, "target_size": a}, chk.lhs, chk.rhs)
                return CheckReport("kring_fs_check", {"bound": bound}, "fail",
                                   expected, computed,
                                   time.perf_counter() - start)
    return CheckReport("kring_fs_check", {"bound": bound}, "pass",
                       elapsed=time.perf_counter() - start)


def subquotient_formula(bound: int) -> CheckReport:
    """Per-layer identity: each filtration subquotient's signed expression.

    For every layer level >= 1 and cell (b, a) with a <= b <= bound, the
    directly computed subquotient bidecomposition must equal the three-term
    signed convolution expression.  Layers exceeding b - a are vacuous (both
    sides zero) and still checked.  Exact equality of BiSchurClass values.
    """
    assert bound >= 1
    start = time.perf_counter()
    for level in range(1, bound + 1):
        for b in range(bound + 1):
            for a in range(b + 1):
                chk = subquotient_identity_check(level, b, a)
                if not chk.ok:
                    expected, computed = _identity_failure(
                        {"level": level, "source_size": b, "target_size": a},
                        chk.lhs, chk.rhs)
                    return CheckReport("subquotient_formula",
                                       {"bound": bound}, "fail",
                                       expected, computed,
                                       time.perf_counter() - start)
    return CheckReport("subquotient_formula", {"bound": bound}, "pass",
                       elapsed=time.perf_counter() - start)


# ------------------------------------------------------- registry checks


def _check_dimension_counts(bound: int) -> list[CheckReport]:
    """Enumerated hom-set sizes against closed-form counting formulas."""
    start = time.perf_counter()
    params = {"bound": bound}
    for b in range(bound + 1):
        for a in range(b + 1):
            surj = len(enumerate_hom(HomClass.SURJECTION, b, a))
            surj_formula = factorial(a) * int(stirling(b, a, kind=2))
            inj = len(enumerate_hom(HomClass.INJECTION, a, b))
            inj_formula = factorial(b) // factorial(b - a)
            cell = {"source_size": b, "target_size": a}
            if surj != surj_formula or surj != hom_dimension(
                    HomClass.SURJECTION, b, a):
                return [CheckReport(
                    "dimension_counts", params, "fail",
                    _serialize(dict(cell, surjections=surj_formula)),
                    _serialize(dict(cell, surjections=surj)),
                    time.perf_counter() - start)]
            if inj != inj_formula or inj != hom_dimension(
                    HomClass.INJECTION, a, b):
                return [CheckReport(
                    "dimension_counts", params, "fail",
                    _serialize(dict(cell, injections=inj_formula)),
                    _serialize(dict(cell, injections=inj)),
                    time.perf_counter() - start)]
    return [CheckReport("dimension_counts", params, "pass",
                        elapsed=time.perf_counter() - start)]


_ORTHOGONALITY_DEGREE = 7


def _check_orthogonality(bound: int) -> list[CheckReport]:
    """Both character orthogonality relations for degrees 1..7 (fixed range)."""
    del bound  # fixed range by contract
    start = time.perf_counter()
    params = {"max_degree": _ORTHOGONALITY_DEGREE}
    for n in range(1, _ORTHOGONALITY_DEGREE + 1):
        parts = partitions_of(n)
        table = character_table(n)
        order = factorial(n)
        k = len(parts)
        for i in range(k):
            for j in range(k):
                row = sum(class_size(parts[m]) * table[i][m] * table[j][m]
                          for m in range(k))
                if row != (order if i == j else 0):
                    return [CheckReport(
                        "orthogonality", params, "fail",
                        _serialize({"degree": n, "relation": "rows",
                                    "pair": [list(parts[i]), list(parts[j])],
                                    "value": order if i == j else 0}),
                        _serialize({"degree": n, "relation": "rows",
                                    "pair": [list(parts[i]), list(parts[j])],
                                    "value": row}),
                        time.perf_counter() - start)]
                col = sum(table[m][i] * table[m][j] for m in range(k))
                expected_col = centralizer_order(parts[i]) if i == j else 0
                if col != expected_col:
                    return [CheckReport(
                        "orthogonality", params, "fail",
                        _serialize({"degree": n, "relation": "columns",
                                    "pair": [list(parts[i]), list(parts[j])],
                                    "value": expected_col}),
                        _serialize({"degree": n, "relation": "columns",
                                    "pair": [list(parts[i]), list(parts[j])],
                                    "value": col}),
                        time.perf_counter() - start)]
    return [CheckReport("orthogonality", params, "pass",
                        elapsed=time.perf_counter() - start)]


_DERHAM_DEGREE = 10


def _check_derham(bound: int) -> list[CheckReport]:
    """Alternating exterior-sum cancellation for degrees 1..10 (fixed range)."""
    del bound  # fixed range by contract
    start = time.perf_counter()
    params = {"max_degree": _DERHAM_DEGREE}
    for n in range(1, _DERHAM_DEGREE + 1):
        if not derham_check(n):
            return [CheckReport(
                "derham", params, "fail",
                _serialize({"degree": n, "cancels": True}),
                _serialize({"degree": n, "cancels": False}),
                time.perf_counter() - start)]
    return [CheckReport("derham", params, "pass",
                        elapsed=time.perf_counter() - start)]


_INVERT_WEIGHT = 5


def _check_invert(bound: int) -> list[CheckReport]:
    """Trivial-then-signed convolution inversion on single classes, weight <= 5."""
    del bound  # fixed range by contract
    start = time.perf_counter()
    params = {"max_weight": _INVERT_WEIGHT}
    for n in range(_INVERT_WEIGHT + 1):
        for lam in partitions_of(n):
            if not invert_identity_check(lam):
                return [CheckReport(
                    "invert", params, "fail",
                    _serialize({"partition": list(lam), "recovered": True}),
                    _serialize({"partition": list(lam), "recovered": False}),
                    time.perf_counter() - start)]
    return [CheckReport("invert", params, "pass",
                        elapsed=time.perf_counter() - start)]


def _check_theta_equivariance(bound: int) -> list[CheckReport]:
    """Pairing matrix commutes with both symmetric-group actions, all cells."""
    start = time.perf_counter()
    params = {"bound": bound}
    cells = [(a, b) for b in range(bound + 1) for a in range(b + 1)]
    if not cells:
        return [CheckReport("theta_equivariance", params, "vacuous",
                            elapsed=time.perf_counter() - start)]
    for a, b in cells:
        if not theta_equivariance_check(a, b):
            return [CheckReport(
                "theta_equivariance", params, "fail",
                _serialize({"target_size": a, "source_size": b,
                            "equivariant": True}),
                _serialize({"target_size": a, "source_size": b,
                            "equivariant": False}),
                time.perf_counter() - start)]
    return [CheckReport("theta_equivariance", params, "pass",
                        elapsed=time.perf_counter() - start)]


def _check_theta_injectivity(bound: int) -> list[CheckReport]:
    """Kernel of the pairing equals the deepest proper filtration level.

    The pairing is *not* injective on every cell in range (the first
    deficient cell is target 3, source 4, where the domain is strictly
    larger than the codomain).  The check therefore verifies the sharp
    statement: on every cell the kernel coincides, as a subspace, with the
    filtration level of depth source - target - 1.  All nonzero kernels are
    listed in ``computed`` so deficiencies are reported, never silently
    absorbed; ``expected`` lists the filtration-level prediction.
    """
    start = time.perf_counter()
    params = {"bound": bound}
    cells = [(a, b) for b in range(bound + 1) for a in range(b + 1)]
    if not cells:
        return [CheckReport("theta_injectivity", params, "vacuous",
                            elapsed=time.perf_counter() - start)]
    expected_cells = []
    computed_cells = []
    for a, b in cells:
        level_dim = filtration_level(b, a, b - a - 1).dimension
        if level_dim:
            expected_cells.append({"target_size": a, "source_size": b,
                                   "kernel_dimension": level_dim,
                                   "kernel_is_filtration_level": True})
        report = theta_rank_report(a, b)
        if report["kernel_dimension"] or not report[
                "kernel_is_filtration_level"]:
            computed_cells.append(
                {"target_size": a, "source_size": b,
                 "kernel_dimension": report["kernel_dimension"],
                 "kernel_is_filtration_level":
                     report["kernel_is_filtration_level"]})
    status = "pass" if computed_cells == expected_cells else "fail"
    return [CheckReport("theta_injectivity", params, status,
                        _serialize(expected_cells), _serialize(computed_cells),
                        time.perf_counter() - start)]


def _sign_hook_class(target_size: int, source_size: int) -> BiSchurClass:
    a, b = target_size, source_size
    if a == b:
        return BiSchurClass()
    hook = (b - a,) + (1,) * a
    return boxtimes(sign_class(a), SchurClass({hook: 1}))


def _check_coker_theta(bound: int) -> list[CheckReport]:
    """Cokernel of the pairing is the sign-hook class on every cell."""
    start = time.perf_counter()
    params = {"bound": bound}
    cells = [(a, b) for b in range(bound + 1) for a in range(b + 1)]
    if not cells:
        return [CheckReport("coker_theta", params, "vacuous",
                            elapsed=time.perf_counter() - start)]
    for a, b in cells:
        got = coker_theta_decompose(a, b)
        want = _sign_hook_class(a, b)
        if got != want:
            return [CheckReport(
                "coker_theta", params, "fail",
                _serialize({"target_size": a, "source_size": b,
                            "class": want.to_json()}),
                _serialize({"target_size": a, "source_size": b,
                            "class": got.to_json()}),
                time.perf_counter() - start)]
    return [CheckReport("coker_theta", params, "pass",
                        elapsed=time.perf_counter() - start)]


def _check_coker_action(bound: int) -> list[CheckReport]:
    """Strictly size-decreasing primitive blocks kill every pairing cokernel."""
    start = time.perf_counter()
    params = {"bound": bound}
    cells = [(a, c, b)
             for b in range(bound + 1)
             for a in range(b + 1)
             for c in range(a)]
    if not cells:
        return [CheckReport("coker_action", params, "vacuous",
                            elapsed=time.perf_counter() - start)]
    for a, c, b in cells:
        if not coker_action_triviality(a, c, b):
            return [CheckReport(
                "coker_action", params, "fail",
                _serialize({"target_size": a, "low_size": c,
                            "source_size": b, "acts_trivially": True}),
                _serialize({"target_size": a, "low_size": c,
                            "source_size": b, "acts_trivially": False}),
                time.perf_counter() - start)]
    return [CheckReport("coker_action", params, "pass",
                        elapsed=time.perf_counter() - start)]


def _check_lambda_bar(bound: int) -> list[CheckReport]:
    """Exterior powers of the reduced point functor decompose as single hooks."""
    start = time.perf_counter()
    params = {"bound": bound}
    for b in range(bound + 1):
        for t in range(b + 2):
            rep = lambda_bar_rep(t, b)
            got = decompose(rep)
            if 0 < t < b:
                want = SchurClass({(b - t,) + (1,) * t: 1})
            elif t == 0 and b > 0:
                want = SchurClass({(b,): 1})
            else:
                want = SchurClass()
            dim_want = comb(b - 1, t) if b > 0 else (1 if t == 0 else 0)
            if b == 0 and t == 0:
                want = SchurClass()
                dim_want = 0
            cell = {"set_size": b, "power": t}
            if rep.dimension != dim_want:
                return [CheckReport(
                    "lambda_bar", params, "fail",
                    _serialize(dict(cell, dimension=dim_want)),
                    _serialize(dict(cell, dimension=rep.dimension)),
                    time.perf_counter() - start)]
            if got != want:
                return [CheckReport(
                    "lambda_bar", params, "fail",
                    _serialize(dict(cell, **{"class": want.to_json()})),
                    _serialize(dict(cell, **{"class": got.to_json()})),
                    time.perf_counter() - start)]
    return [CheckReport("lambda_bar", params, "pass",
                        elapsed=time.perf_counter() - start)]


def _check_filtration(bound: int) -> list[CheckReport]:
    """Level bookkeeping: trivial ends, nesting, exhaustion, and stability."""
    start = time.perf_counter()
    params = {"bound": bound}
    for b in range(bound + 1):
        for a in range(b + 1):
            cell = {"source_size": b, "target_size": a}
            full = hom_dimension(HomClass.SURJECTION, b, a)
            if filtration_level(b, a, -1).dimension != 0:
                return [CheckReport(
                    "filtration", params, "fail",
                    _serialize(dict(cell, property="empty_at_depth_-1",
                                    holds=True)),
                    _serialize(dict(cell, property="empty_at_depth_-1",
                                    holds=False)),
                    time.perf_counter() - start)]
            if (filtration_level(b, a, b).dimension != full
                    or filtration_level(b, a, b + 1).dimension != full):
                return [CheckReport(
                    "filtration", params, "fail",
                    _serialize(dict(cell, property="exhaustion", holds=True)),
                    _serialize(dict(cell, property="exhaustion", holds=False)),
                    time.perf_counter() - start)]
            if not filtration_nesting_check(b, a):
                return [CheckReport(
                    "filtration", params, "fail",
                    _serialize(dict(cell, property="nesting", holds=True)),
                    _serialize(dict(cell, property="nesting", holds=False)),
                    time.perf_counter() - start)]
            if not fi_stability_check(b, a):
                return [CheckReport(
                    "filtration", params, "fail",
                    _serialize(dict(cell, property="injection_stability",
                                    holds=True)),
                    _serialize(dict(cell, property="injection_stability",
                                    holds=False)),
                    time.perf_counter() - start)]
    return [CheckReport("filtration", params, "pass",
                        elapsed=time.perf_counter() - start)]


def _check_closure(bound: int) -> list[CheckReport]:
    """Automorphism blocks and composition closure of the primitive spans."""
    start = time.perf_counter()
    params = {"bound": bound}
    for n in range(bound + 1):
        if not automorphism_block_check(n):
            return [CheckReport(
                "closure", params, "fail",
                _serialize({"set_size": n, "block_is_full": True}),
                _serialize({"set_size": n, "block_is_full": False}),
                time.perf_counter() - start)]
    for b in range(bound + 1):
        for x in range(b + 1):
            for y in range(x + 1):
                if not closure_check(b, x, y):
                    return [CheckReport(
                        "closure", params, "fail",
                        _serialize({"source_size": b, "mid_size": x,
                                    "target_size": y, "closed": True}),
                        _serialize({"source_size": b, "mid_size": x,
                                    "target_size": y, "closed": False}),
                        time.perf_counter() - start)]
    return [CheckReport("closure", params, "pass",
                        elapsed=time.perf_counter() - start)]


def _check_sgn_vanishing(bound: int) -> list[CheckReport]:
    """Sign isotype is absent from strictly size-decreasing primitive blocks."""
    start = time.perf_counter()
    params = {"bound": bound}
    cells = [(a, c) for a in range(1, bound + 1) for c in range(a)]
    if not cells:
        return [CheckReport("sgn_vanishing", params, "vacuous",
                            elapsed=time.perf_counter() - start)]
    for a, c in cells:
        if not sgn_vanishing_check(a, c):
            return [CheckReport(
                "sgn_vanishing", params, "fail",
                _serialize({"source_size": a, "target_size": c,
                            "sign_multiplicity": 0}),
                _serialize({"source_size": a, "target_size": c,
                            "sign_multiplicity": "nonzero"}),
                time.perf_counter() - start)]
    return [CheckReport("sgn_vanishing", params, "pass",
                        elapsed=time.perf_counter() - start)]


def _check_ses(bound: int) -> list[CheckReport]:
    """Per-layer subquotient assembly identity, one report per layer size."""
    reports = []
    for level in range(1, bound + 1):
        start = time.perf_counter()
        params = {"level": level, "bound": bound}
        report = ses_check(level, bound)
        if not report.cells:
            reports.append(CheckReport("ses", params, "vacuous",
                                       elapsed=time.perf_counter() - start))
            continue
        if report.ok:
            reports.append(CheckReport("ses", params, "pass",
                                       elapsed=time.perf_counter() - start))
            continue
        cell = report.failures[0]
        expected, computed = _identity_failure(
            {"level": level, "source_size": cell.source_size,
             "target_size": cell.target_size}, cell.lhs, cell.rhs)
        reports.append(CheckReport("ses", params, "fail", expected, computed,
                                   time.perf_counter() - start))
    return reports


def _wrap_formula(op: Callable[[int], CheckReport],
                  name: str) -> Callable[[int], list[CheckReport]]:
    def runner(bound: int) -> list[CheckReport]:
        if bound < 1:
            return [CheckReport(name, {"bound": bound}, "vacuous")]
        return [op(bound)]
    return runner


_REGISTRY: dict[str, Callable[[int], list[CheckReport]]] = {
    "dimension_counts": _check_dimension_counts,
    "orthogonality": _check_orthogonality,
    "derham": _check_derham,
    "theta_equivariance": _check_theta_equivariance,
    "theta_injectivity": _check_theta_injectivity,
    "coker_theta": _check_coker_theta,
    "coker_action": _check_coker_action,
    "lambda_bar": _check_lambda_bar,
    "filtration": _check_filtration,
    "closure": _check_closure,
    "sgn_vanishing": _check_sgn_vanishing,
    "ses": _check_ses,
    "primfs_formula": _wrap_formula(primfs_formula, "primfs_formula"),
    "kring_fs_check": _wrap_formula(kring_fs_check, "kring_fs_check"),
    "subquotient_formula": _wrap_formula(subquotient_formula,
                                         "subquotient_formula"),
    "invert": _check_invert,
}

# Canonical execution order for full runs; "invert" stays individually
# addressable but is covered by the derham cancellation it reduces to.
_RUN_ORDER = (
    "dimension_counts",
    "orthogonality",
    "derham",
    "theta_equivariance",
    "theta_injectivity",
    "coker_theta",
    "coker_action",
    "lambda_bar",
    "filtration",
    "closure",
    "sgn_vanishing",
    "ses",
    "primfs_formula",
    "kring_fs_check",
    "subquotient_formula",
)

CHECK_IDS = tuple(_REGISTRY)

# run_all caps the two heaviest formula sweeps at this bound.
_FORMULA_CAP = 5


def run_check(check_id: str, bound: int) -> list[CheckReport]:
    """Run one registered check at the requested bound."""
    if check_id not in _REGISTRY:
        raise KeyError(f"unknown check id: {check_id!r}")
    return _REGISTRY[check_id](bound)


def collect_reports(bound: int) -> list[CheckReport]:
    """All canonical-order reports for a full run at the given bound."""
    reports: list[CheckReport] = []
    for check_id in _RUN_ORDER:
        effective = bound
        if check_id in ("kring_fs_check", "subquotient_formula"):
            effective = min(bound, _FORMULA_CAP)
        reports.extend(run_check(check_id, effective))
    return reports


# ------------------------------------------------------------- artifacts


def render_reports_json(reports: list[CheckReport]) -> str:
    """Deterministic JSON array of reports (timing excluded)."""
    return json.dumps([r.as_dict() for r in reports],
                      sort_keys=True, indent=2) + "\n"


def dimension_table(bound: int) -> tuple[list[str], list[list[int]]]:
    """Header and rows of the per-cell dimension table.

    One row per cell (source b, target a), a <= b <= bound, with the full
    surjection-span dimension, the primitive-block dimension, and the
    dimension of every filtration level up to depth ``bound``.
    """
    header = ["source_size", "target_size", "dim_full", "dim_primitive"]
    header += [f"dim_level_{t}" for t in range(1, bound + 1)]
    rows = []
    for b in range(bound + 1):
        for a in range(b + 1):
            row = [b, a,
                   hom_dimension(HomClass.SURJECTION, b, a),
                   primitives(b, a).dimension]
            row += [filtration_level(b, a, t).dimension
                    for t in range(1, bound + 1)]
            rows.append(row)
    return header, rows


def render_dimension_csv(bound: int) -> str:
    """Deterministic CSV text of the dimension table."""
    header, rows = dimension_table(bound)
    lines = [",".join(header)]
    lines += [",".join(str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _write_artifacts(reports: list[CheckReport], bound: int,
                     json_path: Path | None,
                     csv_path: Path | None) -> str | None:
    """Write requested report files; returns an error message on I/O failure."""
    try:
        if json_path is not None:
            json_path.write_text(render_reports_json(reports))
        if csv_path is not None:
            csv_path.write_text(render_dimension_csv(bound))
    except OSError as exc:
        return f"failed to write report artifact: {exc}"
    return None


def run_all(bound: int = 6, out: Path | str | None = None,
            csv_out: Path | str | None = None) -> int:
    """Full canonical-order run; writes artifacts; returns the exit status.

    0 when every check passed (or was vacuous), 1 when any check failed,
    2 when a report artifact could not be written.
    """
    reports = collect_reports(bound)
    error = _write_artifacts(reports, bound,
                             Path(out) if out is not None else None,
                             Path(csv_out) if csv_out is not None else None)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    return 0 if all(r.status != "fail" for r in reports) else 1


# ------------------------------------------------------------------- CLI


def _print_reports(reports: list[CheckReport]) -> None:
    for r in reports:
        print(f"{r.status:<8} {r.check} "
              f"{json.dumps(r.parameters, sort_keys=True)}")
        if r.status == "fail":
            print(f"         expected: {r.expected}")
            print(f"         computed: {r.computed}")
    failed = sum(1 for r in reports if r.status == "fail")
    if failed:
        print(f"{failed} of {len(reports)} checks failed")
    else:
        print(f"all {len(reports)} checks passed")


def _cmd_dims(args) -> int:
    text = render_dimension_csv(args.max_size)
    print(text, end="")
    error = _write_artifacts([], args.max_size, None, args.csv)
    if error is None and args.json is not None:
        header, rows = dimension_table(args.max_size)
        payload = [dict(zip(header, row)) for row in rows]
        try:
            args.json.write_text(json.dumps(payload, sort_keys=True,
                                            indent=2) + "\n")
        except OSError as exc:
            error = f"failed to write report artifact: {exc}"
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    return 0


_THETA_PRINT_LIMIT = 400


def _cmd_theta(args) -> int:
    a, b = args.a, args.b
    if not (0 <= a <= b):
        print("error: require 0 <= a <= b", file=sys.stderr)
        return 2
    report = theta_rank_report(a, b)
    for key in ("target_size", "source_size", "domain_dimension",
                "codomain_dimension", "rank", "kernel_dimension",
                "kernel_is_filtration_level"):
        print(f"{key} {json.dumps(report[key])}")
    matrix = theta_matrix(a, b)
    entries = None
    if matrix.rows * matrix.cols <= _THETA_PRINT_LIMIT:
        entries = [[int(matrix.entry(i, j)) for j in range(matrix.cols)]
                   for i in range(matrix.rows)]
        for row in entries:
            print(" ".join(str(v) for v in row))
    else:
        print(f"matrix omitted ({matrix.rows}x{matrix.cols} exceeds "
              f"print limit)")
    if args.json is not None:
        payload = dict(report, matrix=entries)
        try:
            args.json.write_text(json.dumps(payload, sort_keys=True,
                                            indent=2) + "\n")
        except OSError as exc:
            print(f"failed to write report artifact: {exc}", file=sys.stderr)
            return 2
    return 0


def _cmd_decompose(args) -> int:
    a, b = args.a, args.b
    if not (0 <= a <= b):
        print("error: require 0 <= a <= b", file=sys.stderr)
        return 2
    if args.flavor == "fs":
        cls = full_fs_bidecompose(b, a)
    else:
        cls = hom_module(HomClass.INJECTION, a, b).bidecompose()
    for (left, right), mult in cls.terms:
        print(f"{json.dumps(list(left))} {json.dumps(list(right))} {mult}")
    if not cls.terms:
        print("0")
    if args.json is not None:
        try:
            args.json.write_text(json.dumps(cls.to_json(), sort_keys=True,
                                            indent=2) + "\n")
        except OSError as exc:
            print(f"failed to write report artifact: {exc}", file=sys.stderr)
            return 2
    return 0


def _cmd_filtration(args) -> int:
    a, b = args.a, args.b
    if not (0 <= a <= b):
        print("error: require 0 <= a <= b", file=sys.stderr)
        return 2
    dims = {t: filtration_level(b, a, t).dimension for t in range(-1, b + 1)}
    for t in range(-1, b + 1):
        print(f"level {t} dimension {dims[t]}")
    layers = {}
    for level in range(b - a + 1):
        layer = subquotient_decompose(level, b, a)
        layers[level] = layer
        print(f"layer {level} class "
              f"{json.dumps(layer.to_json(), sort_keys=True)}")
    if args.json is not None:
        payload = {
            "source_size": b,
            "target_size": a,
            "level_dimensions": {str(t): dims[t] for t in dims},
            "layers": {str(level): layers[level].to_json()
                       for level in layers},
        }
        try:
            args.json.write_text(json.dumps(payload, sort_keys=True,
                                            indent=2) + "\n")
        except OSError as exc:
            print(f"failed to write report artifact: {exc}", file=sys.stderr)
            return 2
    return 0


def _cmd_verify(args) -> int:
    target = args.check
    if target != "all" and target not in _REGISTRY:
        valid = ", ".join(("all",) + CHECK_IDS)
        print(f"error: unknown check {target!r}; valid: {valid}",
              file=sys.stderr)
        return 2
    if target == "all":
        reports = collect_reports(args.max_size)
    else:
        reports = run_check(target, args.max_size)
    _print_reports(reports)
    error = _write_artifacts(reports, args.max_size, args.json, args.csv)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    return 0 if all(r.status != "fail" for r in reports) else 1


def _add_global_options(parser: argparse.ArgumentParser,
                        trailing: bool) -> None:
    """Attach the shared flags; trailing copies must not clobber leading ones."""
    suppress = {"default": argparse.SUPPRESS} if trailing else {}
    parser.add_argument("--max-size", type=int, metavar="N",
                        help="sweep bound on set sizes (default 6)",
                        **(suppress or {"default": 6}))
    parser.add_argument("--json", type=Path, metavar="PATH",
                        help="write a deterministic JSON artifact",
                        **(suppress or {"default": None}))
    parser.add_argument("--csv", type=Path, metavar="PATH",
                        help="write the dimension table as CSV",
                        **(suppress or {"default": None}))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsprim",
        description="Exact verification suites and reports for spans of "
                    "surjections between finite sets.")
    _add_global_options(parser, trailing=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p_dims = sub.add_parser("dims", help="print the per-cell dimension table")

    p_theta = sub.add_parser("theta", help="rank report for one pairing cell")
    p_theta.add_argument("--a", type=int, required=True,
                         help="target size (codomain side)")
    p_theta.add_argument("--b", type=int, required=True,
                         help="source size (domain side)")

    p_dec = sub.add_parser("decompose",
                           help="bidecomposition of one hom-space span")
    p_dec.add_argument("--flavor", choices=("fs", "fi"), required=True,
                       help="surjection span (fs) or injection span (fi)")
    p_dec.add_argument("--b", type=int, required=True, help="larger size")
    p_dec.add_argument("--a", type=int, required=True, help="smaller size")

    p_filt = sub.add_parser("filtration",
                            help="level dimensions and layer classes of one "
                                 "cell")
    p_filt.add_argument("--b", type=int, required=True, help="source size")
    p_filt.add_argument("--a", type=int, required=True, help="target size")

    p_ver = sub.add_parser("verify", help="run one check or the full suite")
    p_ver.add_argument("check", help="check id or 'all'")

    for p in (p_dims, p_theta, p_dec, p_filt, p_ver):
        _add_global_options(p, trailing=True)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.max_size < 0:
        print("error: --max-size must be nonnegative", file=sys.stderr)
        return 2
    handlers = {
        "dims": _cmd_dims,
        "theta": _cmd_theta,
        "decompose": _cmd_decompose,
        "filtration": _cmd_filtration,
        "verify": _cmd_verify,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
