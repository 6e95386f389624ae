"""Named exact verification checks, deterministic reports, and the CLI.

Every check is a sweep over cells (set sizes, partitions, or layers) in a
fixed order.  A check supplies its cells and an ``evaluate`` that returns
``None`` when a cell holds, or the ``(expected, computed)`` values of the
first property that does not.  One helper, ``_sweep``, times the sweep,
stops at the first mismatch and builds the report: ``fail`` with both values
serialized, ``vacuous`` when the sweep visits no cell, ``pass`` otherwise.
``theta_injectivity`` is the one check that compares whole lists of findings
(its report lists every nonzero kernel, whatever the status), and ``ses``
runs one sweep per layer.  Reports serialize deterministically — timing is
kept in memory only and never written — so repeated runs over the same
inputs produce byte-identical JSON and CSV artifacts.

The registry maps stable check ids to sweep functions.  ``collect_reports``
runs the registered checks in a fixed canonical order, and ``fsprim verify
all`` writes its reports and exits with status 0 when no check failed, 1 when
at least one check reported ``fail``, and 2 when a report file could not be
written (I/O trouble is never conflated with a mathematical failure).  A
full run is every check of that order at the one requested bound.  A
negative bound is refused with ``ValueError`` (exit status 2 from the CLI),
and a bound that is not an int (a bool or a float) with ``TypeError``;
neither is swept as a pass.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from math import comb, factorial
from pathlib import Path
from typing import Callable, Iterable

from .finsetcat import HomClass, hom_dimension, hom_values
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
    lambda_bar_character,
    primfs_identity_check,
    primitives,
    ses_identity_check,
    sgn_vanishing_check,
    sign_hook_class,
    subquotient_decompose,
    subquotient_identity_check,
    theta_equivariance_check,
    theta_matrix,
    theta_rank_report,
)
from .partitions import centralizer_order, partitions_of
from .repdecomp import (
    SchurClass,
    _weighted_character_table,
    bidecompose_character,
    character_table,
    decompose_character,
    derham_check,
    invert_identity_check,
)

__all__ = [
    "CheckReport",
    "primfs_formula",
    "kring_fs_check",
    "subquotient_formula",
    "run_check",
    "collect_reports",
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
        if self.status not in ("pass", "fail", "vacuous"):
            raise ValueError(f"unknown report status {self.status!r}")
        if self.status == "fail" and (self.expected is None
                                      or self.computed is None):
            raise ValueError("a failing report needs expected and computed")

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
    """Canonical compact JSON for report payloads, classes at any depth."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      default=lambda cls: cls.to_json())


# A mismatch: the (expected, computed) values at the first failing cell.
_Mismatch = tuple[dict, dict] | None


def _timed(check: str, params: dict, run: Callable[[], tuple]) -> CheckReport:
    """Report of ``run() -> (status, expected, computed)``, with its time."""
    start = time.perf_counter()
    status, expected, computed = run()
    return CheckReport(check, params, status, expected, computed,
                       time.perf_counter() - start)


def _sweep(check: str, params: dict, cells: Iterable,
           evaluate: Callable[[object], _Mismatch]) -> CheckReport:
    """Evaluate ``cells`` in order and report the first mismatch.

    The report is ``fail`` with the serialized mismatch, ``vacuous`` when
    ``cells`` is empty, and ``pass`` otherwise.  ``cells`` may be a generator,
    so work it does lazily is timed with the sweep.
    """
    def run():
        status = "vacuous"
        for cell in cells:
            mismatch = evaluate(cell)
            if mismatch is not None:
                return ("fail", *map(_serialize, mismatch))
            status = "pass"
        return status, None, None
    return _timed(check, params, run)


def _compare(where: dict, key: str, want, got) -> _Mismatch:
    """``None`` when ``got == want``; else both values recorded at ``where``."""
    if got == want:
        return None
    return dict(where, **{key: want}), dict(where, **{key: got})


def _holds(where: dict, key: str, ok) -> _Mismatch:
    """``None`` when ``ok``; else ``key`` expected true and computed false."""
    return _compare(where, key, True, bool(ok))


def _identity_failure(where: dict, chk) -> _Mismatch:
    """First differing coefficient of a failed ``chk`` (ok, lhs, rhs)."""
    if chk.ok:
        return None
    # Terms are in canonical order, so the first term of the difference is
    # the first pair whose coefficients disagree.
    (left, right), _ = (chk.lhs - chk.rhs).terms[0]
    return _compare(dict(where, left=list(left), right=list(right)),
                    "coefficient", chk.rhs.coefficient(left, right),
                    chk.lhs.coefficient(left, right))


def _cells(bound: int) -> list[tuple[int, int]]:
    """Cells (source b, target a) with a <= b <= bound, b outermost."""
    return [(b, a) for b in range(bound + 1) for a in range(b + 1)]


def _at(b: int, a: int) -> dict:
    return {"source_size": b, "target_size": a}


# ---------------------------------------------------- named formula ops


def _require_int(bound) -> None:
    # A bool is an int and a float compares like one; refuse both, as
    # repdecomp._degree does for degrees.
    if type(bound) is not int:
        raise TypeError(f"bound must be an int: {bound!r}")


def _require_nonnegative(bound) -> None:
    _require_int(bound)
    if bound < 0:
        raise ValueError(f"bound must be nonnegative, got {bound}")


def _require_positive(bound: int) -> None:
    _require_int(bound)
    if bound < 1:
        raise ValueError(f"formula sweeps need a bound >= 1, got {bound}")


def primfs_formula(bound: int) -> CheckReport:
    """Per-cell identity: primitive class as alternating full-class sums.

    For every cell (source b, target a) with a <= b <= bound, the primitive
    block's bidecomposition plus its signed sign-pair correction must equal
    the alternating sum over t of the full surjection-span classes convolved
    on the right with sign classes.  Exact equality of BiSchurClass values.
    """
    _require_positive(bound)
    return _sweep("primfs_formula", {"bound": bound}, _cells(bound),
                  lambda c: _identity_failure(_at(*c),
                                              primfs_identity_check(*c)))


def kring_fs_check(bound: int) -> CheckReport:
    """Per-cell identity: trivial-convolved primitives recover full classes.

    For every cell (b, a) with a <= b <= bound, the sum over layer sizes of
    the primitive classes convolved on the right with trivial classes must
    equal the full surjection-span class plus the single hook correction at
    the extreme layer.  Exact equality of BiSchurClass values.
    """
    _require_positive(bound)
    return _sweep("kring_fs_check", {"bound": bound}, _cells(bound),
                  lambda c: _identity_failure(_at(*c),
                                              kring_identity_check(*c)))


def subquotient_formula(bound: int) -> CheckReport:
    """Per-layer identity: each filtration subquotient's signed expression.

    For every layer level >= 1 and cell (b, a) with a <= b <= bound, the
    directly computed subquotient bidecomposition must equal the three-term
    signed convolution expression.  Layers exceeding b - a are vacuous (both
    sides zero) and still checked.  Exact equality of BiSchurClass values.
    """
    _require_positive(bound)
    cells = [(level, b, a) for level in range(1, bound + 1)
             for b, a in _cells(bound)]
    return _sweep("subquotient_formula", {"bound": bound}, cells,
                  lambda c: _identity_failure(
                      dict(_at(c[1], c[2]), level=c[0]),
                      subquotient_identity_check(*c)))


# ------------------------------------------------------- registry checks


def _check_dimension_counts(bound: int) -> CheckReport:
    """Enumerated hom-set sizes against closed-form counting formulas."""
    def evaluate(cell):
        b, a = cell
        where = _at(b, a)
        counts = (
            ("surjections", HomClass.SURJECTION, (b, a),
             sum((-1) ** j * comb(a, j) * (a - j) ** b
                 for j in range(a + 1))),
            ("injections", HomClass.INJECTION, (a, b),
             factorial(b) // factorial(b - a)))
        for name, flavor, sizes, formula in counts:
            enumerated = len(hom_values(flavor, *sizes))
            dimension = hom_dimension(flavor, *sizes)
            for key, got in ((name, enumerated),
                             (f"{name}_hom_dimension", dimension)):
                if mismatch := _compare(where, key, formula, got):
                    return mismatch
        return None
    return _sweep("dimension_counts", {"bound": bound}, _cells(bound),
                  evaluate)


_ORTHOGONALITY_DEGREE = 7


def _character_pairs():
    """(degree, classes, table, i, j) for every pair of rows, degrees 1..7."""
    for n in range(1, _ORTHOGONALITY_DEGREE + 1):
        parts = partitions_of(n)
        table = character_table(n)
        for i in range(len(parts)):
            for j in range(len(parts)):
                yield n, parts, table, i, j


def _check_orthogonality(bound: int) -> CheckReport:
    """Both character orthogonality relations for degrees 1..7 (fixed range)."""
    del bound  # fixed range by contract

    def evaluate(cell):
        n, parts, table, i, j = cell
        k = len(parts)
        where = {"degree": n, "pair": [list(parts[i]), list(parts[j])]}
        row = sum(w * v for w, v in
                  zip(_weighted_character_table(n)[i], table[j]))
        col = sum(table[m][i] * table[m][j] for m in range(k))
        return (_compare(dict(where, relation="rows"), "value",
                         factorial(n) if i == j else 0, row)
                or _compare(dict(where, relation="columns"), "value",
                            centralizer_order(parts[i]) if i == j else 0,
                            col))
    return _sweep("orthogonality", {"max_degree": _ORTHOGONALITY_DEGREE},
                  _character_pairs(), evaluate)


_DERHAM_DEGREE = 10


def _check_derham(bound: int) -> CheckReport:
    """Alternating exterior-sum cancellation for degrees 1..10 (fixed range)."""
    del bound  # fixed range by contract
    return _sweep("derham", {"max_degree": _DERHAM_DEGREE},
                  range(1, _DERHAM_DEGREE + 1),
                  lambda n: _holds({"degree": n}, "cancels", derham_check(n)))


_INVERT_WEIGHT = 5


def _check_invert(bound: int) -> CheckReport:
    """Trivial-then-signed convolution inversion on single classes, weight <= 5."""
    del bound  # fixed range by contract
    cells = [lam for n in range(_INVERT_WEIGHT + 1) for lam in partitions_of(n)]
    return _sweep("invert", {"max_weight": _INVERT_WEIGHT}, cells,
                  lambda lam: _holds({"partition": list(lam)}, "recovered",
                                     invert_identity_check(lam)))


def _check_theta_equivariance(bound: int) -> CheckReport:
    """Pairing matrix commutes with both symmetric-group actions, all cells."""
    return _sweep("theta_equivariance", {"bound": bound}, _cells(bound),
                  lambda c: _holds(_at(*c), "equivariant",
                                   theta_equivariance_check(c[1], c[0])))


def _check_theta_injectivity(bound: int) -> CheckReport:
    """Kernel of the pairing equals the deepest proper filtration level.

    The pairing is *not* injective on every cell in range (the first
    deficient cell is target 3, source 4, where the domain is strictly
    larger than the codomain).  The check therefore verifies the sharp
    statement: on every cell the kernel coincides, as a subspace, with the
    filtration level of depth source - target - 1.  All nonzero kernels are
    listed in ``computed`` so deficiencies are reported, never silently
    absorbed; ``expected`` lists the filtration-level prediction.
    """
    def run():
        expected_cells = []
        computed_cells = []
        for b, a in _cells(bound):
            level_dim = filtration_level(b, a, b - a - 1).cols
            if level_dim:
                expected_cells.append({"target_size": a, "source_size": b,
                                       "kernel_dimension": level_dim,
                                       "kernel_is_filtration_level": True})
            report = theta_rank_report(a, b)
            if report["kernel_dimension"] or not report[
                    "kernel_is_filtration_level"]:
                computed_cells.append({key: report[key] for key in (
                    "target_size", "source_size", "kernel_dimension",
                    "kernel_is_filtration_level")})
        status = "pass" if computed_cells == expected_cells else "fail"
        return status, _serialize(expected_cells), _serialize(computed_cells)
    return _timed("theta_injectivity", {"bound": bound}, run)


def _check_coker_theta(bound: int) -> CheckReport:
    """Cokernel of the pairing is the sign-hook class on every cell."""
    return _sweep("coker_theta", {"bound": bound}, _cells(bound),
                  lambda c: _compare(_at(*c), "class",
                                     sign_hook_class(c[1], c[0]),
                                     coker_theta_decompose(c[1], c[0])))


def _check_coker_action(bound: int) -> CheckReport:
    """Strictly size-decreasing primitive blocks kill every pairing cokernel."""
    def evaluate(cell):
        b, a, c = cell
        return _holds(dict(_at(b, a), low_size=c), "acts_trivially",
                      coker_action_triviality(a, c, b))
    cells = [(b, a, c) for b, a in _cells(bound) for c in range(a)]
    return _sweep("coker_action", {"bound": bound}, cells, evaluate)


def _check_lambda_bar(bound: int) -> CheckReport:
    """Exterior powers of the reduced point functor decompose as single hooks."""
    def evaluate(cell):
        b, t = cell
        chi = lambda_bar_character(t, b)
        where = {"set_size": b, "power": t}
        # A single hook for powers 0 <= t < b, nothing above.
        want = SchurClass({(b - t,) + (1,) * t: 1} if t < b else {})
        # The value at the identity class is the dimension, an integer.
        return (_compare(where, "dimension",
                         comb(b - 1, t) if b > 0 else 0,
                         int(chi((1,) * b)))
                or _compare(where, "class", want, decompose_character(chi)))
    cells = [(b, t) for b in range(bound + 1) for t in range(b + 2)]
    return _sweep("lambda_bar", {"bound": bound}, cells, evaluate)


def _check_filtration(bound: int) -> CheckReport:
    """Level bookkeeping: trivial ends, nesting, exhaustion, and stability."""
    def evaluate(cell):
        b, a = cell
        full = hom_dimension(HomClass.SURJECTION, b, a)
        properties = (
            ("empty_at_depth_-1", filtration_level(b, a, -1).cols == 0),
            ("exhaustion", filtration_level(b, a, b).cols == full
             and filtration_level(b, a, b + 1).cols == full),
            ("nesting", filtration_nesting_check(b, a)),
            ("injection_stability", fi_stability_check(b, a)),
        )
        return next((_holds(dict(_at(b, a), property=name), "holds", ok)
                     for name, ok in properties if not ok), None)
    return _sweep("filtration", {"bound": bound}, _cells(bound), evaluate)


def _check_closure(bound: int) -> CheckReport:
    """Automorphism blocks and composition closure of the primitive spans."""
    def evaluate(cell):
        if len(cell) == 1:
            return _holds({"set_size": cell[0]}, "block_is_full",
                          automorphism_block_check(*cell))
        b, x, y = cell
        return _holds({"source_size": b, "mid_size": x, "target_size": y},
                      "closed", closure_check(b, x, y))
    blocks = [(n,) for n in range(bound + 1)]
    triples = [(b, x, y) for b in range(bound + 1) for x in range(b + 1)
               for y in range(x + 1)]
    return _sweep("closure", {"bound": bound}, blocks + triples, evaluate)


def _check_sgn_vanishing(bound: int) -> CheckReport:
    """Sign isotype is absent from strictly size-decreasing primitive blocks."""
    cells = [(a, c) for a in range(1, bound + 1) for c in range(a)]
    return _sweep("sgn_vanishing", {"bound": bound}, cells,
                  lambda cell: _compare(
                      _at(*cell), "sign_multiplicity", 0,
                      0 if sgn_vanishing_check(*cell) else "nonzero"))


def _check_ses(bound: int) -> list[CheckReport]:
    """Per-layer subquotient assembly identity, one report per layer size."""
    def layer(level):
        cells = [(b, a) for a in range(bound - level + 1)
                 for b in range(a + level, bound + 1)]
        return _sweep("ses", {"level": level, "bound": bound}, cells,
                      lambda c: _identity_failure(
                          dict(_at(*c), level=level),
                          ses_identity_check(level, *c)))
    return [layer(level) for level in range(1, bound + 1)]


# Checks whose report is a single CheckReport are wrapped in a list by
# run_check; ses returns one report per layer.
_REGISTRY: dict[str, Callable[[int], CheckReport | list[CheckReport]]] = {
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
    "primfs_formula": primfs_formula,
    "kring_fs_check": kring_fs_check,
    "subquotient_formula": subquotient_formula,
    "invert": _check_invert,
}

# The formula ops refuse bound 0; the registry reports them vacuous there.
_FORMULA_IDS = ("primfs_formula", "kring_fs_check", "subquotient_formula")

# Canonical execution order for full runs: the registry's, less "invert",
# which stays individually addressable but is covered by the derham
# cancellation it reduces to.
_RUN_ORDER = tuple(check_id for check_id in _REGISTRY if check_id != "invert")

CHECK_IDS = tuple(_REGISTRY)


def run_check(check_id: str, bound: int) -> list[CheckReport]:
    """Run one registered check at the requested bound.

    Raises ``KeyError`` for an unknown id, ``TypeError`` for a bound that
    is not an int and ``ValueError`` for a negative bound.
    """
    if check_id not in _REGISTRY:
        raise KeyError(f"unknown check id: {check_id!r}")
    _require_nonnegative(bound)
    if bound == 0 and check_id in _FORMULA_IDS:
        return [CheckReport(check_id, {"bound": bound}, "vacuous")]
    reports = _REGISTRY[check_id](bound)
    return reports if isinstance(reports, list) else [reports]


def collect_reports(bound: int) -> list[CheckReport]:
    """All canonical-order reports for a full run at the given bound.

    Raises ``TypeError`` for a bound that is not an int and ``ValueError``
    for a negative bound, like ``run_check``.
    """
    reports: list[CheckReport] = []
    for check_id in _RUN_ORDER:
        reports.extend(run_check(check_id, bound))
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
    dimension of every filtration level up to depth ``bound``.  Raises
    ``TypeError`` for a bound that is not an int and ``ValueError`` for a
    negative bound, like ``run_check``.
    """
    _require_nonnegative(bound)
    header = ["source_size", "target_size", "dim_full", "dim_primitive"]
    header += [f"dim_level_{t}" for t in range(1, bound + 1)]
    rows = [[b, a, hom_dimension(HomClass.SURJECTION, b, a),
             primitives(b, a).cols]
            + [filtration_level(b, a, t).cols for t in range(1, bound + 1)]
            for b, a in _cells(bound)]
    return header, rows


def render_dimension_csv(bound: int) -> str:
    """Deterministic CSV text of the dimension table."""
    header, rows = dimension_table(bound)
    lines = [",".join(header)]
    lines += [",".join(str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------- CLI


def _print_reports(reports: list[CheckReport]) -> None:
    for r in reports:
        print(f"{r.status:<8} {r.check} "
              f"{json.dumps(r.parameters, sort_keys=True)}")
        if r.status == "fail":
            print(f"         expected: {r.expected}")
            print(f"         computed: {r.computed}")
    failed = sum(1 for r in reports if r.status == "fail")
    vacuous = sum(1 for r in reports if r.status == "vacuous")
    if failed:
        print(f"{failed} of {len(reports)} checks failed")
    elif vacuous:
        print(f"{len(reports) - vacuous} passed, {vacuous} vacuous")
    else:
        print(f"all {len(reports)} checks passed")


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _write_outputs(*outputs: tuple[Path | None, Callable[[], str]]) -> int:
    """Write each ``(path, render)`` whose path is set, in order.

    Text is rendered only for the paths that are written.  Returns 0, or 2
    after reporting the first I/O error on stderr.
    """
    for path, render in outputs:
        if path is None:
            continue
        text = render()
        try:
            path.write_text(text)
        except OSError as exc:
            print(f"failed to write report artifact: {exc}", file=sys.stderr)
            return 2
    return 0


def _cmd_dims(args) -> int:
    text = render_dimension_csv(args.max_size)
    print(text, end="")

    def payload():
        header, rows = dimension_table(args.max_size)
        return _json_text([dict(zip(header, row)) for row in rows])
    return _write_outputs((args.csv, lambda: text), (args.json, payload))


_THETA_PRINT_LIMIT = 400


def _cmd_theta(args) -> int:
    a, b = args.a, args.b
    report = theta_rank_report(a, b)
    for key, value in report.items():
        print(f"{key} {json.dumps(value)}")
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
    return _write_outputs(
        (args.json, lambda: _json_text(dict(report, matrix=entries))))


def _cmd_decompose(args) -> int:
    a, b = args.a, args.b
    if args.flavor == "fs":
        cls = full_fs_bidecompose(b, a)
    else:
        cls = bidecompose_character(
            hom_module(HomClass.INJECTION, a, b).bicharacter())
    for (left, right), mult in cls.terms:
        print(f"{json.dumps(list(left))} {json.dumps(list(right))} {mult}")
    if not cls.terms:
        print("0")
    return _write_outputs((args.json, lambda: _json_text(cls.to_json())))


def _cmd_filtration(args) -> int:
    a, b = args.a, args.b
    dims = {t: filtration_level(b, a, t).cols for t in range(-1, b + 1)}
    for t in range(-1, b + 1):
        print(f"level {t} dimension {dims[t]}")
    layers = {}
    for level in range(b - a + 1):
        layer = subquotient_decompose(level, b, a)
        layers[level] = layer
        print(f"layer {level} class "
              f"{json.dumps(layer.to_json(), sort_keys=True)}")
    payload = {
        "source_size": b,
        "target_size": a,
        "level_dimensions": {str(t): dims[t] for t in dims},
        "layers": {str(level): layers[level].to_json() for level in layers},
    }
    return _write_outputs((args.json, lambda: _json_text(payload)))


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
    if not reports:
        print(f"error: {target} yields no report at --max-size "
              f"{args.max_size}", file=sys.stderr)
        return 2
    _print_reports(reports)
    written = _write_outputs(
        (args.json, lambda: render_reports_json(reports)),
        (args.csv, lambda: render_dimension_csv(args.max_size)))
    return written or (0 if all(r.status != "fail" for r in reports) else 1)


def _add_global_options(parser: argparse.ArgumentParser,
                        trailing: bool) -> None:
    """Attach the shared flags; trailing copies must not clobber leading ones."""
    suppress = {"default": argparse.SUPPRESS} if trailing else {}
    parser.add_argument("--max-size", type=int, metavar="N",
                        help="sweep bound on set sizes (default 6)",
                        **(suppress or {"default": None}))
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

    for p, run in ((p_dims, _cmd_dims), (p_theta, _cmd_theta),
                   (p_dec, _cmd_decompose), (p_filt, _cmd_filtration),
                   (p_ver, _cmd_verify)):
        _add_global_options(p, trailing=True)
        p.set_defaults(run=run)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # theta, decompose and filtration take one cell, --a and --b, and
    # neither a sweep bound nor a dimension table.
    if "a" in vars(args):
        given = [flag for flag, value in (("--max-size", args.max_size),
                                          ("--csv", args.csv))
                 if value is not None]
        if given:
            print(f"error: {args.command} does not take "
                  f"{' or '.join(given)}", file=sys.stderr)
            return 2
        if not 0 <= args.a <= args.b:
            print("error: require 0 <= a <= b", file=sys.stderr)
            return 2
        # A map's values are bytes, so hom_values stops at 255 points.
        if args.b > 255:
            print("error: require b <= 255", file=sys.stderr)
            return 2
    else:
        if args.max_size is None:
            args.max_size = 6
        if args.max_size < 0:
            print("error: --max-size must be nonnegative", file=sys.stderr)
            return 2
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
