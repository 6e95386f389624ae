"""One benchmark sample, run in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SIZE ORDER TRACE

ORDER is a comma list of operation indices, or ``-`` to only time the import.
TRACE is the file that receives the spans of a traced sample, or ``-`` for an
untraced one.  The child prints one JSON object on stdout.  It exits with
status 3 when fsprim cannot be imported from the checkout's ``src``.

Almost every fsprim layer function is a ``functools.cache``, so only the
first call in a process does the work a user pays for; that is why every
sample is a new process.
"""
from __future__ import annotations

import hashlib
import importlib
import json
import resource
import sys
import time
from pathlib import Path

from tracing import CACHED, Recorder, install
from workloads import ops_in_order

SRC = Path(__file__).resolve().parent.parent / "src"


def _render(op, value):
    """The operation's output as JSON data, for the golden comparison."""
    if op.render == "report_digest":
        from fsprim.verify import render_reports_json
        return hashlib.sha256(
            render_reports_json(value).encode()).hexdigest()
    if op.render == "statuses":
        return [report.status for report in value]
    if op.render == "to_json":
        return value.to_json()
    return value


def _check_times(op, value) -> dict[str, float]:
    """verify.<check>.s from CheckReport.elapsed; one entry per ses level."""
    if op.render not in ("report_digest", "statuses"):
        return {}
    out: dict[str, float] = {}
    for report in value:
        check = report.check
        if check == "ses":
            check = f"ses.{report.parameters['level']}"
        key = f"verify.{check}.s"
        out[key] = out.get(key, 0.0) + report.elapsed
    return out


def main(argv: list[str]) -> int:
    workload, size, order, trace_path = argv
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    try:
        import sympy  # noqa: F401  (timed alone: the host-speed yardstick)
        yardstick_s = time.perf_counter() - start
        import fsprim.verify  # noqa: F401  (pulls in every layer)
    except ImportError as exc:
        print(f"cannot import fsprim from {SRC}: {exc}", file=sys.stderr)
        return 3
    setup_s = time.perf_counter() - start
    if not Path(fsprim.__file__).resolve().is_relative_to(SRC):
        print(f"fsprim was imported from {fsprim.__file__}, not {SRC}",
              file=sys.stderr)
        return 3
    from sympy import __version__ as sympy_version
    from sympy.external.gmpy import GROUND_TYPES
    result: dict = {"setup_s": setup_s, "sympy": sympy_version,
                    "ground_types": GROUND_TYPES, "yardstick_s": yardstick_s}
    if order == "-":
        print(json.dumps(result))
        return 0

    ops = ops_in_order(workload, int(size), map(int, order.split(",")))
    cached = {name: getattr(importlib.import_module(f"fsprim.{module}"), name)
              for module, name in CACHED}
    recorder = None
    if trace_path != "-":
        recorder = Recorder(f"{workload}-{size}-{order}")
        install(recorder)
    calls = [getattr(importlib.import_module(f"fsprim.{op.module}"),
                     op.function) for op in ops]

    returns = []
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for op, call in zip(ops, calls):
        try:
            returns.append((True, call(*op.args)))
        except Exception as exc:  # a raising operation is a failed one
            returns.append((False, f"{type(exc).__name__}: {exc}"))
    t1 = time.perf_counter()
    cpu1 = time.process_time()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    outputs = []
    check_times: dict[str, float] = {}
    for op, (ok, value) in zip(ops, returns):
        if ok:
            try:
                check_times.update(_check_times(op, value))
                value = _render(op, value)
            except Exception as exc:
                ok, value = False, f"{type(exc).__name__}: {exc}"
        outputs.append([op.name, ok, value])
    result.update({
        "wall_s": t1 - t0,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": peak_rss_mb,
        "outputs": outputs,
        "caches": {f"cache.{name}.{field}": getattr(fn.cache_info(), field)
                   for name, fn in cached.items()
                   for field in ("hits", "misses")},
        "check_times": check_times,
    })
    if recorder is not None:
        result["layers"] = recorder.layer_metrics(t1 - t0)
        trace = recorder.dump()
        trace.update(workload=workload, size=int(size), start=t0, end=t1)
        Path(trace_path).write_text(json.dumps(trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
