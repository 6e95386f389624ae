"""fsprim benchmark: one workload, each sample in a fresh process.

    python3 perfbench/run.py --workload sweep_b5 --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  The run first times ``SETUP_RUNS``
import-only children (after one warm-up child that compiles the bytecode),
then starts one sample after another, each in a new process, until the next
one would end after ``--seconds``.  Every operation's output is compared with
``expected.json``; a mismatch, an exception or a sample that hits its cap
counts as a failed operation and is kept in the result.

With ``--trace 0`` the metrics are the end-to-end ones, medians over the
samples, each child's times scaled by the host speed it measured (see
``NOMINAL_YARDSTICK_S``).  With ``--trace 1`` the samples alternate untraced
and traced, and the metrics are the per-layer ones, taken from the traced
sample with the median wall time; the spans of the last traced sample are
written to ``.perfbench/``.  The metric names and units are read from
BENCHMARK.json.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit status: 0 when every
operation matched, 1 when one failed, 2 when fsprim cannot be set up (no
result is printed then).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, sample_orders

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACE_DIR = ROOT / ".perfbench"
EXPECTED = HERE / "expected.json"

SETUP_RUNS = 3
# Every run ends within 180 s: a sample still running at this many seconds
# after the start is killed and its operations count as failed.
RUN_CAP_S = 170.0
# The host's speed drifts by up to 1.7x over minutes, so every child first
# times `import sympy` alone: fixed work that no change to fsprim can move.
# A child's times are multiplied by this nominal import time over its own,
# so they read as seconds on the defining host in a fast period.
NOMINAL_YARDSTICK_S = 0.35
# Ground types the timings were defined under.  gmpy2 or python-flint would
# by themselves make QQ arithmetic several times faster.
BASELINE_GROUND_TYPES = "python"

# Metric names and units, as BENCHMARK.json at the checkout's root lists them.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
# Whole-sample times of the traced run; the overhead is traced minus untraced.
TRACE_TOTALS = ("trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s")


class SetupError(Exception):
    """fsprim could not be imported; the run has no result."""


def run_child(workload: str, size: int, order, trace_path, timeout: float):
    """Start one child and return its parsed result, or None at the cap.

    ``order`` lists the operation indices of a sample; None starts an
    import-only child, which must succeed or the run has no result.
    """
    order_arg = "-" if order is None else ",".join(map(str, order))
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(size),
           order_arg, str(trace_path) if trace_path else "-"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        if order is not None:
            return None
        raise SetupError("an import-only child hit the cap") from None
    if proc.returncode == 3 or (order is None and proc.returncode != 0):
        raise SetupError(proc.stderr.strip())
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return {"crashed": proc.returncode}
    return json.loads(proc.stdout.splitlines()[-1])


def count_failures(result, names, expected) -> int:
    """Failed operations of one sample; all when it crashed or hit the cap."""
    if result is None or "crashed" in result:
        return len(names)
    failed = 0
    for name, ok, value in result["outputs"]:
        if not ok or name not in expected or value != expected[name]:
            print(f"FAILED {name}: {value!r}", file=sys.stderr)
            failed += 1
    return failed


def environment(ground_types: str, sympy_version: str) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(line.split(":", 1)[1].strip() for line in info
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "sympy": sympy_version,
            "ground_types": ground_types}


def failed_fraction(result: dict) -> float:
    """ops_failed_frac: failed operations over attempted ones."""
    return result["failed"] / result["attempted"] if result["attempted"] else 0.0


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1 {q1:.4f}, q3 {q3:.4f}"


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: int | None = None) -> dict:
    """Run one workload for ``seconds`` and return the aggregated run."""
    start = time.perf_counter()
    deadline = start + seconds
    size = WORKLOADS[workload].size if size is None else size
    names = [op.name for op in WORKLOADS[workload].build(size)]
    expected = json.loads(EXPECTED.read_text())
    if trace:
        TRACE_DIR.mkdir(exist_ok=True)
    trace_path = TRACE_DIR / f"trace-{workload}.json"

    def cap() -> float:
        return RUN_CAP_S - (time.perf_counter() - start)

    run_child(workload, size, None, None, cap())  # compiles the bytecode
    setups = [run_child(workload, size, None, None, cap())
              for _ in range(SETUP_RUNS)]
    plain, traced = [], []
    attempted = failed = 0
    orders = sample_orders(workload, size, seed)
    while True:
        began = time.perf_counter()
        order = next(orders)
        kinds = [(plain, None)] + ([(traced, trace_path)] if trace else [])
        for into, path in kinds:
            result = run_child(workload, size, order, path, cap())
            attempted += len(names)
            failed += count_failures(result, names, expected)
            if result is not None and "crashed" not in result:
                into.append(result)
        took = time.perf_counter() - began
        if time.perf_counter() + took > deadline or cap() < took:
            break

    children = setups + plain + traced
    ground_types = {c["ground_types"] for c in children}
    env = environment(",".join(sorted(ground_types)), children[0]["sympy"])

    def median(samples, key, scaled=False):
        """Median of ``key``; ``scaled`` puts each child's time at the
        nominal host speed its own yardstick measured."""
        values = [s[key] * (NOMINAL_YARDSTICK_S / s["yardstick_s"]
                            if scaled else 1) for s in samples]
        return statistics.median(values) if values else 0.0

    raw, end_to_end = {}, {}
    for name, unit in END_TO_END.items():
        samples = children if name == "setup_s" else plain
        raw[name] = median(samples, name)
        end_to_end[name] = median(samples, name, scaled=unit == "s")
    layers: dict[str, float] = {}
    if traced:
        # All figures come from the one traced sample with the median wall
        # time, so that its layer self times add up to trace.wall_s.
        mid = sorted(traced, key=lambda s: s["wall_s"])[(len(traced) - 1) // 2]
        row = {key: 0.0 for key in PER_LAYER_UNITS  # checks it did not run
               if key.startswith("verify.")}
        row |= mid["layers"] | mid["caches"] | mid["check_times"]
        layers = {key: row[key] for key in PER_LAYER_UNITS
                  if key not in TRACE_TOTALS}
        layers["trace.wall_s"] = mid["wall_s"]
        layers["trace.untraced_wall_s"] = raw["wall_s"]
        layers["trace.overhead_s"] = (layers["trace.wall_s"]
                                      - layers["trace.untraced_wall_s"])
    return {"workload": workload, "seed": seed, "size": size, "env": env,
            "attempted": attempted, "failed": failed,
            "samples": {"setup": len(children), "plain": len(plain),
                        "traced": len(traced)},
            "quartiles": {name: quartiles([s[name] for s in plain])
                          for name in END_TO_END if name != "setup_s"},
            "walls": [s["wall_s"] for s in plain],
            "yardstick_s": median(children, "yardstick_s"), "raw": raw,
            "end_to_end": end_to_end, "per_layer": layers}


def report(run: dict, trace: bool) -> dict:
    """Print the run for a reader and return the final result object."""
    env = run["env"]
    print("env: " + json.dumps(env, sort_keys=True))
    if env["ground_types"] != BASELINE_GROUND_TYPES:
        print(f"WARNING: sympy ground types are {env['ground_types']!r}, "
              f"not {BASELINE_GROUND_TYPES!r}: times are not comparable "
              "with runs under other ground types")
    counts = run["samples"]
    print(f"workload {run['workload']} (bound {run['size']}), seed "
          f"{run['seed']}: {counts['plain']} untraced and {counts['traced']}"
          f" traced samples, {counts['setup']} set-ups")
    print(f"  host yardstick {run['yardstick_s']:.4f} s (median over every"
          f" child), {NOMINAL_YARDSTICK_S} s nominal")
    for name, unit in END_TO_END.items():
        quartiles = run["quartiles"].get(name, "over every fsprim child")
        print(f"  {name:<16} {run['end_to_end'][name]:12.4f} {unit:<5} "
              f"(raw median {run['raw'][name]:.4f}; {quartiles})")
    print("  wall_s per sample: "
          + " ".join(f"{wall:.3f}" for wall in run["walls"]))
    print(f"  {'ops_failed_frac':<16} {failed_fraction(run):12.4f} ratio "
          f"({run['failed']} failed of {run['attempted']} operations)")
    if trace:
        for name, value in run["per_layer"].items():
            print(f"  {name:<36} {value:16.4f} {PER_LAYER_UNITS[name]}")
        metrics = {name: {"value": value, "unit": PER_LAYER_UNITS[name]}
                   for name, value in run["per_layer"].items()}
    else:
        metrics = {name: {"value": run["end_to_end"][name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    return {"correct": run["failed"] == 0, "attempted": run["attempted"],
            "failed": run["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fsprim" / "__init__.py").is_file():
        print(f"no fsprim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        run = measure(args.workload, args.seed, args.seconds,
                      bool(args.trace))
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    result = report(run, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
