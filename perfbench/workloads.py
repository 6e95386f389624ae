"""The benchmark's workloads, as plain data.

A workload is a list of independent top-level calls into fsprim (the
"operations").  Each operation is named, and its output is compared against
``expected.json`` by that name, so the parent process never imports fsprim:
only the child processes do.

``size`` is the bound (largest source size) of the workload.  The smoke test
runs every workload at a smaller size, which has its own expected outputs.
"""
from __future__ import annotations

import random
from typing import NamedTuple


class Op(NamedTuple):
    name: str        # key into expected.json
    module: str      # fsprim submodule that defines the callable
    function: str
    args: tuple
    render: str      # how the child turns the return value into JSON


MAP_CHECKS = ("dimension_counts", "sgn_vanishing", "theta_equivariance")


def _sweep(size: int) -> list[Op]:
    return [Op(f"collect_reports({size})", "verify", "collect_reports",
               (size,), "report_digest")]


def _pairing(size: int) -> list[Op]:
    # Targets up to size - 2: at size 6, a = 5 and 6 would more than double
    # a sample and halve the number of samples in a run.
    return [Op(f"theta_rank_report({a}, {size})", "fsfilt",
               "theta_rank_report", (a, size), "plain")
            for a in range(size - 1)]


def _maps(size: int) -> list[Op]:
    checks = [Op(f"run_check({check}, {size})", "verify", "run_check",
                 (check, size), "statuses") for check in MAP_CHECKS]
    blocks = [Op(f"full_fs_bidecompose({size}, {a})", "fsfilt",
                 "full_fs_bidecompose", (size, a), "to_json")
              for a in range(size + 1)]
    return checks + blocks


class Workload(NamedTuple):
    build: object     # size -> list[Op], in canonical order
    size: int
    smoke_size: int


WORKLOADS = {
    "sweep_b5": Workload(_sweep, 5, 4),
    "pairing_b6": Workload(_pairing, 6, 5),
    "maps_b6": Workload(_maps, 6, 5),
}


def ops_in_order(workload: str, size: int, order) -> list[Op]:
    ops = WORKLOADS[workload].build(size)
    return [ops[i] for i in order]


def sample_orders(workload: str, size: int, seed: int):
    """Endless stream of call orders (index lists), one per sample.

    The seed fixes the stream.  The order changes which call pays for a
    shared cache fill, never the total work, so a change that only wins in
    one order is exposed.  The sweep is one call, so it keeps the product's
    canonical order.
    """
    count = len(WORKLOADS[workload].build(size))
    rng = random.Random(seed)
    while True:
        order = list(range(count))
        rng.shuffle(order)
        yield order
