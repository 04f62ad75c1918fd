"""Seeded inputs of the three workloads, generated one round at a time.

A round is a fixed multiset of operation shapes; the seed only chooses the
free parameters inside each shape and the order.  Every run therefore
attempts whole rounds of the same kinds of operation, whatever the seed.
"""

from __future__ import annotations

import random

WORKLOADS = ("bracket_large", "bracket_batch", "series")

# bracket_large: one cold CLI process per bracket, each n once per round
LARGE_NS = (12, 13, 14, 15, 16)
LARGE_MAX_K = 6
LARGE_MAX_PADS = 2

# bracket_batch: one library process; each (n, m) cell once per round
BATCH_MAX_N = 8
BATCH_MAX_M = 4
BATCH_MAX_K = 8

# series: one CLI process per command
EULER_ORDER = 60
EULER_CS = (-6, -5, -3, 3, 5, 12, 24)
DT_ORDER = 40
DT_CS = (-6, -5, -3, -1, 1, 3, 5, 6)
CH_KS = (10, 11, 12, 13, 14)
CH_ORDER = 30
PARTITIONS_N = 30
# the output path of this operation lies in a directory that never exists
MISSING_OUT = "missing-dir/out.json"


def rng_for(seed: int) -> random.Random:
    return random.Random(f"hilbwall-bench-{seed}")


def bracket_large_rounds(seed: int):
    """hilb-integral with no insertion, or one ch_k (k <= 6) padded with 0-2
    ch_0; each n once per round.  Every n runs through the insertion shapes
    in its own seeded order, so the few rounds of a run see nearly the same
    mix of shapes at every n, whatever the seed."""
    rng = rng_for(seed)
    shapes = (None,) + tuple(range(LARGE_MAX_K + 1))
    pending: dict[int, list] = {n: [] for n in LARGE_NS}
    while True:
        ops = []
        for n in rng.sample(LARGE_NS, len(LARGE_NS)):
            if not pending[n]:
                pending[n] = rng.sample(shapes, len(shapes))
            k = pending[n].pop()
            ks = [] if k is None else [k] + [0] * rng.randrange(LARGE_MAX_PADS + 1)
            ops.append({"kind": "hilb-integral", "n": n, "ks": ks})
        yield ops


def bracket_batch_rounds(seed: int):
    """(n, ks) for every n <= 8 and every insertion count m <= 4, k <= 8."""
    rng = rng_for(seed)
    while True:
        ops = [(n, sorted(rng.randrange(BATCH_MAX_K + 1) for _ in range(m)))
               for n in range(1, BATCH_MAX_N + 1) for m in range(BATCH_MAX_M + 1)]
        rng.shuffle(ops)
        yield ops


def series_rounds(seed: int):
    """One of each series command, plus the --out operation into a missing directory."""
    rng = rng_for(seed)
    while True:
        ops = [
            {"kind": "euler", "d": 1, "c": rng.choice(EULER_CS), "order": EULER_ORDER},
            {"kind": "euler", "d": 2, "c": rng.choice(EULER_CS), "order": EULER_ORDER},
            {"kind": "dt-check", "c": rng.choice(DT_CS), "order": DT_ORDER},
            {"kind": "ch-series", "k": rng.choice(CH_KS), "order": CH_ORDER},
            {"kind": "partitions", "n": PARTITIONS_N},
            {"kind": "out-missing-dir"},
        ]
        rng.shuffle(ops)
        yield ops


def cli_args(op: dict, workdir: str) -> list[str]:
    """The hilbwall command line of a CLI operation."""
    kind = op["kind"]
    if kind == "hilb-integral":
        args = ["hilb-integral", "--n", str(op["n"])]
        for k in op["ks"]:
            args += ["--ch", str(k)]
        return args + ["--format", "json"]
    if kind == "euler":
        return ["euler", "--d", str(op["d"]), "--c", str(op["c"]),
                "--order", str(op["order"]), "--check", "--format", "json"]
    if kind == "dt-check":
        return ["dt-check", "--c", str(op["c"]), "--order", str(op["order"]),
                "--format", "json"]
    if kind == "ch-series":
        return ["ch-series", "--k", str(op["k"]), "--order", str(op["order"]),
                "--format", "json"]
    if kind == "partitions":
        return ["partitions", "--n", str(op["n"]), "--format", "json"]
    if kind == "out-missing-dir":
        return ["hilb-integral", "--n", "3", "--ch", "2", "--format", "json",
                "--out", f"{workdir}/{MISSING_OUT}"]
    raise ValueError(f"unknown operation {kind!r}")
