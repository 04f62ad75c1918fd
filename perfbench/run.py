"""End-to-end and per-module benchmark of hilbwall.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a source checkout; hilbwall is imported from src/.
Workloads (see README.md): bracket_large, bracket_batch, series.  Load is a
closed loop with one client: one child process at a time.  Each run times
SETUP_PROBES fresh ``python -m hilbwall.cli --version`` processes, half
before and half after whole rounds of the workload's operations, which run
until S seconds have passed; then it checks every output against the
oracles.  Times are scaled by a reference computation timed between
operations (README, "Machine speed").  The last line of stdout is one JSON
object: correct, attempted, failed and the metrics -- the end-to-end ones
with --trace 0, the per-module ones with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import checks
import oracles
import workloads
from child import CHILD_TIMEOUT_S, ROUND_END

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 16  # half before the workload and half after it
CLI = [sys.executable, "-m", "hilbwall.cli"]
CHILD = [sys.executable, str(HERE / "child.py")]
# timings are scaled to a machine on which reference_seconds() takes this long
REFERENCE_NOMINAL_S = 0.006


def reference_seconds() -> float:
    """Time of a fixed pure-Python Fraction computation in this process,
    which never imports hilbwall: the yardstick of how fast the machine runs
    at the moment (see README, "Machine speed")."""
    t0 = perf_counter()
    total = Fraction(0)
    for i in range(1, 1000):
        total += Fraction(1, i) * Fraction(i + 1, i + 2)
    return perf_counter() - t0


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


class Launcher:
    """A small process (``child.py launch``) that starts the CLI processes one
    at a time and times them, so that their peak memory leaves out this
    process's own."""

    def __init__(self):
        self.proc = subprocess.Popen(CHILD + ["launch"], cwd=ROOT, env=child_env(),
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def _request(self, argv) -> dict:
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"launcher ended with exit code {self.proc.wait()}")
        return json.loads(line)

    def spawn(self, argv: list[str]) -> tuple[int, bytes, bytes, float]:
        """Run one child to its end; (exit code, stdout, stderr, seconds)."""
        r = self._request(argv)
        return r["code"], r["out"].encode(), r["err"].encode(), r["seconds"]

    def close(self) -> int:
        """Stop the launcher; the peak memory of its children in kB."""
        try:
            return self._request(None)["peak_rss_kb"]
        finally:
            self.proc.stdin.close()
            self.proc.wait(timeout=CHILD_TIMEOUT_S)


class Run:
    """One run of one workload: operations, their checks and the trace summaries."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
                 launcher: Launcher):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.workdir = workdir
        self.launcher = launcher
        self.peak_rss_kb = 0
        self.rel_workdir = workdir.relative_to(ROOT).as_posix()
        self.latencies: list[float] = []   # of operations that did not fail
        self.work_s = 0.0                  # time spent in all operations
        self.reference: list[float] = []   # reference_seconds() between operations
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.summaries: list[dict] = []
        self.cli_output_bytes = 0
        self.inputs: list[tuple[int, list[int]]] = []
        self.bits = [0, 0]
        self.elapsed = 0.0
        self.setup: list[float] = []

    def _cli(self, argv: list[str]) -> tuple[int, bytes, bytes, float]:
        self.reference.append(reference_seconds())
        if not self.trace:
            return self.launcher.spawn(CLI + argv)
        summary = self.workdir / f"span-{len(self.summaries)}.json"
        result = self.launcher.spawn(CHILD + ["cli", str(summary)] + argv)
        if summary.exists():
            self.summaries.append(json.loads(summary.read_text()))
            summary.unlink()
        self.cli_output_bytes += len(result[1])
        return result

    def measure_setup(self, probes: int) -> None:
        for _ in range(probes):
            code, out, err, seconds = self._cli(["--version"])
            if code != 0 or not out.strip():
                raise SystemExit("hilbwall --version failed: "
                                 + err.decode(errors="replace")[-400:])
            self.setup.append(seconds)

    def run_cli_workload(self, rounds) -> None:
        done = []
        start = perf_counter()
        while perf_counter() - start < self.seconds:
            for op in next(rounds):
                done.append((op,) + self._cli(workloads.cli_args(op, self.rel_workdir)))
        self.elapsed = perf_counter() - start
        for op, code, out, err, seconds in done:
            failed, errors = checks.judge_cli(op, code, out, err)
            self._record(failed, errors, seconds)
            if op["kind"] == "hilb-integral":
                self.inputs.append((op["n"], op["ks"]))
            if not failed and out and not errors:
                self._bits(json.loads(out)["result"])

    def run_batch_workload(self) -> None:
        """One library process runs a round each time it is told to; the
        reference computation runs here between rounds."""
        summary = self.workdir / "span-batch.json"
        ops = []
        with open(self.workdir / "batch-stderr.txt", "w+b") as err:
            proc = subprocess.Popen(
                CHILD + ["batch", str(self.seed), "1" if self.trace else "0", str(summary)],
                cwd=ROOT, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=err, text=True)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                start = perf_counter()
                while perf_counter() - start < self.seconds:
                    self.reference.append(reference_seconds())
                    proc.stdin.write("round\n")
                    proc.stdin.flush()
                    for line in proc.stdout:
                        if line.strip() == ROUND_END:
                            break
                        ops.append(json.loads(line))
                    else:
                        break  # the worker ended in mid-round
                self.elapsed = perf_counter() - start
                proc.stdin.close()
                for line in proc.stdout:
                    self.peak_rss_kb = json.loads(line)["peak_rss_kb"]
                code = proc.wait()
            finally:
                watchdog.cancel()
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            if code != 0:
                err.seek(0)
                raise SystemExit(f"batch worker exited {code}: "
                                 f"{err.read().decode(errors='replace')[-2000:]}")
        for op in ops:
            self.inputs.append((op["n"], op["ks"]))
            if "error" in op:
                self._record(True, [], op["latency"])
                continue
            self._record(False, checks.check_batch(op["n"], op["ks"], op["bracket"], op["one_end"]),
                         op["latency"])
            self._bits([op["bracket"], op["one_end"]])
        if self.trace:
            self.summaries.append(json.loads(summary.read_text()))

    def _record(self, failed: bool, errors: list[str], seconds: float) -> None:
        self.attempted += 1
        self.work_s += seconds
        if failed:
            self.failed += 1
        else:
            self.latencies.append(seconds)
        self.errors += errors

    def _bits(self, obj) -> None:
        """Largest numerator and denominator bit lengths among printed rationals."""
        if isinstance(obj, dict):
            for v in obj.values():
                self._bits(v)
        elif isinstance(obj, list):
            for v in obj:
                self._bits(v)
        elif isinstance(obj, str) and obj[:1] in "-0123456789":
            value = Fraction(obj)
            self.bits = [max(self.bits[0], value.numerator.bit_length()),
                         max(self.bits[1], value.denominator.bit_length())]

    def timings(self, scale: float = 1.0) -> dict:
        """Set-up time, throughput and median latency, with times multiplied by ``scale``."""
        return {
            "setup_s": (statistics.median(self.setup) * scale, "s"),
            "ops_per_s": (len(self.latencies) / (self.work_s * scale), "1/s"),
            "op_p50_s": (statistics.median(self.latencies) * scale, "s"),
        }

    def reference_scale(self) -> float:
        return REFERENCE_NOMINAL_S / statistics.fmean(self.reference)

    def end_to_end(self) -> dict:
        return {**self.timings(self.reference_scale()),
                "peak_rss_mb": (self.peak_rss_kb / 1024, "MB")}

    def per_layer(self) -> tuple[dict, dict]:
        """The per-module metrics, and self time by module with the pole-count
        histogram for the stderr profile."""
        targets: dict[str, list] = {}
        for s in self.summaries:
            for name, (group, calls, total, self_s, outer) in s["targets"].items():
                rec = targets.setdefault(name, [group, 0, 0.0, 0.0, 0.0])
                for j, v in enumerate((calls, total, self_s, outer), 1):
                    rec[j] += v

        def calls(*names):
            return sum(targets[n][1] for n in names if n in targets)

        def group_s(group):
            return sum(r[4] for r in targets.values() if r[0] == group)

        def self_s(group):
            return sum(r[3] for r in targets.values() if r[0] == group)

        brackets = [(n, tuple(ks)) for s in self.summaries for n, ks in s["brackets"]]
        p = oracles.partition_counts(max([n for n, _ in brackets], default=0))
        visited = sum(p[n] for n, _ in brackets)
        poles = Counter()
        for s in self.summaries:
            poles.update({int(k): v for k, v in s["poles"].items()})
        hits = sum(s["cache"][0] for s in self.summaries)
        misses = sum(s["cache"][1] for s in self.summaries)
        bracket_s = group_s("hilb.bracket")
        one_end_calls = calls("ifun.nonpolar_ifunction")
        return {
            "cli.self_s": (self_s("cli"), "s"),
            "cli.output_bytes": (self.cli_output_bytes, "bytes"),
            "hilb.bracket_s": (bracket_s, "s"),
            "hilb.partitions_visited": (visited, "count"),
            "hilb.partitions_per_s": (visited / bracket_s if bracket_s else 0.0, "1/s"),
            "hilb.tangent_factors": (sum(2 * n * p[n] for n, _ in brackets), "count"),
            "hilb.pole_factors": (sum(k * v for k, v in poles.items()), "count"),
            "hilb.enumerate_s": (group_s("hilb.enumerate"), "s"),
            "hilb.bracket_calls": (len(brackets), "count"),
            "hilb.distinct_brackets": (len(set(brackets)), "count"),
            "hilb.cache_hits": (hits, "count"),
            "hilb.cache_misses": (misses, "count"),
            "hilb.cache_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
            "hilb.cache_entries": (max([s["cache"][2] for s in self.summaries], default=0),
                                   "count"),
            "ifun.self_s": (self_s("ifun"), "s"),
            "ifun.calls": (one_end_calls, "count"),
            "ifun.nonzero_ratio": (sum(s["ifun_nonzero"] for s in self.summaries) / one_end_calls
                                   if one_end_calls else 0.0, "ratio"),
            "exact.epsseries_mul_s": (group_s("exact.epsseries_mul"), "s"),
            "exact.epsseries_mul_calls": (calls("exact.EpsSeries.__mul__"), "count"),
            "exact.numerator_s": (group_s("exact.numerator"), "s"),
            "exact.numerator_calls": (calls("exact.BivarPoly.__mul__", "exact.BivarPoly.diagonal_eps"),
                                      "count"),
            "exact.qseries_s": (group_s("exact.qseries"), "s"),
            "exact.qseries_mul_calls": (calls("exact.QSeries.__mul__"), "count"),
            "wallx.self_s": (self_s("wallx"), "s"),
            "wallx.calls": (sum(r[1] for r in targets.values() if r[0] == "wallx"), "count"),
            "fmcalc.tn_s": (group_s("fmcalc.tn"), "s"),
            "fmcalc.tn_calls": (calls("fmcalc.tn_integral"), "count"),
        }, {
            "self_s_by_module": {m: sum(r[3] for n, r in targets.items() if n.split(".")[0] == m)
                                 for m in sorted({n.split(".")[0] for n in targets})},
            "pole_histogram": dict(sorted(poles.items())),
        }

    def profile(self) -> dict:
        """Make-up of the inputs and outputs, printed to stderr."""
        ns = [n for n, _ in self.inputs]
        return {
            "workload": self.workload, "seed": self.seed, "trace": self.trace,
            "operations": len(self.latencies), "elapsed_s": round(self.elapsed, 3),
            "reference_mean_s": statistics.fmean(self.reference),
            "unscaled": {name: value for name, (value, _) in self.timings().items()},
            "scaled": {name: value for name, (value, _) in
                       self.timings(self.reference_scale()).items()},
            "n_range": [min(ns), max(ns)] if ns else None,
            "insertion_counts": dict(sorted(Counter(len(ks) for _, ks in self.inputs).items())),
            "max_bits": {"numerator": self.bits[0], "denominator": self.bits[1]},
            "errors": self.errors[:5],
        }


def execute(args) -> int:
    if not (ROOT / "src" / "hilbwall" / "cli.py").is_file():
        print(f"error: no hilbwall source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    problems = checks.self_test()
    for p in problems:
        print(f"self-test: {p}", file=sys.stderr)
    workdir = ROOT / ".bench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    launcher = Launcher()
    try:
        run = Run(args.workload, args.seed, args.seconds, args.trace == 1, workdir, launcher)
        launcher.spawn(CLI + ["--version"])  # writes the bytecode caches of a fresh checkout
        run.measure_setup(SETUP_PROBES // 2)
        if args.workload == "bracket_large":
            run.run_cli_workload(workloads.bracket_large_rounds(args.seed))
        elif args.workload == "series":
            run.run_cli_workload(workloads.series_rounds(args.seed))
        else:
            run.run_batch_workload()
        run.measure_setup(SETUP_PROBES - SETUP_PROBES // 2)
        cli_peak = launcher.close()
        if args.workload != "bracket_batch":
            run.peak_rss_kb = cli_peak
    finally:
        if launcher.proc.poll() is None:
            launcher.proc.kill()
            launcher.proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    profile = run.profile()
    if run.trace:
        metrics, extra = run.per_layer()
        profile.update(extra)
    else:
        metrics = run.end_to_end()
        profile["latency_samples"] = len(run.latencies)
        if len(run.latencies) >= 1000:
            profile["op_p99_s"] = statistics.quantiles(run.latencies, n=100)[98]
    print(json.dumps(profile), file=sys.stderr)
    print(json.dumps({
        "correct": not problems and not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check the oracles and that every checker rejects wrong answers")
    args = parser.parse_args()
    if args.self_test:
        problems = checks.self_test()
        print("\n".join(problems) if problems else "self-test passed")
        raise SystemExit(1 if problems else 0)
    if args.workload is None:
        parser.error("--workload is required")
    raise SystemExit(execute(args))


if __name__ == "__main__":
    main()
