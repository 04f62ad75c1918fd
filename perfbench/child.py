"""Child processes of the benchmark; each is a fresh interpreter.

    python3 child.py cli SUMMARY ARGV...
        run hilbwall.cli.run(ARGV) under the tracer and write the span
        summary to SUMMARY; stdout, stderr and exit code are the CLI's own.
    python3 child.py launch
        start the command lines read from stdin as JSON lists, one at a
        time, and print one JSON line for each: exit code, seconds, stdout,
        stderr.  On a JSON null, print the peak memory of those processes.
        Processes started from this small process report their own peak
        memory: a process's peak includes that of the process it was
        started from.
    python3 child.py batch SEED TRACE SUMMARY
        the bracket_batch library process: for each line "round" on stdin,
        one round of brackets, each asked for through nonpolar_ifunction and
        then hilb_integral; prints one JSON line per bracket and ROUND_END
        after each round; at any other line or end of input prints its own
        peak memory and stops.

hilbwall must be importable (the parent puts src/ on PYTHONPATH).
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
from time import perf_counter

import workloads
from tracer import Tracer

ROUND_END = "end"
CHILD_TIMEOUT_S = 160


def own_peak_rss_kb() -> int:
    """Peak resident memory of this program image, in kB.  Unlike ru_maxrss
    it leaves out the memory of the process this one was started from."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_launcher() -> None:
    for line in sys.stdin:
        argv = json.loads(line)
        if argv is None:
            break
        t0 = perf_counter()
        proc = subprocess.run(argv, stdin=subprocess.DEVNULL, capture_output=True,
                              timeout=CHILD_TIMEOUT_S)
        seconds = perf_counter() - t0
        print(json.dumps({"code": proc.returncode, "seconds": seconds,
                          "out": proc.stdout.decode(errors="replace"),
                          "err": proc.stderr.decode(errors="replace")}), flush=True)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps({"peak_rss_kb": peak}), flush=True)


def run_cli(summary: str, argv: list[str]) -> int:
    import hilbwall.cli
    tracer = Tracer()
    tracer.install()
    try:
        return hilbwall.cli.run(argv)
    finally:
        tracer.write(summary)


def run_batch(seed: int, trace: bool, summary: str) -> None:
    from hilbwall import hilb, ifun
    tracer = Tracer()
    if trace:
        tracer.install()
    rounds = workloads.bracket_batch_rounds(seed)
    for command in sys.stdin:
        if command.strip() != "round":
            break
        for n, ks in next(rounds):
            t0 = perf_counter()
            try:
                one_end = ifun.nonpolar_ifunction(n, ks)
                value = hilb.hilb_integral(n, ks)
            except Exception as exc:  # a failing bracket is counted, the run goes on
                op = {"n": n, "ks": ks, "latency": perf_counter() - t0, "error": repr(exc)}
            else:
                op = {"n": n, "ks": ks, "latency": perf_counter() - t0,
                      "bracket": [[str(value.terms[e]), e] for e in sorted(value.terms)],
                      "one_end": None if one_end.is_zero() else [str(one_end.coeff), one_end.exp]}
            # streamed, so the results add nothing to this process's measured memory
            print(json.dumps(op))
        print(ROUND_END, flush=True)
    print(json.dumps({"peak_rss_kb": own_peak_rss_kb()}), flush=True)
    if trace:
        tracer.write(summary)


def main() -> None:
    mode = sys.argv[1]
    if mode == "cli":
        raise SystemExit(run_cli(sys.argv[2], sys.argv[3:]))
    if mode == "launch":
        run_launcher()
        return
    if mode == "batch":
        seed, trace, summary = sys.argv[2:5]
        run_batch(int(seed), trace == "1", summary)
        return
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main()
