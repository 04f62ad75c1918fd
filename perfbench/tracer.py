"""Spans around calls into hilbwall's modules, installed from outside.

The tracer replaces the public functions and methods named in TARGETS with
timing wrappers, in every hilbwall module that holds a reference to them,
so a call through ``from .hilb import hilb_integral`` is seen too.  A name
that does not exist is skipped and its figures read zero.

Each call records a span (target, start, end, parent) in flat arrays kept
in memory; :meth:`Tracer.summary` reduces them when the process ends.  A
span's self time is its duration minus the time its child spans cover.
Targets share a group when their time is reported together; a span nested
inside another span of its own group is not counted twice.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

# (module, attribute path, group)
TARGETS = (
    ("cli", "run", "cli"),
    ("hilb", "hilb_integral", "hilb.bracket"),
    ("hilb", "enumerate_partitions", "hilb.enumerate"),
    ("ifun", "nonpolar_ifunction", "ifun"),
    ("exact", "EpsSeries.__mul__", "exact.epsseries_mul"),
    ("exact", "BivarPoly.__mul__", "exact.numerator"),
    ("exact", "BivarPoly.diagonal_eps", "exact.numerator"),
    ("exact", "QSeries.__mul__", "exact.qseries"),
    ("exact", "qs_inverse", "exact.qseries"),
    ("exact", "qs_pow_int", "exact.qseries"),
    ("exact", "qs_exp", "exact.qseries"),
    ("exact", "qs_log", "exact.qseries"),
    ("exact", "qs_compose", "exact.qseries"),
    ("exact", "euler_inverse_series", "exact.qseries"),
    ("exact", "macmahon_series", "exact.qseries"),
    ("wallx", "ch_series", "wallx"),
    ("wallx", "euler_series_wc", "wallx"),
    ("wallx", "euler_series_closed", "wallx"),
    ("wallx", "dt_identity_check", "wallx"),
    ("fmcalc", "tn_integral", "fmcalc.tn"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.groups: list[str] = []
        self.span_target = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.brackets: list[tuple[int, tuple[int, ...]]] = []
        self.ifun_nonzero = 0

    def install(self) -> None:
        """Wrap every target that exists in the loaded hilbwall modules."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "hilbwall" or name.startswith("hilbwall.")]
        hooks = {"hilb.hilb_integral": self._on_bracket,
                 "ifun.nonpolar_ifunction": self._on_one_end}
        for module, path, group in TARGETS:
            *heads, attr = path.split(".")
            owner = sys.modules.get(f"hilbwall.{module}")
            for head in heads:
                owner = getattr(owner, head, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            name = f"{module}.{path}"
            wrapper = self._wrap(fn, name, group, hooks.get(name))
            # a method is also bound under aliases such as __rmul__
            for holder in ([owner] if heads else modules):
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, key, wrapper)

    def _wrap(self, fn, name: str, group: str, hook):
        target = len(self.names)
        self.names.append(name)
        self.groups.append(group)
        targets, parents, starts, ends = (self.span_target, self.span_parent,
                                          self.span_start, self.span_end)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(targets)
            targets.append(target)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result
        return wrapper

    def _on_bracket(self, args, kwargs, result) -> None:
        ks = args[1] if len(args) > 1 else kwargs.get("ks", ())
        self.brackets.append((int(args[0]), tuple(sorted(ks))))

    def _on_one_end(self, args, kwargs, result) -> None:
        self.ifun_nonzero += not result.is_zero()

    def summary(self) -> dict:
        """Per-target [calls, total s, self s, s outside same-group spans],
        plus the hilb figures read after the traced work."""
        n = len(self.span_target)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        group_ids = {g: 1 << j for j, g in enumerate(dict.fromkeys(self.groups))}
        bits = [group_ids[g] for g in self.groups]
        mask = [0] * n
        per_target = [[0, 0.0, 0.0, 0.0] for _ in self.names]
        for i in range(n):
            t, p = self.span_target[i], self.span_parent[i]
            outer = mask[p] if p >= 0 else 0
            mask[i] = outer | bits[t]
            dur = self.span_end[i] - self.span_start[i]
            rec = per_target[t]
            rec[0] += 1
            rec[1] += dur
            rec[2] += dur - child[i]
            if not outer & bits[t]:
                rec[3] += dur
        return {"targets": {name: [group] + rec for name, group, rec
                            in zip(self.names, self.groups, per_target)},
                "brackets": self.brackets,
                "ifun_nonzero": self.ifun_nonzero,
                **hilb_figures(self.brackets)}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.summary(), fh)


def hilb_figures(brackets) -> dict:
    """Cache statistics of hilb's lru_caches, then the pole counts of the
    fixed points the brackets visited, from the public fixed_point_data."""
    hilb = sys.modules.get("hilbwall.hilb")
    if hilb is None:
        return {"cache": [0, 0, 0], "poles": {}}
    hits = misses = entries = 0
    for value in list(vars(hilb).values()):
        info = getattr(value, "cache_info", None)
        if callable(info):
            ci = info()
            hits, misses, entries = hits + ci.hits, misses + ci.misses, entries + ci.currsize
    poles: Counter = Counter()
    calls = Counter(n for n, _ in brackets)
    enumerate_partitions = getattr(hilb, "enumerate_partitions", None)
    fixed_point_data = getattr(hilb, "fixed_point_data", None)
    if enumerate_partitions is not None and fixed_point_data is not None:
        enumerate_partitions = getattr(enumerate_partitions, "__wrapped__", enumerate_partitions)
        for n, count in calls.items():
            for lam in enumerate_partitions(n):
                tangent = fixed_point_data(lam).tangent
                poles[sum(1 for a, b in tangent if a + b == 0)] += count
    return {"cache": [hits, misses, entries], "poles": dict(poles)}
