"""Reachability sweep: every hilbwall function that no CLI command reaches.

Runs every subcommand in process under ``sys.setprofile`` -- in both
output formats, plus ``--help``, ``--version``, usage errors, an
unwritable ``--out`` and ``verify`` -- and records which hilbwall
functions ran.  A function is a module-level function, a method or
property of a class, or a named function nested in either; code that
``dataclass`` generates is not counted.

Exits 1 when a function that never ran is not on ``ALLOWED``, or when an
``ALLOWED`` entry names nothing that exists or names code that now runs;
exits 0 otherwise.  Run from the root of a checkout:

    PYTHONPATH=src python tools/reachability.py
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import os
import pkgutil
import sys
import tempfile
import types

import hilbwall
from hilbwall.cli import run

# Code that no command reaches, kept on purpose, as "module.qualname"; a
# class name covers all of its methods.  A new entry needs a reason.
ORACLE = "the rational-limit oracle that the tests hold the kernel against"
EXPANDER = "expander weights for the multi-insertion series (ROADMAP item 1)"
ALLOWED = {
    "exact.BivarPoly": ORACLE,
    "hilb.ch_value": ORACLE,
    "hilb.hilb_integral_via_limit": ORACLE,
    "cli.main": "the console-script entry point; the sweep calls cli.run",
    "wallx.WallTerm.symmetry_factor": EXPANDER,
    "wallx.FullCrossingTerm.k": EXPANDER,
    "wallx.FullCrossingTerm.symmetry_factor": EXPANDER,
}

COMMANDS = [
    "partitions --n 4",
    "hilb-integral --n 3 --ch 2",
    "hilb-integral --n 4 --ch 2 --ch 2",
    "ifunction --n 2 --ch 4",
    "ifunction --n 5 --ch 2",
    "tn --n 4 --psi1 2 --psiinf 3",
    "ch-series --k 4 --order 10",
    "euler --d 1 --c -3 --order 6",
    "euler --d 2 --c 24 --order 3 --check",
    "dt-check --c -6 --order 16",
]
SINGLE_RUNS = [
    "--help",
    "--version",
    "frobnicate",
    "hilb-integral --n 0",
    "verify",
]


def _functions() -> dict[str, types.CodeType]:
    """Every hilbwall function, by "module.qualname", with its code."""
    found: dict[str, types.CodeType] = {}

    def add(name: str, obj, filename: str) -> None:
        if isinstance(obj, property):
            obj = obj.fget
        if isinstance(obj, (staticmethod, classmethod)):
            obj = obj.__func__
        obj = inspect.unwrap(obj) if callable(obj) else obj
        if not isinstance(obj, types.FunctionType) or obj.__code__.co_filename != filename:
            return
        stack = [(name, obj.__code__)]
        while stack:
            qualname, code = stack.pop()
            found[qualname] = code
            stack.extend((f"{qualname}.<locals>.{c.co_name}", c) for c in code.co_consts
                         if isinstance(c, types.CodeType) and not c.co_name.startswith("<"))

    for info in pkgutil.iter_modules(hilbwall.__path__):
        module = importlib.import_module(f"hilbwall.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if isinstance(obj, type):
                for attr, member in vars(obj).items():
                    add(f"{info.name}.{name}.{attr}", member, module.__file__)
            else:
                add(f"{info.name}.{name}", obj, module.__file__)
    return found


def _reached() -> set[types.CodeType]:
    """Run every command line under a profile hook; return the code that ran."""
    seen: set[types.CodeType] = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    with tempfile.TemporaryDirectory() as tmp:
        argvs = [line.split() + ["--format", fmt]
                 for line in COMMANDS for fmt in ("table", "json")]
        argvs += [line.split() for line in SINGLE_RUNS]
        argvs.append(["partitions", "--n", "3", "--out",
                      os.path.join(tmp, "missing", "out.txt")])
        for argv in argvs:
            sys.setprofile(hook)
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    run(argv)
            finally:
                sys.setprofile(None)
    return seen


def main() -> int:
    functions = _functions()
    seen = _reached()
    unreached = {name for name, code in functions.items() if code not in seen}

    def covers(entry: str, name: str) -> bool:
        return name == entry or name.startswith(entry + ".")

    problems = [f"unreached and not allowed: {name}" for name in sorted(unreached)
                if not any(covers(entry, name) for entry in ALLOWED)]
    for entry in ALLOWED:
        names = [name for name in functions if covers(entry, name)]
        if not names:
            problems.append(f"allowed but does not exist: {entry}")
        problems += [f"allowed but reached: {name}" for name in names
                     if name not in unreached]
    for line in problems:
        print(line)
    if problems:
        return 1
    print(f"{len(functions)} functions: {len(functions) - len(unreached)} reached, "
          f"{len(unreached)} unreached and allowed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
