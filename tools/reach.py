"""List the lillab functions that no command, workload or criterion calls.

    python tools/reach.py

Three sets of callers run in this process under a call-level sys.settrace
hook, which records the code of every Python call:

- every run of tools/identity_runs.py, through lillab.cli.run with
  --seed 7, its artifacts in a temporary directory;
- one pass of each workload of bench/workloads.py at seed 901, and its
  end-of-run checks;
- tests/test_acceptance.py, through pytest.

Every function and method defined in src/lillab (nested ones included,
found by ast) that none of them called is printed, one per line, as
module.qualname and its line. The package is imported from this checkout's
src. A summary of the callers goes to stderr; the exit code is 1 if a
workload op or an acceptance test failed, since the trace then misses what
the rest of that op or test would have called.
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lillab"
WORKLOAD_SEED = 901
IDENTITY_SEED = "7"


def _defined() -> list:
    """(module, qualname, file, first line) of every def in the package;
    the first line of a decorated def is its first decorator's, as in
    its code object's co_firstlineno."""
    out = []

    def visit(node, module, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                out.append((module, prefix + child.name, path, first))
                visit(child, module, path, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, path, prefix + child.name + ".")
            else:
                visit(child, module, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem,
              str(path), "")
    return out


def _identity_runs(tmp: Path) -> int:
    """Every identity run in-process; returns the number of runs."""
    import lillab.cli as cli
    from identity_runs import OUT, RUNS
    for name, args in RUNS:
        argv = [str(tmp / name / "out") if a == OUT else a for a in args]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                cli.run(argv + ["--seed", IDENTITY_SEED])
            except SystemExit:   # argparse rejects the arguments
                pass
    return len(RUNS)


def _workload_passes(tmp: Path) -> list:
    """One pass of each benchmark workload; returns the failed ops."""
    import workloads
    failures = []
    for name, workload_type in workloads.WORKLOADS.items():
        workload = workload_type(str(tmp / name))
        runner = workloads.Runner(workload, WORKLOAD_SEED)
        workload.setup()
        runner.run_pass(0)
        runner.finish()
        failures += [f"{name}: {f}" for f in runner.failures]
    return failures


def _acceptance() -> int:
    import pytest
    with contextlib.redirect_stdout(io.StringIO()):
        return int(pytest.main(["-q", "-p", "no:cacheprovider",
                                str(ROOT / "tests" / "test_acceptance.py")]))


def main() -> int:
    for extra in ("src", "bench", "tools"):
        sys.path.insert(0, str(ROOT / extra))
    import lillab
    if Path(lillab.__file__).resolve().parent != PACKAGE:
        sys.exit(f"lillab imported from {lillab.__file__}, not {PACKAGE}")

    called = set()

    def hook(frame, event, arg):
        code = frame.f_code
        called.add((code.co_filename, code.co_firstlineno))

    sys.settrace(hook)
    threading.settrace(hook)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            runs = _identity_runs(Path(tmp) / "identity")
            failures = _workload_passes(Path(tmp) / "bench")
        tests = _acceptance()
    finally:
        sys.settrace(None)
        threading.settrace(None)

    called = {(str(Path(f).resolve()), line) for f, line in called}
    defined = _defined()
    unreached = [(m, q, f, line) for m, q, f, line in defined
                 if (f, line) not in called]
    for module, qualname, _, line in unreached:
        print(f"{module}.{qualname}  (line {line})")
    print(f"{runs} identity runs; one pass of each workload, "
          f"{len(failures)} failed ops; acceptance exit code {tests}; "
          f"{len(unreached)} of {len(defined)} functions not called",
          file=sys.stderr)
    for failure in failures:
        print(f"failed: {failure}", file=sys.stderr)
    return 1 if failures or tests else 0


if __name__ == "__main__":
    sys.exit(main())
