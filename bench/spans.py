"""In-memory span recorder that wraps public lillab functions from outside.

A traced pass replaces each public name listed in ``TRACED`` with a wrapper
that records a span (name, start, end, parent span, op id) and, for a few
names, a work count derived from the call's arguments or result.  The
wrapper is installed at every binding the callers look up: the defining
module and every ``lillab`` module that imported the same object by name
(``lillab.lil.simulate_sde`` as well as ``lillab.sde.simulate_sde``), or the
class attribute for methods.  Private helpers are never wrapped, so their
time lands in the self time of the public caller.  A name that no longer
exists, or a work count that can no longer be read from a call, is
reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from dataclasses import dataclass, field


def _rk4_cells(t_star: float, n_steps: int) -> int:
    # one full cell per 1/n of [0, t_star] plus a trailing partial cell
    n_full = int(math.floor(t_star * n_steps + 1e-12))
    return n_full + (1 if t_star - n_full / n_steps > 1e-12 else 0)


def _adjoint_row_cells(args, kwargs, result):
    problem = args[0] if args else kwargs["problem"]
    u_batch = args[2] if len(args) > 2 else kwargs["u_batch"]
    batch, n_steps = u_batch.shape[0], u_batch.shape[1]
    return {"row_cells": batch * _rk4_cells(problem.t_star, n_steps)}


def _simulate_steps(args, kwargs, result):
    return {"steps": len(result.times) - 1}


def _lil_path_levels(args, kwargs, result):
    return {"path_levels": int(result.values.size)}


# name -> work counter (or None); the first dotted part after "lillab" is the
# layer (module), the rest is the attribute path inside it
TRACED = {
    "lillab.cli.run": None,
    "lillab.examples.get_example": None,
    "lillab.extremals.optimize_extremal": None,
    "lillab.extremals.adjoint_gradient": _adjoint_row_cells,
    "lillab.extremals.fd_gradient": None,
    "lillab.controls.solve_control_ode": None,
    "lillab.regularity.reach_target": None,
    "lillab.regularity.polygonalize": None,
    "lillab.sde.simulate_sde": _simulate_steps,
    "lillab.sde.brownian_path": None,
    "lillab.sde.path_to_csv_string": None,
    "lillab.sde.path_to_json_dict": None,
    "lillab.scaling.rescale_path": None,
    "lillab.lil.run_lil_experiment": _lil_path_levels,
    "lillab.lil.LilReport.to_csv_string": None,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int        # index into Recorder.spans, -1 for a root span
    op: str
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans while installed; ``op`` tags every span it records."""

    def __init__(self):
        self.spans: list = []
        self.absent: list = []
        self.op = ""
        self._stack: list = []
        self._patches: list = []   # (owner, attribute, original)

    def _wrap(self, name, fn, counter):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = recorder._stack[-1] if recorder._stack else -1
            span = Span(name, time.perf_counter(), math.nan, parent,
                        recorder.op)
            recorder._stack.append(len(recorder.spans))
            recorder.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                recorder._stack.pop()
            if counter is not None:
                try:
                    span.counts = counter(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # the signature or result changed: report, not fail
                    label = f"{name} ({counter.__name__})"
                    if label not in recorder.absent:
                        recorder.absent.append(label)
            return result

        return traced

    def install(self):
        """Wrap every traced name that exists; record the rest as absent."""
        self.absent = []
        lillab_modules = [m for n, m in list(sys.modules.items())
                          if m is not None
                          and (n == "lillab" or n.startswith("lillab."))]
        for name, counter in TRACED.items():
            parts = name.split(".")
            module_name, attrs = ".".join(parts[:2]), parts[2:]
            try:
                owner = importlib.import_module(module_name)
                for attr in attrs[:-1]:
                    owner = getattr(owner, attr)
                original = getattr(owner, attrs[-1])
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, counter)
            if isinstance(owner, type):
                owners = [owner]
            else:
                owners = [m for m in lillab_modules
                          if getattr(m, attrs[-1], None) is original]
            for target in owners:
                self._patches.append((target, attrs[-1], original))
                setattr(target, attrs[-1], wrapper)

    def uninstall(self):
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- derived quantities ------------------------------------------------

    def self_times(self) -> list:
        """Per span: duration minus the time its direct children cover."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def busy(self, name: str) -> float:
        """Wall time inside ``name`` (no traced name calls itself)."""
        return sum(s.duration for s in self.spans if s.name == name)

    def to_json(self) -> list:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "op": s.op, "counts": s.counts}
                for s in self.spans]
