"""Span tracing from outside the package.

`installed(tracer)` replaces, for the duration of a `with` block, the
module attributes through which `solver.run()` and `solver.step()` reach
each layer, and restores every one of them on exit.  Each wrapped call
records a span (name, start, end, parent) in memory; the benchmark
writes the spans out after the run.  A private attribute that a later
refactor renames or removes is skipped and its layer reported absent.

The hooks rely on how the package looks its callees up today: solver
functions call operators/eos through the `mhd2d.solver` namespace,
`step()` and `run()` import their diagnostics and storage functions from
those modules at call time, and `run_mms` calls `mms_sources` and `run`
through the `mhd2d.verification` namespace.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import deque
from contextlib import contextmanager

# (module, attribute, span name, required, name of the Tracer method that
# post-processes the call, or None)
HOOKS = (
    ("mhd2d.solver", "step", "solver.step", True, "_after_step"),
    ("mhd2d.solver", "stable_dt", "solver.stable_dt", True, None),
    ("mhd2d.solver", "_viscous_solve", "solver.viscous", False, "_after_viscous"),
    ("mhd2d.solver", "_diffusion_solve_counted", "solver.diffusion", False, "_after_diffusion"),
    ("mhd2d.solver", "upwind_scalar_flux_div", "operators.transport", True, None),
    ("mhd2d.solver", "momentum_advection", "operators.momentum_advection", True, None),
    ("mhd2d.solver", "eps_gradrho_gradu", "operators.eps_drag", True, None),
    ("mhd2d.solver", "gradient_cc_to_face", "operators.gradient", True, None),
    ("mhd2d.solver", "pressure_total", "eos.pressure_total", True, None),
    ("mhd2d.solver", "sound_speed_sq", "eos.sound_speed_sq", True, None),
    ("mhd2d.diagnostics", "record_state", "diagnostics.record_state", True, None),
    ("mhd2d.diagnostics", "total_energy", "diagnostics.total_energy", True, "_after_energy"),
    ("mhd2d.diagnostics", "ratio_bounds", "diagnostics.ratio_bounds", True, None),
    ("mhd2d.verification", "mms_sources", "verification.mms_sources", True, "_after_sources"),
    ("mhd2d.storage", "write_snapshot", "storage.write_snapshot", True, "_after_write"),
    ("mhd2d.storage", "write_timeseries_csv", "storage.write_timeseries_csv", True, "_after_write"),
)

class Tracer:
    """In-memory span store plus the counters the spans cannot carry."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self._recent_states: deque = deque(maxlen=4)
        self.absent: list[str] = []

    @contextmanager
    def span(self, name):
        """Record the enclosed block as one span, child of the open span."""
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, after=None):
        """`fn` recording a span per call; `after(name, args, result)` may
        count or replace the result."""

        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            return out if after is None else after(name, args, out)

        return traced

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    # -- post-processing of particular layers ---------------------------
    def _after_step(self, name, args, out):
        self.add("solver.krylov_iters", out[1].linear_solver_iters)
        return out

    def _after_viscous(self, name, args, out):
        self.add("solver.viscous.iters", out[2])
        return out

    def _after_diffusion(self, name, args, out):
        self.add("solver.diffusion.iters", out[1])
        return out

    def _after_energy(self, name, args, out):
        state = args[0]
        if not any(state is s for s in self._recent_states):
            self.add("diagnostics.total_energy.distinct", 1)
            self._recent_states.append(state)
        return out

    def _after_sources(self, name, args, out):
        return self.wrap("verification.sources_eval", out)

    def _after_write(self, name, args, out):
        self.add(f"{name}.bytes", os.path.getsize(args[1]))
        return out


class installed:
    """Install the hooks of `tracer`; restore every attribute on exit."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple] = []

    def __enter__(self) -> Tracer:
        for modname, attr, name, required, post in HOOKS:
            mod = importlib.import_module(modname)
            if not hasattr(mod, attr):
                if required:
                    self.__exit__(None, None, None)
                    raise AttributeError(f"{modname}.{attr} is gone; update the benchmark hooks")
                self.tracer.absent.append(name)
                continue
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            after = getattr(self.tracer, post) if post else None
            setattr(mod, attr, self.tracer.wrap(name, orig, after))
        return self.tracer

    def __exit__(self, *exc) -> bool:
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)
        return False


def summarize(spans) -> dict:
    """Per span name: calls, busy seconds, self seconds, and durations."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, _parent) in enumerate(spans):
        rec = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": []})
        rec["calls"] += 1
        rec["busy_s"] += end - start
        rec["self_s"] += end - start - child_time[i]
        rec["durations"].append(end - start)
    return out
