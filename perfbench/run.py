"""The mhd2d benchmark: one workload, run as a closed-loop batch job.

    python3 perfbench/run.py --workload reg128-dense --seed 1 --seconds 55 --trace 0

Run from the root of a checkout; the package is imported from its
`src/`.  The process runs one workload body after the other (never two
at once) until --seconds are used up, pins the BLAS/OpenMP pools to one
thread and starts no threads.  Set-up time is measured in fresh
interpreters (perfbench/setup_probe.py), started one at a time, because
a cold import happens once per process.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates an
untraced and a traced body, checks that both end in bit-identical
states, prints the per-layer metrics and writes the spans to
.perfbench-out/.  The last line of standard output is the JSON result;
the line before it describes the instance and the machine.  The exit
code is 1 when an output check failed and 2 when the package source is
missing.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 7


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure_setup(spec: dict) -> dict:
    """Medians over SETUP_REPS cold set-ups, each in its own interpreter."""
    samples = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), json.dumps(spec)],
                              cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return {k: statistics.median(s[k] for s in samples)
            for k in ("import_s", "init_s", "setup_s")}


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            sizes[f"L{level}"] = size
    return sizes


def environment(wl) -> dict:
    import numpy
    import sympy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "sympy": sympy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "caches_per_core": _cache_sizes(), "working_set_bytes": wl.working_set}


class Tally:
    """Bodies attempted and failed, with the reason of each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, wl, body):
        """Run `body()` (the timed call) once; return (seconds, result) or
        None when it raised Mhd2dError or its outputs failed a check."""
        from mhd2d import Mhd2dError

        self.attempted += 1
        wl.prepare()
        gc.collect()
        t0 = time.perf_counter()
        try:
            result = body()
        except Mhd2dError as exc:
            self.failures.append(f"{type(exc).__name__}: {exc}")
            return None
        wall = time.perf_counter() - t0
        bad = wl.check(result)
        if bad:
            self.failures.append("; ".join(bad))
            return None
        return wall, result


def _another(start: float, seconds: float, last: float) -> bool:
    """Whether to start another body that takes about `last` seconds: yes
    while it would end no more than half its length past the deadline, so
    a run measures about `seconds` on average."""
    return time.perf_counter() - start + last / 2 < seconds


def end_to_end(wl, seconds: float, tally: Tally, setup: dict, notes: dict) -> dict:
    walls, rates, first = [], [], None
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out = tally.run(wl, wl.body)
        if out is not None:
            wall, result = out
            digest = wl.digest(result)
            first = first or digest
            if digest != first:
                tally.failures.append("a repeated body ended in a different state")
            else:
                walls.append(wall)
                rates.append(wl.cell_steps(result) / wall)
                notes["body"] = wl.summary(result)
        if not _another(start, seconds, time.perf_counter() - t0):
            break
    notes["walls_s"] = walls
    if not walls:
        return {}
    return {
        "wall_s": (statistics.median(walls), "s"),
        "cell_steps_per_s": (statistics.median(rates), "1/s"),
        "setup_s": (setup["setup_s"], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def traced(wl, seconds: float, tally: Tally, setup: dict, notes: dict) -> dict:
    import tracing

    tracer = tracing.Tracer()

    def body():
        with tracer.span("body"):
            return wl.body()

    plain, timed = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        ref = tally.run(wl, wl.body)
        with tracing.installed(tracer):
            out = tally.run(wl, body)
        if ref is not None and out is not None:
            if wl.digest(ref[1]) != wl.digest(out[1]):
                tally.failures.append("traced body ended in a different state than the untraced one")
            else:
                plain.append(ref[0])
                timed.append(out[0])
        if not _another(start, seconds, time.perf_counter() - t0):
            break
    notes["walls_s"] = {"untraced": plain, "traced": timed}
    notes["absent_layers"] = tracer.absent
    _write_spans(tracer, notes)
    if not timed:
        return {}
    return _layer_metrics(tracer, len(timed), plain, timed, setup)


def _write_spans(tracer, notes: dict) -> None:
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{notes['instance']['workload']}-seed{notes['instance']['seed']}.json"
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start_s", "end_s", "parent"], "spans": tracer.spans}, fh)
    notes["spans_file"] = str(path.relative_to(ROOT))


def _layer_metrics(tracer, n: int, plain, timed, setup) -> dict:
    import tracing

    spans = tracing.summarize(tracer.spans)
    counts = tracer.counts

    def get(name, field):
        return spans[name][field] if name in spans else 0

    def per_call(key, name):
        calls = get(name, "calls")
        return counts.get(key, 0.0) / calls if calls else 0.0

    steps = spans["solver.step"]
    deciles = statistics.quantiles(steps["durations"], n=10)
    body_s = spans["body"]["busy_s"]
    met = {
        "solver.step.calls": (steps["calls"] / n, "count"),
        "solver.step.self_s": (steps["self_s"] / n, "s"),
        "solver.step.p50_ms": (statistics.median(steps["durations"]) * 1e3, "ms"),
        "solver.step.p90_ms": (deciles[8] * 1e3, "ms"),
        "solver.krylov_iters_per_step": (counts.get("solver.krylov_iters", 0.0) / steps["calls"], "count"),
        "solver.stable_dt.busy_s": (get("solver.stable_dt", "busy_s") / n, "s"),
    }
    for layer in ("solver.viscous", "solver.diffusion"):
        if layer in tracer.absent:
            continue
        met[f"{layer}.calls"] = (get(layer, "calls") / n, "count")
        met[f"{layer}.busy_s"] = (get(layer, "busy_s") / n, "s")
        met[f"{layer}.iters_per_call"] = (per_call(f"{layer}.iters", layer), "count")
    for layer in ("operators.transport", "operators.momentum_advection", "operators.eps_drag",
                  "operators.gradient", "eos.pressure_total", "eos.sound_speed_sq"):
        met[f"{layer}.busy_s"] = (get(layer, "busy_s") / n, "s")
    for layer in ("diagnostics.record_state", "diagnostics.total_energy",
                  "verification.mms_sources", "verification.sources_eval", "storage.write_snapshot"):
        met[f"{layer}.calls"] = (get(layer, "calls") / n, "count")
        met[f"{layer}.busy_s"] = (get(layer, "busy_s") / n, "s")
    met["diagnostics.ratio_bounds.calls"] = (get("diagnostics.ratio_bounds", "calls") / n, "count")
    met["diagnostics.total_energy.useful_ratio"] = (
        per_call("diagnostics.total_energy.distinct", "diagnostics.total_energy"), "ratio")
    met["storage.write_snapshot.bytes"] = (counts.get("storage.write_snapshot.bytes", 0.0) / n, "B")
    met["storage.write_timeseries_csv.bytes"] = (
        counts.get("storage.write_timeseries_csv.bytes", 0.0) / n, "B")
    met["storage.write_timeseries_csv.busy_s"] = (get("storage.write_timeseries_csv", "busy_s") / n, "s")
    met["setup.import_s"] = (setup["import_s"], "s")
    met["core.init_state.busy_s"] = (setup["init_s"], "s")
    met["trace.overhead"] = (statistics.median(timed) / statistics.median(plain) - 1.0, "ratio")
    met["trace.self_share"] = (1.0 - spans["body"]["self_s"] / body_s, "ratio")
    return met


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "mhd2d" / "__init__.py").is_file():
        print(f"error: package source {SRC / 'mhd2d'} not found; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import inputs

    spec = inputs.generate(args.workload, args.seed)
    setup = measure_setup(spec)

    import mhd2d

    if not Path(mhd2d.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported mhd2d from {mhd2d.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    notes = {"instance": spec}
    tally = Tally()
    tmp = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)
    try:
        wl = workloads.make(spec, tmp)
        notes["environment"] = environment(wl)
        measure = traced if args.trace else end_to_end
        metrics = measure(wl, args.seconds, tally, setup, notes)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    correct = not tally.failures and bool(metrics)
    notes["setup"] = setup
    notes["failures"] = tally.failures
    print(json.dumps({"info": notes}))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
