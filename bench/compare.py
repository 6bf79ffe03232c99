"""Alternating parent/change pairs of the benchmark, summarised per workload.

    python3 bench/compare.py --pairs 10
    python3 bench/compare.py --workload reg128-dense --pairs 10
    python3 bench/compare.py --counts

Each pair runs `perfbench/run.py --workload W --seed S --seconds T --trace 0`
once on the parent and once on the change, with the same seed and T the
`run_seconds` of BENCHMARK.json; pair k uses seed 101 + k, and the side
that runs first alternates from one pair to the next.  The runs go one
at a time.  The parent is the committed tree of HEAD, exported with
`git archive` into a temporary directory that is removed afterwards; the
change is the working tree this script sits in, as it is on disk.  Neither side's
`perfbench/` is modified: each runs its own copy.

For each workload the script writes `BENCH_<workload>.json` at the root
of the working tree: every run's metrics, and for each end-to-end metric
of BENCHMARK.json the median, Q1 and Q3 of each side (quartiles by
`statistics.quantiles(..., method="inclusive")`), the number of pairs the
change wins (ties count for neither side), whether the claim rule
holds (wins in at least nine tenths of the pairs and a gap between the
medians wider than the parent's Q3 - Q1) and whether the change stays
within the metric's bound (its median no worse than the parent's by more
than the fraction `bound` of it).  The file also records the
seeds, the order of each pair, both revisions and the machine.

`--counts` checks instead that the change does the same work: it runs one
traced smoke on each side (`--seed 1 --seconds 1 --trace 1`), prints
every count metric that differs (calls, iterations per call or per
step, bytes and `useful_ratio`) and every absent layer, and exits 1 if
there is any.  It writes no file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse_args(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]],
                    help="repeat for several; default: every workload of BENCHMARK.json")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--counts", action="store_true",
                    help="compare the counts of one traced smoke per side instead of timing pairs")
    args = ap.parse_args(argv)
    args.workload = args.workload or [w["name"] for w in spec["workloads"]]
    return args, spec


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def _export(rev: str, dest: Path) -> None:
    """The committed files of `rev` under `dest`."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in `tree`: its metrics and info lines, or the failure."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=seconds * 4 + 600)
    lines = proc.stdout.strip().splitlines()
    try:
        result, info = json.loads(lines[-1]), json.loads(lines[-2])["info"]
    except (IndexError, ValueError, KeyError):
        return {"returncode": proc.returncode, "error": proc.stderr[-2000:]}
    return {"returncode": proc.returncode, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "environment": info.get("environment"), "bodies": len(info.get("walls_s") or [])}


# the per-layer metrics that count work rather than time it
COUNT_SUFFIXES = (".calls", "_per_call", "_per_step", ".bytes", ".useful_ratio")


def _traced(tree: Path, workload: str) -> dict:
    """The per-layer metrics and absent layers of one traced smoke in `tree`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result, info = json.loads(lines[-1]), json.loads(lines[-2])["info"]
    except (IndexError, ValueError, KeyError):
        return {"metrics": {}, "absent": [f"no result (exit {proc.returncode})"]}
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "absent": info.get("absent_layers", [])}


def _count_diff(parent: dict, change: dict) -> list[str]:
    """One line per count metric that differs between two traced smokes,
    or that only one of them reports, and one per absent layer."""
    pm, cm = parent["metrics"], change["metrics"]
    names = sorted(k for k in {*pm, *cm} if k.endswith(COUNT_SUFFIXES))
    lines = [f"{k}: parent {pm.get(k)} change {cm.get(k)}" for k in names if pm.get(k) != cm.get(k)]
    return lines + [f"absent on the {side}: {layer}" for side, run in
                    (("parent", parent), ("change", change)) for layer in run["absent"]]


def _quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def _summary(pairs: list[dict], spec: dict) -> dict:
    out = {}
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        both = [(p["parent"]["metrics"][name], p["change"]["metrics"][name]) for p in pairs
                if name in p["parent"].get("metrics", {}) and name in p["change"].get("metrics", {})]
        if len(both) < 2:
            out[name] = {"unit": m["unit"], "pairs": len(both)}
            continue
        par, chg = [a for a, _ in both], [b for _, b in both]
        wins = sum((b < a) if lower else (b > a) for a, b in both)
        losses = sum((b > a) if lower else (b < a) for a, b in both)
        ps, cs = _quartiles(par), _quartiles(chg)
        gain = (ps["median"] - cs["median"]) if lower else (cs["median"] - ps["median"])
        ratio = cs["median"] / ps["median"]
        out[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"], "pairs": len(both),
            "parent": ps, "change": cs,
            "change_wins": wins, "change_losses": losses,
            "median_ratio": ratio,
            "claim_rule_holds": wins >= 0.9 * len(both) and gain > ps["q3"] - ps["q1"],
            "within_bound": ratio <= 1.0 + m["bound"] if lower else ratio >= 1.0 - m["bound"],
        }
    return out


def _machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"platform": platform.platform(), "machine": platform.machine(), "cpu": model,
            "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version()}


def main(argv=None) -> int:
    args, spec = _parse_args(argv)
    parent_rev, seconds = _git("rev-parse", "HEAD"), spec["run_seconds"]
    change = {"base": parent_rev,
              "uncommitted": bool(_git("status", "--porcelain", "--untracked-files=no"))}
    tmp = Path(tempfile.mkdtemp(prefix="mhd2d-bench-parent-"))
    try:
        _export(parent_rev, tmp)
        if args.counts:
            differ = False
            for workload in args.workload:
                lines = _count_diff(_traced(tmp, workload), _traced(ROOT, workload))
                print(f"{workload}: " + ("counts equal" if not lines else "counts differ"))
                for line in lines:
                    print(f"  {line}")
                differ = differ or bool(lines)
            return 1 if differ else 0
        for workload in args.workload:
            pairs, environment = [], None
            for k in range(args.pairs):
                seed = 101 + k
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "order": list(order), "load_before": os.getloadavg()[0]}
                for side in order:
                    pair[side] = _run(tmp if side == "parent" else ROOT, workload, seed, seconds)
                    environment = pair[side].pop("environment", None) or environment
                pairs.append(pair)
                wall = {s: pair[s].get("metrics", {}).get("wall_s") for s in ("parent", "change")}
                print(f"{workload} pair {k + 1}/{args.pairs} seed {seed} wall_s {wall}",
                      file=sys.stderr, flush=True)
            doc = {
                "workload": workload,
                "command": f"perfbench/run.py --workload {workload} --seed <seed> "
                           f"--seconds {seconds:g} --trace 0",
                "parent": parent_rev, "change": change,
                "seeds": [p["seed"] for p in pairs], "orders": [p["order"] for p in pairs],
                "finished": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                "machine": {**_machine(), "benchmark_environment": environment},
                "failed_runs": sum(not p[s].get("correct", False) for p in pairs
                                   for s in ("parent", "change")),
                "summary": _summary(pairs, spec),
                "pairs": pairs,
            }
            (ROOT / f"BENCH_{workload}.json").write_text(json.dumps(doc, indent=1) + "\n")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
