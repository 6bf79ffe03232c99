"""sympy is needed only to build manufactured solutions: `import mhd2d`
leaves it unloaded, and the solver, the sweeps and the non-MMS CLI
commands run with it blocked.  Building and running manufactured
solutions leaves numpy's lazily loaded submodules (f2py, testing)
unloaded."""

import os
import subprocess
import sys

import mhd2d

SRC = os.path.dirname(os.path.dirname(mhd2d.__file__))

BLOCKED = """
import sys
sys.modules["sympy"] = None  # any `import sympy` now raises ImportError

import os
import tempfile

import mhd2d
from mhd2d.cli import cli_main

cfg = mhd2d.Config(params=mhd2d.validate_params(mhd2d.SimulationParams(
    nx=16, ny=16, eps=1e-2, delta=1e-2, t_final=0.01)))
_, series = mhd2d.run(cfg)
assert series.metadata["steps"] > 0

sweep = mhd2d.epsilon_sweep(cfg.with_params(nx=8, ny=8), [1e-2, 5e-3], n_records=3)
assert all(sweep.column("ok")), sweep.rows

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "tiny.cfg")
    with open(path, "w") as fh:
        fh.write("nx = 8\\nny = 8\\nt_final = 0.01\\neps = 1e-2\\nrun_id = tiny\\n")
    assert cli_main(["run", path, "--output-dir", tmp]) == 0
    snap = os.path.join(tmp, "tiny", "snapshot_00000.mhd2")
    assert cli_main(["inspect", snap]) == 0

try:
    mhd2d.default_manufactured_solution()
except ImportError:
    print("manufactured solution blocked")
"""


def _python(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )


def test_import_does_not_load_sympy():
    proc = _python("import sys, mhd2d, mhd2d.cli; print('sympy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_solver_sweeps_and_cli_run_with_sympy_blocked():
    proc = _python(BLOCKED)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "manufactured solution blocked"


MMS_SETUP = """
import sys

import mhd2d
from mhd2d.verification import default_manufactured_solution, mms_sources, run_mms

cfg = mhd2d.Config(params=mhd2d.validate_params(mhd2d.SimulationParams(
    eps=1e-2, delta=1e-2, t_final=0.01)))
ms = default_manufactured_solution()
mms_sources(ms, cfg.params)
run_mms(cfg, ms, resolutions=(8, 12))
print(*[m for m in ("numpy.f2py", "numpy.testing") if m in sys.modules])
"""


def test_mms_setup_leaves_numpy_f2py_and_testing_unloaded():
    proc = _python(MMS_SETUP)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
