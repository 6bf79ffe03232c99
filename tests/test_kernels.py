"""The compiled Krylov kernels: absent from `import mhd2d`, bit-identical
to their numpy twins (kernel by kernel on drawn grids, and over whole
runs, MMS studies and the named solve failures), and replaced by the numpy
path, with the same bits and no stray file, whenever building, loading or
checking the library fails."""

import os
import re
import subprocess
import sys
import sysconfig

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import mhd2d
from mhd2d import _kernels
from mhd2d.config import Config
from mhd2d.core import InitialDataSpec, SimulationParams, build_grid, validate_params
from mhd2d.errors import LinearSolveDivergence
from mhd2d.operators import face_average_x, face_average_y
from mhd2d.solver import (
    _cg,
    _cg_direction,
    _cg_update,
    _diffusion_matvec,
    _diffusion_operator,
    _face_vector,
    _viscous_matvec,
    _viscous_operator,
    _viscous_solve,
    implicit_diffusion_solve,
    run,
)
from mhd2d.verification import default_manufactured_solution, run_mms

SRC = os.path.dirname(os.path.dirname(mhd2d.__file__))


@pytest.fixture(scope="module")
def lib():
    """The compiled kernels; a machine without a C compiler skips."""
    if _kernels._compiler() is None:
        pytest.skip("no C compiler: only the numpy path exists here")
    loaded = _kernels.load()
    assert loaded is not None, "a C compiler is present but the kernels did not load"
    return loaded


def both_paths(monkeypatch, fn):
    """fn() with the compiled kernels loaded, then with the numpy path
    forced, and the number of solves that ran compiled in the first call."""
    assert _kernels.load() is not None  # callers take the `lib` fixture
    bind_cg, bound = _kernels.bind_cg, []
    with monkeypatch.context() as m:
        m.setattr(_kernels, "bind_cg", lambda *args: bound.append(1) or bind_cg(*args))
        compiled = fn()
    with monkeypatch.context() as m:
        m.setattr(_kernels, "_lib", None)
        return compiled, fn(), len(bound)


# ------------------------------------------------------------------
# nothing on the import path
# ------------------------------------------------------------------

def test_import_neither_loads_nor_builds_the_kernels(tmp_path):
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    code = ("import sys, mhd2d, mhd2d.cli; print(*[m for m in "
            "('mhd2d._kernels', 'subprocess', 'hashlib', 'sysconfig') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
    assert [f for _, _, files in os.walk(tmp_path) for f in files] == []


# ------------------------------------------------------------------
# each kernel against its numpy twin, on drawn grids
# ------------------------------------------------------------------

def junk(rng, n):
    """Random normals with every fifth entry a zero of random sign."""
    v = rng.standard_normal(n)
    v[rng.integers(0, 5, n) == 0] *= 0.0
    return v


shapes = st.tuples(st.integers(4, 24), st.integers(4, 24), st.integers(0, 2 ** 32 - 1))


def compiled_matvec(lib, name, operator, v, out):
    """A v into `out` by the apply that bind_cg gives a solve."""
    apply, _, _ = _kernels.bind_cg(lib, name, operator, v, *np.empty((2, v.size)), out,
                                   np.empty(v.size), None)
    apply(v)


@given(shapes)
def test_diffusion_matvec_kernel_is_bit_identical(lib, shape):
    nx, ny, seed = shape
    rng = np.random.default_rng(seed)
    n = nx * (ny + 1)
    operator = (junk(rng, n), nx, ny, *rng.random(2))
    v, ref, out = junk(rng, n), junk(rng, n), junk(rng, n)
    _diffusion_matvec(*operator, v, ref, np.empty(n))
    compiled_matvec(lib, "diffusion", operator, v, out)
    assert out.tobytes() == ref.tobytes()


@given(shapes)
def test_viscous_matvec_kernel_is_bit_identical(lib, shape):
    nx, ny, seed = shape
    rng = np.random.default_rng(seed)
    n = (2 * nx + 1) * (ny + 1)
    # walls and ghosts carry junk too
    operator = (junk(rng, n), np.empty(nx * (ny + 1)), nx, ny, *rng.random(6))
    u, ref, out = junk(rng, n), junk(rng, n), junk(rng, n)
    _viscous_matvec(*operator, u, ref, np.empty(n))
    compiled_matvec(lib, "viscous", operator, u, out)
    assert out.tobytes() == ref.tobytes()


@pytest.mark.parametrize("bad", ["centre", "div", "x", "p"])
def test_bind_cg_takes_only_vectors_of_the_exact_size_and_layout(lib, bad):
    nx, ny = 4, 5
    n, nc = (2 * nx + 1) * (ny + 1), nx * (ny + 1)
    v = {"centre": np.zeros(n), "div": np.zeros(nc), "x": np.zeros(n), "p": np.zeros(n)}
    # a cell-sized centre, a face-sized div, a float32 x, a strided p
    v[bad] = {"centre": np.zeros(nc), "div": np.zeros(n), "x": np.zeros(n, np.float32),
              "p": np.zeros(2 * n)[::2]}[bad]
    operator = (v["centre"], v["div"], nx, ny, *[1.0] * 6)
    with pytest.raises(ValueError, match="contiguous float64 vectors"):
        _kernels.bind_cg(lib, "viscous", operator, v["x"], np.zeros(n), v["p"], np.zeros(n),
                         np.zeros(n), None)


def test_the_load_check_runs_every_kernel(lib):
    called = set()

    class Spy:
        """The library, noting the name of each function called."""

        def __getattr__(self, name):
            fn = getattr(lib, name)

            def counted(*args):
                called.add(name)
                return fn(*args)

            return counted

    assert _kernels._matches_numpy(Spy())
    assert called == set(_kernels._SIGNATURES)


@given(shapes, st.booleans())
def test_update_and_direction_kernels_are_bit_identical(lib, shape, jacobi):
    nx, ny, seed = shape
    rng = np.random.default_rng(seed)
    n = (2 * nx + 1) * (ny + 1)
    x, r, p, ap, s = (junk(rng, n) for _ in range(5))
    jac = rng.choice([-1.0, 1.0], n) * (0.5 + rng.random(n)) if jacobi else None
    alpha, beta = rng.standard_normal(2)
    x2, r2, p2, s2 = x.copy(), r.copy(), p.copy(), s.copy()
    _cg_update(x, r, p, ap, s, jac, alpha)
    lib.cg_update(n, x2.ctypes.data, r2.ctypes.data, p2.ctypes.data, ap.ctypes.data,
                  s2.ctypes.data, None if jac is None else jac.ctypes.data, alpha)
    assert x2.tobytes() == x.tobytes() and r2.tobytes() == r.tobytes()
    if jacobi:
        assert s2.tobytes() == s.tobytes()  # z = r/jacobi
    z = s if jacobi else r
    _cg_direction(p, z, beta)
    lib.cg_direction(n, p2.ctypes.data, z.ctypes.data, beta)
    assert p2.tobytes() == p.tobytes()


# ------------------------------------------------------------------
# whole runs: the same bytes on both paths
# ------------------------------------------------------------------

RATIO_PROFILE = InitialDataSpec(kind="ratio-profile", rho_amp=0.1, kx=1, ky=1,
                                ratio_mid=1.25, ratio_amp=0.5, jx=1, u_amp=0.3)


def run_bytes(tmp_path, tag, **kw):
    """Every file a 32^2 ratio-profile run writes, one snapshot per step."""
    p = validate_params(SimulationParams(nx=32, ny=32, t_final=0.02, **kw))
    cfg = Config(params=p, init=RATIO_PROFILE, record_interval=1, snapshot_interval=1,
                 run_id="kernels")
    out = tmp_path / tag
    _traj, series = run(cfg, output_dir=out)
    assert series.metadata["steps"] > 5
    run_dir = out / "kernels"
    return {f: (run_dir / f).read_bytes() for f in sorted(os.listdir(run_dir))}


@pytest.mark.parametrize("eps, delta", [(1e-2, 1e-2), (0.0, 0.0)])
def test_runs_write_the_same_bytes_on_both_paths(monkeypatch, tmp_path, lib, eps, delta):
    calls = iter(["compiled", "numpy"])
    compiled, numpy_path, solves = both_paths(
        monkeypatch, lambda: run_bytes(tmp_path, next(calls), eps=eps, delta=delta))
    assert len(compiled) > 5 and solves > 0
    assert compiled == numpy_path


@pytest.mark.parametrize("scheme", ["upwind", "centered"])
def test_mms_studies_are_bit_identical_on_both_paths(monkeypatch, lib, scheme):
    cfg = Config(params=validate_params(SimulationParams(
        eps=1e-2, delta=1e-2, t_final=0.02, advect_scheme=scheme)))
    ms = default_manufactured_solution()

    def study():
        rep = run_mms(cfg, ms, resolutions=(8, 16, 32))
        return rep.l2_errors, rep.linf_errors, rep.orders

    compiled, numpy_path, solves = both_paths(monkeypatch, study)
    assert solves > 0
    assert repr(compiled) == repr(numpy_path)


# ------------------------------------------------------------------
# named failures: the same class and message on both paths
# ------------------------------------------------------------------

def viscous_problem(n=12):
    g = build_grid(SimulationParams(nx=n, ny=n))
    rng = np.random.default_rng(5)
    rho = 1.0 + rng.random((g.nx, g.ny))
    mx = rng.standard_normal((g.nx + 1, g.ny))
    my = rng.standard_normal((g.nx, g.ny + 1))
    mx[0, :] = mx[-1, :] = 0.0
    my[:, 0] = my[:, -1] = 0.0
    return g, face_average_x(rho), face_average_y(rho), mx, my


def viscous_failure(case):
    g, rfx, rfy, mx, my = viscous_problem()
    gx, gy = np.zeros_like(mx), np.zeros_like(my)
    if case == "rhs":
        mx[4, 5] = np.nan
    elif case == "residual":
        gy[3, 3] = np.nan
    elif case == "breakdown":
        rfx, rfy = -rfx, -rfy
    _viscous_solve(g, rfx, rfy, mx, my, 1e-3, 0.1, 0.0, guess=(gx, gy))


def viscous_cap():
    """_cg as _viscous_solve calls it, on the active path, capped at 3."""
    g, rfx, rfy, mx, my = viscous_problem(24)
    operator, jacobi = _viscous_operator(g, rfx, rfy, 0.05, 0.3, 0.1)
    b, x = _face_vector(g, mx, my), np.zeros((2 * g.nx + 1) * (g.ny + 1))
    _cg("viscous", operator, b, x, 1e-10, 3, jacobi)


def diffusion_rhs():
    g = build_grid(SimulationParams(nx=8, ny=8))
    q = 1.0 + np.random.default_rng(3).random((g.nx, g.ny))
    q[2, 6] = np.inf
    implicit_diffusion_solve(g, q, 0.5, 0.1)


def diffusion_cap(c=100.0):
    """_cg as implicit_diffusion_solve calls it, on the active path, capped at 1."""
    g = build_grid(SimulationParams(nx=8, ny=8))
    b = np.zeros((g.nx, g.ny + 1))
    b[:, :g.ny] = np.random.default_rng(1).random((g.nx, g.ny))
    b = b.ravel()
    _cg("diffusion", _diffusion_operator(g, c), b, b.copy(), 1e-12, 1)


FAILURES = {
    "viscous rhs": lambda: viscous_failure("rhs"),
    "viscous residual": lambda: viscous_failure("residual"),
    "viscous breakdown": lambda: viscous_failure("breakdown"),
    "viscous cap": viscous_cap,
    "diffusion rhs": diffusion_rhs,
    "diffusion cap": diffusion_cap,
}


@pytest.mark.parametrize("case", FAILURES)
def test_solve_failures_are_named_alike_on_both_paths(monkeypatch, lib, case):
    def caught():
        with pytest.raises(LinearSolveDivergence) as exc:
            FAILURES[case]()
        return type(exc.value), str(exc.value)

    compiled, numpy_path, solves = both_paths(monkeypatch, caught)
    assert solves == (0 if case.endswith("rhs") else 1)  # a bad rhs fails before the path choice
    assert compiled == numpy_path
    assert re.match(r"^(viscous|diffusion) CG", compiled[1])


# ------------------------------------------------------------------
# every observed failure falls back to the numpy path
# ------------------------------------------------------------------

def script(path, body):
    path.write_text("#!/bin/sh\n" + body + "\n")
    path.chmod(0o755)


def no_compiler(tmp_path, monkeypatch):
    monkeypatch.setenv("PATH", str(tmp_path / "bin"))


def failing_compiler(tmp_path, monkeypatch):
    for name in ("gcc", "cc"):
        script(tmp_path / "bin" / name, "exit 1")
    monkeypatch.setenv("PATH", str(tmp_path / "bin"))


def junk_library(tmp_path, monkeypatch):
    # the "compiler" writes a file ctypes cannot load
    body = 'while [ $# -gt 0 ]; do [ "$1" = -o ] && echo junk > "$2"; shift; done; exit 0'
    for name in ("gcc", "cc"):
        script(tmp_path / "bin" / name, body)
    monkeypatch.setenv("PATH", str(tmp_path / "bin"))


def unwritable_cache(tmp_path, monkeypatch):
    (tmp_path / "file").write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file" / "cache"))


def no_home_directory(tmp_path, monkeypatch):
    # no HOME and no passwd entry, as for an arbitrary container uid
    import pwd

    def no_entry(uid):
        raise KeyError(uid)

    monkeypatch.delenv("XDG_CACHE_HOME")
    monkeypatch.delenv("HOME", raising=False)
    monkeypatch.setattr(pwd, "getpwuid", no_entry)
    assert os.path.expanduser("~") == "~"


def mutated_build(tmp_path, monkeypatch, edit):
    """A compiler that builds the source as the sed expression `edit` changes it."""
    cc = _kernels._compiler()
    if cc is None:
        pytest.skip("no C compiler")
    for name in ("gcc", "cc"):
        script(tmp_path / "bin" / name, f"sed '{edit}' | {cc} \"$@\"")
    monkeypatch.setenv("PATH", str(tmp_path / "bin"))


def mutated_kernel(tmp_path, monkeypatch):
    # a real build of a source whose direction kernel subtracts z
    mutated_build(tmp_path, monkeypatch, r"s/p\[k\] \* beta + z/p[k] * beta - z/")


def mutated_matvec(tmp_path, monkeypatch):
    # a real build of a source whose viscous matvec flips one grad-div term
    mutated_build(tmp_path, monkeypatch, r"s/o += div\[k - L\] \* gxs/o -= div[k - L] * gxs/")


@pytest.mark.parametrize("trigger", [no_compiler, failing_compiler, junk_library,
                                     unwritable_cache, no_home_directory, mutated_kernel,
                                     mutated_matvec])
def test_each_failure_leaves_the_run_on_the_numpy_path(monkeypatch, tmp_path, trigger):
    def small_run():
        p = validate_params(SimulationParams(nx=12, ny=10, eps=1e-2, delta=1e-2, t_final=0.02))
        traj, _ = run(Config(params=p, init=RATIO_PROFILE))
        return b"".join(getattr(s, f).tobytes() for s in traj.states for f in ("rho", "b", "ux", "uy"))

    with monkeypatch.context() as m:
        m.setattr(_kernels, "_lib", None)
        reference = small_run()
    (tmp_path / "bin").mkdir()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    # the compiler is looked up on PATH, which the triggers replace
    monkeypatch.setitem(sysconfig.get_config_vars(), "CC", "gcc")
    trigger(tmp_path, monkeypatch)
    monkeypatch.setattr(_kernels, "_lib", _kernels._UNSET)
    monkeypatch.chdir(tmp_path)
    assert small_run() == reference
    assert _kernels._lib is None
    cache = tmp_path / "cache" / "mhd2d"
    stray = [f for f in os.listdir(cache) if not f.endswith(".so")] if cache.is_dir() else []
    assert stray == []
    assert not (tmp_path / "~").exists()  # a relative cache lands in the working directory


def test_a_build_is_named_by_its_source_and_reused(monkeypatch, tmp_path, lib):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_kernels, "_lib", _kernels._UNSET)
    assert _kernels.load() is not None
    cache = tmp_path / "mhd2d"
    built = os.listdir(cache)
    assert len(built) == 1 and re.fullmatch(r"_kernels-[0-9a-f]{32}\.so", built[0])
    mtime = (cache / built[0]).stat().st_mtime_ns
    # a second process finds the library and compiles nothing
    monkeypatch.setattr(_kernels, "_lib", _kernels._UNSET)
    assert _kernels.load() is not None
    assert os.listdir(cache) == built and (cache / built[0]).stat().st_mtime_ns == mtime
    # another source gets a library of its own
    edited = tmp_path / "_kernels.c"
    with open(_kernels._SOURCE) as fh:
        edited.write_text(fh.read() + "/* edited */\n")
    monkeypatch.setattr(_kernels, "_SOURCE", str(edited))
    monkeypatch.setattr(_kernels, "_lib", _kernels._UNSET)
    assert _kernels.load() is not None
    assert len(os.listdir(cache)) == 2
