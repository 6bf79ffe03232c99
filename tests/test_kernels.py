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
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import mhd2d
from mhd2d import _kernels
from mhd2d.config import Config
from mhd2d.core import InitialDataSpec, SimulationParams, State, build_grid, validate_params
from mhd2d.diagnostics import (
    _energy_density,
    _velocity_gradient_squares,
    _weighted_grad_sq_terms,
    log_entropy,
)
from mhd2d.errors import LinearSolveDivergence
from mhd2d.operators import (
    FaceField,
    eps_gradrho_gradu,
    face_average_x,
    face_average_y,
    gradient_cc_to_face,
    upwind_scalar_flux_div,
)
from mhd2d.solver import (
    Sources,
    _CG_STALLED,
    _cg,
    _cg_iterate,
    _diffusion_operator,
    _face_vector,
    _momentum_rhs,
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
    assert loaded is not None, \
        f"a C compiler is present but the kernels did not load: {_kernels._reason}"
    return loaded


def both_paths(monkeypatch, fn):
    """fn() with the compiled kernels loaded, then with the numpy path
    forced, and the number of solves that ran compiled in the first call."""
    assert _kernels.load() is not None  # callers take the `lib` fixture
    cg_solve, bound = _kernels.cg_solve, []
    with monkeypatch.context() as m:
        m.setattr(_kernels, "cg_solve", lambda *args: bound.append(1) or cg_solve(*args))
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


def signed(rng, n):
    """Random diagonal entries of either sign, none zero."""
    return rng.choice([-1.0, 1.0], n) * (0.5 + rng.random(n))


@given(shapes, st.booleans())
def test_cg_solve_steps_are_bit_identical(lib, shape, jacobi):
    # capped at 0 on junk operators, walls and ghosts included: A x and
    # r = b - A x; at 1 on the builders' operators: one update and one
    # direction.  Every buffer starts as junk, signed zeros included.
    nx, ny, seed = shape
    rng = np.random.default_rng(seed)
    nc, nf = nx * (ny + 1), (2 * nx + 1) * (ny + 1)
    junk_operators = {"diffusion": (junk(rng, nc), nx, ny, *rng.random(2)),
                      "viscous": (junk(rng, nf), np.empty(nc), nx, ny, *rng.random(6))}
    cases = [(name, op, signed(rng, op[0].size), 0) for name, op in junk_operators.items()]
    cases += [(name, *cg_problem(name, nx, ny, True)[::3], 1) for name in junk_operators]
    for name, operator, diag, cap in cases:
        diag = diag if jacobi else None
        bufs = np.stack([junk(rng, operator[0].size) for _ in range(5)])  # x, b, p, Ap, scratch
        if cap:  # pinned faces and ghosts, as _cg gets them, keep p.Ap > 0
            bufs[:2, operator[0] == 0.0] = 0.0
        twin = bufs.copy()
        bounds = (1e-10, cap, 0.5, 2.0, 1e-20)
        numpy_path = _cg_iterate(name, operator, *bufs, diag, *bounds)
        z = twin[1] if diag is None else twin[4]
        compiled = _kernels.cg_solve(lib, name, operator, *twin[:4], z, diag, *bounds)
        assert numpy_path[:2] == (_CG_STALLED, cap)
        assert compiled[:2] == numpy_path[:2] and _kernels._same(compiled[2], numpy_path[2])
        # the numpy matvec writes its scratch too; after an update it holds z = r/jacobi
        k = 5 if diag is not None and cap else 4
        assert twin[:k].tobytes() == bufs[:k].tobytes(), (name, cap)


@pytest.mark.parametrize("bad", ["centre", "div", "x", "p"])
def test_cg_solve_takes_only_vectors_of_the_exact_size_and_layout(lib, bad):
    nx, ny = 4, 5
    n, nc = (2 * nx + 1) * (ny + 1), nx * (ny + 1)
    v = {"centre": np.zeros(n), "div": np.zeros(nc), "x": np.zeros(n), "p": np.zeros(n)}
    # a cell-sized centre, a face-sized div, a float32 x, a strided p
    v[bad] = {"centre": np.zeros(nc), "div": np.zeros(n), "x": np.zeros(n, np.float32),
              "p": np.zeros(2 * n)[::2]}[bad]
    operator = (v["centre"], v["div"], nx, ny, *[1.0] * 6)
    with pytest.raises(ValueError, match="contiguous float64 vectors"):
        _kernels.cg_solve(lib, "viscous", operator, v["x"], np.zeros(n), v["p"], np.zeros(n),
                          np.zeros(n), None, 1e-10, 3, 0.0, 0.0, 0.0)


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

    assert _kernels._first_mismatch(Spy()) is None
    assert called == set(_kernels._SIGNATURES)


# ------------------------------------------------------------------
# the dot product, in numpy's einsum order
# ------------------------------------------------------------------

# short vectors, and lengths on either side of one, two, three and four
# 8192-element chunks (33153 is a 128^2 face vector)
DOT_LENGTHS = [*range(1, 41), 8191, 8192, 8193, 16383, 16384, 16385, 24577, 33153]


def compiled_dot(lib, a, b):
    return np.float64(lib.dot(a.size, a.ctypes.data, b.ctypes.data))


@pytest.mark.parametrize("offset", [0, 1], ids=["aligned", "offset"])
def test_dot_kernel_adds_in_einsum_order(lib, offset):
    rng = np.random.default_rng(7 + offset)
    for n in DOT_LENGTHS:
        a, b = (junk(rng, n + offset)[offset:] for _ in range(2))
        assert compiled_dot(lib, a, b).tobytes() == np.einsum("i,i->", a, b).tobytes(), n


@pytest.mark.parametrize("n", [1, 2, 9, 8193, 33153])
def test_dot_kernel_on_signed_zeros_infinities_and_nans(lib, n):
    ones, zeros = np.ones(n), np.full(n, -0.0)
    inf, both, nan = ones.copy(), ones.copy(), ones.copy()
    inf[n // 2] = np.inf
    both[0], both[-1] = np.inf, -np.inf  # inf - inf once n > 1
    nan[-1] = np.nan
    for a, b in [(zeros, ones), (zeros, -ones), (zeros, zeros), (inf, ones), (both, ones),
                 (nan, ones)]:
        with np.errstate(invalid="ignore"):
            ref = np.einsum("i,i->", a, b)
        got = compiled_dot(lib, a, b)
        if np.isfinite(ref):
            assert got.tobytes() == ref.tobytes()  # +0.0 from -0.0 products
        else:  # the class only: an infinity of the same sign, or a NaN
            assert (np.isnan(got) and np.isnan(ref)) or got == ref


# ------------------------------------------------------------------
# one CG solve, one compiled call
# ------------------------------------------------------------------

def cg_problem(name, nx, ny, jacobi):
    """The arguments of _cg for a `name` solve on an nx x ny grid: the
    operator, b, a start x, and the Jacobi diagonal or None."""
    g = build_grid(SimulationParams(nx=nx, ny=ny))
    rng = np.random.default_rng(nx + ny)
    if name == "diffusion":
        operator, diag = _diffusion_operator(g, 2e-3), None
        n = nx * (ny + 1)
        if jacobi:
            diag = np.where(operator[0] > 0.0, operator[0], 1.0)
    else:
        rho = 1.0 + rng.random((nx, ny))
        operator, diag = _viscous_operator(g, face_average_x(rho), face_average_y(rho), 1e-3,
                                           0.1, 0.05)
        n = (2 * nx + 1) * (ny + 1)
        diag = diag if jacobi else None
    return operator, rng.standard_normal(n), rng.standard_normal(n), diag


@pytest.mark.parametrize("shape", [(5, 7), (64, 64)], ids=["5x7", "64x64"])
@pytest.mark.parametrize("name, jacobi", [("viscous", True), ("viscous", False),
                                          ("diffusion", False), ("diffusion", True)])
@pytest.mark.parametrize("capped", [False, True], ids=["converged", "capped"])
def test_cg_solve_matches_the_numpy_loop(monkeypatch, lib, shape, name, jacobi, capped):
    operator, b, x, diag = cg_problem(name, *shape, jacobi)
    b[operator[0] == 0.0] = x[operator[0] == 0.0] = 0.0  # pinned faces and ghosts, as _cg gets them

    def solve():
        xx = x.copy()
        try:
            it = _cg(name, operator, b.copy(), xx, 1e-12, 3 if capped else 500, diag)
        except LinearSolveDivergence as exc:
            it = str(exc)
        return xx.tobytes(), it

    compiled, numpy_path, solves = both_paths(monkeypatch, solve)
    assert solves == 1
    assert compiled == numpy_path
    assert isinstance(compiled[1], str) == capped  # a stall message when capped


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
# the explicit stencils and the integrands
# ------------------------------------------------------------------

def on_both_paths(fn):
    """(fn() with the kernels, fn() on the numpy path, the names of the
    gridded kernels that ran in the first call).  No monkeypatch: the
    hypothesis tests below may not take function-scoped fixtures."""
    run, ran = _kernels.run, []

    def counted(name, *args):
        done = run(name, *args)
        ran.extend([name] * done)
        return done

    lib = _kernels._lib
    try:
        _kernels.run = counted
        compiled = fn()
        _kernels.run, _kernels._lib = run, None
        return compiled, fn(), set(ran)
    finally:
        _kernels.run, _kernels._lib = run, lib


def gridded_outputs(p, g, state, fields):
    """What every dispatching function returns for `state` on grid g."""
    rho, b, ux, uy = state.rho, state.b, state.ux, state.uy
    return [
        gradient_cc_to_face(g, rho),
        [upwind_scalar_flux_div(g, rho, ux, uy, s) for s in ("upwind", "centered")],
        eps_gradrho_gradu(g, rho, ux, uy, 0.3),
        [_momentum_rhs(g, rho, ux, uy, 0.01, *fields, s)
         for s in (None, Sources(rho, b, *fields[0]))],
        [_energy_density(state, q, g) for q in (p, replace(p, gamma=1.0, delta=0.0))],
        _velocity_gradient_squares(g, state),
        _weighted_grad_sq_terms(g, fields[1], 0.7, b),
        log_entropy(state, g),
    ]


@given(shapes)
def test_gridded_kernels_are_bit_identical(lib, shape):
    nx, ny, seed = shape
    rng = np.random.default_rng(seed)
    p = SimulationParams(nx=nx, ny=ny, Ly=0.7, delta=0.01, Gamma=6.0, gamma=1.4)
    g = build_grid(p)
    state = State(0.5 + rng.random((nx, ny)), 0.5 + rng.random((nx, ny)),
                  junk(rng, (nx + 1) * ny).reshape(nx + 1, ny),
                  junk(rng, nx * (ny + 1)).reshape(nx, ny + 1), 0.0)
    fields = [FaceField(junk(rng, (nx + 1) * ny).reshape(nx + 1, ny),
                        junk(rng, nx * (ny + 1)).reshape(nx, ny + 1)) for _ in range(3)]
    compiled, numpy_path, ran = on_both_paths(lambda: gridded_outputs(p, g, state, fields))
    assert ran == set(_kernels._GRIDDED)
    assert _kernels._same(compiled, numpy_path)


def test_other_layouts_and_dtypes_take_the_numpy_path(lib):
    g = build_grid(SimulationParams(nx=6, ny=5))
    rng = np.random.default_rng(4)
    q = 1.0 + rng.random((6, 5))
    ux, uy = junk(rng, 35).reshape(7, 5), junk(rng, 36).reshape(6, 6)
    cases = {"a Fortran-ordered array": lambda: gradient_cc_to_face(g, np.asfortranarray(q)),
             "float32": lambda: upwind_scalar_flux_div(g, q.astype(np.float32), ux, uy),
             "a broadcast source": lambda: _momentum_rhs(
                 g, q, ux, uy, 0.1, *[FaceField(ux, uy)] * 3, Sources(q, q, 1.0, uy)),
             "a one-element array for eps": lambda: eps_gradrho_gradu(g, q, ux, uy,
                                                                      np.array([0.3]))}
    for case, fn in cases.items():
        compiled, numpy_path, ran = on_both_paths(fn)
        assert ran == {"gradient"} if "eps" in case else ran == set(), case
        assert _kernels._same(compiled, numpy_path), case

    def missing():
        """A missing array fails as numpy fails; only optional ones pass as NULL."""
        with pytest.raises(Exception) as exc:
            eps_gradrho_gradu(g, q, None, uy, 0.3)
        return type(exc.value)

    compiled, numpy_path, ran = on_both_paths(missing)
    assert compiled is numpy_path and ran == {"gradient"}


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
    # sed and the compiler's own tools stay on the PATH, behind the script
    monkeypatch.setenv("PATH", os.pathsep.join([str(tmp_path / "bin"), os.environ["PATH"]]))


def mutated_kernel(tmp_path, monkeypatch):
    # a real build of a source whose direction kernel subtracts z
    mutated_build(tmp_path, monkeypatch, r"s/p\[k\] \* beta + z/p[k] * beta - z/")


def mutated_matvec(tmp_path, monkeypatch):
    # a real build of a source whose viscous matvec flips one grad-div term
    mutated_build(tmp_path, monkeypatch, r"s/o += div\[k - L\] \* gxs/o -= div[k - L] * gxs/")


def mutated_dot(tmp_path, monkeypatch):
    # a real build of a source whose dot feeds the lanes the pairs of a
    # block in the opposite order, 0-1 first
    mutated_build(tmp_path, monkeypatch, r"s/long j = 6; j >= 0; j -= 2/long j = 0; j <= 6; j += 2/")


def mutated_chunk(tmp_path, monkeypatch):
    # a real build of a source whose dot adds chunks of 4096 elements: the
    # load check's 40- and 88-element vectors cannot see it
    mutated_build(tmp_path, monkeypatch, r"s/8192/4096/g")


# the reason load() gives for each trigger
REASONS = {no_compiler: "no compiler", failing_compiler: "build failed",
           junk_library: "load failed", unwritable_cache: "cache unwritable",
           no_home_directory: "cache unwritable",
           mutated_kernel: "cg_solve differs from its numpy twin",
           mutated_matvec: "cg_solve differs from its numpy twin",
           mutated_dot: "dot differs from its numpy twin",
           mutated_chunk: "dot differs from its numpy twin"}


@pytest.mark.parametrize("trigger", list(REASONS))
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
    # the compiler is looked up first, so a machine without one says so
    assert _kernels._reason == (REASONS[trigger] if _kernels._compiler() else "no compiler")
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
