"""Manufactured-solution source correctness (against hand derivatives,
finite differences and a simplified reference build), compiled code equal
to lambdify's "numpy"-string build, one source build per order study,
the order estimator, and small-scale sweep behavior including failure
recording and the exact-zero delta member."""

import inspect

import numpy as np
import pytest
import sympy as sp

from mhd2d import diagnostics, verification
from mhd2d.config import Config
from mhd2d.core import InitialDataSpec, SimulationParams, build_grid, init_state, validate_params
from mhd2d.diagnostics import TestFunction, evf_pairing, renormalized_residual, weak_residual
from mhd2d.errors import DegenerateInput, ValidationError
from mhd2d.solver import run
from mhd2d.verification import (
    ManufacturedSolution,
    default_manufactured_solution,
    delta_sweep,
    epsilon_sweep,
    mms_sources,
    richardson_order,
    run_mms,
)

X, Y, T = sp.symbols("x y t", real=True)


def params(**kw):
    return validate_params(SimulationParams(**kw))


def small_sweep_config(**kw):
    kw.setdefault("nx", 12)
    kw.setdefault("ny", 12)
    kw.setdefault("t_final", 0.05)
    p = params(**kw)
    spec = InitialDataSpec(
        kind="ratio-profile", rho_amp=0.1, kx=1, ky=1,
        ratio_mid=1.0, ratio_amp=0.25, jx=1, jy=0,
    )
    return Config(params=p, init=spec)


# ------------------------------------------------------------------
# manufactured sources
# ------------------------------------------------------------------

def test_constant_manufactured_state_has_zero_sources():
    ms = ManufacturedSolution(rho=1.0, b=2.0, ux=0.0, uy=0.0)
    p = params(eps=1e-2, delta=1e-2)
    src = mms_sources(ms, p)
    g = build_grid(p)
    s = src(g, 0.3)
    for f in s:
        assert np.all(f == 0.0)


def test_mass_source_hand_derivative():
    # eps = 0, u = 0, rho* = 1 + 0.1 cos(pi x/Lx) e^-t: S_rho = d_t rho*
    p = params(eps=0.0, delta=0.0)
    ms = ManufacturedSolution(
        rho=1 + sp.Rational(1, 10) * sp.cos(sp.pi * X / p.Lx) * sp.exp(-T),
        b=1.0, ux=0.0, uy=0.0,
    )
    src = mms_sources(ms, p)
    g = build_grid(p)
    t = 0.7
    Xc, _ = g.center_mesh()
    expected = -0.1 * np.cos(np.pi * Xc / g.Lx) * np.exp(-t)
    got = src(g, t).rho
    assert np.abs(got - expected).max() < 1e-12


def test_momentum_source_delta_term_finite_difference():
    # the artificial-pressure contribution to S_u is delta*d/dx (rho*+b*)^Gamma;
    # verify the symbolic formula against a central finite difference
    base = dict(a=1.0, gamma=1.4, mu=0.1, lam=0.0, eps=1e-2)
    p_on = params(delta=0.05, Gamma=6.0, **base)
    p_off = params(delta=0.0, Gamma=6.0, **base)
    ms = default_manufactured_solution(p_on.Lx, p_on.Ly)
    g = build_grid(p_on)
    t = 0.4
    s_on = mms_sources(ms, p_on)(g, t)
    s_off = mms_sources(ms, p_off)(g, t)
    delta_term = s_on.ux - s_off.ux

    rho_f = sp.lambdify((X, Y, T), ms.exprs["rho"], "numpy")
    b_f = sp.lambdify((X, Y, T), ms.exprs["b"], "numpy")
    XF, YF = np.meshgrid(g.xf, g.yc, indexing="ij")
    h = 1e-5

    def art_pressure(xx):
        s = rho_f(xx, YF, t) + b_f(xx, YF, t)
        return p_on.delta * s ** p_on.Gamma

    fd = (art_pressure(XF + h) - art_pressure(XF - h)) / (2 * h)
    fd[0, :] = 0.0
    fd[-1, :] = 0.0  # source fields are pinned on boundary-normal faces
    assert np.abs(delta_term - fd).max() < 1e-6


def _simplified_reference_sources(ms, p):
    """Oracle for mms_sources: the same derivatives, with sp.simplify on the
    scalar sources and plain lambdify (no CSE)."""
    r, b, ux, uy = (ms.exprs[k] for k in ("rho", "b", "ux", "uy"))

    def lap(e):
        return sp.diff(e, X, 2) + sp.diff(e, Y, 2)

    div_u = sp.diff(ux, X) + sp.diff(uy, Y)
    s_rho = sp.diff(r, T) + sp.diff(r * ux, X) + sp.diff(r * uy, Y) - p.eps * lap(r)
    s_b = sp.diff(b, T) + sp.diff(b * ux, X) + sp.diff(b * uy, Y) - p.eps * lap(b)
    ptot = p.a * r ** p.gamma + b ** 2 / 2 + p.delta * (r + b) ** p.Gamma

    def s_mom(uc, axis):
        return (
            sp.diff(r * uc, T) + sp.diff(r * uc * ux, X) + sp.diff(r * uc * uy, Y)
            + sp.diff(ptot, axis)
            + p.eps * (sp.diff(r, X) * sp.diff(uc, X) + sp.diff(r, Y) * sp.diff(uc, Y))
            - p.mu * lap(uc) - (p.mu + p.lam) * sp.diff(div_u, axis)
        )

    fns = {
        "rho": sp.lambdify((X, Y, T), sp.simplify(s_rho), "numpy"),
        "b": sp.lambdify((X, Y, T), sp.simplify(s_b), "numpy"),
        "ux": sp.lambdify((X, Y, T), s_mom(ux, X), "numpy"),
        "uy": sp.lambdify((X, Y, T), s_mom(uy, Y), "numpy"),
    }

    def evaluate(grid, t):
        meshes = {"rho": grid.center_mesh(), "b": grid.center_mesh(),
                  "ux": np.meshgrid(grid.xf, grid.yc, indexing="ij"),
                  "uy": np.meshgrid(grid.xc, grid.yf, indexing="ij")}
        out = {k: np.array(np.broadcast_to(fns[k](Xm, Ym, t), Xm.shape), dtype=float)
               for k, (Xm, Ym) in meshes.items()}
        out["ux"][0, :] = out["ux"][-1, :] = 0.0
        out["uy"][:, 0] = out["uy"][:, -1] = 0.0
        return out

    return evaluate


def test_sources_match_simplified_reference_on_nonsquare_grid():
    # every term live: eps, delta and lam all positive; nx != ny
    p = params(nx=16, ny=12, eps=1e-2, delta=0.05, Gamma=6.0, lam=0.1, mu=0.1)
    ms = default_manufactured_solution(p.Lx, p.Ly)
    g = build_grid(p)
    src = mms_sources(ms, p)
    ref_src = _simplified_reference_sources(ms, p)
    for t in (0.0, 0.1, 0.37):
        got = src(g, t)._asdict()
        for k, ref in ref_src(g, t).items():
            assert got[k].shape == ref.shape
            tol = 1e-12 * max(1.0, float(np.abs(ref).max()))
            assert np.abs(got[k] - ref).max() <= tol, (k, t)


def _meshgrid_eval(fn, x, y, t):
    """Reference for verification._eval_sites: the formula on full meshgrids."""
    Xm, Ym = np.meshgrid(x, y, indexing="ij")
    out = np.asarray(fn(Xm, Ym, t), dtype=float)
    return np.broadcast_to(out, Xm.shape).copy() if out.shape != Xm.shape else out


def test_broadcast_evaluation_bit_equals_meshgrid_on_nonsquare_grid(monkeypatch):
    # sources and samples are evaluated on 1-D coordinate columns and rows;
    # elementwise, that is the same arithmetic as on full meshgrids
    p = params(nx=33, ny=65, Lx=2.0, Ly=0.7, eps=1e-2, delta=0.05, Gamma=6.0, lam=0.17)
    g = build_grid(p)
    ms = default_manufactured_solution(p.Lx, p.Ly)
    const = ManufacturedSolution(rho=1.0, b=1.5, ux=0.0, uy=0.0)
    src = mms_sources(ms, p)
    src_const = mms_sources(const, p)
    for t in (0.0, 0.013, 0.37):
        got = [*src(g, t), *src_const(g, t), *vars(ms.sample(g, t)).values()]
        with monkeypatch.context() as mp:
            mp.setattr(verification, "_eval_sites", _meshgrid_eval)
            ref = [*src(g, t), *src_const(g, t), *vars(ms.sample(g, t)).values()]
        for a, b in zip(got, ref):
            assert np.shape(a) == np.shape(b) and np.array_equal(a, b), t


def _meshgrid_init_fields(grid, spec):
    """Reference for init_state's analytic kinds: the closed forms on full
    meshgrids, in the same operation order."""
    X, Y = grid.center_mesh()

    def cos_profile(base, amp, kx, ky):
        return base * (1.0 + amp * np.cos(kx * np.pi * X / grid.Lx) * np.cos(ky * np.pi * Y / grid.Ly))

    if spec.kind == "constant":
        rho = np.full((grid.nx, grid.ny), float(spec.rho_base))
        b = np.full((grid.nx, grid.ny), float(spec.b_base))
    elif spec.kind == "cosine-perturbation":
        rho = cos_profile(spec.rho_base, spec.rho_amp, spec.kx, spec.ky)
        b = cos_profile(spec.b_base, spec.b_amp, spec.kx, spec.ky)
    else:
        rho = cos_profile(spec.rho_base, spec.rho_amp, spec.kx, spec.ky)
        ratio = spec.ratio_mid + spec.ratio_amp * np.cos(
            spec.jx * np.pi * X / grid.Lx
        ) * np.cos(spec.jy * np.pi * Y / grid.Ly)
        b = rho * ratio
    ux, uy = np.zeros((grid.nx + 1, grid.ny)), np.zeros((grid.nx, grid.ny + 1))
    if spec.u_amp != 0.0:
        XF, YC = np.meshgrid(grid.xf, grid.yc, indexing="ij")
        XC, YF = np.meshgrid(grid.xc, grid.yf, indexing="ij")
        ux = spec.u_amp * np.sin(np.pi * XF / grid.Lx) * np.sin(np.pi * YC / grid.Ly)
        uy = -spec.u_amp * np.sin(np.pi * XC / grid.Lx) * np.sin(np.pi * YF / grid.Ly)
        ux[0, :] = ux[-1, :] = 0.0
        uy[:, 0] = uy[:, -1] = 0.0
    return rho, b, ux, uy


_INIT_SPECS = [
    InitialDataSpec(kind="constant", rho_base=1.3, b_base=0.7),
    InitialDataSpec(kind="constant", rho_base=1.3, b_base=0.7, u_amp=0.25),
    InitialDataSpec(kind="cosine-perturbation", rho_amp=0.2, b_amp=0.1, kx=0, ky=0),
    InitialDataSpec(kind="cosine-perturbation", rho_base=1.1, b_base=0.9, rho_amp=0.3,
                    b_amp=-0.2, kx=3, ky=2, u_amp=-0.4),
    InitialDataSpec(kind="ratio-profile", rho_amp=0.1, kx=1, ky=1, ratio_mid=1.25,
                    ratio_amp=0.5, jx=1, jy=0, u_amp=0.0),
    InitialDataSpec(kind="ratio-profile", rho_amp=0.15, kx=2, ky=0, ratio_mid=1.1,
                    ratio_amp=-0.3, jx=0, jy=3, u_amp=0.3),
    InitialDataSpec(kind="ratio-profile", rho_amp=0.1, kx=0, ky=0, ratio_mid=0.8,
                    ratio_amp=0.2, jx=0, jy=0, u_amp=-0.2),
]


@pytest.mark.parametrize("shape", [dict(nx=48, ny=40), dict(nx=33, ny=65, Lx=2.0, Ly=0.7)])
@pytest.mark.parametrize("spec", _INIT_SPECS)
def test_init_state_bit_equals_meshgrid_sampling(shape, spec):
    # init_state samples on an x column by a y row; every field carries the
    # same bytes as the meshgrid formulas, +0.0 (not -0.0) where u_amp = 0
    g = build_grid(params(**shape))
    st, _ = init_state(g, spec)
    for got, ref in zip((st.rho, st.b, st.ux, st.uy), _meshgrid_init_fields(g, spec)):
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
    if spec.u_amp == 0.0:
        assert not np.signbit(st.ux).any() and not np.signbit(st.uy).any()


def _meshgrid_spacetime_integral(traj, test, integrand):
    """Reference for diagnostics._spacetime_integral: the test function
    sampled on full meshgrids."""
    X, Y = traj.grid.center_mesh()
    phis = (test.phi(X, Y), test.phi_dx(X, Y), test.phi_dy(X, Y), test.phi_lap(X, Y))
    vals = [integrand(st, test.psi(st.t), test.psi_d1(st.t), *phis) for st in traj.states]
    return [float(np.trapezoid(comp, traj.times)) for comp in zip(*vals)]


def test_pairings_equal_meshgrid_sampling_of_the_test_function(monkeypatch):
    p = params(nx=33, ny=65, Lx=2.0, Ly=0.7, eps=1e-2, delta=1e-2, lam=0.1, t_final=0.05)
    spec = InitialDataSpec(kind="ratio-profile", rho_amp=0.1, kx=1, ky=1, ratio_mid=1.25,
                           ratio_amp=0.5, jx=1, jy=1, u_amp=0.3)
    traj, _ = run(Config(params=p, init=spec, snapshot_interval=2))
    test = TestFunction.centered_in(traj.grid, p.t_final)
    pairings = [
        lambda: weak_residual(traj, test, "mass"),
        lambda: weak_residual(traj, test, "magnetic"),
        lambda: weak_residual(traj, test, "momentum"),
        lambda: renormalized_residual(traj, test, "tk", k=1.1),
        lambda: renormalized_residual(traj, test, "tk", k=1.1, which="b"),
        lambda: renormalized_residual(traj, test, "identity"),
        lambda: evf_pairing(traj, test, weight="sum"),
        lambda: evf_pairing(traj, test, weight="tk", k=1.1),
    ]
    got = [f() for f in pairings]
    monkeypatch.setattr(diagnostics, "_spacetime_integral", _meshgrid_spacetime_integral)
    ref = [f() for f in pairings]
    assert len(traj.states) > 3 and all(np.isfinite(got))
    assert got == ref


def _rational_manufactured_solution():
    """Shaped like the benchmark's: exact rational amplitudes on the unit square."""
    cc = sp.cos(sp.pi * X) * sp.cos(sp.pi * Y) * sp.exp(-T)
    ss = sp.sin(sp.pi * X) * sp.sin(sp.pi * Y) * sp.exp(-T)
    return ManufacturedSolution(rho=1 - sp.Rational(4, 20) * cc, b=1 - sp.Rational(3, 20) * cc,
                                ux=sp.Rational(4, 20) * ss, uy=sp.Rational(5, 20) * ss)


def _function_zoo():
    """exp, log, sqrt, tanh, Abs, pi and rational powers, positive on the sample points.

    Abs acts on t only: the sources differentiate once in t but twice in
    x and y, and Abs'' is a DiracDelta, which no numpy build can print.
    """
    return ManufacturedSolution(
        rho=2 + sp.exp(-T) * sp.tanh(X * Y) + sp.log(1 + X ** 2) / 5,
        b=sp.sqrt(3 + Y) + sp.Abs(T - sp.Rational(1, 2)) / 7 + (1 + X) ** sp.Rational(3, 2),
        ux=sp.sin(sp.pi * X) * Y ** sp.Rational(1, 3) * sp.exp(-2 * T),
        uy=sp.cos(sp.pi * Y / 2) * (2 + X) ** sp.Rational(-2, 3),
    )


@pytest.mark.parametrize("build", [default_manufactured_solution, _rational_manufactured_solution,
                                   _function_zoo])
def test_compiled_code_equals_the_numpy_string_build(monkeypatch, build):
    # every formula a manufactured solution and its sources compile: the
    # helper's generated code and values equal lambdify(..., "numpy")'s
    compiled = []
    orig = verification._compile

    def recording(expr, cse=False):
        compiled.append(expr)
        return orig(expr, cse=cse)

    monkeypatch.setattr(verification, "_compile", recording)
    ms = build()
    mms_sources(ms, params(eps=1e-2, delta=0.05, Gamma=6.0, lam=0.1, mu=0.1))
    assert len(compiled) == 8
    x = np.linspace(0.1, 1.3, 7)[:, None]
    y = np.linspace(0.2, 0.9, 5)[None, :]
    for expr in compiled:
        for cse in (False, True):
            got = orig(expr, cse=cse)
            ref = sp.lambdify((X, Y, T), expr, "numpy", cse=cse)
            assert inspect.getsource(got) == inspect.getsource(ref), expr
            for t in (0.0, 0.013, 0.37):
                a = np.asarray(got(x, y, t), dtype=float)
                b = np.asarray(ref(x, y, t), dtype=float)
                assert np.all(np.isfinite(b)) and np.array_equal(a, b), (expr, cse, t)


@pytest.mark.parametrize("dt_max_coeff", [None, 0.5])
def test_run_mms_builds_sources_once_per_study(monkeypatch, dt_max_coeff):
    built, passed = [], []
    orig_sources, orig_run = verification.mms_sources, verification.run

    def counting_sources(*args):
        built.append(orig_sources(*args))
        return built[-1]

    def recording_run(config, **kw):
        passed.append(kw["sources"])
        return orig_run(config, **kw)

    monkeypatch.setattr(verification, "mms_sources", counting_sources)
    monkeypatch.setattr(verification, "run", recording_run)
    cfg = Config(params=params(eps=1e-2, delta=1e-2, t_final=0.02))
    ms = default_manufactured_solution()
    run_mms(cfg, ms, resolutions=(8, 12, 16), dt_max_coeff=dt_max_coeff)
    assert len(built) == 1
    assert len(passed) == 3 and all(s is built[0] for s in passed)


def test_sampled_fields_satisfy_boundary_conditions():
    ms = default_manufactured_solution(1.0, 1.0)
    p = params(nx=16, ny=16)
    g = build_grid(p)
    st = ms.sample(g, 0.2)
    assert np.all(st.ux[0, :] == 0.0) and np.all(st.ux[-1, :] == 0.0)
    assert np.all(st.uy[:, 0] == 0.0) and np.all(st.uy[:, -1] == 0.0)
    assert st.rho.min() > 0.5 and st.b.min() > 0.5


# ------------------------------------------------------------------
# order estimation
# ------------------------------------------------------------------

def test_richardson_exact_ratios():
    assert richardson_order([4e-2, 1e-2], [0.1, 0.05]) == pytest.approx(2.0, abs=1e-12)
    assert richardson_order([2e-2, 1e-2], [0.1, 0.05]) == pytest.approx(1.0, abs=1e-12)


def test_richardson_noisy_three_point():
    rng = np.random.default_rng(12)
    hs = [0.1, 0.05, 0.025]
    errs = [0.03 * h ** 1.5 * (1.0 + 0.02 * rng.standard_normal()) for h in hs]
    slope = richardson_order(errs, hs)
    pair_mean = 0.5 * (np.log2(errs[0] / errs[1]) + np.log2(errs[1] / errs[2]))
    assert abs(slope - pair_mean) < 0.1


def test_richardson_degenerate_inputs():
    with pytest.raises(DegenerateInput):
        richardson_order([1e-2], [0.1])
    with pytest.raises(DegenerateInput):
        richardson_order([1e-2, 0.0], [0.1, 0.05])
    with pytest.raises(DegenerateInput):
        richardson_order([1e-2, 1e-3], [0.1, -0.05])


def test_run_mms_needs_two_resolutions():
    ms = ManufacturedSolution(rho=1.0, b=1.0, ux=0.0, uy=0.0)
    with pytest.raises(DegenerateInput, match="need at least two resolutions"):
        run_mms(Config(params=params(t_final=0.02)), ms, resolutions=(8,))


def test_run_mms_constant_state_roundoff_errors():
    ms = ManufacturedSolution(rho=1.0, b=1.0, ux=0.0, uy=0.0)
    cfg = Config(params=params(eps=1e-2, delta=1e-2, t_final=0.02))
    rep = run_mms(cfg, ms, resolutions=(8, 12))
    for k in ("rho", "b", "u"):
        assert max(rep.l2_errors[k]) < 1e-13
        assert np.isnan(rep.orders[k]) or rep.orders[k] != 0.0


# ------------------------------------------------------------------
# sweeps (small scale; the acceptance suite runs the real ones)
# ------------------------------------------------------------------

def test_epsilon_sweep_single_member_has_no_distances():
    cfg = small_sweep_config(eps=1e-2, delta=1e-2)
    rep = epsilon_sweep(cfg, [1e-2], n_records=5)
    assert len(rep.rows) == 1
    assert rep.rows[0]["dist_rho"] == 0.0  # the lone member is its own reference


def test_sweeps_compare_the_finest_member_to_an_exact_positive_zero(tmp_path):
    # the finest member goes through the same comparisons as the others;
    # against itself each is +0.0 and is written as 0 in the CSV
    cfg = small_sweep_config(eps=1e-2, delta=1e-2)
    rep = epsilon_sweep(cfg, [1e-2, 5e-3], n_records=5)
    zeros = ("dist_rho", "dist_b", "dist_u", "comp_defect_rho", "comp_defect_b", "entropy_gap_max")
    coarse, finest = rep.rows
    assert coarse["dist_rho"] > 0.0 and coarse["comp_defect_rho"] > 0.0
    path = tmp_path / "eps.csv"
    rep.to_csv(path)
    last = dict(zip(rep.columns, path.read_text().splitlines()[-1].split(",")))
    for name in zeros:
        assert finest[name] == 0.0 and np.copysign(1.0, finest[name]) == 1.0, name
        assert last[name] == "0", name

    rep = delta_sweep(small_sweep_config(eps=0.0, delta=1e-2), [1e-2, 5e-3], n_records=5)
    assert rep.rows[0]["evf_tk_defect"] != 0.0
    assert rep.rows[1]["evf_tk_defect"] == 0.0 and np.copysign(1.0, rep.rows[1]["evf_tk_defect"]) == 1.0


def test_epsilon_sweep_requires_decreasing_and_delta():
    cfg = small_sweep_config(eps=1e-2, delta=1e-2)
    with pytest.raises(ValidationError):
        epsilon_sweep(cfg, [1e-3, 1e-2])
    cfg0 = small_sweep_config(eps=1e-2, delta=0.0)
    with pytest.raises(ValidationError):
        epsilon_sweep(cfg0, [1e-2, 1e-3])


def test_epsilon_sweep_records_member_failure_and_continues():
    cfg = small_sweep_config(eps=1e-2, delta=1e-2)
    rep = epsilon_sweep(cfg, [1e-2, -1.0], n_records=5)  # second member inadmissible
    assert rep.rows[0]["ok"] is True
    assert rep.rows[1]["ok"] is False
    assert "ValidationError" in rep.rows[1]["error"]
    # the surviving member still got distance columns (it is the finest ok run)
    assert rep.rows[0]["dist_rho"] == 0.0


def test_epsilon_sweep_without_a_member_that_ran_has_no_notes():
    cfg = small_sweep_config(eps=1e-2, delta=1e-2)
    rep = epsilon_sweep(cfg, [-1e-2, -2e-2], n_records=5)  # both inadmissible
    assert [row["ok"] for row in rep.rows] == [False, False]
    assert all(np.isnan(row["dist_rho"]) for row in rep.rows) and rep.notes == []


def test_sweep_summary_prints_the_failed_member():
    cfg = small_sweep_config(eps=1e-2, delta=1e-2)
    lines = epsilon_sweep(cfg, [1e-2, -1.0], n_records=5).summary_text().splitlines()
    assert lines[2] == "  eps=-1: FAILED ValidationError: eps must be >= 0, got -1.0"
    assert lines[1].startswith("  eps=0.01: sup_energy=")


def test_epsilon_sweep_order_note_survives_a_failing_last_member():
    # the order note fits the members that ran other than the finest one
    cfg = small_sweep_config(eps=1e-2, delta=1e-2)
    eps_list = [1e-2, 5e-3, 2.5e-3, 1.25e-3]
    order_notes = [
        [n for n in epsilon_sweep(cfg, lst, n_records=5).notes if n.startswith("observed order")]
        for lst in (eps_list, eps_list + [-1.0])
    ]
    assert order_notes[0] == ["observed order of dist_rho vs eps: 1.401"]
    assert order_notes[1] == order_notes[0]


def test_delta_sweep_records_member_failure_and_continues():
    cfg = small_sweep_config(eps=0.0, delta=0.0, Gamma=3.0)
    rep = delta_sweep(cfg, [1e-2, 0.0], n_records=5)  # delta > 0 needs Gamma > 4
    assert rep.rows[0]["ok"] is False
    assert rep.rows[0]["error"].startswith("GammaTooSmall: ")
    assert np.isnan(rep.rows[0]["dist_rho"]) and np.isnan(rep.rows[0]["evf_tk_defect"])
    assert rep.rows[1]["ok"] is True
    assert rep.rows[1]["dist_rho"] == rep.rows[1]["evf_tk_defect"] == 0.0
    assert rep.rows[1]["delta_pressure_int"] == 0.0
    rep = delta_sweep(cfg, [1e-1, 1e-2], n_records=5)  # no member runs
    assert [row["ok"] for row in rep.rows] == [False, False]
    assert all(np.isnan(row["dist_rho"]) for row in rep.rows) and rep.notes == []


def test_delta_sweep_records_an_inadmissible_member_as_epsilon_sweep_does():
    # Config.with_params checks each member: a negative delta is a failed
    # row, not an up-front error that discards the members that can run
    cfg = small_sweep_config(eps=0.0, delta=1e-2)
    rep = delta_sweep(cfg, [1e-2, -1e-2], n_records=5)
    assert rep.rows[0]["ok"] is True and rep.rows[0]["dist_rho"] == 0.0
    assert rep.rows[1]["ok"] is False
    assert rep.rows[1]["error"] == "ValidationError: delta must be >= 0, got -0.01"


def test_delta_sweep_zero_member_exact_zero_pressure_column():
    cfg = small_sweep_config(eps=0.0, delta=1e-2)
    rep = delta_sweep(cfg, [1e-2, 0.0], n_records=5)
    assert rep.rows[1]["delta_pressure_int"] == 0.0
    assert rep.rows[0]["delta_pressure_int"] > 0.0
    assert all(row["ratio_drift"] <= 1e-10 for row in rep.rows)


def test_sweep_reports_are_deterministic(tmp_path):
    cfg = small_sweep_config(eps=1e-2, delta=1e-2)
    r1 = epsilon_sweep(cfg, [1e-2, 5e-3], n_records=5)
    r2 = epsilon_sweep(cfg, [1e-2, 5e-3], n_records=5)
    assert r1.rows == r2.rows
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    r1.to_csv(p1)
    r2.to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert "eps sweep" in r1.summary_text()


def test_epsilon_sweep_evf_pairing_is_cauchy():
    # pairing against a fixed interior bump converges as eps halves:
    # successive gaps shrink (the checkable trace of the limit identity)
    p = params(nx=24, ny=24, eps=1e-2, delta=1e-2, t_final=0.3)
    spec = InitialDataSpec(
        kind="ratio-profile", rho_amp=0.1, kx=1, ky=1,
        ratio_mid=1.0, ratio_amp=0.25, jx=1, jy=0, u_amp=0.2,
    )
    cfg = Config(params=p, init=spec)
    rep = epsilon_sweep(cfg, [1e-2 * 2.0 ** -k for k in range(4)], n_records=11)
    pairings = rep.column("evf_pairing")
    gaps = [abs(a - b) for a, b in zip(pairings, pairings[1:])]
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))


def test_mms_zero_source_path_matches_plain_run():
    # a manufactured solution whose sources vanish identically must leave the
    # solver bit-for-bit unchanged relative to the no-source path
    ms = ManufacturedSolution(rho=1.0, b=1.0, ux=0.0, uy=0.0)
    p = params(nx=10, ny=10, eps=1e-2, delta=1e-2, t_final=0.02)
    spec = InitialDataSpec(kind="cosine-perturbation", rho_amp=0.05, b_amp=0.05, kx=1, ky=1)
    cfg = Config(params=p, init=spec)
    src = mms_sources(ms, p)
    tr_a, _ = run(cfg)
    tr_b, _ = run(cfg, sources=src)
    for f in ("rho", "b", "ux", "uy"):
        assert np.array_equal(getattr(tr_a.states[-1], f), getattr(tr_b.states[-1], f))
