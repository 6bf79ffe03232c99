"""Manufactured-solution order studies and the two limit-passage sweeps.

Manufactured solutions are sympy expressions in (x, y, t); their exact
symbolic derivatives build the source fields that make the chosen
closed form solve the regularized system, so grid-refinement studies
expose the scheme's convergence order.  sympy is imported only by the
code that builds these expressions, so the solver, the diagnostics and
the sweeps run (and `import mhd2d` completes) without loading it.  The
sweeps run the solver over decreasing eps (at fixed delta) and
decreasing delta, on identical initial data and a shared record-time
grid, and report the Cauchy-type distances, composition defects and
vanishing-term norms whose decay is the checkable trace of the
continuous limit passages.  No rate targets are asserted here; sweeps
report what they observe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import Config
from .core import Grid, SimulationParams, State, build_grid, init_state, pin_noslip
from .diagnostics import (
    TestFunction,
    _grad_sq,
    composition_defect,
    effective_viscous_flux_field,
    evf_pairing,
    high_frequency_energy_fraction,
    log_entropy_comparison,
)
from .eos import pressure_total
from .errors import DegenerateInput, Mhd2dError, ValidationError
from .operators import gradient_cc_to_face
from .solver import Sources, Trajectory, run
from .storage import write_table

__all__ = [
    "ManufacturedSolution",
    "default_manufactured_solution",
    "mms_sources",
    "run_mms",
    "MmsReport",
    "epsilon_sweep",
    "delta_sweep",
    "SweepReport",
    "richardson_order",
]


def _symbols():
    """The real (x, y, t) symbols every manufactured expression is written in."""
    import sympy as sp

    return sp.symbols("x y t", real=True)


def _compile(expr, cse: bool = False):
    """expr as a numpy callable f(x, y, t): the one place formulas are compiled.

    lambdify is given the numpy module object, not the string "numpy".
    The string makes sympy execute `from numpy import *`, which on numpy 2
    loads every lazily imported submodule (f2py, testing, ma, polynomial,
    random, ...): about 0.15 s and 13-18 MB of set-up that no formula ever
    calls.  With the module object lambdify reads its names from
    `numpy.__dict__` and still prints with NumPyPrinter, so the generated
    code, and every value it returns, is the same as the string build's.
    """
    import sympy as sp

    return sp.lambdify(_symbols(), expr, modules=[np], cse=cse)


def _eval_sites(fn, x, y, t):
    """fn on the tensor grid x (n,) by y (m,) as an (n, m) array.

    The formula is evaluated on an (n, 1) column and a (1, m) row, so each
    factor depending on one coordinate only is computed on n or m points
    and broadcast in the products; results broadcast to the full shape,
    which a constant expression also needs.
    """
    out = np.asarray(fn(x[:, None], y[None, :], t), dtype=float)
    shape = (x.size, y.size)
    return np.broadcast_to(out, shape).copy() if out.shape != shape else out


def _sample_sites(fns, grid: Grid, t: float):
    """(rho, b, ux, uy) of the compiled formulas `fns` at time t: the one
    site sampler of solutions and sources.  rho and b are taken at the
    cell centers, ux and uy on their faces, and no-slip is re-pinned
    exactly."""
    xc, yc = grid.xc, grid.yc
    ux = _eval_sites(fns["ux"], grid.xf, yc, t)
    uy = _eval_sites(fns["uy"], xc, grid.yf, t)
    pin_noslip(ux, uy)
    return _eval_sites(fns["rho"], xc, yc, t), _eval_sites(fns["b"], xc, yc, t), ux, uy


# ------------------------------------------------------------------
# Manufactured solutions
# ------------------------------------------------------------------

class ManufacturedSolution:
    """Closed-form (rho*, b*, ux*, uy*) compatible with the boundary conditions.

    rho*, b* must be Neumann-compatible at the walls and stay >= m > 0
    over the run window; ux*, uy* must vanish on the boundary (odd
    extensions there keep the sign-flip ghosts exact).  Expressions are
    sympy in (x, y, t).
    """

    def __init__(self, rho, b, ux, uy):
        import sympy as sp

        self.exprs = {"rho": sp.sympify(rho), "b": sp.sympify(b),
                      "ux": sp.sympify(ux), "uy": sp.sympify(uy)}
        self._fn = {k: _compile(e) for k, e in self.exprs.items()}

    def sample(self, grid: Grid, t: float) -> State:
        """Fields sampled at their native grid sites; no-slip re-pinned exactly."""
        rho, b, ux, uy = _sample_sites(self._fn, grid, t)
        return State(rho=rho, b=b, ux=ux, uy=uy, t=float(t))


def default_manufactured_solution(Lx: float = 1.0, Ly: float = 1.0) -> ManufacturedSolution:
    """Smooth positive cosine scalars with different amplitudes (so b/rho
    varies) and a decaying sin*sin velocity."""
    import sympy as sp

    x, y, t = _symbols()
    cx = sp.cos(sp.pi * x / Lx)
    cy = sp.cos(sp.pi * y / Ly)
    sx = sp.sin(sp.pi * x / Lx)
    sy = sp.sin(sp.pi * y / Ly)
    decay = sp.exp(-t)
    return ManufacturedSolution(
        rho=1 + sp.Rational(1, 5) * cx * cy * decay,
        b=1 + sp.Rational(3, 20) * cx * cy * decay,
        ux=sp.Rational(1, 4) * sx * sy * decay,
        uy=-sp.Rational(1, 5) * sx * sy * decay,
    )


def mms_sources(ms: ManufacturedSolution, params: SimulationParams):
    """Exact residual sources for the regularized system.

    S_rho = d_t rho + div(rho u) - eps*Lap(rho), analogously S_b, and
    S_u contains advection, total pressure gradient (delta term
    included), the eps*(grad rho . grad)u drag, and the viscous terms.
    Returns a callable (grid, t) -> Sources evaluating the symbolic
    formulas pointwise at the native grid sites.

    The sources depend only on `ms` and the physics parameters, never on
    the grid, so a study builds them once and reuses the callable at
    every resolution.  The raw derivative expressions are compiled with
    common-subexpression elimination (_compile with cse=True), which shares
    the repeated derivative terms at evaluation time, and without
    sp.simplify, whose seconds of symbolic work per call buy nothing
    numerically.  The compiled formulas are sampled like the solution
    itself (see _sample_sites and _eval_sites): on 1-D coordinate columns
    and rows, not on full meshgrids.
    """
    import sympy as sp

    X, Y, T = _symbols()
    r, b = ms.exprs["rho"], ms.exprs["b"]
    ux, uy = ms.exprs["ux"], ms.exprs["uy"]
    a, g = params.a, params.gamma
    mu, lam = params.mu, params.lam
    eps, dlt, G = params.eps, params.delta, params.Gamma

    def lap(e):
        return sp.diff(e, X, 2) + sp.diff(e, Y, 2)

    div_u = sp.diff(ux, X) + sp.diff(uy, Y)
    s_rho = sp.diff(r, T) + sp.diff(r * ux, X) + sp.diff(r * uy, Y) - eps * lap(r)
    s_b = sp.diff(b, T) + sp.diff(b * ux, X) + sp.diff(b * uy, Y) - eps * lap(b)

    ptot = a * r ** g + b ** 2 / 2
    if dlt > 0.0:
        ptot = ptot + dlt * (r + b) ** G

    def s_mom(uc, axis):
        expr = (
            sp.diff(r * uc, T)
            + sp.diff(r * uc * ux, X)
            + sp.diff(r * uc * uy, Y)
            + sp.diff(ptot, axis)
            + eps * (sp.diff(r, X) * sp.diff(uc, X) + sp.diff(r, Y) * sp.diff(uc, Y))
            - mu * lap(uc)
            - (mu + lam) * sp.diff(div_u, axis)
        )
        return expr

    exprs = {"rho": s_rho, "b": s_b, "ux": s_mom(ux, X), "uy": s_mom(uy, Y)}
    fns = {k: _compile(e, cse=True) for k, e in exprs.items()}

    def evaluate(grid: Grid, t: float) -> Sources:
        return Sources(*_sample_sites(fns, grid, t))

    return evaluate


# ------------------------------------------------------------------
# MMS order study
# ------------------------------------------------------------------

@dataclass
class MmsReport:
    resolutions: list[int]
    hs: list[float]
    l2_errors: dict[str, list[float]]
    linf_errors: dict[str, list[float]]
    orders: dict[str, float]
    pair_orders: dict[str, list[float]]

    def summary_text(self) -> str:
        lines = ["MMS order study"]
        lines.append("  n      h        " + "  ".join(f"L2[{k}]" for k in self.l2_errors))
        for i, (n, h) in enumerate(zip(self.resolutions, self.hs)):
            errs = "  ".join(f"{self.l2_errors[k][i]:.3e}" for k in self.l2_errors)
            lines.append(f"  {n:<5d} {h:.5f}  {errs}")
        for k, o in self.orders.items():
            pairs = ", ".join(f"{p:.2f}" for p in self.pair_orders[k])
            lines.append(f"  order[{k}] = {o:.3f} (pairwise {pairs})")
        return "\n".join(lines)

    def to_csv(self, path) -> None:
        """n, h and the L2 error of each field, one row per resolution."""
        rows = zip(self.resolutions, self.hs, *self.l2_errors.values())
        write_table(path, ["n", "h", *(f"l2_{k}" for k in self.l2_errors)], rows)


def run_mms(
    config: Config,
    ms: ManufacturedSolution,
    resolutions=(32, 64, 128),
    dt_max_coeff: float | None = None,
) -> MmsReport:
    """L2/Linf terminal errors of (rho, b, u) across >= 3 resolutions.

    Observed order is both the least-squares slope of log L2 error vs
    log h and the pairwise log2 ratios.  dt_max_coeff, when set, caps
    the step at dt_max_coeff*h^2 per resolution, which keeps the
    first-order-in-time splitting subdominant in second-order (centered)
    studies.  The sources are built once per study, before the
    resolution loop (CSE-compiled, no simplify; see mms_sources), since
    they do not depend on nx, ny or dt_max.
    """
    if len(resolutions) < 2:
        raise DegenerateInput("need at least two resolutions")
    src = mms_sources(ms, config.params)
    l2 = {"rho": [], "b": [], "u": []}
    linf = {"rho": [], "b": [], "u": []}
    hs = []
    for n in map(int, resolutions):
        h = min(config.params.Lx / n, config.params.Ly / n)
        cap = {} if dt_max_coeff is None else {"dt_max": dt_max_coeff * h * h}
        cfg = config.with_params(nx=n, ny=n, **cap)
        grid = build_grid(cfg.params)
        traj, _series = run(cfg, initial_state=ms.sample(grid, 0.0), sources=src)
        exact = ms.sample(grid, cfg.params.t_final)
        hs.append(h)
        d_l2, d_linf = _field_distances(traj.states[-1], exact, grid.cell_area)
        for key, e2, einf in zip(("rho", "b", "u"), d_l2, d_linf):
            l2[key].append(e2)
            linf[key].append(einf)

    orders = {}
    pair_orders = {}
    for k in l2:
        if min(l2[k]) > 0.0:
            orders[k] = richardson_order(l2[k], hs)
            pair_orders[k] = [
                float(np.log2(l2[k][i] / l2[k][i + 1])) for i in range(len(hs) - 1)
            ]
        else:  # exactly reproduced (e.g. constant manufactured state)
            orders[k] = float("nan")
            pair_orders[k] = []
    return MmsReport(
        resolutions=[int(n) for n in resolutions],
        hs=hs,
        l2_errors=l2,
        linf_errors=linf,
        orders=orders,
        pair_orders=pair_orders,
    )


def richardson_order(errors, hs) -> float:
    """Least-squares slope of log(error) against log(h)."""
    errors = np.asarray(errors, dtype=float)
    hs = np.asarray(hs, dtype=float)
    if errors.size < 2 or errors.size != hs.size:
        raise DegenerateInput("need >= 2 (error, h) pairs of equal length")
    if np.any(errors <= 0.0) or np.any(hs <= 0.0):
        raise DegenerateInput("errors and step sizes must be positive")
    slope = np.polyfit(np.log(hs), np.log(errors), 1)[0]
    return float(slope)


# ------------------------------------------------------------------
# Sweeps
# ------------------------------------------------------------------

@dataclass
class SweepReport:
    """Per-member table of one parameter sweep, assembly order fixed."""

    parameter: str
    values: list[float]
    columns: list[str]
    rows: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def column(self, name: str) -> list:
        return [row.get(name) for row in self.rows]

    def to_csv(self, path) -> None:
        write_table(path, self.columns, ([row[c] for c in self.columns] for row in self.rows))

    def summary_text(self) -> str:
        lines = [f"{self.parameter} sweep over {self.values}"]
        for row in self.rows:
            if not row.get("ok", True):
                lines.append(f"  {self.parameter}={row[self.parameter]:g}: FAILED {row['error']}")
                continue
            bits = ", ".join(
                f"{c}={row[c]:.4e}" for c in self.columns
                if c not in (self.parameter, "ok", "error") and isinstance(row[c], float)
            )
            lines.append(f"  {self.parameter}={row[self.parameter]:g}: {bits}")
        lines.extend("  " + n for n in self.notes)
        return "\n".join(lines)


def _grad_l2l2(traj: Trajectory, fieldname: str) -> float:
    """sqrt of the time integral of int |grad q|^2 from snapshots."""
    grid = traj.grid
    vals = [_grad_sq(grid, gradient_cc_to_face(grid, getattr(st, fieldname))) for st in traj.states]
    return float(np.sqrt(np.trapezoid(vals, traj.times)))


def _field_distances(st_a: State, st_b: State, area: float):
    """The L2 and the Linf distance of rho, b and u (ux and uy together)
    between two states on one grid: two (rho, b, u) triples."""
    diffs = [(st_a.rho - st_b.rho,), (st_a.b - st_b.b,), (st_a.ux - st_b.ux, st_a.uy - st_b.uy)]
    l2 = tuple(float(np.sqrt(sum(np.sum(d ** 2) for d in ds) * area)) for ds in diffs)
    linf = tuple(float(max(np.abs(d).max() for d in ds)) for ds in diffs)
    return l2, linf


def _strictly_decreasing(values, name: str) -> list[float]:
    values = [float(v) for v in values]
    if any(v2 >= v1 for v1, v2 in zip(values, values[1:])):
        raise ValidationError(f"{name} must be strictly decreasing")
    return values


def _sweep(config: Config, parameter: str, values, columns, n_records: int, measure, compare):
    """The member loop both sweeps share.

    Runs `config` with `parameter` set to each value in turn, every member
    from the same initial data and recording at the same n_records times,
    so the trajectories line up for space-time comparisons.  A member that
    runs gets sup_energy, ratio_drift (how far b/rho left the initial
    envelope) and whatever `measure(row, params, traj, series, test)` adds,
    with `test` the test function centered in the space-time cylinder; a
    member raising Mhd2dError is recorded as failed and skipped.  The
    finest member that ran is the reference: dist_rho, dist_b, dist_u are
    terminal L2 distances to it and `compare(row, traj, finest_row, finest)`
    adds the sweep's own; both run on every member that ran, the finest
    too (exactly 0 at itself).  Returns the report and the (row,
    trajectory) pair of each member that ran, finest last.
    """
    grid = build_grid(config.params)
    state0, env = init_state(grid, config.init)
    record_times = list(np.linspace(0.0, config.params.t_final, n_records))
    test = TestFunction.centered_in(grid, config.params.t_final)

    report = SweepReport(parameter=parameter, values=values, columns=columns)
    ran = []
    for v in values:
        row = {c: float("nan") for c in columns}
        row.update({parameter: v, "ok": True, "error": ""})
        try:
            member = config.with_params(**{parameter: v})
            traj, series = run(member, initial_state=state0.copy(), record_times=record_times)
            row["sup_energy"] = float(series.column("energy").max())
            row["ratio_drift"] = max(
                0.0,
                env.c_star - float(series.column("ratio_min").min()),
                float(series.column("ratio_max").max()) - env.c_upper,
            )
            measure(row, member.params, traj, series, test)
            ran.append((row, traj))
        except Mhd2dError as exc:
            row["ok"] = False
            row["error"] = f"{type(exc).__name__}: {exc}"
        report.rows.append(row)

    finest_row, finest = ran[-1] if ran else (None, None)
    for row, traj in ran:
        d, _ = _field_distances(traj.states[-1], finest.states[-1], grid.cell_area)
        row["dist_rho"], row["dist_b"], row["dist_u"] = d
        compare(row, traj, finest_row, finest)
    return report, ran


def epsilon_sweep(config: Config, eps_list, n_records: int = 21) -> SweepReport:
    """Run each eps to t_final from identical data at fixed delta > 0.

    Reports, per member: sup-in-time energy, time-integrated dissipation,
    ||eps grad rho||_{L2(L2)}, ratio-envelope drift; and relative to the
    finest member: terminal L2 distances and the composition defects of
    the two fractions.  A failing member is recorded and skipped.
    """
    eps_list = _strictly_decreasing(eps_list, "eps_list")
    if not config.params.delta > 0.0:
        raise ValidationError("epsilon_sweep requires fixed delta > 0")

    def measure(row, params, traj, series, test):
        row["dissipation_integral"] = float(
            np.trapezoid(series.column("dissipation"), series.column("t"))
        )
        row["eps_grad_rho_l2l2"] = params.eps * _grad_l2l2(traj, "rho")
        row["eps_grad_b_l2l2"] = params.eps * _grad_l2l2(traj, "b")
        row["evf_pairing"] = evf_pairing(traj, test, weight="sum")

    def compare(row, traj, finest_row, finest):
        row["comp_defect_rho"] = composition_defect(traj, finest, p=2.0, component="rho")
        row["comp_defect_b"] = composition_defect(traj, finest, p=2.0, component="b")
        lhs, rhs = log_entropy_comparison(traj, finest)
        row["entropy_gap_max"] = float(np.max(lhs - rhs))

    columns = [
        "eps", "ok", "error", "sup_energy", "dissipation_integral",
        "eps_grad_rho_l2l2", "eps_grad_b_l2l2", "ratio_drift",
        "dist_rho", "dist_b", "dist_u", "comp_defect_rho", "comp_defect_b",
        "evf_pairing", "entropy_gap_max",
    ]
    report, ran = _sweep(config, "eps", eps_list, columns, n_records, measure, compare)
    if not ran:
        return report

    dists = [r["dist_rho"] for r, _ in ran[:-1]]
    vals = [r["eps"] for r, _ in ran[:-1]]
    if len(dists) >= 2 and min(dists) > 0.0:
        order = richardson_order(dists, vals)
        report.notes.append(f"observed order of dist_rho vs eps: {order:.3f}")
    pairings = [r["evf_pairing"] for r, _ in ran]
    if len(pairings) >= 3:
        gaps = [abs(a - b) for a, b in zip(pairings, pairings[1:])]
        report.notes.append(
            "evf_pairing successive gaps "
            + ", ".join(f"{g:.3e}" for g in gaps)
            + " (Cauchy behavior expected as eps halves)"
        )
    report.notes.append(
        "entropy_gap_max compares against the finest member as proxy limit; "
        "expected <= 0 up to quadrature error (reported, not asserted)"
    )
    finest = ran[-1][1]
    last = finest.states[-1]
    evf_hf = high_frequency_energy_fraction(
        effective_viscous_flux_field(last, finest.params, finest.grid)
    )
    p_hf = high_frequency_energy_fraction(pressure_total(last.rho, last.b, finest.params))
    report.notes.append(
        f"high-frequency spectral fraction, finest member at t_final: "
        f"effective viscous flux {evf_hf:.3e} vs raw pressure {p_hf:.3e} "
        f"(smoothness reported, not asserted)"
    )
    return report


def delta_sweep(config: Config, delta_list, n_records: int = 21) -> SweepReport:
    """Run each delta to t_final from identical data (eps fixed, usually 0).

    Reports the time-integrated artificial-pressure L1 norm (expected to
    scale near-linearly in delta while fields stay bounded), terminal
    distances to the finest member, the ratio-envelope drift per member,
    and the cut-off-weighted effective-viscous-flux pairing defect
    against the finest member (signed, flagged only).  A failing member,
    an inadmissible delta < 0 included, is recorded and skipped.
    """
    delta_list = _strictly_decreasing(delta_list, "delta_list")

    def measure(row, params, traj, series, test):
        row["delta_pressure_int"] = float(
            np.trapezoid(series.column("delta_pressure_L1"), series.column("t"))
        )
        row["evf_tk_pairing"] = evf_pairing(traj, test, weight="tk", k=1.0)

    def compare(row, traj, finest_row, finest):
        row["evf_tk_defect"] = finest_row["evf_tk_pairing"] - row["evf_tk_pairing"]

    columns = [
        "delta", "ok", "error", "delta_pressure_int", "sup_energy",
        "ratio_drift", "dist_rho", "dist_b", "dist_u", "evf_tk_pairing",
        "evf_tk_defect",
    ]
    report, ran = _sweep(config, "delta", delta_list, columns, n_records, measure, compare)
    if not ran:
        return report

    report.notes.append(
        "evf_tk_defect = pairing(finest) - pairing(member); the limit ordering "
        "predicts <= 0 up to quadrature error (flagged, not fatal)"
    )
    return report
