"""Compiled twins of the hot loops of a step: the conjugate-gradient
solves, the explicit stencils and the integrands of the diagnostics.
The library exports what this module calls and nothing else: `dot`,
`cg_solve` and the gridded kernels that `run` dispatches.

`load()` returns the ctypes handle of `_kernels.c` or None; with None
every caller runs its numpy code, and both give the same bits.  The
library is built once per machine and source into the user cache,
`$XDG_CACHE_HOME/mhd2d` or else `~/.cache/mhd2d`, under a name that
hashes the C source, the compiler command and the machine type, and it
is loaded only after every kernel has reproduced its numpy twin to the
last bit on random data.  None records what was observed, and `_reason`
names it: no C compiler, a failed compile, an unwritable cache or no
home directory to hold it, a library that ctypes cannot load, or a
kernel that differs from its twin.  The package imports this module at
the first call that could use a kernel, never at `import mhd2d`.
"""

from __future__ import annotations

import ctypes
import os
import platform
import random
import shutil
import tempfile

import numpy as np

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernels.c")
_FLAGS = ("-O3", "-shared", "-fPIC", "-ffp-contract=off", "-fno-math-errno")
_P, _D, _N = ctypes.c_void_p, ctypes.c_double, ctypes.c_long
_SIGNATURES = {
    "dot": (_N, _P, _P),
    "cg_solve": (_N, _P, _P, _N, _N, _P, _N, _P, _P, _P, _P, _P, _P, _D, _N, _D, _D, _D,
                 _P, _P),
}
# the gridded kernels, which run() calls: the shape of each array argument
# (c cells, x and y faces, n nodes, X and Y interior x and y faces), then
# the ctypes of the scalars after nx, ny
_GRIDDED = {
    "gradient": ("cxy", _D, _D),
    "scalar_flux_div": ("cxyxyc", _D, _D, _N),
    "eps_drag": ("xyxyxy", _D, _D, _D),
    "momentum_rhs": ("cxyxyxyxyxyxy", _D),
    "energy_density": ("ccxyccc", _D, _N, _D),
    "velocity_gradient_sq": ("xyccnnc", _D, _D),
    "weighted_grad_sq": ("cxyXY", _D),
    "entropy_density": ("ccccc",),
}
# the array arguments a gridded kernel takes as NULL when they are None
_OPTIONAL = {"momentum_rhs": (9, 10), "energy_density": (5,)}
_RESTYPES = {"dot": _D, "cg_solve": _N}
for _name, (_codes, *_scalars) in _GRIDDED.items():
    _SIGNATURES[_name] = (*[_P] * len(_codes), _N, _N, *_scalars)

_UNSET = object()
_lib = _UNSET  # load()'s result, kept per process: a ctypes.CDLL or None
_reason = None  # why load() returned None, in words, or None


def load():
    """The checked kernel library, or None when the numpy path must run."""
    global _lib, _reason
    if _lib is _UNSET:
        path, _reason = _build()
        _lib, _reason = (None, _reason) if path is None else _open(path)
    return _lib


def _compiler():
    """Path of the C compiler Python was built with, else of `cc`, or None."""
    import sysconfig

    return shutil.which((sysconfig.get_config_var("CC") or "cc").split()[0]) or shutil.which("cc")


def _build():
    """(path, None) of the library built from this source, compiling it on
    first use; (None, reason) when no compiler is found, the cache path is
    not absolute or cannot be written, or the build fails."""
    import hashlib
    import subprocess

    cc = _compiler()
    if cc is None:
        return None, "no compiler"
    cmd = [cc, *_FLAGS]
    try:
        with open(_SOURCE, "rb") as fh:
            source = fh.read()
        key = hashlib.sha256(b"\0".join([source, *map(str.encode, [*cmd, platform.machine()])]))
        cache = os.path.join(os.environ.get("XDG_CACHE_HOME")
                             or os.path.join(os.path.expanduser("~"), ".cache"), "mhd2d")
        if not os.path.isabs(cache):
            return None, "cache unwritable"  # no home directory ("~" stays as it is)
        path = os.path.join(cache, f"_kernels-{key.hexdigest()[:32]}.so")
        if os.path.exists(path):
            return path, None
        os.makedirs(cache, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix="_kernels-", suffix=".tmp", dir=cache)
        os.close(fd)
    except OSError:
        return None, "cache unwritable"
    try:
        # the compiler reads the hashed bytes, not the file again
        subprocess.run([*cmd, "-x", "c", "-o", tmp, "-"], input=source,
                       capture_output=True, check=True, timeout=300)
        os.replace(tmp, path)
    except (OSError, subprocess.SubprocessError):
        return None, "build failed"
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return path, None


def _open(path):
    """(library, None) for the library at `path` with its signatures set,
    if every kernel reproduces its numpy twin; else (None, reason)."""
    try:
        lib = ctypes.CDLL(path)
        for name, argtypes in _SIGNATURES.items():
            fn = getattr(lib, name)
            fn.argtypes, fn.restype = argtypes, _RESTYPES.get(name)
    except (OSError, AttributeError):
        return None, "load failed"
    bad = _first_mismatch(lib)
    return (lib, None) if bad is None else (None, f"{bad} differs from its numpy twin")


def _addresses(n, *vectors):
    """The data addresses of flat, contiguous float64 vectors of n elements."""
    for v in vectors:
        if not (v.dtype == np.float64 and v.flags.c_contiguous and v.size == n):
            raise ValueError(f"the kernels take contiguous float64 vectors of {n} elements")
    return [v.ctypes.data for v in vectors]


def cg_solve(lib, name, operator, x, r, p, ap, z, jacobi, tb, max_iter, jmin, jmax, far):
    """solver._cg's loop on its buffers as one compiled call, the twin of
    solver._cg_iterate: the same bounds, the same (status, iterations,
    value).  `operator` holds the arguments before the vectors of the
    `name` matvec's numpy twin: the diagonal, of the vectors' size, and
    any cell-vector scratch, then nx, ny and the scalars.  r holds b, z is
    r (plain CG) or the scratch that takes r/jacobi."""
    n = x.size
    xa, ra, pa, apa, za = _addresses(n, x, r, p, ap, z)
    ja = None if jacobi is None else _addresses(n, jacobi)[0]
    k = next(i for i, a in enumerate(operator) if not isinstance(a, np.ndarray))
    nx, ny = operator[k:k + 2]
    diag, *scratch = (*_addresses(n, operator[0]), *_addresses(nx * (ny + 1), *operator[1:k]))
    iters, value = ctypes.c_long(), ctypes.c_double()
    status = lib.cg_solve({"diffusion": 0, "viscous": 1}[name], diag,
                          scratch[0] if scratch else None, nx, ny,
                          (ctypes.c_double * 6)(*operator[k + 2:]), n, xa, ra, pa, apa, za, ja,
                          tb, max_iter, jmin, jmax, far, ctypes.byref(iters), ctypes.byref(value))
    return status, iters.value, value.value


def run(name, *args) -> bool:
    """Whether the gridded kernel `name` ran on `args`: its arrays (None
    for an absent optional one), then nx, ny and the scalars.  It runs
    when the library loads, every array is a C-contiguous float64 array
    of exactly the shape the kernel takes and ctypes can pass every
    scalar; otherwise nothing is touched and the caller runs its numpy
    twin, which raises or computes as it always has."""
    lib = load()
    if lib is None:
        return False
    codes = _GRIDDED[name][0]
    nx, ny = args[len(codes):len(codes) + 2]
    shapes = {"c": (nx, ny), "x": (nx + 1, ny), "y": (nx, ny + 1), "n": (nx + 1, ny + 1),
              "X": (nx - 1, ny), "Y": (nx, ny - 1)}
    addresses = []
    for i, (code, a) in enumerate(zip(codes, args)):
        if a is None and i in _OPTIONAL.get(name, ()):
            addresses.append(None)
        elif isinstance(a, np.ndarray) and a.dtype == np.float64 and a.flags.c_contiguous \
                and a.shape == shapes[code]:
            addresses.append(a.ctypes.data)
        else:
            return False
    try:
        getattr(lib, name)(*addresses, *args[len(codes):])
    except ctypes.ArgumentError:  # ctypes converts every argument before the call
        return False
    return True


def _first_mismatch(lib):
    """The name of the first kernel that differs from its numpy twin on
    random data (walls, ghosts and signed zeros included), compared by
    their bytes, or None.  In turn: the einsum-order dot, on a vector
    longer than one 8192-element chunk too; cg_solve, capped and run to
    its end; then each gridded kernel, through the function that
    dispatches it, once on each path."""
    from . import solver

    rng = random.Random(2024)  # not numpy.random, which would cost 5 MB to load

    def junk(*shape):
        """Uniform in [-1, 1), every third entry a zero of either sign."""
        bits = np.frombuffer(rng.randbytes(8 * int(np.prod(shape))), np.uint64)
        v = (bits >> np.uint64(11)) * 2.0 ** -52 - 1.0
        v[::3] *= 0.0
        return v.reshape(shape)

    # 40 and 88 elements: 5x7 cell and face vectors; 8385: a 64^2 face
    # vector, one chunk and a part
    for n in (40, 88, 8385):
        a, b = junk(n + 1), junk(n + 1)  # apart: one 134 kB block would be mmapped
        for u, v in ((a[:-1], b[:-1]), (a[1:], b[1:])):  # aligned, then offset
            if not _same(lib.dot(n, u.ctypes.data, v.ctypes.data), solver._dot(u, v)):
                return "dot"
    return _cg_mismatch(lib, junk) or _gridded_mismatch(lib, junk)


def _same(a, b) -> bool:
    """Whether a and b, arrays, floats or nested sequences of them, have
    the same bytes."""
    def flat(x):
        if isinstance(x, (list, tuple)):  # FaceFields and lists of outputs
            return b"".join(map(flat, x))
        return np.asarray(x, dtype=float).tobytes()

    return flat(a) == flat(b)


def _cg_mismatch(lib, junk):
    """The name cg_solve if it differs from solver._cg_iterate, else None:
    each operator on a 5x7 grid, with and without a Jacobi diagonal,
    capped at 0 iterations (A x and r = b - A x), at 1 (one update and one
    direction), at 3 and run to its end, comparing x, r, p, Ap and the
    returned triple.  cg_solve's dots are dot's code, which
    _first_mismatch has checked across a chunk; tests/test_kernels.py runs
    whole solves at 64^2."""
    from .core import SimulationParams, build_grid
    from .solver import _cg_iterate, _diffusion_operator, _viscous_operator

    grid = build_grid(SimulationParams(nx=5, ny=7, Ly=0.7))
    rfx, rfy = 1.5 + junk(6, 7), 1.5 + junk(5, 8)
    cases = {"diffusion": (_diffusion_operator(grid, 0.05), None),
             "viscous": _viscous_operator(grid, rfx, rfy, 0.05, 0.3, 0.1)}
    for name, (operator, jac) in cases.items():
        for jacobi in (None,) if jac is None else (jac, None):
            for max_iter in (0, 1, 3, 40):
                bufs = junk(5, operator[0].size)  # x, b, p, Ap, scratch
                twin = bufs.copy()
                bounds = (1e-10, max_iter, 0.5, 2.0, 1e-20)
                numpy_path = _cg_iterate(name, operator, *bufs, jacobi, *bounds)
                z = twin[1] if jacobi is None else twin[4]
                compiled = cg_solve(lib, name, operator, *twin[:4], z, jacobi, *bounds)
                # the numpy matvec also writes its scratch, the fifth buffer
                if compiled[:2] != numpy_path[:2] or not _same(
                        [compiled[2], twin[:4]], [numpy_path[2], bufs[:4]]):
                    return "cg_solve"
    return None


def _gridded_mismatch(lib, junk):
    """The first gridded kernel of lib that differs from its numpy twin, or
    None: each runs through the function that dispatches it, once with
    the library withheld and once with it, on a 5x7 grid."""
    global _lib
    from dataclasses import replace

    from . import diagnostics, operators, solver
    from .core import SimulationParams, State, build_grid

    nx, ny = 5, 7
    rho, b = 1.5 + junk(2, nx, ny)
    fields = [operators.FaceField(junk(nx + 1, ny), junk(nx, ny + 1)) for _ in range(4)]
    state = State(rho, b, *fields[0], 0.0)
    cases = {
        "gradient": lambda p, g: operators.gradient_cc_to_face(g, rho),
        "scalar_flux_div": lambda p, g: [operators.upwind_scalar_flux_div(g, rho, *fields[0], s)
                                         for s in ("upwind", "centered")],
        "eps_drag": lambda p, g: operators.eps_gradrho_gradu(g, rho, *fields[0], 0.3),
        "momentum_rhs": lambda p, g: [
            solver._momentum_rhs(g, rho, *fields[0], 0.1, *fields[1:], s)
            for s in (None, solver.Sources(rho, b, *fields[0]))],
        "energy_density": lambda p, g: [diagnostics._energy_density(state, q, g)
                                        for q in (p, replace(p, gamma=1.0, delta=0.0))],
        "velocity_gradient_sq": lambda p, g: diagnostics._velocity_gradient_squares(g, state),
        "weighted_grad_sq": lambda p, g: diagnostics._weighted_grad_sq_terms(g, fields[1], 0.7, b),
        "entropy_density": lambda p, g: diagnostics.log_entropy(state, g),
    }
    params = SimulationParams(nx=nx, ny=ny, Ly=0.7, delta=0.01, Gamma=6.0, gamma=1.4)
    grid = build_grid(params)
    saved = _lib
    try:
        for name, case in cases.items():
            _lib = None
            reference = case(params, grid)
            _lib = lib
            if not _same(case(params, grid), reference):
                return name
    finally:
        _lib = saved
    return None
