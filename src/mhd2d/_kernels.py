"""Compiled twins of the elementwise loops of the conjugate-gradient solves.

`load()` returns the ctypes handle of `_kernels.c` or None; with None the
solves run their numpy code, and both give the same bits.  The library
is built once per machine and source into the user cache,
`$XDG_CACHE_HOME/mhd2d` or else `~/.cache/mhd2d`, under a name that
hashes the C source, the compiler command and the machine type, and it
is loaded only after each kernel has reproduced its numpy twin to the
last bit on random data.  None records what was observed: no C compiler,
a failed compile, an unwritable cache or no home directory to hold it,
a library that ctypes cannot load
or a kernel that differs from its twin.  The solver imports this module
at its first implicit solve, never at `import mhd2d`.
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
_FLAGS = ("-O3", "-shared", "-fPIC", "-ffp-contract=off")
_P, _D, _N = ctypes.c_void_p, ctypes.c_double, ctypes.c_long
_SIGNATURES = {
    "diffusion_matvec": (_P, _N, _N, _D, _D, _P, _P),
    "viscous_matvec": (_P, _P, _N, _N, _D, _D, _D, _D, _D, _D, _P, _P),
    "cg_update": (_N, _P, _P, _P, _P, _P, _P, _D),
    "cg_direction": (_N, _P, _P, _D),
}

_UNSET = object()
_lib = _UNSET  # load()'s result, kept per process: a ctypes.CDLL or None


def load():
    """The checked kernel library, or None when the numpy path must run."""
    global _lib
    if _lib is _UNSET:
        path = _build()
        _lib = None if path is None else _open(path)
    return _lib


def _compiler():
    """Path of the C compiler Python was built with, else of `cc`, or None."""
    import sysconfig

    return shutil.which((sysconfig.get_config_var("CC") or "cc").split()[0]) or shutil.which("cc")


def _build():
    """Path of the library built from this source, compiling it on first
    use; None when no compiler is found, the cache path is not absolute
    or cannot be written, or the build fails."""
    import hashlib
    import subprocess

    cc = _compiler()
    if cc is None:
        return None
    cmd = [cc, *_FLAGS]
    try:
        with open(_SOURCE, "rb") as fh:
            source = fh.read()
        key = hashlib.sha256(b"\0".join([source, *map(str.encode, [*cmd, platform.machine()])]))
        cache = os.path.join(os.environ.get("XDG_CACHE_HOME")
                             or os.path.join(os.path.expanduser("~"), ".cache"), "mhd2d")
        if not os.path.isabs(cache):
            return None  # no home directory ("~" stays as it is): nowhere to write
        path = os.path.join(cache, f"_kernels-{key.hexdigest()[:32]}.so")
        if os.path.exists(path):
            return path
        os.makedirs(cache, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix="_kernels-", suffix=".tmp", dir=cache)
        os.close(fd)
        try:
            # the compiler reads the hashed bytes, not the file again
            subprocess.run([*cmd, "-x", "c", "-o", tmp, "-"], input=source,
                           capture_output=True, check=True, timeout=300)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
    except (OSError, subprocess.SubprocessError):
        return None
    return path


def _open(path):
    """The library at `path` with its signatures set, if every kernel
    reproduces its numpy twin; else None."""
    try:
        lib = ctypes.CDLL(path)
        for name, argtypes in _SIGNATURES.items():
            fn = getattr(lib, name)
            fn.argtypes, fn.restype = argtypes, None
    except (OSError, AttributeError):
        return None
    return lib if _matches_numpy(lib) else None


def _addresses(n, *vectors):
    """The data addresses of flat, contiguous float64 vectors of n elements."""
    for v in vectors:
        if not (v.dtype == np.float64 and v.flags.c_contiguous and v.size == n):
            raise ValueError(f"the kernels take contiguous float64 vectors of {n} elements")
    return [v.ctypes.data for v in vectors]


def bind_diffusion(lib, grid, diag, cx, cy):
    """The compiled twin of solver._diffusion_matvec for one solve: a
    function of the addresses of v and out."""
    (d,) = _addresses(grid.nx * (grid.ny + 1), diag)

    def matvec(v, out):
        lib.diffusion_matvec(d, grid.nx, grid.ny, cx, cy, v, out)

    matvec.buffers = diag  # alive as long as its address is in use
    return matvec


def bind_viscous(lib, grid, centre, div, dt, mu, lam):
    """The compiled twin of solver._viscous_matvec for one solve: a
    function of the addresses of u and out.  `div` is a cell-vector
    scratch."""
    (c,) = _addresses((2 * grid.nx + 1) * (grid.ny + 1), centre)
    (d,) = _addresses(grid.nx * (grid.ny + 1), div)
    # the factors as _viscous_matvec computes them, so the same doubles
    args = (c, d, grid.nx, grid.ny, 1.0 / grid.hx, 1.0 / grid.hy,
            dt * mu / grid.hx ** 2, dt * mu / grid.hy ** 2,
            dt * (mu + lam) / grid.hx, dt * (mu + lam) / grid.hy)

    def matvec(u, out):
        lib.viscous_matvec(*args, u, out)

    matvec.buffers = centre, div  # alive as long as their addresses are in use
    return matvec


def bind_cg(lib, matvec, x, r, p, ap, z, jacobi):
    """The compiled steps of solver._cg on its buffers: (apply, update,
    direction).  apply(v) writes A v into ap for v = x or p through the
    bound `matvec`; update(alpha) and direction(beta) are the twins of
    solver._cg_update and _cg_direction.  The caller keeps the vectors."""
    n = x.size
    xa, ra, pa, apa, za = _addresses(n, x, r, p, ap, z)
    ja = None if jacobi is None else _addresses(n, jacobi)[0]

    def apply(v):
        matvec(pa if v is p else xa, apa)

    def update(alpha):
        lib.cg_update(n, xa, ra, pa, apa, za, ja, alpha)

    def direction(beta):
        lib.cg_direction(n, pa, za, beta)

    return apply, update, direction


def _matches_numpy(lib) -> bool:
    """Each kernel against its numpy twin in solver, on random data (walls,
    ghosts and signed zeros included) on a small non-square grid, compared
    by their bytes."""
    from .core import Grid
    from .solver import _cg_direction, _cg_update, _diffusion_matvec, _viscous_matvec

    grid = Grid(5, 7, 1.3, 0.7)
    nc, nf = grid.nx * (grid.ny + 1), (2 * grid.nx + 1) * (grid.ny + 1)
    rng = random.Random(2024)  # not numpy.random, which would cost 5 MB to load

    def normal(k, n):
        return np.array([rng.gauss(0.0, 1.0) for _ in range(k * n)]).reshape(k, n)

    dt, mu, lam, cx, cy, alpha, beta = (rng.random() for _ in range(7))

    # each output starts as different junk on the two paths
    v, diag, a, b = normal(4, nc)
    _diffusion_matvec(grid, diag, cx, cy, v, a, np.empty(nc))
    bind_diffusion(lib, grid, diag, cx, cy)(v.ctypes.data, b.ctypes.data)
    same = a.tobytes() == b.tobytes()

    u, centre, a, b = normal(4, nf)
    u[::3] *= 0.0  # zeros of both signs
    div = np.empty(nc)
    _viscous_matvec(grid, centre, dt, mu, lam, u, a, (np.empty(nf), div))
    bind_viscous(lib, grid, centre, div, dt, mu, lam)(u.ctypes.data, b.ctypes.data)
    same = same and a.tobytes() == b.tobytes()

    for jacobi in (normal(1, nf)[0], None):
        x, r, p, ap, s = normal(5, nf)
        twin = [v.copy() for v in (x, r, p, ap, s)]
        # z is r in plain CG; with jacobi it is the scratch s
        z, tz = (r, twin[1]) if jacobi is None else (s, twin[4])
        _cg_update(x, r, p, ap, s, jacobi, alpha)
        _cg_direction(p, z, beta)
        _, update, direction = bind_cg(lib, None, *twin[:4], tz, jacobi)
        update(alpha)
        direction(beta)
        outs = zip((x, r, p, z), (*twin[:3], tz))
        same = same and all(a.tobytes() == b.tobytes() for a, b in outs)
    return same
