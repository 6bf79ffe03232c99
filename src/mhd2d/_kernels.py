"""Compiled twins of the elementwise loops of the conjugate-gradient solves.

`load()` returns the ctypes handle of `_kernels.c` or None; with None the
solves run their numpy code, and both give the same bits.  The library
is built once per machine and source into the user cache,
`$XDG_CACHE_HOME/mhd2d` or else `~/.cache/mhd2d`, under a name that
hashes the C source, the compiler command and the machine type, and it
is loaded only after each operator's CG steps, bound by bind_cg as the
solves bind them, have reproduced their numpy twins to the last bit on
random data.  None records what was observed: no C compiler,
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


def bind_cg(lib, name, operator, x, r, p, ap, z, jacobi):
    """The compiled steps of solver._cg on its buffers: (apply, update,
    direction).  apply(v) writes A v into ap for v = x or p by
    lib.<name>_matvec on `operator`, the arguments before the vectors of
    its numpy twin: the diagonal, of the vectors' size, and any cell-vector
    scratch, then nx, ny and the scalars.  update(alpha) and
    direction(beta) are the twins of solver._cg_update and _cg_direction.
    The caller keeps the vectors and the operator's arrays alive."""
    n = x.size
    xa, ra, pa, apa, za = _addresses(n, x, r, p, ap, z)
    ja = None if jacobi is None else _addresses(n, jacobi)[0]
    k = next(i for i, a in enumerate(operator) if not isinstance(a, np.ndarray))
    nx, ny = operator[k:k + 2]
    args = (*_addresses(n, operator[0]), *_addresses(nx * (ny + 1), *operator[1:k]),
            *operator[k:])
    matvec, cg_update, cg_direction = (getattr(lib, f"{name}_matvec"), lib.cg_update,
                                       lib.cg_direction)

    def apply(v):
        matvec(*args, pa if v is p else xa, apa)

    def update(alpha):
        cg_update(n, xa, ra, pa, apa, za, ja, alpha)

    def direction(beta):
        cg_direction(n, pa, za, beta)

    return apply, update, direction


def _matches_numpy(lib) -> bool:
    """Each operator's CG steps, through bind_cg, against their numpy twins
    in solver, on random data (walls, ghosts and signed zeros included) on
    a small non-square grid, with and without a Jacobi diagonal, compared
    by their bytes."""
    from .solver import _MATVECS, _cg_direction, _cg_update

    nx, ny = 5, 7
    nc, nf = nx * (ny + 1), (2 * nx + 1) * (ny + 1)
    rng = random.Random(2024)  # not numpy.random, which would cost 5 MB to load

    def normal(k, n):
        return np.array([rng.gauss(0.0, 1.0) for _ in range(k * n)]).reshape(k, n)

    def scalars(k):
        return [rng.random() for _ in range(k)]

    operators = {"diffusion": (nc, (*normal(1, nc), nx, ny, *scalars(2))),
                 "viscous": (nf, (*normal(1, nf), np.empty(nc), nx, ny, *scalars(6)))}
    alpha, beta = scalars(2)
    same = True
    for name, (n, operator) in operators.items():
        for jacobi in (normal(1, n)[0], None):
            # each vector starts as the same junk on the two paths
            x, r, p, ap, s = normal(5, n)
            x[::3] *= 0.0  # zeros of both signs
            twin = [v.copy() for v in (x, r, p, ap, s)]
            # z is r in plain CG; with jacobi it is the scratch s
            z, tz = (r, twin[1]) if jacobi is None else (s, twin[4])
            apply, update, direction = bind_cg(lib, name, operator, *twin[:4], tz, jacobi)
            # the steps of one CG iteration, in _cg's order, on both paths
            _MATVECS[name](*operator, x, ap, s)
            apply(twin[0])
            same = same and ap.tobytes() == twin[3].tobytes()
            _MATVECS[name](*operator, p, ap, s)
            _cg_update(x, r, p, ap, s, jacobi, alpha)
            _cg_direction(p, z, beta)
            apply(twin[2])
            update(alpha)
            direction(beta)
            outs = zip((x, r, p, ap, z), (*twin[:4], tz))
            same = same and all(a.tobytes() == b.tobytes() for a, b in outs)
    return same
