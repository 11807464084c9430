"""C-native kernel backend: gcc-compiled hot loops loaded via ctypes.

The backend embeds a small C translation of the NumPy hot loops (2-D
and 3-D smoothers, residuals and both grid transfers) and compiles it on
first use with whatever ``gcc``/``cc`` the host provides — no
build-time dependency, no extension module.  The shared object is
cached under ``$REPRO_MG_KERNEL_CACHE`` (default
``~/.cache/repro-mg-kernels``) keyed on the source, the compiler version
and the exact compile flags (:data:`CFLAGS`), so the compile cost is
paid once per host and a flag change never loads a stale object.  Each
build compiles a per-process copy of the source, so concurrent first
builds cannot read each other's half-written files.  ``warmup``
additionally runs every kernel once so not even the first ctypes
dispatch lands inside a timed trial.

Byte-identity contract: each C kernel evaluates the *same*
floating-point expression in the *same* order as the vectorized NumPy
code it replaces (see ``repro.relax.sor``, ``repro.grids.poisson``,
``repro.grids.transfer``), and the compile uses ``-ffp-contract=off``
so no fused multiply-adds change the rounding.  The build is ``-O3``:
gcc vectorizes and unrolls but, without ``-ffast-math``, never
reorders a floating-point expression, so each point still rounds as
the NumPy code does (the sweeps its loop vectorizer slows opt out,
see ``SCALAR_LOOPS`` in the source).  Within one red-black
colour every neighbour of an updated point has the other colour, so
the scalar loop order is exactly the vectorized update.  A 5-point
operator whose weights each hold one bit pattern over the interior
(``FivePointOperator.uniform_weights``, e.g. anisotropic Poisson) binds
``rbsor2d_weights``/``residual2d_weights``: the array kernels with each
weight load replaced by that scalar, operands in the same order, so
every product sees the same bits.  The 3-D
transfers run the reference's three separable axis passes one plane at
a time, with per-call O(n**2) scratch and no shared state, so threads
may run one level's kernels concurrently.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.grids.grid import coarsen_size, mesh_width, prepare_out
from repro.grids.poisson import rhs_scale
from repro.grids.transfer import interpolate_correction, restrict_full_weighting
from repro.kernels.base import LevelKernels

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.operators.base import StencilOperator

__all__ = ["CNativeBackend", "kernel_cache_dir"]

#: Environment variable overriding where compiled kernels are cached.
CACHE_ENV = "REPRO_MG_KERNEL_CACHE"

C_SOURCE = r"""
/* Scalar translations of repro's NumPy multigrid hot loops.
 *
 * Every expression reproduces the NumPy evaluation order bit-for-bit
 * (compiled with -ffp-contract=off, so no FMA re-rounding).  2-D grids
 * are n x n row-major doubles; 3-D grids are n x n x n.
 */

#include <stdlib.h>
#include <string.h>

#define U2(a, i, j) (a)[(i) * n + (j)]
#define U3(a, i, j, k) (a)[((i) * n + (j)) * n + (k)]

/* gcc 12's -O3 loop vectorizer makes the stride-2 red-black sweeps
 * marked SCALAR_LOOPS (2-D constant, 2-D array weights, 3-D) 1.1-1.5x
 * slower at n <= 33 and no faster at n = 65-129, so they keep -O2's
 * scalar loops; rbsor2d_weights, whose divide it vectorizes, runs
 * 1.2-1.4x faster with it at n >= 33.  Codegen only: no floating-point
 * expression is reordered either way. */
#if defined(__GNUC__) && !defined(__clang__)
#define SCALAR_LOOPS __attribute__((optimize("no-tree-loop-vectorize")))
#else
#define SCALAR_LOOPS
#endif

SCALAR_LOOPS
void rbsor2d_const(double *u, const double *b, long n, double h2,
                   double omega, long sweeps) {
    const double quarter_omega = 0.25 * omega;
    const double keep = 1.0 - omega;
    for (long s = 0; s < sweeps; s++) {
        for (long par = 0; par < 2; par++) {
            for (long i = 1; i < n - 1; i++) {
                for (long j = 1 + ((i + 1 + par) % 2); j < n - 1; j += 2) {
                    double st = U2(u, i - 1, j) + U2(u, i + 1, j);
                    st += U2(u, i, j - 1);
                    st += U2(u, i, j + 1);
                    st += h2 * U2(b, i, j);
                    U2(u, i, j) = U2(u, i, j) * keep + quarter_omega * st;
                }
            }
        }
    }
}

void residual2d_const(const double *u, const double *b, double *out,
                      long n, double inv_h2) {
    for (long i = 1; i < n - 1; i++) {
        for (long j = 1; j < n - 1; j++) {
            double acc = U2(u, i, j) * -4.0;
            acc += U2(u, i - 1, j);
            acc += U2(u, i + 1, j);
            acc += U2(u, i, j - 1);
            acc += U2(u, i, j + 1);
            acc *= inv_h2;
            acc += U2(b, i, j);
            U2(out, i, j) = acc;
        }
    }
}

SCALAR_LOOPS
void rbsor2d_stencil(double *u, const double *b, const double *cn,
                     const double *cs, const double *cw, const double *ce,
                     const double *cd, long n, double omega, long sweeps) {
    const double keep = 1.0 - omega;
    for (long s = 0; s < sweeps; s++) {
        for (long par = 0; par < 2; par++) {
            for (long i = 1; i < n - 1; i++) {
                for (long j = 1 + ((i + 1 + par) % 2); j < n - 1; j += 2) {
                    double gs = U2(cn, i, j) * U2(u, i - 1, j);
                    gs += U2(cs, i, j) * U2(u, i + 1, j);
                    gs += U2(cw, i, j) * U2(u, i, j - 1);
                    gs += U2(ce, i, j) * U2(u, i, j + 1);
                    gs += U2(b, i, j);
                    gs /= U2(cd, i, j);
                    U2(u, i, j) = U2(u, i, j) * keep + omega * gs;
                }
            }
        }
    }
}

void residual2d_stencil(const double *u, const double *b, const double *cn,
                        const double *cs, const double *cw, const double *ce,
                        const double *cd, double *out, long n) {
    for (long i = 1; i < n - 1; i++) {
        for (long j = 1; j < n - 1; j++) {
            double acc = U2(u, i, j) * (-U2(cd, i, j));
            acc += U2(cn, i, j) * U2(u, i - 1, j);
            acc += U2(cs, i, j) * U2(u, i + 1, j);
            acc += U2(cw, i, j) * U2(u, i, j - 1);
            acc += U2(ce, i, j) * U2(u, i, j + 1);
            acc += U2(b, i, j);
            U2(out, i, j) = acc;
        }
    }
}

/* rbsor2d_stencil / residual2d_stencil for weights that are one value
 * over the interior: the same expressions in the same order, each weight
 * load replaced by its (bitwise equal) scalar. */
void rbsor2d_weights(double *u, const double *b, double cn, double cs,
                     double cw, double ce, double cd, long n, double omega,
                     long sweeps) {
    const double keep = 1.0 - omega;
    for (long s = 0; s < sweeps; s++) {
        for (long par = 0; par < 2; par++) {
            for (long i = 1; i < n - 1; i++) {
                for (long j = 1 + ((i + 1 + par) % 2); j < n - 1; j += 2) {
                    double gs = cn * U2(u, i - 1, j);
                    gs += cs * U2(u, i + 1, j);
                    gs += cw * U2(u, i, j - 1);
                    gs += ce * U2(u, i, j + 1);
                    gs += U2(b, i, j);
                    gs /= cd;
                    U2(u, i, j) = U2(u, i, j) * keep + omega * gs;
                }
            }
        }
    }
}

void residual2d_weights(const double *u, const double *b, double cn,
                        double cs, double cw, double ce, double cd,
                        double *out, long n) {
    const double neg_cd = -cd;
    for (long i = 1; i < n - 1; i++) {
        for (long j = 1; j < n - 1; j++) {
            double acc = U2(u, i, j) * neg_cd;
            acc += cn * U2(u, i - 1, j);
            acc += cs * U2(u, i + 1, j);
            acc += cw * U2(u, i, j - 1);
            acc += ce * U2(u, i, j + 1);
            acc += U2(b, i, j);
            U2(out, i, j) = acc;
        }
    }
}

void restrict2d_fw(const double *fine, double *coarse, long nf, long nc) {
    for (long ci = 1; ci < nc - 1; ci++) {
        for (long cj = 1; cj < nc - 1; cj++) {
            long fi = 2 * ci, fj = 2 * cj;
            double acc = fine[(fi - 1) * nf + fj] + fine[(fi + 1) * nf + fj];
            acc += fine[fi * nf + fj - 1];
            acc += fine[fi * nf + fj + 1];
            acc *= 2.0;
            acc += fine[(fi - 1) * nf + fj - 1];
            acc += fine[(fi - 1) * nf + fj + 1];
            acc += fine[(fi + 1) * nf + fj - 1];
            acc += fine[(fi + 1) * nf + fj + 1];
            acc += 4.0 * fine[fi * nf + fj];
            acc *= 1.0 / 16.0;
            coarse[ci * nc + cj] = acc;
        }
    }
}

void interp2d_corr(double *u, const double *coarse, long nf, long nc) {
    for (long ci = 1; ci < nc - 1; ci++)
        for (long cj = 1; cj < nc - 1; cj++)
            u[2 * ci * nf + 2 * cj] += coarse[ci * nc + cj];
    for (long ci = 1; ci < nc - 1; ci++)
        for (long cj = 0; cj < nc - 1; cj++)
            u[2 * ci * nf + 2 * cj + 1] +=
                0.5 * (coarse[ci * nc + cj] + coarse[ci * nc + cj + 1]);
    for (long ci = 0; ci < nc - 1; ci++)
        for (long cj = 1; cj < nc - 1; cj++)
            u[(2 * ci + 1) * nf + 2 * cj] +=
                0.5 * (coarse[ci * nc + cj] + coarse[(ci + 1) * nc + cj]);
    for (long ci = 0; ci < nc - 1; ci++)
        for (long cj = 0; cj < nc - 1; cj++)
            u[(2 * ci + 1) * nf + 2 * cj + 1] +=
                0.25 * (((coarse[ci * nc + cj] + coarse[ci * nc + cj + 1])
                         + coarse[(ci + 1) * nc + cj])
                        + coarse[(ci + 1) * nc + cj + 1]);
}

SCALAR_LOOPS
void rbsor3d_axes(double *u, const double *b, long n, double c0, double c1,
                  double c2, double h2, double omega, long sweeps) {
    const double inv_diag = 1.0 / (2.0 * ((c0 + c1) + c2));
    const double keep = 1.0 - omega;
    for (long s = 0; s < sweeps; s++) {
        for (long par = 0; par < 2; par++) {
            for (long i = 1; i < n - 1; i++) {
                for (long j = 1; j < n - 1; j++) {
                    for (long k = 1 + ((i + j + par + 1) % 2); k < n - 1; k += 2) {
                        double gs = c0 * (U3(u, i - 1, j, k) + U3(u, i + 1, j, k));
                        gs += c1 * (U3(u, i, j - 1, k) + U3(u, i, j + 1, k));
                        gs += c2 * (U3(u, i, j, k - 1) + U3(u, i, j, k + 1));
                        gs += h2 * U3(b, i, j, k);
                        gs *= inv_diag;
                        U3(u, i, j, k) = U3(u, i, j, k) * keep + omega * gs;
                    }
                }
            }
        }
    }
}

void residual3d_axes(const double *u, const double *b, double *out, long n,
                     double c0, double c1, double c2, double inv_h2) {
    const double dc = -2.0 * ((c0 + c1) + c2);
    for (long i = 1; i < n - 1; i++) {
        for (long j = 1; j < n - 1; j++) {
            for (long k = 1; k < n - 1; k++) {
                double acc = U3(u, i, j, k) * dc;
                acc += c0 * U3(u, i - 1, j, k);
                acc += c0 * U3(u, i + 1, j, k);
                acc += c1 * U3(u, i, j - 1, k);
                acc += c1 * U3(u, i, j + 1, k);
                acc += c2 * U3(u, i, j, k - 1);
                acc += c2 * U3(u, i, j, k + 1);
                acc *= inv_h2;
                acc += U3(b, i, j, k);
                U3(out, i, j, k) = acc;
            }
        }
    }
}

/* One [1/4, 1/2, 1/4] full-weighting point, in _restrict_axis_fw's order. */
static inline double fw3(double l, double c, double r) {
    double acc = c * 0.5;
    acc += 0.25 * l;
    acc += 0.25 * r;
    return acc;
}

/* 3-D full weighting as the three separable passes (axis 0, 1, 2) of
 * repro.grids.transfer, one coarse plane at a time: the axis-0 pass of
 * plane ci fills `plane` (nf x nf), the axis-1 pass of row (ci, cj)
 * fills `row` (nf), the axis-2 pass writes the coarse row.  The boundary
 * shell is zero, as each NumPy pass leaves it.  Returns -1 (nothing
 * written) when the per-call scratch cannot be allocated. */
int restrict3d_fw(const double *fine, double *coarse, long nf, long nc) {
    double *plane = malloc(sizeof(double) * (size_t)(nf * nf + nf));
    if (plane == NULL)
        return -1;
    double *row = plane + nf * nf;
    const long pf = nf * nf, pc = nc * nc;
    memset(coarse, 0, sizeof(double) * (size_t)pc);
    memset(coarse + (nc - 1) * pc, 0, sizeof(double) * (size_t)pc);
    for (long ci = 1; ci < nc - 1; ci++) {
        const double *f1 = fine + 2 * ci * pf;
        for (long p = nf + 1; p < pf - nf - 1; p++)
            plane[p] = fw3(f1[p - pf], f1[p], f1[p + pf]);
        double *out = coarse + ci * pc;
        memset(out, 0, sizeof(double) * (size_t)nc);
        memset(out + (nc - 1) * nc, 0, sizeof(double) * (size_t)nc);
        for (long cj = 1; cj < nc - 1; cj++) {
            const double *mid = plane + 2 * cj * nf;
            for (long k = 1; k < nf - 1; k++)
                row[k] = fw3(mid[k - nf], mid[k], mid[k + nf]);
            double *o = out + cj * nc;
            o[0] = 0.0;
            o[nc - 1] = 0.0;
            for (long ck = 1; ck < nc - 1; ck++)
                o[ck] = fw3(row[2 * ck - 1], row[2 * ck], row[2 * ck + 1]);
        }
    }
    free(plane);
    return 0;
}

/* u[inner] += trilinear(coarse)[inner], refining axis 0, 1, 2 in turn as
 * repro.grids.transfer does: even points copy, odd points are
 * (a + b) * 0.5.  Per fine plane i the axis-0 pass fills `plane`
 * (nc x nc; even planes read the coarse plane itself), per fine row j
 * the axis-1 pass fills `row` (nc).  Returns -1 (u untouched) when the
 * per-call scratch cannot be allocated. */
int interp3d_corr(double *u, const double *coarse, long nf, long nc) {
    double *plane = malloc(sizeof(double) * (size_t)(nc * nc + nc));
    if (plane == NULL)
        return -1;
    double *row = plane + nc * nc;
    const long pc = nc * nc;
    for (long i = 1; i < nf - 1; i++) {
        const double *a = coarse + (i / 2) * pc;
        const double *pl = a;
        if (i % 2) {
            for (long p = 0; p < pc; p++)
                plane[p] = (a[p] + a[p + pc]) * 0.5;
            pl = plane;
        }
        for (long j = 1; j < nf - 1; j++) {
            const double *r = pl + (j / 2) * nc;
            if (j % 2) {
                for (long k = 0; k < nc; k++)
                    row[k] = (r[k] + r[k + nc]) * 0.5;
                r = row;
            }
            double *o = u + (i * nf + j) * nf;
            o[1] += (r[0] + r[1]) * 0.5;
            for (long ck = 1; ck < nc - 1; ck++) {
                o[2 * ck] += r[ck];
                o[2 * ck + 1] += (r[ck] + r[ck + 1]) * 0.5;
            }
        }
    }
    free(plane);
    return 0;
}
"""

# Kernels receive raw data pointers (the Python wrappers validate dtype,
# contiguity, and shape first): ndpointer's per-call from_param checks
# would cost more than some of the kernels themselves.
_PTR = ctypes.c_void_p
_SIGNATURES: dict[str, list[Any]] = {
    "rbsor2d_const": [
        _PTR, _PTR, ctypes.c_long, ctypes.c_double, ctypes.c_double,
        ctypes.c_long,
    ],
    "residual2d_const": [_PTR, _PTR, _PTR, ctypes.c_long, ctypes.c_double],
    "rbsor2d_stencil": [
        _PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR, ctypes.c_long,
        ctypes.c_double, ctypes.c_long,
    ],
    "residual2d_stencil": [
        _PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR, ctypes.c_long,
    ],
    "rbsor2d_weights": [
        _PTR, _PTR, *[ctypes.c_double] * 5, ctypes.c_long, ctypes.c_double,
        ctypes.c_long,
    ],
    "residual2d_weights": [_PTR, _PTR, *[ctypes.c_double] * 5, _PTR, ctypes.c_long],
    "restrict2d_fw": [_PTR, _PTR, ctypes.c_long, ctypes.c_long],
    "interp2d_corr": [_PTR, _PTR, ctypes.c_long, ctypes.c_long],
    "rbsor3d_axes": [
        _PTR, _PTR, ctypes.c_long, ctypes.c_double, ctypes.c_double,
        ctypes.c_double, ctypes.c_double, ctypes.c_double, ctypes.c_long,
    ],
    "residual3d_axes": [
        _PTR, _PTR, _PTR, ctypes.c_long, ctypes.c_double, ctypes.c_double,
        ctypes.c_double, ctypes.c_double,
    ],
    "restrict3d_fw": [_PTR, _PTR, ctypes.c_long, ctypes.c_long],
    "interp3d_corr": [_PTR, _PTR, ctypes.c_long, ctypes.c_long],
}
#: Kernels that allocate per-call scratch return nonzero, having written
#: nothing, when the allocation fails; the others return void.
_STATUS_RESULT = frozenset({"restrict3d_fw", "interp3d_corr"})

#: The exact compile arguments; they are part of the kernel cache key.
#: -O3 adds vectorization and unrolling but, without -ffast-math, never
#: reassociates floating point, so each point keeps the NumPy order;
#: -ffp-contract=off keeps gcc from fusing a multiply and an add.
CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")

_F64 = np.dtype(np.float64)

_lock = threading.Lock()
_lib: ctypes.CDLL | None = None
_lib_error: str | None = None
_probed = False


def kernel_cache_dir() -> Path:
    """Where compiled kernel objects live (see :data:`CACHE_ENV`)."""
    override = os.environ.get(CACHE_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-mg-kernels"


def _compiler() -> str | None:
    return shutil.which("gcc") or shutil.which("cc")


def _compiler_version(cc: str) -> str:
    try:
        proc = subprocess.run(
            [cc, "--version"], capture_output=True, text=True, timeout=30
        )
        return proc.stdout.splitlines()[0].strip() if proc.stdout else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _library_path(version: str, flags: tuple[str, ...] = CFLAGS) -> Path:
    """Cache path of the shared object built from ``C_SOURCE`` by the
    compiler ``version`` with ``flags``: any change to the three is a
    different file, never a stale load."""
    key = hashlib.sha256(
        "\n".join((C_SOURCE, version, *flags)).encode("utf-8")
    ).hexdigest()[:16]
    return kernel_cache_dir() / f"repro_mg_kernels_{key}.so"


def _build_library() -> ctypes.CDLL:
    """Compile (if not cached) and load the kernel shared object."""
    from repro.obs.runtime import get_tracer

    cc = _compiler()
    if cc is None:
        raise RuntimeError("no C compiler (gcc/cc) on PATH")
    version = _compiler_version(cc)
    so_path = _library_path(version)
    if not so_path.exists():
        so_path.parent.mkdir(parents=True, exist_ok=True)
        # Per-process source and object files: a concurrent first build
        # never reads a source another process is rewriting.
        stem = f".{so_path.stem}.{os.getpid()}"
        src_path = so_path.with_name(stem + ".c")
        tmp_path = so_path.with_name(stem + ".so")
        src_path.write_text(C_SOURCE)
        cmd = [cc, *CFLAGS, str(src_path), "-o", str(tmp_path)]
        try:
            with get_tracer().span(
                "kernels.compile", backend="cnative", compiler=version,
                key=so_path.stem.removeprefix("repro_mg_kernels_"),
            ):
                proc = subprocess.run(
                    cmd, capture_output=True, text=True, timeout=120
                )
        finally:
            src_path.unlink(missing_ok=True)
        if proc.returncode != 0:
            tmp_path.unlink(missing_ok=True)
            raise RuntimeError(
                f"kernel compile failed ({' '.join(cmd)}): {proc.stderr.strip()}"
            )
        # Atomic publish: concurrent builders race benignly to the same path.
        os.replace(tmp_path, so_path)
    lib = ctypes.CDLL(str(so_path))
    for fname, argtypes in _SIGNATURES.items():
        fn = getattr(lib, fname)
        fn.argtypes = argtypes
        fn.restype = ctypes.c_int if fname in _STATUS_RESULT else None
    return lib


def _load_library() -> ctypes.CDLL | None:
    """Build/load once per process; a failure is cached as unavailable."""
    global _lib, _lib_error, _probed
    with _lock:
        if not _probed:
            _probed = True
            try:
                _lib = _build_library()
            except (RuntimeError, OSError) as exc:
                _lib_error = str(exc)
        return _lib


# Hot-path guards: called before every kernel dispatch, so they check the
# cheap exact-type fast path first (subclasses fall back to NumPy).
def _square(a: np.ndarray, n: int) -> bool:
    return (
        type(a) is np.ndarray
        and a.shape == (n, n)
        and a.dtype == _F64
        and a.flags.c_contiguous
    )


def _cube(a: np.ndarray, n: int) -> bool:
    return (
        type(a) is np.ndarray
        and a.shape == (n, n, n)
        and a.dtype == _F64
        and a.flags.c_contiguous
    )


def _bind_const2d(lib: ctypes.CDLL, op: "StencilOperator") -> LevelKernels:
    n = op.n
    h = mesh_width(n)
    h2 = h * h
    inv_h2 = rhs_scale(n)
    f_sor = lib.rbsor2d_const
    f_res = lib.residual2d_const

    def sor_sweeps(u, b, omega, sweeps=1):
        if sweeps < 0 or not (_square(u, n) and _square(b, n)):
            return op.sor_sweeps(u, b, omega, sweeps)
        f_sor(u.ctypes.data, b.ctypes.data, n, h2, omega, sweeps)
        return u

    def jacobi_sweeps(u, b, omega, sweeps):
        if sweeps < 0 or not (_square(u, n) and _square(b, n)):
            return op.jacobi_sweeps(u, b, omega, sweeps)
        scratch = np.zeros_like(u)
        for _ in range(sweeps):
            f_res(u.ctypes.data, b.ctypes.data, scratch.ctypes.data, n, inv_h2)
            u[1:-1, 1:-1] += (omega * h * h * 0.25) * scratch[1:-1, 1:-1]
        return u

    def residual(u, b, out=None):
        if not (_square(u, n) and _square(b, n)):
            return op.residual(u, b, out=out)
        res = prepare_out(out, u.shape)
        if not _square(res, n):
            return op.residual(u, b, out=out)
        f_res(u.ctypes.data, b.ctypes.data, res.ctypes.data, n, inv_h2)
        return res

    return LevelKernels(
        backend="cnative",
        sor_sweeps=sor_sweeps,
        jacobi_sweeps=jacobi_sweeps,
        residual=residual,
        restrict=_restrict2d(lib),
        interpolate_correction=_interp2d(lib),
    )


def _bind_stencil2d(lib: ctypes.CDLL, op: Any) -> LevelKernels:
    n = op.n
    diag = op.diag
    if op.uniform_weights is not None:
        # One bit pattern per weight over the interior: the scalar
        # kernels compute the same expressions without the weight loads.
        weights = op.uniform_weights
        weights_ok = True
        f_sor = lib.rbsor2d_weights
        f_res = lib.residual2d_weights
    else:
        weights = (op.north, op.south, op.west, op.east, diag)
        weights_ok = all(_square(w, n) for w in weights)
        # The weight arrays are fixed per operator instance; hoist their
        # pointers out of the per-sweep path (the closures keep ``op``,
        # and so the arrays, alive).
        if weights_ok:
            weights = tuple(w.ctypes.data for w in weights)
        f_sor = lib.rbsor2d_stencil
        f_res = lib.residual2d_stencil

    def sor_sweeps(u, b, omega, sweeps=1):
        if sweeps < 0 or not weights_ok or not (_square(u, n) and _square(b, n)):
            return op.sor_sweeps(u, b, omega, sweeps)
        f_sor(u.ctypes.data, b.ctypes.data, *weights, n, omega, sweeps)
        return u

    def jacobi_sweeps(u, b, omega, sweeps):
        if sweeps < 0 or not weights_ok or not (_square(u, n) and _square(b, n)):
            return op.jacobi_sweeps(u, b, omega, sweeps)
        scratch = np.zeros_like(u)
        for _ in range(sweeps):
            f_res(u.ctypes.data, b.ctypes.data, *weights, scratch.ctypes.data, n)
            u[1:-1, 1:-1] += omega * scratch[1:-1, 1:-1] / diag[1:-1, 1:-1]
        return u

    def residual(u, b, out=None):
        if not weights_ok or not (_square(u, n) and _square(b, n)):
            return op.residual(u, b, out=out)
        res = prepare_out(out, u.shape)
        if not _square(res, n):
            return op.residual(u, b, out=out)
        f_res(u.ctypes.data, b.ctypes.data, *weights, res.ctypes.data, n)
        return res

    return LevelKernels(
        backend="cnative",
        sor_sweeps=sor_sweeps,
        jacobi_sweeps=jacobi_sweeps,
        residual=residual,
        restrict=_restrict2d(lib),
        interpolate_correction=_interp2d(lib),
    )


def _bind_axes3d(lib: ctypes.CDLL, op: Any) -> LevelKernels:
    n = op.n
    c0, c1, c2 = (float(c) for c in op.coeffs)
    h = mesh_width(n)
    h2 = h * h
    inv_h2 = rhs_scale(n)
    f_sor = lib.rbsor3d_axes
    f_res = lib.residual3d_axes

    def sor_sweeps(u, b, omega, sweeps=1):
        if sweeps < 0 or not (_cube(u, n) and _cube(b, n)):
            return op.sor_sweeps(u, b, omega, sweeps)
        f_sor(u.ctypes.data, b.ctypes.data, n, c0, c1, c2, h2, omega, sweeps)
        return u

    def jacobi_sweeps(u, b, omega, sweeps):
        if sweeps < 0 or not (_cube(u, n) and _cube(b, n)):
            return op.jacobi_sweeps(u, b, omega, sweeps)
        factor = omega * h * h / (2.0 * float(sum(op.coeffs)))
        scratch = np.zeros_like(u)
        inner = (slice(1, -1),) * 3
        for _ in range(sweeps):
            f_res(u.ctypes.data, b.ctypes.data, scratch.ctypes.data,
                  n, c0, c1, c2, inv_h2)
            u[inner] += factor * scratch[inner]
        return u

    def residual(u, b, out=None):
        if not (_cube(u, n) and _cube(b, n)):
            return op.residual(u, b, out=out)
        res = prepare_out(out, u.shape)
        if not _cube(res, n):
            return op.residual(u, b, out=out)
        f_res(u.ctypes.data, b.ctypes.data, res.ctypes.data,
              n, c0, c1, c2, inv_h2)
        return res

    # The transfers are compiled too: restrict3d_fw and interp3d_corr run
    # the NumPy reference's separable axis passes one plane at a time.
    return LevelKernels(
        backend="cnative",
        sor_sweeps=sor_sweeps,
        jacobi_sweeps=jacobi_sweeps,
        residual=residual,
        restrict=_restrict3d(lib),
        interpolate_correction=_interp3d(lib),
    )


def _restrict2d(lib: ctypes.CDLL):
    f_restrict = lib.restrict2d_fw

    def restrict(fine, out=None):
        nf = fine.shape[0] if isinstance(fine, np.ndarray) and fine.ndim == 2 else 0
        if nf < 5 or not _square(fine, nf):
            return restrict_full_weighting(fine, out=out)
        nc = coarsen_size(nf)
        res = prepare_out(out, (nc, nc))
        if not _square(res, nc):
            return restrict_full_weighting(fine, out=out)
        f_restrict(fine.ctypes.data, res.ctypes.data, nf, nc)
        return res

    return restrict


def _interp2d(lib: ctypes.CDLL):
    f_interp = lib.interp2d_corr

    def interpolate(u, coarse):
        nf = u.shape[0] if isinstance(u, np.ndarray) and u.ndim == 2 else 0
        if (
            nf < 5
            or not _square(u, nf)
            or not _square(coarse, coarsen_size(nf))
        ):
            return interpolate_correction(u, coarse)
        f_interp(u.ctypes.data, coarse.ctypes.data, nf, coarsen_size(nf))
        return u

    return interpolate


def _coarse_side(nf: int) -> int:
    """Coarse side of a fine side 2**k + 1 with k >= 2, else 0 (the
    NumPy reference then validates and raises)."""
    return (nf >> 1) + 1 if nf >= 5 and (nf - 1) & (nf - 2) == 0 else 0


# Anything the 3-D fast paths do not take (subclasses, other dtypes,
# non-contiguous or mis-shaped arrays, a failed scratch allocation) goes
# to the NumPy reference, which also raises on invalid input.
def _restrict3d(lib: ctypes.CDLL):
    f_restrict = lib.restrict3d_fw

    def restrict(fine, out=None):
        nf = fine.shape[0] if isinstance(fine, np.ndarray) and fine.ndim == 3 else 0
        nc = _coarse_side(nf)
        if nc == 0 or not _cube(fine, nf):
            return restrict_full_weighting(fine, out=out)
        # The kernel writes every coarse point, boundary shell included.
        res = np.empty((nc, nc, nc)) if out is None else out
        if not _cube(res, nc) or f_restrict(fine.ctypes.data, res.ctypes.data, nf, nc):
            return restrict_full_weighting(fine, out=out)
        return res

    return restrict


def _interp3d(lib: ctypes.CDLL):
    f_interp = lib.interp3d_corr

    def interpolate(u, coarse):
        nf = u.shape[0] if isinstance(u, np.ndarray) and u.ndim == 3 else 0
        nc = _coarse_side(nf)
        if (
            nc == 0
            or not _cube(u, nf)
            or not _cube(coarse, nc)
            or f_interp(u.ctypes.data, coarse.ctypes.data, nf, nc)
        ):
            return interpolate_correction(u, coarse)
        return u

    return interpolate


class CNativeBackend:
    """gcc-compiled scalar kernels behind the :class:`KernelBackend` protocol."""

    name = "cnative"

    def __init__(self) -> None:
        self._warmed = False

    def available(self) -> bool:
        return _load_library() is not None

    def supports(self, op: "StencilOperator") -> bool:
        from repro.operators.base import FivePointOperator
        from repro.operators.poisson import ConstCoeffPoisson
        from repro.operators.poisson3d import AxisStencilOperator

        return isinstance(
            op, (ConstCoeffPoisson, FivePointOperator, AxisStencilOperator)
        )

    def bind(self, op: "StencilOperator") -> LevelKernels | None:
        from repro.operators.base import FivePointOperator
        from repro.operators.poisson import ConstCoeffPoisson
        from repro.operators.poisson3d import AxisStencilOperator

        lib = _load_library()
        if lib is None:
            return None
        if isinstance(op, ConstCoeffPoisson):
            return _bind_const2d(lib, op)
        if isinstance(op, FivePointOperator):
            return _bind_stencil2d(lib, op)
        if isinstance(op, AxisStencilOperator):
            return _bind_axes3d(lib, op)
        return None

    def warmup(self) -> None:
        """Compile the library and run every kernel once (idempotent)."""
        if self._warmed:
            return
        lib = _load_library()
        if lib is None:
            return
        n = 5
        u2 = np.zeros((n, n))
        b2 = np.zeros((n, n))
        w = np.ones((n, n))
        out2 = np.zeros((n, n))
        coarse = np.zeros((3, 3))
        pu, pb, pw, po = (a.ctypes.data for a in (u2, b2, w, out2))
        pc = coarse.ctypes.data
        lib.rbsor2d_const(pu, pb, n, 1.0, 1.0, 1)
        lib.residual2d_const(pu, pb, po, n, 1.0)
        lib.rbsor2d_stencil(pu, pb, pw, pw, pw, pw, pw, n, 1.0, 1)
        lib.residual2d_stencil(pu, pb, pw, pw, pw, pw, pw, po, n)
        lib.rbsor2d_weights(pu, pb, 1.0, 1.0, 1.0, 1.0, 1.0, n, 1.0, 1)
        lib.residual2d_weights(pu, pb, 1.0, 1.0, 1.0, 1.0, 1.0, po, n)
        lib.restrict2d_fw(pu, pc, n, 3)
        lib.interp2d_corr(pu, pc, n, 3)
        u3 = np.zeros((n, n, n))
        b3 = np.zeros((n, n, n))
        out3 = np.zeros((n, n, n))
        lib.rbsor3d_axes(u3.ctypes.data, b3.ctypes.data, n,
                         1.0, 1.0, 1.0, 1.0, 1.0, 1)
        lib.residual3d_axes(u3.ctypes.data, b3.ctypes.data, out3.ctypes.data,
                            n, 1.0, 1.0, 1.0, 1.0)
        coarse3 = np.zeros((3, 3, 3))
        lib.restrict3d_fw(u3.ctypes.data, coarse3.ctypes.data, n, 3)
        lib.interp3d_corr(u3.ctypes.data, coarse3.ctypes.data, n, 3)
        self._warmed = True

    def provenance(self) -> dict[str, Any]:
        available = self.available()
        if available:
            cc = _compiler()
            detail = _compiler_version(cc) if cc else "unknown"
        else:
            detail = f"unavailable: {_lib_error or 'no C compiler'}"
        return {"backend": self.name, "available": available, "detail": detail}
