"""The cnative backend's 3-D transfer bindings and its library build.

The 3-D transfers take a fast path only for exact, C-contiguous float64
cubes; these tests pin that the ``out=`` buffer is honoured, that every
other input falls back to the NumPy reference with the same bytes, and
that threads sharing one level's bindings cannot disturb each other.
The build tests pin the kernel cache key (source, compiler version and
compile flags) and that a build compiles a per-process copy of the
source, which a concurrent builder never rewrites.
"""

import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.grids.transfer import interpolate_correction, restrict_full_weighting
from repro.kernels import cnative, get_backend
from repro.operators.spec import shared_operator

SPECS_3D = ["poisson3d", "anisotropic3d(epsx=0.01)"]


@pytest.fixture(scope="module")
def backend():
    backend = get_backend("cnative")
    if not backend.available():
        pytest.skip("cnative is unavailable on this host")
    backend.warmup()
    return backend


def _grids(n: int, seed: int):
    rng = np.random.default_rng(seed)
    fine = rng.uniform(-10.0, 10.0, size=(n, n, n))
    coarse = rng.uniform(-10.0, 10.0, size=((n >> 1) + 1,) * 3)
    return fine, coarse


class TestTransfers3D:
    @pytest.mark.parametrize("spec", SPECS_3D)
    def test_bound_transfers_are_compiled(self, backend, spec):
        kernels = backend.bind(shared_operator(spec, 17))
        assert kernels.restrict is not restrict_full_weighting
        assert kernels.interpolate_correction is not interpolate_correction

    @pytest.mark.parametrize("n", [5, 17, 33])
    def test_restrict_fills_out_buffer(self, backend, n):
        kernels = backend.bind(shared_operator("poisson3d", n))
        fine, _ = _grids(n, seed=n)
        nc = (n >> 1) + 1
        expected = restrict_full_weighting(fine)
        out = np.full((nc,) * 3, np.nan)  # boundary shell included
        assert kernels.restrict(fine, out=out) is out
        assert np.array_equal(out, expected)

    def test_restrict_out_of_another_dtype_falls_back(self, backend):
        kernels = backend.bind(shared_operator("poisson3d", 17))
        fine, _ = _grids(17, seed=1)
        ref = np.full((9, 9, 9), 7.0, dtype=np.float32)
        fast = ref.copy()
        restrict_full_weighting(fine, out=ref)
        assert kernels.restrict(fine, out=fast) is fast
        assert np.array_equal(ref, fast)

    def test_restrict_wrong_out_shape_raises_like_numpy(self, backend):
        kernels = backend.bind(shared_operator("poisson3d", 17))
        fine, _ = _grids(17, seed=2)
        with pytest.raises(ValueError, match="out shape"):
            kernels.restrict(fine, out=np.zeros((5, 5, 5)))

    def test_non_contiguous_inputs_fall_back(self, backend):
        n = 17
        kernels = backend.bind(shared_operator("poisson3d", n))
        fine, coarse = _grids(n, seed=3)
        strided = np.zeros((n, n, 2 * n))[:, :, ::2]
        strided[...] = fine
        fortran = np.asfortranarray(fine)
        for view in (strided, fortran):
            assert not view.flags.c_contiguous
            assert np.array_equal(kernels.restrict(view), restrict_full_weighting(fine))
        u_ref = fine.copy()
        interpolate_correction(u_ref, coarse)
        kernels.interpolate_correction(strided, coarse)
        assert np.array_equal(strided, u_ref)
        coarse_view = np.zeros(coarse.shape + (2,))[..., 0]
        coarse_view[...] = coarse
        u = fine.copy()
        kernels.interpolate_correction(u, coarse_view)
        assert np.array_equal(u, u_ref)

    def test_subclass_falls_back(self, backend):
        kernels = backend.bind(shared_operator("poisson3d", 9))
        fine, coarse = _grids(9, seed=4)
        sub_type = type("Sub", (np.ndarray,), {})
        assert np.array_equal(
            kernels.restrict(fine.view(sub_type)), restrict_full_weighting(fine)
        )
        u_ref, u_sub = fine.copy(), fine.copy().view(sub_type)
        interpolate_correction(u_ref, coarse)
        kernels.interpolate_correction(u_sub, coarse)
        assert np.array_equal(u_sub.view(np.ndarray), u_ref)

    @pytest.mark.parametrize("spec", SPECS_3D)
    def test_threads_share_one_level(self, backend, spec):
        """More threads than cores run the same bound transfers at once
        (ctypes drops the GIL); each gets the NumPy bytes every time."""
        n, workers = 33, 4
        kernels = backend.bind(shared_operator(spec, n))
        inputs = [_grids(n, seed=10 + t) for t in range(workers)]
        expected = []
        for fine, coarse in inputs:
            u = fine.copy()
            interpolate_correction(u, coarse)
            expected.append((restrict_full_weighting(fine), u))
        barrier = threading.Barrier(workers)
        mismatches: list[str] = []
        done: list[int] = []

        def work(t: int) -> None:
            fine, coarse = inputs[t]
            want_c, want_u = expected[t]
            barrier.wait(timeout=30)
            for _ in range(25):
                if not np.array_equal(kernels.restrict(fine), want_c):
                    mismatches.append(f"restrict in thread {t}")
                u = fine.copy()
                kernels.interpolate_correction(u, coarse)
                if not np.array_equal(u, want_u):
                    mismatches.append(f"interpolate in thread {t}")
            done.append(t)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(workers)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert sorted(done) == list(range(workers))
        assert mismatches == []


class TestLibraryBuild:
    def test_cache_key_covers_compile_flags(self, monkeypatch, tmp_path):
        monkeypatch.setenv(cnative.CACHE_ENV, str(tmp_path))
        version = "gcc 12.2.0"
        base = cnative._library_path(version, cnative.CFLAGS)
        assert base == cnative._library_path(version)
        assert base.parent == tmp_path
        others = {
            cnative._library_path(version, flags)
            for flags in (
                ("-O2", "-fPIC", "-shared", "-ffp-contract=off"),
                (*cnative.CFLAGS, "-march=native"),
                cnative.CFLAGS[:-1],
            )
        }
        assert base not in others and len(others) == 3
        assert cnative._library_path("gcc 13.1.0") != base

    def test_build_compiles_a_per_process_source(self, monkeypatch, tmp_path):
        """A concurrent first build rewrites every source path except
        this process's own; the build must not read any of them."""
        if cnative._compiler() is None:
            pytest.skip("no C compiler on this host")
        monkeypatch.setenv(cnative.CACHE_ENV, str(tmp_path))
        real_run = subprocess.run
        own = f".{os.getpid()}."
        commands: list[list[str]] = []

        def racing_run(cmd, *args, **kwargs):
            if "-o" in cmd:
                commands.append(list(cmd))
                for path in tmp_path.glob("*.c"):
                    if own not in path.name:
                        path.write_text("")  # another builder, mid-write
            return real_run(cmd, *args, **kwargs)

        monkeypatch.setattr(cnative.subprocess, "run", racing_run)
        lib = cnative._build_library()
        assert len(commands) == 1
        (source,) = [arg for arg in commands[0] if arg.endswith(".c")]
        assert own in os.path.basename(source)
        for flag in cnative.CFLAGS:
            assert flag in commands[0]
        assert [p.name for p in tmp_path.iterdir()] == [
            cnative._library_path(cnative._compiler_version(cnative._compiler())).name
        ]
        assert hasattr(lib, "restrict3d_fw") and hasattr(lib, "interp3d_corr")
