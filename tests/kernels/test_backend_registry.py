"""Backend registry: naming, resolution, availability, provenance."""

import pytest

from repro.kernels import (
    BACKEND_PRIORITY,
    KernelBackend,
    available_backends,
    backend_provenance,
    get_backend,
    resolve_backend,
)
from repro.operators.spec import shared_operator


class TestGetBackend:
    def test_cnative_then_numpy(self):
        assert BACKEND_PRIORITY == ("cnative", "numpy")

    def test_known_names_resolve(self):
        for name in BACKEND_PRIORITY:
            backend = get_backend(name)
            assert backend.name == name
            assert isinstance(backend, KernelBackend)

    def test_unknown_name_fails_loudly(self):
        # Backend names are store keyfields: a typo must never silently
        # tune against the wrong backend.
        with pytest.raises(ValueError, match="unknown kernel backend"):
            get_backend("cuda")

    def test_retired_numba_backend_is_unknown(self):
        # A stored plan that still names it runs on NumPy (see
        # tests/kernels/test_identity.py); new requests are refused.
        with pytest.raises(ValueError, match="unknown kernel backend 'numba'"):
            get_backend("numba")

    def test_auto_is_not_a_backend(self):
        with pytest.raises(ValueError):
            get_backend("auto")

    def test_singletons(self):
        assert get_backend("numpy") is get_backend("numpy")


class TestResolveBackend:
    def test_auto_resolves_to_an_available_backend(self):
        name = resolve_backend("auto")
        assert name in BACKEND_PRIORITY
        assert get_backend(name).available()

    def test_auto_prefers_the_fastest_available(self):
        assert resolve_backend("auto") == available_backends()[0]

    def test_explicit_name_is_kept_verbatim(self):
        # Plans are routinely tuned for machines the tuner is not
        # running on, so an explicit request survives resolution even
        # when this host cannot execute it.
        for name in BACKEND_PRIORITY:
            assert resolve_backend(name) == name

    def test_unknown_explicit_name_fails(self):
        with pytest.raises(ValueError):
            resolve_backend("fortran")


class TestAvailability:
    def test_numpy_is_always_available(self):
        assert get_backend("numpy").available()
        assert "numpy" in available_backends()

    def test_available_backends_in_priority_order(self):
        names = available_backends()
        assert names[-1] == "numpy"
        priorities = [BACKEND_PRIORITY.index(n) for n in names]
        assert priorities == sorted(priorities)

    def test_unavailable_backend_binds_none(self):
        op = shared_operator("poisson", 9)
        for name in BACKEND_PRIORITY:
            backend = get_backend(name)
            if not backend.available():
                assert backend.bind(op) is None


class TestProvenance:
    def test_named_provenance_shape(self):
        record = backend_provenance("numpy")
        assert record["backend"] == "numpy"
        assert record["available"] is True
        assert "numpy" in record["detail"]

    def test_summary_lists_all_backends(self):
        record = backend_provenance()
        assert record["auto"] == resolve_backend("auto")
        assert [r["backend"] for r in record["backends"]] == list(BACKEND_PRIORITY)

    def test_auto_provenance_is_the_resolved_backend(self):
        assert backend_provenance("auto")["backend"] == resolve_backend("auto")


class TestBinding:
    def test_numpy_binds_every_family(self):
        ref = get_backend("numpy")
        for spec, n in [("poisson", 9), ("anisotropic(epsilon=0.01)", 9),
                        ("varcoeff(field=bump,amplitude=4.0)", 9),
                        ("poisson3d", 9)]:
            op = shared_operator(spec, n)
            assert ref.supports(op)
            kernels = ref.bind(op)
            assert kernels is not None and kernels.backend == "numpy"

    def test_warmup_is_idempotent(self):
        for name in available_backends():
            backend = get_backend(name)
            backend.warmup()
            backend.warmup()
            assert backend.available()
