"""Analytic machine cost models.

A :class:`MachineProfile` prices the primitive operations recorded in an
:class:`~repro.machines.meter.OpMeter`, producing a deterministic simulated
runtime.  The model captures the effects the paper's results hinge on:

* fixed per-operation overhead (recursion to tiny grids is not free, which
  is why shortcut choices exist);
* a roofline-style per-point cost: max(compute, memory) with a memory rate
  that depends on whether the working set fits in cache;
* dense-kernel cost for the band-Cholesky direct solve, scaling O(N^4) in
  grid side length, so the direct/iterative crossover moves with the
  machine's dense-compute strength;
* a simple shared-bandwidth + barrier parallel model, so the same plan
  prices differently at different thread counts (Figure 9) and on machines
  with many weak threads vs few strong ones (Figures 10-14).

Stencil-op arithmetic/traffic constants live in :data:`OP_SHAPES`; they are
fixed across machines (the code executed is the same) while the rates and
overheads vary per machine.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

from repro.machines.meter import OpMeter

__all__ = [
    "BackendCostModel",
    "DEFAULT_BACKEND_GAINS",
    "MachineProfile",
    "OP_SHAPES",
    "OpShape",
]


@dataclass(frozen=True)
class OpShape:
    """Machine-independent footprint of one primitive op at grid size n.

    ``flops_per_point`` / ``bytes_per_point`` are per fine-grid point
    (n^2 points); ``barriers`` is the number of synchronization points a
    parallel execution of the op requires.
    """

    flops_per_point: float
    bytes_per_point: float
    barriers: int = 1

    def flops(self, n: int) -> float:
        return self.flops_per_point * float(n) * float(n)

    def bytes(self, n: int) -> float:
        return self.bytes_per_point * float(n) * float(n)


#: Red-black SOR touches u five times and b once per point per colour pair;
#: transfers touch the fine grid once and the coarse grid once.
OP_SHAPES: dict[str, OpShape] = {
    "relax": OpShape(flops_per_point=12.0, bytes_per_point=56.0, barriers=2),
    "residual": OpShape(flops_per_point=7.0, bytes_per_point=40.0),
    "restrict": OpShape(flops_per_point=11.0, bytes_per_point=18.0),
    "interpolate": OpShape(flops_per_point=6.0, bytes_per_point=28.0),
    "norm": OpShape(flops_per_point=2.0, bytes_per_point=8.0),
    "copy": OpShape(flops_per_point=0.0, bytes_per_point=16.0),
}

#: Per-point footprints of the 3-D stencil ops (7-point sweeps, 27-point
#: tensor-product transfers).  These are fixed module constants — they are
#: deliberately *not* part of :meth:`MachineProfile.to_dict`, so profile
#: fingerprints (and every plan stored under them) are unchanged by the
#: 3-D extension; machines still differentiate 3-D costs through their
#: rates, caches, and overheads.
OP_SHAPES_3D: dict[str, OpShape] = {
    "relax": OpShape(flops_per_point=16.0, bytes_per_point=72.0, barriers=2),
    "residual": OpShape(flops_per_point=9.0, bytes_per_point=48.0),
    "restrict": OpShape(flops_per_point=15.0, bytes_per_point=18.0),
    "interpolate": OpShape(flops_per_point=8.0, bytes_per_point=30.0),
    "norm": OpShape(flops_per_point=2.0, bytes_per_point=8.0),
    "copy": OpShape(flops_per_point=0.0, bytes_per_point=16.0),
}


@dataclass(frozen=True)
class BackendCostModel:
    """How an accelerated kernel backend re-prices the stencil ops.

    ``gains`` maps an op family (``relax``/``residual``/``restrict``/
    ``interpolate``; 2-D and 3-D share a family) to the speedup over the
    NumPy reference on the roofline term; ``op_overhead_scale`` scales the
    fixed per-op dispatch cost — accelerated backends pay *more* dispatch
    (the ctypes boundary crossing), which is exactly why tuned plans mix
    backends: tiny coarse grids stay on NumPy while fine grids accelerate.
    """

    gains: dict[str, float] = field(default_factory=dict)
    op_overhead_scale: float = 1.0

    def gain_for(self, op_family: str) -> float:
        return float(self.gains.get(op_family, 1.0))


#: Per-backend cost models of every profile.  Numbers come from
#: microbenchmarks of the scalar C kernels vs the vectorized NumPy loops
#: (see ``benchmarks/bench_kernels.py``); they only need the right *shape*
#: — accelerated work is several times cheaper, dispatch is costlier — for
#: the DP to place backends sensibly per level.
DEFAULT_BACKEND_GAINS: dict[str, BackendCostModel] = {
    "cnative": BackendCostModel(
        gains={"relax": 6.0, "residual": 5.0, "restrict": 5.0, "interpolate": 4.0},
        op_overhead_scale=2.5,
    ),
}


#: Identity model: no gain, no extra overhead (numpy / unknown backends).
_IDENTITY_BACKEND = BackendCostModel()


@dataclass(frozen=True)
class MachineProfile:
    """Cost parameters of one target machine."""

    name: str
    cores: int
    #: sustained streaming FLOP rate of one thread (flops/s)
    flop_rate: float
    #: total off-chip memory bandwidth (bytes/s)
    mem_bw: float
    #: fraction of ``mem_bw`` one thread can drive alone
    single_thread_bw_frac: float
    #: last-level cache capacity (bytes) and its bandwidth (bytes/s, per chip)
    cache_size: float
    cache_bw: float
    #: fixed dispatch overhead per primitive op (s)
    op_overhead: float
    #: cost of one parallel barrier at 2 threads (grows log2 with threads)
    sync_overhead: float
    #: efficiency of dense blocked kernels (band Cholesky) vs ``flop_rate``
    dense_efficiency: float
    #: extra fixed cost per direct-solve call (allocation, setup)
    direct_overhead: float = 0.0
    #: working-set bytes per grid point for cache-tier decisions (three
    #: operand grids in the typical stencil op)
    working_set_factor: float = 24.0
    #: include the factor-streaming memory term in direct-solve pricing.
    #: Profiles whose dense rate was measured with memory effects folded in
    #: turn this off.
    direct_includes_memory: bool = True
    description: str = ""
    op_shapes: dict[str, OpShape] = field(default_factory=lambda: dict(OP_SHAPES))

    # -- identity ---------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready dict of every cost-relevant parameter.

        Display-only fields (``name``, ``description``) are excluded so two
        profiles with identical cost landscapes serialize identically; the
        persistent tuning store keys plans by this content, not by label.
        """
        return {
            "cores": self.cores,
            "flop_rate": self.flop_rate,
            "mem_bw": self.mem_bw,
            "single_thread_bw_frac": self.single_thread_bw_frac,
            "cache_size": self.cache_size,
            "cache_bw": self.cache_bw,
            "op_overhead": self.op_overhead,
            "sync_overhead": self.sync_overhead,
            "dense_efficiency": self.dense_efficiency,
            "direct_overhead": self.direct_overhead,
            "working_set_factor": self.working_set_factor,
            "direct_includes_memory": self.direct_includes_memory,
            "op_shapes": {
                op: [s.flops_per_point, s.bytes_per_point, s.barriers]
                for op, s in sorted(self.op_shapes.items())
            },
        }

    @classmethod
    def from_dict(cls, data: dict, name: str = "profile") -> "MachineProfile":
        """Rebuild a profile from its :meth:`to_dict` payload.

        The inverse of :meth:`to_dict` up to display fields (``name`` is
        caller-supplied, ``description`` empty), so a round-tripped
        profile has the same :meth:`fingerprint` — the property the
        store's serialized model artifacts rely on.  A payload carrying
        per-backend ``backend_costs`` (no longer a profile field) is
        refused rather than silently repriced with the default gains.
        """
        if "backend_costs" in data:
            raise ValueError(
                "profile payload carries 'backend_costs', which profiles no "
                "longer hold; backends price with DEFAULT_BACKEND_GAINS"
            )
        op_shapes = {
            op: OpShape(
                flops_per_point=float(s[0]),
                bytes_per_point=float(s[1]),
                barriers=int(s[2]),
            )
            for op, s in data.get("op_shapes", {}).items()
        }
        return cls(
            name=name,
            cores=int(data["cores"]),
            flop_rate=float(data["flop_rate"]),
            mem_bw=float(data["mem_bw"]),
            single_thread_bw_frac=float(data["single_thread_bw_frac"]),
            cache_size=float(data["cache_size"]),
            cache_bw=float(data["cache_bw"]),
            op_overhead=float(data["op_overhead"]),
            sync_overhead=float(data["sync_overhead"]),
            dense_efficiency=float(data["dense_efficiency"]),
            direct_overhead=float(data.get("direct_overhead", 0.0)),
            working_set_factor=float(data.get("working_set_factor", 24.0)),
            direct_includes_memory=bool(data.get("direct_includes_memory", True)),
            op_shapes=op_shapes or dict(OP_SHAPES),
        )

    def fingerprint(self) -> str:
        """Stable content hash of the cost model (machine identity).

        Two :class:`MachineProfile` instances with the same parameters get
        the same fingerprint regardless of how they were constructed or
        named, so tuned plans stored under a fingerprint are shared across
        processes and hosts with equivalent cost landscapes.
        """
        payload = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return "mp-" + hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    # -- memory hierarchy -------------------------------------------------

    def _mem_rate(self, working_set: float, threads: int) -> float:
        """Effective bytes/s for a streaming op with the given working set."""
        if working_set <= self.cache_size:
            base = self.cache_bw
            frac = max(self.single_thread_bw_frac, 1.0 / max(self.cores, 1))
        else:
            base = self.mem_bw
            frac = self.single_thread_bw_frac
        return base * min(1.0, frac * threads)

    def _barrier_cost(self, threads: int, barriers: int) -> float:
        if threads <= 1 or barriers <= 0:
            return 0.0
        return self.sync_overhead * barriers * math.log2(threads + 1)

    # -- op pricing -------------------------------------------------------

    def _stencil_points_time(
        self, shape: OpShape, points: float, threads: int | None
    ) -> float:
        """Roofline time of one grid-local op touching ``points`` points
        (shared by the 2-D and 3-D pricing paths so the threading and
        memory model can never drift between dimensions)."""
        p = self.cores if threads is None else min(threads, self.cores)
        # Threads stop helping once per-thread chunks are trivially small.
        usable = max(1, min(p, int(points / 512) or 1))
        compute = shape.flops_per_point * points / (self.flop_rate * usable)
        working_set = points * self.working_set_factor
        memory = shape.bytes_per_point * points / self._mem_rate(working_set, usable)
        return max(compute, memory) + self.op_overhead + self._barrier_cost(usable, shape.barriers)

    def stencil_time(self, op: str, n: int, threads: int | None = None) -> float:
        """Time of one grid-local op (relax/residual/transfer/...) at size n."""
        shape = self.op_shapes.get(op)
        if shape is None:
            raise KeyError(f"no shape for op {op!r}")
        return self._stencil_points_time(shape, float(n) * float(n), threads)

    def stencil_time_3d(self, base_op: str, n: int) -> float:
        """Time of one 3-D grid-local op at side length n (n**3 points)."""
        shape = OP_SHAPES_3D.get(base_op)
        if shape is None:
            raise KeyError(f"no 3-D shape for op {base_op!r}")
        return self._stencil_points_time(shape, float(n) ** 3, None)

    def direct_time(self, n: int, cached: bool = False) -> float:
        """Time of a band-Cholesky direct solve at grid size n.

        ``cached=True`` prices only the banded triangular solves (the
        factorization-reuse extension); the default prices factor + solve,
        matching DPBSV.  The dense factorization is modelled as serial —
        the paper's LAPACK calls run on one thread inside a parallel
        program.
        """
        w = float(n - 2)
        solve_flops = 4.0 * w**3
        factor_flops = 0.0 if cached else w**4 + 2.0 * w**3
        rate = self.flop_rate * self.dense_efficiency
        t = (factor_flops + solve_flops) / rate
        if self.direct_includes_memory:
            # Banded backsolves stream the factor from memory once.
            t += 8.0 * w**3 / self._mem_rate(8.0 * w**3, 1)
        return t + self.op_overhead + self.direct_overhead

    def direct3d_time(self, n: int, cached: bool = False) -> float:
        """Time of a sparse-LU direct solve on the (n-2)**3 interior system.

        Sparse factorization of a 3-D grid Laplacian costs O(N^2) flops
        and the triangular solves O(N^(4/3)) for N interior unknowns
        (nested-dissection fill); ``cached=True`` prices only the solves.
        Modelled as serial, like the 2-D dense factorization.
        """
        unknowns = float(n - 2) ** 3
        solve_flops = 80.0 * unknowns ** (4.0 / 3.0)
        factor_flops = 0.0 if cached else 10.0 * unknowns * unknowns
        rate = self.flop_rate * self.dense_efficiency
        t = (factor_flops + solve_flops) / rate
        if self.direct_includes_memory:
            # The triangular solves stream the factor from memory once.
            factor_bytes = 8.0 * 8.0 * unknowns ** (4.0 / 3.0)
            t += factor_bytes / self._mem_rate(factor_bytes, 1)
        return t + self.op_overhead + self.direct_overhead

    def backend_model(self, backend: str) -> BackendCostModel:
        """The cost model of a kernel backend.

        Unknown backends (and ``numpy`` itself) price as the identity model,
        so a plan qualified for a backend this profile knows nothing about
        degrades to reference pricing rather than failing.
        """
        return DEFAULT_BACKEND_GAINS.get(backend, _IDENTITY_BACKEND)

    def _backend_op_seconds(self, base: str, backend: str, n: int) -> float:
        """Price ``base`` executed by an accelerated kernel backend.

        The roofline/barrier term shrinks by the backend's measured gain;
        the fixed dispatch overhead *grows* by its overhead scale.  At tiny
        grid sizes the overhead term dominates and the accelerated op
        prices above the reference one — the DP then keeps coarse levels
        on NumPy, which matches what wall-clock measurement shows.
        """
        model = self.backend_model(backend)
        family = base[:-2] if base.endswith("3d") else base
        reference = self.op_seconds(base, n)
        work = max(reference - self.op_overhead, 0.0)
        return (
            work / model.gain_for(family)
            + self.op_overhead * model.op_overhead_scale
        )

    def op_seconds(self, op: str, n: int) -> float:
        """Time of one occurrence of ``op`` at size ``n``.

        ``op`` may carry a kernel-backend qualifier (``"relax@cnative"``);
        see :meth:`_backend_op_seconds`.
        """
        if "@" in op:
            base, _, backend = op.partition("@")
            return self._backend_op_seconds(base, backend, n)
        if op == "direct":
            return self.direct_time(n, cached=False)
        if op == "direct_solve":
            return self.direct_time(n, cached=True)
        if op == "direct3d":
            return self.direct3d_time(n, cached=False)
        if op == "direct_solve3d":
            return self.direct3d_time(n, cached=True)
        if op.endswith("3d"):
            return self.stencil_time_3d(op[:-2], n)
        return self.stencil_time(op, n)

    def price(self, meter: OpMeter) -> float:
        """Total simulated seconds for all ops recorded in ``meter``."""
        return meter.price(self.op_seconds)
