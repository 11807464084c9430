"""Calibrated cost-model presets for the paper's three testbeds.

The parameters are drawn from the published microarchitectural
characteristics of each machine (clock, SIMD width, FSB vs integrated
memory controller, cache sizes, thread counts) and tuned so the *relative*
cost landscape — dense compute vs streaming bandwidth vs per-op overhead —
reflects each design.  Absolute times are order-of-magnitude only; the
reproduction targets the paper's qualitative claims (who wins, where the
direct cutoff lands, how shapes differ across machines), not its wall-clock
values.

* **Intel Xeon E7340 (Harpertown testbed)** — 2 sockets x 4 cores at
  ~2.4 GHz with strong SSE dense throughput and large shared L2, but a
  front-side bus: high flop rate, modest memory bandwidth.  Dense direct
  solves are comparatively cheap, so tuned cycles take the direct shortcut
  at a *larger* grid (paper: level 5 vs level 4 elsewhere; Fig 14).
* **AMD Opteron 2356 (Barcelona)** — 2 x 4 cores at ~2.3 GHz, integrated
  memory controllers (better bandwidth/core), smaller per-core dense
  advantage: relaxations at medium grids are relatively cheap, direct
  relatively pricier, pushing the direct call one level coarser.
* **Sun Fire T200 (Niagara)** — 8 in-order cores x 4 threads, ~1.2 GHz,
  one shared FPU per core: very low per-thread FLOP rate, high aggregate
  throughput, cheap on-chip synchronization.  Dense factorization is
  painful, favouring deep recursion and extra mid-level relaxation.
"""

from __future__ import annotations

from repro.machines.profile import MachineProfile

__all__ = [
    "AMD_BARCELONA",
    "HOST_FALLBACK",
    "INTEL_HARPERTOWN",
    "PRESETS",
    "SUN_NIAGARA",
    "get_preset",
]

INTEL_HARPERTOWN = MachineProfile(
    name="intel-harpertown",
    cores=8,
    flop_rate=6.0e9,
    mem_bw=8.0e9,
    single_thread_bw_frac=0.45,
    cache_size=6.0 * 2**20,
    cache_bw=48.0e9,
    op_overhead=2.0e-6,
    sync_overhead=7.0e-6,
    dense_efficiency=0.80,
    direct_overhead=4.0e-6,
    description="2x quad-core Intel Xeon (Harpertown-class testbed): strong "
    "SSE dense compute, FSB-limited memory bandwidth",
)

AMD_BARCELONA = MachineProfile(
    name="amd-barcelona",
    cores=8,
    flop_rate=4.2e9,
    mem_bw=17.0e9,
    single_thread_bw_frac=0.30,
    cache_size=2.5 * 2**20,
    cache_bw=34.0e9,
    op_overhead=2.2e-6,
    sync_overhead=6.0e-6,
    dense_efficiency=0.65,
    direct_overhead=4.0e-6,
    description="2x quad-core AMD Opteron 2356 (Barcelona): integrated "
    "memory controllers, weaker dense kernels than the Xeon",
)

SUN_NIAGARA = MachineProfile(
    name="sun-niagara",
    cores=32,
    flop_rate=0.35e9,
    mem_bw=20.0e9,
    single_thread_bw_frac=0.08,
    cache_size=3.0 * 2**20,
    cache_bw=22.0e9,
    op_overhead=5.0e-6,
    sync_overhead=2.5e-6,
    dense_efficiency=0.45,
    direct_overhead=8.0e-6,
    description="Sun Fire T200 (Niagara): 32 hardware threads, one shared "
    "FPU per core — high throughput, very weak serial dense compute",
)

#: Analytic stand-in for the host running the reproduction; measured host
#: prices come from fitting a :class:`~repro.modeltuner.costmodel.CostModel`
#: over this profile.
HOST_FALLBACK = MachineProfile(
    name="host-fallback",
    cores=1,
    flop_rate=2.0e9,
    mem_bw=10.0e9,
    single_thread_bw_frac=1.0,
    cache_size=8.0 * 2**20,
    cache_bw=40.0e9,
    op_overhead=5.0e-6,
    sync_overhead=5.0e-6,
    dense_efficiency=0.6,
    direct_overhead=10.0e-6,
    description="single-core analytic fallback for the reproduction host",
)

PRESETS: dict[str, MachineProfile] = {
    "intel": INTEL_HARPERTOWN,
    "intel-harpertown": INTEL_HARPERTOWN,
    "amd": AMD_BARCELONA,
    "amd-barcelona": AMD_BARCELONA,
    "sun": SUN_NIAGARA,
    "sun-niagara": SUN_NIAGARA,
    "host": HOST_FALLBACK,
    "host-fallback": HOST_FALLBACK,
}


def get_preset(name: str) -> MachineProfile:
    """Look up a preset by name.

    Raises :class:`ValueError` naming the valid presets on a miss, so CLI
    users typing ``--machine hots`` see what ``--machine`` actually accepts.
    """
    profile = PRESETS.get(name)
    if profile is None:
        valid = ", ".join(sorted(set(PRESETS)))
        raise ValueError(
            f"unknown machine preset {name!r}; valid presets are: {valid}"
        )
    return profile
