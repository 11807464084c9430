"""Machine models: op metering, analytic cost profiles and testbed presets.

The paper demonstrates that optimal cycle shapes are machine-dependent
(section 4.3).  We reproduce the mechanism with cost models: solvers record
primitive operations into an :class:`OpMeter`, and a :class:`MachineProfile`
prices the meter for a given architecture.  Numerical behaviour (iteration
counts, accuracies) is architecture-independent, so one tuning run can be
re-priced per machine — deterministic and fast.
"""

from repro.machines.meter import NULL_METER, OpMeter, OPS
from repro.machines.profile import MachineProfile, OP_SHAPES, OpShape
from repro.machines.presets import (
    AMD_BARCELONA,
    HOST_FALLBACK,
    INTEL_HARPERTOWN,
    PRESETS,
    SUN_NIAGARA,
    get_preset,
)

__all__ = [
    "AMD_BARCELONA",
    "HOST_FALLBACK",
    "INTEL_HARPERTOWN",
    "MachineProfile",
    "NULL_METER",
    "OP_SHAPES",
    "OPS",
    "OpMeter",
    "OpShape",
    "PRESETS",
    "SUN_NIAGARA",
    "get_preset",
]
