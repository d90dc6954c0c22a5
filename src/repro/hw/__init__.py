"""Cycle-level simulation of the PermDNN engine and its baselines.

The paper evaluated a Verilog implementation (28 nm, 1.2 GHz) whose golden
reference was "a cycle-accurate bit-accurate simulator".  This package
rebuilds that simulator in Python:

- :mod:`repro.hw.config` -- the Table VIII design parameters.
- :mod:`repro.hw.scheduler` -- Case 1/2/3 column scheduling (Sec. IV-D).
- :mod:`repro.hw.engine` -- the PE-array engine with column-wise processing
  and input zero-skipping (Figs. 5-9).
- :mod:`repro.hw.energy` -- area/power model calibrated to Table IX.
- :mod:`repro.hw.technology` -- the 45 nm -> 28 nm projection rule.
- :mod:`repro.hw.baselines` -- EIE (CSC + load imbalance) and CirCNN
  (frequency-domain block-circulant) comparison engines.
- :mod:`repro.hw.workloads` -- the six Table VII benchmark FC layers.
"""

from repro.hw.config import EngineConfig, PEConfig
from repro.hw.engine import (
    PermDNNEngine,
    SimulationResult,
    export_engine_image,
    load_engine_image,
)
from repro.hw.energy import AreaPowerModel, EngineBreakdown, PEBreakdown
from repro.hw.perf import PerformanceReport, equivalent_dense_ops
from repro.hw.scheduler import ColumnSchedule, classify_case, cycles_per_column
from repro.hw.technology import project_design
from repro.hw.workloads import (
    TABLE_VII_WORKLOADS,
    UnknownWorkloadError,
    Workload,
    find_workload,
    make_workload_instance,
)

__all__ = [
    "AreaPowerModel",
    "ColumnSchedule",
    "EngineBreakdown",
    "EngineConfig",
    "PEBreakdown",
    "PEConfig",
    "PerformanceReport",
    "PermDNNEngine",
    "SimulationResult",
    "TABLE_VII_WORKLOADS",
    "UnknownWorkloadError",
    "Workload",
    "classify_case",
    "cycles_per_column",
    "equivalent_dense_ops",
    "export_engine_image",
    "find_workload",
    "load_engine_image",
    "make_workload_instance",
    "project_design",
]
