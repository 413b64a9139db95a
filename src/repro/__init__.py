"""repro — reproduction of "New Predictor-Based Attacks in Processors".

Deng & Szefer, DAC 2021 (DOI 10.1109/DAC18074.2021.9586089).

The package implements, from scratch in Python:

* a cycle-driven out-of-order pipeline simulator with a Value
  Prediction System (:mod:`repro.pipeline`, :mod:`repro.vp`) over a
  cache/TLB/DRAM memory hierarchy (:mod:`repro.memory`);
* the paper's attack framework — actions, steps, channels, the six
  attack categories / twelve variants, and the 576-combination attack
  model (:mod:`repro.core`);
* the A-type / D-type / R-type defenses (:mod:`repro.defenses`);
* the libgcrypt-style RSA victim (:mod:`repro.crypto`);
* statistics used by the paper's evaluation (:mod:`repro.stats`) and
  the experiment harness regenerating every table and figure, with a
  fault-tolerant execution layer (retry, per-trial watchdog,
  checkpoint/resume, deterministic fault injection)
  (:mod:`repro.harness`).
"""

from repro._version import __version__
from repro.errors import (
    FaultInjectionError,
    HarnessError,
    InjectedCrashError,
    MemorySystemError,
    ReproError,
    SimulationError,
    StatsError,
)

__all__ = [
    "FaultInjectionError",
    "HarnessError",
    "InjectedCrashError",
    "MemorySystemError",
    "ReproError",
    "SimulationError",
    "StatsError",
    "__version__",
]
