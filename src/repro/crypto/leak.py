"""The end-to-end RSA exponent-leak attack (Figures 6 and 7).

Per exponent bit, the attacker runs a Train + Test instance around the
victim's square-and-multiply iteration:

1. **train** — the attacker trains the VPS entry at the victim's swap
   PC with its own known data (``confidence`` accesses);
2. the **victim iteration** executes; iff the exponent bit is 1, its
   conditional swap load collides with that entry and re-trains it;
3. **trigger** — the attacker's timed access observes a correct
   prediction (fast, bit 0) or a mis/no prediction (slow, bit 1).

The attacker calibrates its decision threshold by running the same
code against its *own* copy of the library with known bits — exactly
what a real attacker can do — and then decodes the victim's bits from
the per-iteration timings (the bands of Figure 7).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.channels import ThresholdDecoder
from repro.crypto.compile import RsaLayout, victim_iteration_program
from repro.crypto.mpi import Mpi
from repro.crypto.powm import exponent_bits
from repro.errors import CryptoError
from repro.memory.hierarchy import MemoryConfig, MemorySystem
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import Core
from repro.stats.bandwidth import (
    modelled_cycles,
    success_rate,
    transmission_rate_kbps,
)
from repro.vp.lvp import LastValuePredictor
from repro.workloads import gadgets


#: Calibration iterations per known bit value (Figure 7's bands).
CALIBRATION_RUNS = 8


@dataclass
class RsaAttackConfig:
    """Configuration of the RSA exponent-recovery attack.

    The default memory model is the *quiet* (low-jitter) configuration:
    Figure 7's per-iteration observations form two tight bands, which
    corresponds to a lightly loaded machine; the attacker can always
    repeat noisy runs (majority voting is evaluated separately in
    :mod:`repro.crypto.keyrec`).
    """

    confidence: int = 4
    chain_length: int = 60
    seed: int = 0
    layout: RsaLayout = field(default_factory=RsaLayout)
    memory_config: Optional[MemoryConfig] = None
    core_config: Optional[CoreConfig] = None


@dataclass
class RsaAttackResult:
    """Outcome of one exponent-recovery run."""

    observations: List[float]
    decoded_bits: List[int]
    true_bits: List[int]
    threshold: float
    success_rate: float
    transmission_rate_kbps: float

    @property
    def recovered_exponent(self) -> int:
        """The exponent the attacker reconstructed."""
        value = 0
        for bit in self.decoded_bits:
            value = (value << 1) | bit
        return value


class RsaVpAttack:
    """Runs the per-iteration Train + Test attack over a whole exponent."""

    def __init__(self, config: Optional[RsaAttackConfig] = None) -> None:
        self.config = config or RsaAttackConfig()

    # ------------------------------------------------------------------
    def _fresh_core(self, seed: int) -> Core:
        memory_config = self.config.memory_config or MemoryConfig()
        memory_config = MemoryConfig(
            **{**memory_config.__dict__, "seed": seed}
        )
        memory = MemorySystem(memory_config)
        predictor = LastValuePredictor(
            confidence_threshold=self.config.confidence
        )
        return Core(
            memory, predictor, self.config.core_config or CoreConfig()
        )

    def _train_program(self):
        layout = self.config.layout
        return gadgets.train_program(
            "rsa-train", layout.attacker_pid, layout.attacker_base_pc,
            layout.swap_pc, layout.attacker_addr, self.config.confidence,
        )

    def _trigger_program(self):
        layout = self.config.layout
        return gadgets.timed_trigger_program(
            "rsa-trigger", layout.attacker_pid, layout.attacker_base_pc,
            layout.swap_pc, layout.attacker_addr, self.config.chain_length,
        )

    def observe_iteration(self, core: Core, e_bit: int, iteration: int) -> float:
        """Train, run one victim iteration, trigger; returns the timing."""
        core.run(self._train_program())
        core.run(victim_iteration_program(
            e_bit, self.config.layout, iteration=iteration
        ))
        result = core.run(self._trigger_program())
        return float(result.rdtsc_delta())

    # ------------------------------------------------------------------
    def calibrate(self, core: Core) -> ThresholdDecoder:
        """Derive the decode threshold from attacker-known bits.

        The attacker replays the victim code path with bits it chose
        itself (it has the library's source, per the threat model).
        """
        fast: List[float] = []
        slow: List[float] = []
        for run in range(CALIBRATION_RUNS):
            fast.append(self.observe_iteration(core, 0, iteration=-1))
            slow.append(self.observe_iteration(core, 1, iteration=-1))
        return ThresholdDecoder.calibrate(fast, slow, slow_means_one=True)

    def run(self, exponent: Mpi) -> RsaAttackResult:
        """Recover every bit of ``exponent`` from one pass.

        Raises:
            CryptoError: For a zero exponent (no bits to leak).
        """
        bits = exponent_bits(exponent)
        if not bits:
            raise CryptoError("exponent must be non-zero")
        core = self._fresh_core(self.config.seed)
        decoder = self.calibrate(core)
        observations: List[float] = []
        start_cycle = core.cycle
        for index, e_bit in enumerate(bits):
            observations.append(self.observe_iteration(core, e_bit, index))
        sim_cycles = core.cycle - start_cycle
        decoded = [decoder.decode(value) for value in observations]
        # Three hand-offs per bit (train / victim / trigger) plus the
        # per-bit scheduling overhead, charged to rate reporting only.
        overhead = len(bits) * modelled_cycles(3)
        clock = (self.config.core_config or CoreConfig()).clock_ghz
        rate = transmission_rate_kbps(
            len(bits), sim_cycles + overhead, clock
        )
        return RsaAttackResult(
            observations=observations,
            decoded_bits=decoded,
            true_bits=bits,
            threshold=decoder.threshold,
            success_rate=success_rate(decoded, bits),
            transmission_rate_kbps=rate,
        )
