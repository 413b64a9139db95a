"""A value-predictor covert channel (Fill Up + persistent decode).

The paper frames its attacks as sender/receiver pairs; this module
packages that framing as an actual byte-transport:

* the **sender** trains the shared VPS entry with one data value per
  symbol (``confidence + 1`` accesses, since the entry usually holds
  the previous symbol);
* the **receiver** triggers at the colliding index, letting the
  prediction transiently index a probe array (Figure 4's encode), and
  reloads the array to decode the symbol.

The channel self-calibrates its hit/miss threshold, reports raw
throughput in simulated cycles, and measures symbol error rates —
non-zero on noisy memory configurations, zero on quiet ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.channels import cached_lines, probe_latencies_from_rdtsc
from repro.errors import AttackError
from repro.memory.hierarchy import MemoryConfig, MemorySystem
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import Core
from repro.vp.lvp import LastValuePredictor
from repro.workloads import gadgets
from repro.workloads.gadgets import Layout


@dataclass
class CovertChannelConfig:
    """Configuration of the covert channel.

    Attributes:
        confidence: VPS confidence threshold.
        symbol_space: Number of distinct symbols (= probe lines used);
            256 transmits whole bytes per trigger.
        calibration_probes: Hot/cold probe pairs used to place the
            hit/miss threshold.
        memory_config: Memory model (quiet by default; pass a jittered
            config to study error rates).
        layout: Address/PC plan (the probe array is registered as a
            shared region automatically).
    """

    confidence: int = 4
    symbol_space: int = 256
    calibration_probes: int = 4
    memory_config: Optional[MemoryConfig] = None
    core_config: Optional[CoreConfig] = None
    layout: Layout = field(default_factory=Layout)
    seed: int = 42

    def __post_init__(self) -> None:
        if not 2 <= self.symbol_space <= self.layout.probe_lines:
            raise AttackError(
                f"symbol space must be in [2, {self.layout.probe_lines}]"
            )


@dataclass
class TransmissionReport:
    """Outcome of one :meth:`CovertChannel.transmit` call.

    Attributes:
        sent: The symbols handed to the sender.
        received: The symbols the receiver decoded (-1 = erasure).
        sim_cycles: Simulated cycles consumed end to end.
        hit_threshold: The calibrated decode threshold (cycles).
    """

    sent: List[int]
    received: List[int]
    sim_cycles: int
    hit_threshold: float

    @property
    def symbol_errors(self) -> int:
        """Number of mismatched symbols."""
        return sum(
            1 for s, r in zip(self.sent, self.received) if s != r
        )

    @property
    def error_rate(self) -> float:
        """Fraction of mismatched symbols."""
        if not self.sent:
            return 0.0
        return self.symbol_errors / len(self.sent)

    def raw_rate_kbps(self, clock_ghz: float = 2.0, symbol_bits: int = 8
                      ) -> float:
        """Raw channel rate (no victim-sync overhead), in Kbps."""
        if self.sim_cycles <= 0:
            raise AttackError("cannot compute a rate over zero cycles")
        seconds = self.sim_cycles / (clock_ghz * 1e9)
        return len(self.sent) * symbol_bits / seconds / 1000.0


class CovertChannel:
    """A sender/receiver pair sharing one simulated machine."""

    def __init__(self, config: Optional[CovertChannelConfig] = None) -> None:
        self.config = config or CovertChannelConfig()
        layout = self.config.layout
        memory_config = self.config.memory_config or MemoryConfig(
            seed=self.config.seed
        )
        self.memory = MemorySystem(memory_config)
        self.memory.add_shared_region(
            layout.probe_base, layout.probe_lines * layout.probe_stride
        )
        self.core = Core(
            self.memory,
            LastValuePredictor(confidence_threshold=self.config.confidence),
            self.config.core_config or CoreConfig(),
        )
        self.hit_threshold: Optional[float] = None

    # ------------------------------------------------------------------
    def calibrate(self) -> float:
        """Measure hot and cold probe latencies; set the threshold."""
        layout = self.config.layout
        hot: List[float] = []
        cold: List[float] = []
        calibration_line = self.config.symbol_space - 1
        for index in range(self.config.calibration_probes):
            address = layout.probe_line_addr(calibration_line)
            self.memory.flush(layout.receiver_pid, address)
            cold.append(self._probe_line(calibration_line))
            hot.append(self._probe_line(calibration_line))  # now cached
        self.hit_threshold = (
            (sum(hot) / len(hot)) + (sum(cold) / len(cold))
        ) / 2.0
        return self.hit_threshold

    def _probe_line(self, line: int) -> float:
        layout = self.config.layout
        result = self.core.run(gadgets.probe_program(
            "cc-cal", layout.receiver_pid, layout.probe_base_pc,
            layout, [line],
        ))
        return float(
            probe_latencies_from_rdtsc(result.rdtsc_values, 1)[0]
        )

    # ------------------------------------------------------------------
    def send_symbol(self, symbol: int) -> None:
        """Sender side: train the shared entry with ``symbol``."""
        if not 0 <= symbol < self.config.symbol_space:
            raise AttackError(
                f"symbol {symbol} outside [0, {self.config.symbol_space})"
            )
        layout = self.config.layout
        self.memory.write_value(
            layout.sender_pid, layout.secret_addr, symbol
        )
        self.core.run(gadgets.train_program(
            "cc-send", layout.sender_pid, layout.sender_base_pc,
            layout.collide_pc, layout.secret_addr,
            self.config.confidence + 1,
        ))

    def receive_symbol(self) -> int:
        """Receiver side: trigger, transiently encode, reload, decode.

        Returns the decoded symbol, or -1 when no probe line was hot
        (an erasure).
        """
        if self.hit_threshold is None:
            self.calibrate()
        layout = self.config.layout
        # The receiver's own data maps outside the symbol space, so its
        # replayed (architectural) encode never collides with a symbol.
        self.memory.write_value(
            layout.receiver_pid, layout.receiver_known_addr,
            self.config.layout.probe_lines + 0xFF,
        )
        self.core.run(gadgets.encode_trigger_program(
            "cc-recv", layout.receiver_pid, layout.receiver_base_pc,
            layout.collide_pc, layout.receiver_known_addr, layout,
            flush_lines=list(range(self.config.symbol_space)),
        ))
        probe = self.core.run(gadgets.probe_program(
            "cc-probe", layout.receiver_pid, layout.probe_base_pc,
            layout, list(range(self.config.symbol_space)),
        ))
        latencies = probe_latencies_from_rdtsc(
            probe.rdtsc_values, self.config.symbol_space
        )
        hot = cached_lines(latencies, self.hit_threshold)
        return hot[0] if len(hot) == 1 else (hot[0] if hot else -1)

    # ------------------------------------------------------------------
    def transmit(self, symbols: Sequence[int]) -> TransmissionReport:
        """Send and receive a whole message; returns the report."""
        if not symbols:
            raise AttackError("transmit requires at least one symbol")
        if self.hit_threshold is None:
            self.calibrate()
        start = self.core.cycle
        received: List[int] = []
        for symbol in symbols:
            self.send_symbol(symbol)
            received.append(self.receive_symbol())
        return TransmissionReport(
            sent=list(symbols),
            received=received,
            sim_cycles=self.core.cycle - start,
            hit_threshold=float(self.hit_threshold),
        )

    def transmit_bytes(self, payload: bytes) -> TransmissionReport:
        """Convenience wrapper for byte messages (symbol space >= 256)."""
        if self.config.symbol_space < 256:
            raise AttackError(
                "byte transport needs a symbol space of at least 256"
            )
        return self.transmit(list(payload))
