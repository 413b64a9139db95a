"""Core (pipeline) configuration.

Latencies and widths loosely follow a gem5 O3CPU-class core, which is
what the paper's experiments ran on.  Absolute values are not meant to
match the authors' testbed — the reproduction targets the *structure*
of the timing differences (correct prediction < no prediction <
misprediction, separated by the dependent-chain latency and the squash
penalty respectively).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PipelineError


@dataclass
class CoreConfig:
    """Parameters of the out-of-order core.

    Attributes:
        fetch_width: Instructions dispatched into the ROB per cycle.
        issue_width: Maximum instructions issued to ports per cycle.
        commit_width: Maximum instructions retired per cycle.
        rob_size: Reorder-buffer capacity.
        alu_ports: Number of simple-ALU issue ports.
        mul_ports: Number of long-latency (multiply) ports.
        mem_ports: Number of load/store/flush ports.
        alu_latency: Cycles for simple ALU operations.
        mul_latency: Cycles for multiplies/shifts on the long port.
        predict_latency: Cycles between detecting an L1 miss and the
            Value Prediction System's speculative value broadcast.
        squash_penalty: Refetch/redecode delay after a value
            misprediction squash, before dispatch resumes.
        value_prediction: Master enable for the VPS (False = "no VP").
        predict_on_hit: Consult the VPS on cache hits as well — the
            paper's footnote 2 "non load-based VPS", whose attacks can
            be "triggered without causing cache misses".  Implies
            training on hits.  A misprediction on a hit still squashes,
            so the timing-window signal survives even when the
            attacker cannot flush.
        delay_speculative_fills: D-type defense — cache fills of loads
            that depend on an unverified value prediction are buffered
            and only applied once the prediction verifies correct
            (dropped on squash).
        invisispec: InvisiSpec-like baseline — *every* load's fill is
            deferred until the load commits.
        clock_ghz: Nominal clock used only to convert cycles into
            seconds for transmission-rate (Kbps) reporting.
        max_cycles: Safety bound; exceeding it raises
            :class:`~repro.errors.SimulationError`.
    """

    fetch_width: int = 4
    issue_width: int = 4
    commit_width: int = 4
    rob_size: int = 128
    alu_ports: int = 2
    mul_ports: int = 1
    mem_ports: int = 2
    alu_latency: int = 1
    mul_latency: int = 4
    predict_latency: int = 2
    squash_penalty: int = 14
    value_prediction: bool = True
    predict_on_hit: bool = False
    delay_speculative_fills: bool = False
    invisispec: bool = False
    clock_ghz: float = 2.0
    max_cycles: int = 5_000_000

    def __post_init__(self) -> None:
        positive = (
            "fetch_width", "issue_width", "commit_width", "rob_size",
            "alu_ports", "mem_ports", "alu_latency", "mul_latency",
            "max_cycles",
        )
        for name in positive:
            if getattr(self, name) < 1:
                raise PipelineError(f"{name} must be >= 1")
        for name in ("mul_ports", "predict_latency", "squash_penalty"):
            if getattr(self, name) < 0:
                raise PipelineError(f"{name} must be >= 0")
        if self.clock_ghz <= 0:
            raise PipelineError("clock_ghz must be positive")
