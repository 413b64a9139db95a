"""Transmission-rate and success-rate metrics.

Table III reports each attack's transmission rate ("Tran. Rate ...,
or bandwidth") in Kbps, and the RSA case study reports a bit success
rate (95.7 % over 60 runs) and 9.65 Kbps.  Cycles convert to seconds
through the core's nominal clock.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import StatsError

#: Modelled scheduling and synchronisation cost, in cycles, of one
#: trial and of each victim/attacker hand-off within it (the
#: ``sleep()`` calls of Figures 3/4).  Real cross-process attacks are
#: dominated by this overhead, which is why Table III's rates sit in
#: single-digit Kbps.
SYNC_BASE_CYCLES = 190_000
SYNC_PHASE_CYCLES = 25_000

#: Modelled cost, in cycles, of reloading one probe line when the
#: persistent channel's receiver decodes (Figure 4 lines 18-24; the
#: experiment itself only needs the target line's latency).
DECODE_CYCLES_PER_LINE = 120


def modelled_cycles(handoffs: int, decoded_lines: int = 0) -> int:
    """Cycles a trial is charged beyond its simulation.

    ``handoffs`` victim/attacker hand-offs, and ``decoded_lines`` probe
    lines reloaded to decode.  Charged to transmission-rate reporting
    only; it never touches a measured timing distribution.
    """
    return (
        SYNC_BASE_CYCLES
        + SYNC_PHASE_CYCLES * handoffs
        + DECODE_CYCLES_PER_LINE * decoded_lines
    )


def cycles_to_seconds(cycles: float, clock_ghz: float) -> float:
    """Wall-clock seconds spent in ``cycles`` at ``clock_ghz``."""
    if clock_ghz <= 0:
        raise StatsError(f"clock must be positive, got {clock_ghz}")
    if cycles < 0:
        raise StatsError(f"cycles must be non-negative, got {cycles}")
    return cycles / (clock_ghz * 1e9)


def transmission_rate_bps(
    bits: float, cycles: float, clock_ghz: float
) -> float:
    """Bits per second for ``bits`` leaked over ``cycles`` of activity."""
    if bits < 0:
        raise StatsError(f"bits must be non-negative, got {bits}")
    seconds = cycles_to_seconds(cycles, clock_ghz)
    if seconds == 0:
        raise StatsError("cannot compute a rate over zero cycles")
    return bits / seconds


def transmission_rate_kbps(
    bits: float, cycles: float, clock_ghz: float
) -> float:
    """Transmission rate in Kbps (as reported in Table III)."""
    return transmission_rate_bps(bits, cycles, clock_ghz) / 1000.0


def success_rate(observed: Sequence[int], expected: Sequence[int]) -> float:
    """Fraction of positions where ``observed`` matches ``expected``.

    Raises:
        StatsError: On length mismatch or empty sequences.
    """
    if len(observed) != len(expected):
        raise StatsError(
            f"length mismatch: {len(observed)} observed vs "
            f"{len(expected)} expected"
        )
    if not observed:
        raise StatsError("cannot compute a success rate over zero bits")
    matches = sum(1 for o, e in zip(observed, expected) if o == e)
    return matches / len(observed)
