"""Extension: covert-channel capacity of the value predictor.

The paper reports per-attack transmission rates (Table III) for
single-bit leaks.  This bench measures the VPS as an engineered
*covert transport*: bytes per trigger (a 256-line probe array decodes
8 bits per Fill Up round), raw simulated-cycle throughput, and the
symbol error rate as memory noise grows.
"""

import pytest

from repro.core.covert import CovertChannel, CovertChannelConfig
from repro.memory.hierarchy import MemoryConfig
from repro.memory.memsys import DramConfig

from tests.conftest import deterministic_memory_config

pytestmark = pytest.mark.slow  # full regeneration; excluded from the quick CI pass

MESSAGE = bytes(range(0, 256, 16)) + b"value-predictors-leak"


def _evaluate():
    rows = []
    configs = [
        ("quiet", deterministic_memory_config()),
        ("jitter=60", MemoryConfig(
            dram=DramConfig(base_latency=180, jitter=60,
                            tail_probability=0.02, tail_extra=80),
            seed=5,
        )),
        ("jitter=150", MemoryConfig(
            dram=DramConfig(base_latency=180, jitter=150,
                            tail_probability=0.04, tail_extra=120),
            seed=5,
        )),
    ]
    for label, memory_config in configs:
        channel = CovertChannel(CovertChannelConfig(
            memory_config=memory_config,
        ))
        report = channel.transmit_bytes(MESSAGE)
        rows.append((
            label,
            report.error_rate,
            report.raw_rate_kbps(),
            report.sim_cycles // len(MESSAGE),
        ))
    return rows


def test_covert_channel_capacity():
    rows = _evaluate()
    print("\nCovert-channel capacity (8 bits per Fill Up round, "
          f"{len(MESSAGE)}-byte message):")
    print(f"{'memory':12s} {'sym. err.':>10s} {'raw Kbps':>10s} "
          f"{'cycles/byte':>12s}")
    for label, error_rate, kbps, cycles_per_byte in rows:
        print(f"{label:12s} {error_rate:10.3f} {kbps:10.1f} "
              f"{cycles_per_byte:12d}")

    quiet, mid, noisy = rows
    assert quiet[1] == 0.0            # error-free on a quiet machine
    assert quiet[2] > 50.0            # far above the 1-bit attack rates
    assert noisy[1] <= 0.5            # still mostly decodable
    assert quiet[1] <= mid[1] <= 0.5  # errors grow with noise
