"""Figure 7: the RSA exponent leak, one observation per iteration.

Paper values: two bands (~290 vs ~330 cycles), 95.7 % bit success over
60 runs, 9.65 Kbps.  The reproduction targets the same shape: two
separated bands, success >= 90 %, and a single-digit-Kbps rate.
"""

from repro.harness import figure7_report, figure7_result


def test_figure7_rsa_exponent_leak():
    result = figure7_result(seed=7)
    print("\n" + figure7_report(result))

    assert len(result.true_bits) == 60  # 60 iterations, as in the paper
    assert result.success_rate >= 0.90
    # The two bands must be separated in the right direction: swap
    # iterations (bit 1) disturb the attacker's trained entry -> slow.
    ones = [o for o, b in zip(result.observations, result.true_bits) if b]
    zeros = [o for o, b in zip(result.observations, result.true_bits) if not b]
    assert sum(ones) / len(ones) > sum(zeros) / len(zeros) + 10
    # Single-digit-Kbps transmission band (paper: 9.65 Kbps).
    assert 1.0 < result.transmission_rate_kbps < 20.0
