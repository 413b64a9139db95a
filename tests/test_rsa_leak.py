"""End-to-end tests for the RSA exponent-leak case study (Fig. 6/7)."""

import pytest

from repro.crypto.compile import RsaLayout, victim_iteration_program
from repro.crypto.leak import RsaAttackConfig, RsaVpAttack
from repro.crypto.mpi import Mpi
from repro.errors import CryptoError


class TestVictimPrograms:
    def test_bit1_contains_pinned_swap_load(self):
        layout = RsaLayout()
        program = victim_iteration_program(1, layout)
        assert layout.swap_pc in program.pcs_tagged("swap-load")

    def test_bit0_has_no_swap_block(self):
        layout = RsaLayout()
        program = victim_iteration_program(0, layout)
        assert program.pcs_tagged("swap-load") == []

    def test_unconditional_work_identical(self):
        # The FLUSH+RELOAD mitigation: square+multiply traffic does
        # not depend on the bit.
        layout = RsaLayout()
        with_bit = victim_iteration_program(1, layout)
        without = victim_iteration_program(0, layout)
        def limb_loads(program):
            return len(program.pcs_tagged("limb-load"))

        def mults(program):
            return sum(
                1 for placed in program.instructions
                if placed.instruction.tag == "mul-work"
            )

        assert limb_loads(with_bit) == limb_loads(without)
        assert mults(with_bit) == mults(without)

    def test_bad_bit_rejected(self):
        with pytest.raises(CryptoError):
            victim_iteration_program(2, RsaLayout())


class TestEndToEndLeak:
    def test_quiet_machine_recovers_short_exponent(self):
        exponent = Mpi.from_int(0b1011001110001101)
        attack = RsaVpAttack(RsaAttackConfig(seed=5))
        result = attack.run(exponent)
        assert result.success_rate >= 0.9
        assert len(result.decoded_bits) == 16

    def test_observation_bands_separate(self):
        exponent = Mpi.from_int(0b1100101011110010)
        result = RsaVpAttack(RsaAttackConfig(seed=6)).run(exponent)
        ones = [
            obs for obs, bit in zip(result.observations, result.true_bits)
            if bit == 1
        ]
        zeros = [
            obs for obs, bit in zip(result.observations, result.true_bits)
            if bit == 0
        ]
        assert sum(ones) / len(ones) > sum(zeros) / len(zeros)

    def test_recovered_exponent_property(self):
        exponent_value = 0b10110011
        result = RsaVpAttack(RsaAttackConfig(seed=5)).run(
            Mpi.from_int(exponent_value)
        )
        if result.success_rate == 1.0:
            assert result.recovered_exponent == exponent_value

    def test_transmission_rate_in_kbps_band(self):
        result = RsaVpAttack(RsaAttackConfig(seed=5)).run(
            Mpi.from_int(0b101101)
        )
        # Paper: 9.65 Kbps; we target the same single-digit band.
        assert 1.0 < result.transmission_rate_kbps < 20.0

    def test_zero_exponent_rejected(self):
        with pytest.raises(CryptoError):
            RsaVpAttack().run(Mpi.from_int(0))
