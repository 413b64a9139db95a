"""Multi-precision integers (MPI), libgcrypt-style.

A small limb-based bignum supporting exactly what
``_gcry_mpi_powm`` needs: comparison, addition, subtraction,
schoolbook multiplication and squaring, and modular reduction.  The
limb layout is little-endian with 16-bit limbs (small limbs keep the
per-operation load counts interesting for the attack model while the
arithmetic stays honest).

The arithmetic is implemented at limb granularity — the values the
paper's attack extracts are what these limb arrays hold — and verified
against Python's native integers in the test suite.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.errors import CryptoError

#: Bits per limb.
LIMB_BITS = 16

#: Limb modulus.
LIMB_BASE = 1 << LIMB_BITS

#: Limb mask.
LIMB_MASK = LIMB_BASE - 1


class Mpi:
    """An arbitrary-precision non-negative integer with 16-bit limbs.

    Instances are immutable; arithmetic returns new objects.  The
    public API mirrors the subset of libgcrypt's ``mpi`` used by
    modular exponentiation.
    """

    __slots__ = ("_limbs",)

    def __init__(self, limbs: Iterable[int] = ()) -> None:
        normalized: List[int] = []
        for limb in limbs:
            if not 0 <= limb < LIMB_BASE:
                raise CryptoError(f"limb {limb:#x} out of range")
            normalized.append(limb)
        while normalized and normalized[-1] == 0:
            normalized.pop()
        self._limbs: Tuple[int, ...] = tuple(normalized)

    # ------------------------------------------------------------------
    # Construction / conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_int(cls, value: int) -> "Mpi":
        """Build an MPI from a non-negative Python integer."""
        if value < 0:
            raise CryptoError("MPI values are non-negative")
        limbs = []
        while value:
            limbs.append(value & LIMB_MASK)
            value >>= LIMB_BITS
        return cls(limbs)

    def to_int(self) -> int:
        """The Python integer this MPI represents."""
        value = 0
        for limb in reversed(self._limbs):
            value = (value << LIMB_BITS) | limb
        return value

    @property
    def limbs(self) -> Tuple[int, ...]:
        """Little-endian limb tuple (no trailing zeros)."""
        return self._limbs

    def bit_length(self) -> int:
        """Number of significant bits."""
        if not self._limbs:
            return 0
        return (len(self._limbs) - 1) * LIMB_BITS + self._limbs[-1].bit_length()

    def is_zero(self) -> bool:
        """True when the value is zero."""
        return not self._limbs

    # ------------------------------------------------------------------
    # Comparison
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mpi):
            return NotImplemented
        return self._limbs == other._limbs

    def __hash__(self) -> int:
        return hash(self._limbs)

    def compare(self, other: "Mpi") -> int:
        """-1, 0 or 1 as self <, ==, > other."""
        if len(self._limbs) != len(other._limbs):
            return -1 if len(self._limbs) < len(other._limbs) else 1
        for mine, theirs in zip(reversed(self._limbs), reversed(other._limbs)):
            if mine != theirs:
                return -1 if mine < theirs else 1
        return 0

    def __lt__(self, other: "Mpi") -> bool:
        return self.compare(other) < 0

    # ------------------------------------------------------------------
    # Arithmetic (limb level)
    # ------------------------------------------------------------------
    def add(self, other: "Mpi") -> "Mpi":
        """Limb-wise addition with carry propagation."""
        result: List[int] = []
        carry = 0
        longer = max(len(self._limbs), len(other._limbs))
        for index in range(longer):
            total = carry
            if index < len(self._limbs):
                total += self._limbs[index]
            if index < len(other._limbs):
                total += other._limbs[index]
            result.append(total & LIMB_MASK)
            carry = total >> LIMB_BITS
        if carry:
            result.append(carry)
        return Mpi(result)

    def sub(self, other: "Mpi") -> "Mpi":
        """Limb-wise subtraction (requires self >= other)."""
        if self.compare(other) < 0:
            raise CryptoError("MPI subtraction would underflow")
        result: List[int] = []
        borrow = 0
        for index in range(len(self._limbs)):
            total = self._limbs[index] - borrow
            if index < len(other._limbs):
                total -= other._limbs[index]
            if total < 0:
                total += LIMB_BASE
                borrow = 1
            else:
                borrow = 0
            result.append(total)
        return Mpi(result)

    def mul(self, other: "Mpi") -> "Mpi":
        """Schoolbook multiplication (``_gcry_mpih_mul``)."""
        if self.is_zero() or other.is_zero():
            return Mpi()
        result = [0] * (len(self._limbs) + len(other._limbs))
        for i, a in enumerate(self._limbs):
            carry = 0
            for j, b in enumerate(other._limbs):
                total = result[i + j] + a * b + carry
                result[i + j] = total & LIMB_MASK
                carry = total >> LIMB_BITS
            result[i + len(other._limbs)] += carry
        return Mpi(result)

    def sqr(self) -> "Mpi":
        """Squaring (``_gcry_mpih_sqr_n_basecase``).

        Uses the symmetric-term optimisation (each cross product
        counted once, then doubled) rather than delegating to
        :meth:`mul`.
        """
        if self.is_zero():
            return Mpi()
        n = len(self._limbs)
        result = [0] * (2 * n)
        # Cross terms a_i * a_j (i < j), accumulated once.
        for i in range(n):
            carry = 0
            for j in range(i + 1, n):
                total = result[i + j] + self._limbs[i] * self._limbs[j] + carry
                result[i + j] = total & LIMB_MASK
                carry = total >> LIMB_BITS
            result[i + n] += carry
        # Double the cross terms.
        carry = 0
        for index in range(2 * n):
            total = result[index] * 2 + carry
            result[index] = total & LIMB_MASK
            carry = total >> LIMB_BITS
        # Add the diagonal squares.
        carry = 0
        for i in range(n):
            square = self._limbs[i] * self._limbs[i]
            low = 2 * i
            total = result[low] + (square & LIMB_MASK) + carry
            result[low] = total & LIMB_MASK
            carry = total >> LIMB_BITS
            total = result[low + 1] + (square >> LIMB_BITS) + carry
            result[low + 1] = total & LIMB_MASK
            carry = total >> LIMB_BITS
            offset = low + 2
            while carry and offset < 2 * n:
                total = result[offset] + carry
                result[offset] = total & LIMB_MASK
                carry = total >> LIMB_BITS
                offset += 1
        return Mpi(result)

    def mod(self, modulus: "Mpi") -> "Mpi":
        """Modular reduction by shift-and-subtract long division."""
        if modulus.is_zero():
            raise CryptoError("division by zero modulus")
        if self.compare(modulus) < 0:
            return self
        remainder = Mpi(self._limbs)
        shift = remainder.bit_length() - modulus.bit_length()
        while shift >= 0:
            candidate = modulus.shift_left(shift)
            if remainder.compare(candidate) >= 0:
                remainder = remainder.sub(candidate)
            shift -= 1
        return remainder

    def shift_left(self, bits: int) -> "Mpi":
        """self << bits, at limb granularity where possible."""
        if bits < 0:
            raise CryptoError("negative shift")
        if self.is_zero() or bits == 0:
            return self
        limb_shift, bit_shift = divmod(bits, LIMB_BITS)
        limbs = [0] * limb_shift
        carry = 0
        for limb in self._limbs:
            total = (limb << bit_shift) | carry
            limbs.append(total & LIMB_MASK)
            carry = total >> LIMB_BITS
        if carry:
            limbs.append(carry)
        return Mpi(limbs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Mpi({self.to_int():#x})"


#: The constant one, used as powm's accumulator seed.
ONE = Mpi((1,))
