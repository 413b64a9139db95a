"""Address-space mapping helpers.

The simulator runs multiple processes (sender and receiver) on a
shared memory hierarchy.  Each process uses *virtual* addresses; the
cache hierarchy is indexed by *physical* addresses.  The mapping is
deliberately simple and deterministic:

* Private data: physical address = ``(pid + 1) << PID_SHIFT | vaddr``,
  so different processes never alias in the caches.
* Shared regions (e.g. a shared library or a shared-memory segment):
  any process's virtual range maps to one common physical range, so
  FLUSH+RELOAD across processes works, as the paper's persistent
  channels require.

The Value Prediction System, in contrast, is indexed by *virtual*
addresses (per the paper's threat model, Section II footnote 1),
optionally mixed with the pid — that logic lives in
:mod:`repro.vp.indexing`, not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import MemorySystemError

#: Bit position where the pid is inserted to form private physical addresses.
PID_SHIFT = 48

#: Base of the physical region backing shared segments.
SHARED_PHYS_BASE = 0x7F00_0000_0000


@dataclass(frozen=True)
class SharedRegion:
    """A virtual address range shared by all processes.

    Attributes:
        base: Starting virtual address of the shared range.
        size: Size of the range in bytes.
        phys_base: Physical base address backing the range.
    """

    base: int
    size: int
    phys_base: int

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise MemorySystemError(f"shared region size must be positive, got {self.size}")
        if self.base < 0 or self.phys_base < 0:
            raise MemorySystemError("shared region addresses must be non-negative")

    def contains(self, vaddr: int) -> bool:
        """True when the address falls inside the region."""
        return self.base <= vaddr < self.base + self.size

    def translate(self, vaddr: int) -> int:
        """Physical address for a virtual one inside the region."""
        return self.phys_base + (vaddr - self.base)


class AddressMapper:
    """Translates (pid, virtual address) pairs to physical addresses."""

    def __init__(self) -> None:
        self._shared: List[SharedRegion] = []
        self._next_shared_phys = SHARED_PHYS_BASE

    def add_shared_region(self, base: int, size: int) -> SharedRegion:
        """Register a virtual range as shared among all processes.

        Returns the created :class:`SharedRegion`.

        Raises:
            MemorySystemError: If the range overlaps an existing shared
                region.
        """
        for existing in self._shared:
            if base < existing.base + existing.size and existing.base < base + size:
                raise MemorySystemError(
                    f"shared region [{base:#x}, {base + size:#x}) overlaps "
                    f"existing region at {existing.base:#x}"
                )
        region = SharedRegion(base=base, size=size, phys_base=self._next_shared_phys)
        self._next_shared_phys += _round_up(size, 4096)
        self._shared.append(region)
        return region

    def translate(self, pid: int, vaddr: int) -> int:
        """Translate a virtual address for process ``pid``.

        Raises:
            MemorySystemError: For negative addresses or pids, or virtual
                addresses large enough to collide with the pid field.
        """
        if vaddr < 0:
            raise MemorySystemError(f"negative virtual address {vaddr:#x}")
        if pid < 0:
            raise MemorySystemError(f"negative pid {pid}")
        for region in self._shared:
            if region.contains(vaddr):
                return region.translate(vaddr)
        if vaddr >= (1 << PID_SHIFT) - (1 << 44):
            # Reserve the top of the virtual space so private translations
            # cannot collide with the shared physical window.
            raise MemorySystemError(
                f"virtual address {vaddr:#x} exceeds private address space"
            )
        return ((pid + 1) << PID_SHIFT) | vaddr

    def is_shared(self, vaddr: int) -> bool:
        """True if ``vaddr`` falls in any shared region."""
        return any(region.contains(vaddr) for region in self._shared)


def _round_up(value: int, multiple: int) -> int:
    return ((value + multiple - 1) // multiple) * multiple


def line_address(addr: int, line_size: int) -> int:
    """The base address of the cache line containing ``addr``."""
    return addr - (addr % line_size)


def split_address(addr: int, line_size: int, num_sets: int) -> Tuple[int, int]:
    """Split ``addr`` into (set index, tag) for a set-associative cache."""
    line = addr // line_size
    return line % num_sets, line // num_sets
