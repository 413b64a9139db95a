"""Memory hierarchy facade: TLB + L1D + L2 + DRAM + backing values.

This is the memory system of Figure 1 ("main caches, TLBs, memory").
The pipeline interacts with it through :class:`MemorySystem`:

* :meth:`MemorySystem.load` returns the loaded value, the total access
  latency, and whether it hit in L1 — an L1 *miss* is what engages the
  load-based Value Prediction System per the paper's threat model.
* Fills can be deferred (``fill=False`` plus a later
  :meth:`MemorySystem.apply_fill`), which is the hook used by the
  D-type (delay side-effects) defense and the InvisiSpec-like baseline:
  a speculative load obtains data and timing without perturbing cache
  state until it is safe to do so.
* :meth:`MemorySystem.flush` implements ``clflush``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace as dc_replace
from typing import Optional

from repro.errors import MemorySystemError
from repro.memory.address import AddressMapper, SharedRegion, line_address
from repro.memory.cache import SetAssociativeCache
from repro.memory.memsys import BackingStore, DramConfig, DramModel
from repro.memory.tlb import Tlb


#: Salts of a machine's two latency streams: under seed ``s`` the L2
#: hit jitter draws from ``Random(s ^ L2_JITTER_SALT)`` and DRAM
#: latency from ``Random(s ^ DRAM_SALT)``.  The lockstep engine seeds
#: each lane's streams with them too.
L2_JITTER_SALT = 0xC0FFEE
DRAM_SALT = 0x33


@dataclass
class MemoryConfig:
    """Configuration of the whole memory hierarchy (latencies in cycles)."""

    line_size: int = 64
    l1_size: int = 32 * 1024
    l1_ways: int = 8
    l1_hit_latency: int = 3
    l2_size: int = 256 * 1024
    l2_ways: int = 8
    l2_hit_latency: int = 14
    l2_jitter: int = 3
    replacement_policy: str = "lru"
    tlb_entries: int = 64
    tlb_page_size: int = 4096
    tlb_walk_latency: int = 24
    dram: DramConfig = field(default_factory=DramConfig)
    flush_latency: int = 8
    store_latency: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("l1_hit_latency", "l2_hit_latency", "flush_latency",
                     "store_latency"):
            if getattr(self, name) < 0:
                raise MemorySystemError(f"{name} must be >= 0")
        if self.l2_jitter < 0:
            raise MemorySystemError("l2_jitter must be >= 0")


@dataclass(frozen=True)
class LoadResult:
    """Outcome of a data load.

    Attributes:
        value: The architectural value read.
        latency: Total cycles until the value is available.
        l1_hit: True if the access hit in the L1 data cache.
        l2_hit: True if the access hit in L2 (only meaningful when
            ``l1_hit`` is False).
        paddr: Physical address, usable with
            :meth:`MemorySystem.apply_fill` for deferred fills.
        tlb_latency: The portion of ``latency`` spent on a TLB walk.
    """

    value: int
    latency: int
    l1_hit: bool
    l2_hit: bool
    paddr: int
    tlb_latency: int = 0


class MemorySystem:
    """The shared memory hierarchy used by all simulated processes."""

    def __init__(
        self,
        config: Optional[MemoryConfig] = None,
        mapper: Optional[AddressMapper] = None,
    ) -> None:
        self.config = config or MemoryConfig()
        self.mapper = mapper or AddressMapper()
        seed = self.config.seed
        self._rng = random.Random(seed ^ L2_JITTER_SALT)
        self.l1 = SetAssociativeCache(
            "L1D",
            self.config.l1_size,
            self.config.l1_ways,
            line_size=self.config.line_size,
            policy=self.config.replacement_policy,
            rng=random.Random(seed ^ 0x11),
        )
        self.l2 = SetAssociativeCache(
            "L2",
            self.config.l2_size,
            self.config.l2_ways,
            line_size=self.config.line_size,
            policy=self.config.replacement_policy,
            rng=random.Random(seed ^ 0x22),
        )
        self.tlb = Tlb(
            entries=self.config.tlb_entries,
            page_size=self.config.tlb_page_size,
            walk_latency=self.config.tlb_walk_latency,
        )
        self.dram = DramModel(
            self.config.dram, rng=random.Random(seed ^ DRAM_SALT)
        )
        self.store_values = BackingStore(default_seed=seed)

    def reset(self, seed: Optional[int] = None) -> None:
        """Restore the hierarchy to its just-constructed state.

        The warm-machine reset protocol: a reused :class:`MemorySystem`
        is reset in place under a (possibly new) seed.  Each cache drops
        its sets (they are created again on their next fill), the TLB
        drops its entries and every RNG is reseeded, so the cost is
        proportional to what the last trial touched.  After
        ``reset(s)`` the hierarchy's observable behaviour —
        hit/miss sequences, replacement decisions, DRAM latency draws,
        default memory values — is byte-identical to
        ``MemorySystem(replace(config, seed=s), mapper)`` with the same
        shared regions already registered.  The address mapper is
        deliberately untouched: translations are stateless and region
        registration is not idempotent.
        """
        if seed is None:
            seed = self.config.seed
        else:
            self.config = dc_replace(self.config, seed=seed)
        self._rng.seed(seed ^ L2_JITTER_SALT)
        self.l1.reset(seed ^ 0x11)
        self.l2.reset(seed ^ 0x22)
        self.tlb.reset()
        self.dram.reset(seed ^ DRAM_SALT)
        self.store_values.reset(seed)

    # ------------------------------------------------------------------
    # Architectural (timing-free) accessors
    # ------------------------------------------------------------------
    def translate(self, pid: int, vaddr: int) -> int:
        """Virtual-to-physical translation (no timing side effects)."""
        return self.mapper.translate(pid, vaddr)

    def read_value(self, pid: int, vaddr: int) -> int:
        """Architectural read without touching caches or TLB."""
        return self.store_values.read(self.translate(pid, vaddr))

    def write_value(self, pid: int, vaddr: int, value: int) -> None:
        """Architectural write without touching caches or TLB."""
        self.store_values.write(self.translate(pid, vaddr), value)

    def add_shared_region(self, base: int, size: int) -> SharedRegion:
        """Expose a virtual range as shared between all processes."""
        return self.mapper.add_shared_region(base, size)

    # ------------------------------------------------------------------
    # Timed accesses
    # ------------------------------------------------------------------
    def load(self, pid: int, vaddr: int, fill: bool = True) -> LoadResult:
        """Perform a timed load.

        Args:
            pid: Issuing process.
            vaddr: Virtual address.
            fill: When False, the access computes value and latency but
                leaves all cache/replacement state untouched (used for
                speculative loads under delayed-side-effect defenses).
        """
        paddr = self.translate(pid, vaddr)
        tlb_latency = self.tlb.access(pid, vaddr) if fill else (
            0 if self.tlb.contains(pid, vaddr) else self.tlb.walk_latency
        )
        line = line_address(paddr, self.config.line_size)
        if fill:
            l1_hit = self.l1.lookup(line)
        else:
            l1_hit = self.l1.contains(line)
        if l1_hit:
            latency = self.config.l1_hit_latency + tlb_latency
            return LoadResult(
                value=self.store_values.read(paddr),
                latency=latency,
                l1_hit=True,
                l2_hit=False,
                paddr=paddr,
                tlb_latency=tlb_latency,
            )
        if fill:
            l2_hit = self.l2.lookup(line)
        else:
            l2_hit = self.l2.contains(line)
        if l2_hit:
            latency = (
                self.config.l1_hit_latency
                + self.config.l2_hit_latency
                + (self._rng.randint(0, self.config.l2_jitter)
                   if self.config.l2_jitter else 0)
                + tlb_latency
            )
        else:
            latency = (
                self.config.l1_hit_latency
                + self.config.l2_hit_latency
                + self.dram.access_latency()
                + tlb_latency
            )
        if fill:
            self.apply_fill(paddr)
        return LoadResult(
            value=self.store_values.read(paddr),
            latency=latency,
            l1_hit=False,
            l2_hit=l2_hit,
            paddr=paddr,
            tlb_latency=tlb_latency,
        )

    def apply_fill(self, paddr: int) -> None:
        """Install the line containing ``paddr`` into L1 and L2."""
        line = line_address(paddr, self.config.line_size)
        self.l2.fill(line)
        self.l1.fill(line)

    def apply_deferred_fill(self, paddr: int, pid: int, vaddr: int) -> None:
        """Apply a fill that was deferred by a defense, TLB included.

        A load issued with ``fill=False`` left *all* microarchitectural
        state untouched — including the TLB.  When the deferred fill is
        finally released, the translation becomes visible too;
        otherwise a warm-vs-cold TLB difference would itself leak (an
        artifact this simulator exposed during development).
        """
        self.tlb.access(pid, vaddr)
        self.apply_fill(paddr)

    def store(self, pid: int, vaddr: int, value: int) -> int:
        """Perform a timed store (write-allocate); returns latency.

        Stores complete into a write buffer from the pipeline's point
        of view, so their visible latency is small; they do allocate
        the line.
        """
        paddr = self.translate(pid, vaddr)
        tlb_latency = self.tlb.access(pid, vaddr)
        self.store_values.write(paddr, value)
        line = line_address(paddr, self.config.line_size)
        hit = self.l1.lookup(line)
        if not hit:
            self.l2.lookup(line)
            self.apply_fill(paddr)
        return self.config.store_latency + tlb_latency

    def flush(self, pid: int, vaddr: int) -> int:
        """Flush the line containing ``vaddr`` from all levels."""
        paddr = self.translate(pid, vaddr)
        line = line_address(paddr, self.config.line_size)
        self.l1.invalidate(line)
        self.l2.invalidate(line)
        return self.config.flush_latency

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    def is_cached(self, pid: int, vaddr: int) -> bool:
        """True if the line holding ``vaddr`` is in L1 or L2 (no side effects)."""
        paddr = self.translate(pid, vaddr)
        line = line_address(paddr, self.config.line_size)
        return self.l1.contains(line) or self.l2.contains(line)

    def reset_stats(self) -> None:
        """Zero all hit/miss counters (cache contents are preserved)."""
        self.l1.stats.reset()
        self.l2.stats.reset()
        self.tlb.stats.reset()
