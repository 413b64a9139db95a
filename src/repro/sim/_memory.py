"""Lane-private memory: one shared hierarchy, and what only some lanes hold.

Every lane runs the same access sequence, so the caches, TLB and
backing store are kept once, in a real
:class:`~repro.memory.hierarchy.MemorySystem`; only the latency draws
and the backing store's defaults are per lane.  Two things make memory
lane-dependent, and both stay in one machine:

* **Lane-private lines.**  An access that runs in some lanes only, or
  at lane-varying addresses, fills lines (and TLB pages) that only some
  lanes hold.  A :class:`_Level` overlay per structure keeps each such
  line's lane mask, so later walks hit or miss per lane, and only the
  lanes that miss draw L2 jitter or DRAM latency — each lane's draws
  stay aligned with its scalar machine.  A set such an access touched
  no longer has one recency order across lanes, so a fill that would
  evict from it diverges.
* **Deferred fills are an event queue.**  Under the D defense a
  speculative load's fill waits for its speculation source's verify
  cycle; under InvisiSpec every load's fill waits for its retire
  cycle.  Events apply before every later structural access, in each
  lane whose issue is past the event (lane-private while other lanes
  still wait; a cross-lane reorder of two events diverges).

An access every lane makes alike, to sets every lane agrees on, takes
the shared walk, which touches no overlay.  The per-lane walk is exact
for it too, but routing every access through it made the defense
matrix 22% slower, so the shared walk stays.
"""

from __future__ import annotations

import random
from typing import (
    Callable, Dict, Hashable, List, Optional, Sequence, Set, Tuple,
)

import numpy as np

from repro.memory.address import line_address
from repro.memory.hierarchy import (
    DRAM_SALT, L2_JITTER_SALT, MemoryConfig, MemorySystem,
)
from repro.memory.memsys import dram_latency
from repro.sim._lanes import (
    _INT64_MIN, _VALUE_MASK, LaneDivergence, _lane_mask, _lanes, _lanes_and,
    _lanes_not,
)

#: SplitMix64 constants, as unsigned 64-bit numpy scalars.
_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_MUL2 = np.uint64(0x94D049BB133111EB)


def _splitmix64_vec(values: np.ndarray) -> np.ndarray:
    """Vectorized :func:`repro.memory.memsys._splitmix64` (uint64 in/out)."""
    with np.errstate(over="ignore"):
        v = (values + _SM_GAMMA).astype(np.uint64)
        v = ((v ^ (v >> np.uint64(30))) * _SM_MUL1).astype(np.uint64)
        v = ((v ^ (v >> np.uint64(27))) * _SM_MUL2).astype(np.uint64)
        return v ^ (v >> np.uint64(31))


class _FillEvent:
    """A cache/TLB fill deferred to a future per-lane cycle vector.

    ``lanes`` is the lane set still waiting for it.
    """

    __slots__ = ("cycle", "paddr", "pid", "vaddr", "lanes")

    def __init__(
        self, cycle: np.ndarray, paddr: int, pid: int, vaddr: int,
        lanes: object,
    ) -> None:
        self.cycle = cycle
        self.paddr = paddr
        self.pid = pid
        self.vaddr = vaddr
        self.lanes = lanes


class _Level:
    """One shared cache (or the TLB) and the entries only some lanes hold.

    The shared structure holds what every lane holds; ``private`` maps a
    line (or page) present in some lanes only to its lane mask.  A set
    that a lane-dependent access touched goes into ``sets``: its shared
    recency order no longer speaks for every lane, so later accesses to
    it take the per-lane path and a fill that would evict from it
    diverges.  The hooks give the shared structure's presence test,
    recency touch, fill, set of a key, valid entries in that set, and
    associativity.
    """

    __slots__ = (
        "name", "lanes", "ways", "private", "sets",
        "_contains", "_touch", "_fill", "_slot", "_used",
    )

    def __init__(
        self, name: str, lanes: int, ways: int,
        contains: Callable[[Hashable], bool],
        touch: Callable[[Hashable], object],
        fill: Callable[[Hashable], object],
        slot: Callable[[Hashable], Hashable],
        used: Callable[[Hashable], int],
    ) -> None:
        self.name = name
        self.lanes = lanes
        self.ways = ways
        self.private: Dict[Hashable, np.ndarray] = {}
        self.sets: Set[Hashable] = set()
        self._contains = contains
        self._touch = touch
        self._fill = fill
        self._slot = slot
        self._used = used

    def clean(self, key: Hashable) -> bool:
        """True while every lane agrees on ``key``'s set."""
        return not self.sets or self._slot(key) not in self.sets

    def present(self, key: Hashable) -> np.ndarray:
        """The lanes that hold ``key``."""
        if self._contains(key):
            return np.ones(self.lanes, dtype=bool)
        mask = self.private.get(key)
        return np.zeros(self.lanes, dtype=bool) if mask is None else mask

    def touch(self, key: Hashable, lanes: np.ndarray) -> None:
        """A hit's recency update in ``lanes`` (which all hold ``key``)."""
        if not lanes.any():
            return
        slot = self._slot(key)
        if lanes.all() and slot not in self.sets:
            self._touch(key)
        else:
            self.sets.add(slot)

    def fill(self, key: Hashable, lanes: np.ndarray) -> None:
        """Install ``key`` in ``lanes``; where present it only refreshes."""
        if not lanes.any():
            return
        slot = self._slot(key)
        if lanes.all() and slot not in self.sets:
            # Every lane alike: the shared structure's fill is exact,
            # eviction included.
            self._fill(key)
            return
        self.sets.add(slot)
        need = lanes & ~self.present(key)
        if not need.any():
            return
        held = np.full(self.lanes, self._used(key), dtype=np.int64)
        for other, mask in self.private.items():
            if self._slot(other) == slot:
                held += mask
        if bool(np.any(held[need] >= self.ways)):
            raise LaneDivergence(
                f"a lane-private fill would evict from {self.name}"
            )
        mask = need | self.private.get(key, False)
        if mask.all():
            # Every lane holds it now; the shared set has a free way
            # (the check above), so the shared fill evicts nothing.
            self.private.pop(key, None)
            self._fill(key)
        else:
            self.private[key] = mask

    def discard(self, key: Hashable) -> None:
        """Forget ``key`` in every lane (the shared side is invalidated
        by the caller)."""
        self.private.pop(key, None)


class _LaneMemory:
    """A lockstep machine's memory: the shared hierarchy ``mem``, the
    lane-private overlays on it, the per-lane draws and defaults, and
    the deferred-fill queue.

    Lane ``k`` models a fresh scalar machine reset under ``seed_k``: it
    draws L2 jitter from ``Random(seed_k ^ L2_JITTER_SALT)`` and DRAM
    latency from ``Random(seed_k ^ DRAM_SALT)``, and an unwritten
    address reads ``splitmix64(paddr ^ seed_k)``.
    """

    __slots__ = (
        "mem", "lanes", "_tlb", "_l1", "_l2", "_rng_jitter", "_rng_dram",
        "_default_seeds", "_events",
    )

    def __init__(
        self, config: MemoryConfig, shared_region: Tuple[int, int],
        lane_seeds: Sequence[int],
    ) -> None:
        self.lanes = len(lane_seeds)
        self.mem = mem = MemorySystem(config)
        mem.add_shared_region(*shared_region)
        self._rng_jitter = [
            random.Random(s ^ L2_JITTER_SALT) for s in lane_seeds
        ]
        self._rng_dram = [random.Random(s ^ DRAM_SALT) for s in lane_seeds]
        self._default_seeds = np.array(
            [s & _VALUE_MASK for s in lane_seeds], dtype=np.uint64
        )
        self._events: List[_FillEvent] = []
        # The lane-private overlays: TLB pages keyed (pid, page base),
        # cache lines keyed by line address.
        tlb = mem.tlb
        self._tlb = _Level(
            "the TLB", self.lanes, tlb.entries,
            contains=lambda page: tlb.contains(*page),
            touch=lambda page: tlb.access(*page),
            fill=lambda page: tlb.access(*page),
            slot=lambda page: 0,
            used=lambda page: tlb.occupancy(),
        )
        self._l1, self._l2 = (
            _Level(
                cache.name, self.lanes, cache.ways,
                contains=cache.contains, touch=cache.lookup,
                fill=cache.fill, slot=cache.set_index,
                used=cache.set_occupancy,
            )
            for cache in (mem.l1, mem.l2)
        )

    # -- values and draws -----------------------------------------------
    def value_at(self, paddr: object) -> object:
        """Architectural value at ``paddr`` (an int or a lane vector):
        shared write or lane default."""
        store = self.mem.store_values
        if isinstance(paddr, np.ndarray):
            values = _splitmix64_vec(paddr ^ self._default_seeds)
            for address in np.unique(paddr).tolist():
                if store.is_written(address):
                    values[paddr == address] = store.read(address)
            return values
        if store.is_written(paddr):  # type: ignore[arg-type]
            return store.read(paddr)  # type: ignore[arg-type]
        return _splitmix64_vec(np.uint64(paddr) ^ self._default_seeds)

    def _jitter(self, lanes: Sequence[int]) -> np.ndarray:
        """An L2 hit's jitter in ``lanes``, each from its own stream."""
        jitter = self.mem.config.l2_jitter
        return np.fromiter(
            (self._rng_jitter[lane].randint(0, jitter) for lane in lanes),
            dtype=np.int64, count=len(lanes),
        )

    def _dram(self, lanes: Sequence[int]) -> np.ndarray:
        """A DRAM access's latency in ``lanes``, each from its own stream."""
        config = self.mem.config.dram
        return np.fromiter(
            (dram_latency(config, self._rng_dram[lane]) for lane in lanes),
            dtype=np.int64, count=len(lanes),
        )

    # -- walks ------------------------------------------------------------
    def walk(
        self, pid: int, vaddr: object, lanes: object, fill: object,
    ) -> Tuple[object, object, object]:
        """The timed-load walk of ``MemorySystem.load`` in ``lanes``.

        ``vaddr`` is an int or a lane vector; ``fill`` is the lane set
        that takes the fill path, and the other lanes of ``lanes`` take
        the ``fill=False`` one.  Returns ``(latency, l1_hit, paddr)``:
        the hit is a lane set, the latency and the physical address an
        int or a lane vector (placeholders outside ``lanes``).
        """
        if (
            lanes is True and isinstance(fill, bool)
            and not isinstance(vaddr, np.ndarray)
            and self._shared_only(pid, vaddr)  # type: ignore[arg-type]
        ):
            return self._shared_walk(pid, vaddr, fill)  # type: ignore[arg-type]
        count = self.lanes
        walking = _lane_mask(lanes, count)
        filling = walking & _lane_mask(fill, count)
        addrs = np.broadcast_to(np.asarray(vaddr, dtype=np.uint64), (count,))
        latency = np.zeros(count, dtype=np.int64)
        hit = np.zeros(count, dtype=bool)
        paddrs = np.zeros(count, dtype=np.uint64)
        for address in np.unique(addrs[walking]).tolist():
            group = walking & (addrs == address)
            paddr = self.mem.translate(pid, address)
            self._walk_lanes(
                pid, address, paddr, group, filling & group, latency, hit,
            )
            paddrs[group] = paddr
        if not isinstance(vaddr, np.ndarray):
            return latency, _lanes(hit), paddr
        return latency, _lanes(hit), paddrs

    def _shared_walk(
        self, pid: int, vaddr: int, fill: bool,
    ) -> Tuple[object, bool, int]:
        """``MemorySystem.load`` stage for stage, in every lane alike.

        Translate, TLB, L1, L2, jitter or DRAM draw, fill — against the
        *real* shared structures, so replacement state evolves exactly
        as one scalar trial's would; ``fill=False`` looks up without
        touching recency or installing anything, but draws the same.
        The latency is an int (L1 hit) or a lane vector.
        """
        mem = self.mem
        config = mem.config
        paddr = mem.translate(pid, vaddr)
        tlb_latency = mem.tlb.access(pid, vaddr) if fill else (
            0 if mem.tlb.contains(pid, vaddr) else mem.tlb.walk_latency
        )
        line = line_address(paddr, config.line_size)
        l1_hit = mem.l1.lookup(line) if fill else mem.l1.contains(line)
        if l1_hit:
            return config.l1_hit_latency + tlb_latency, True, paddr
        l2_hit = mem.l2.lookup(line) if fill else mem.l2.contains(line)
        latency: object = (
            config.l1_hit_latency + config.l2_hit_latency + tlb_latency
        )
        every = range(self.lanes)
        if l2_hit:
            if config.l2_jitter:
                latency = latency + self._jitter(every)
        else:
            latency = latency + self._dram(every)
        if fill:
            mem.apply_fill(paddr)
        return latency, False, paddr

    def _walk_lanes(
        self, pid: int, vaddr: int, paddr: int, lanes: np.ndarray,
        fill: np.ndarray, latency: np.ndarray, hit: np.ndarray,
    ) -> None:
        """One address's walk in ``lanes``, stage for stage like
        ``MemorySystem.load``; writes their latency and L1 hit."""
        config = self.mem.config
        page = self._page(pid, vaddr)
        tlb_hit = self._tlb.present(page)
        self._tlb.fill(page, fill)
        line = line_address(paddr, config.line_size)
        l1_hit = self._l1.present(line) & lanes
        self._l1.touch(line, fill & l1_hit)
        miss = lanes & ~l1_hit
        l2_hit = self._l2.present(line) & miss
        self._l2.touch(line, fill & l2_hit)
        latency[lanes] = config.l1_hit_latency + np.where(
            tlb_hit[lanes], 0, self.mem.tlb.walk_latency
        )
        latency[miss] += config.l2_hit_latency
        # Each lane draws exactly where its scalar machine would.
        if config.l2_jitter:
            hits = np.flatnonzero(l2_hit).tolist()
            latency[hits] += self._jitter(hits)
        misses = np.flatnonzero(miss & ~l2_hit).tolist()
        latency[misses] += self._dram(misses)
        hit |= l1_hit
        self._l2.fill(line, fill & miss)
        self._l1.fill(line, fill & miss)

    def _page(self, pid: int, vaddr: int) -> Tuple[int, int]:
        size = self.mem.tlb.page_size
        return pid, vaddr - vaddr % size

    def _shared_only(
        self, pid: int, vaddr: int, paddr: Optional[int] = None,
    ) -> bool:
        """True while every lane agrees on the TLB page and both cache
        sets an access to ``vaddr`` touches."""
        if not (self._tlb.sets or self._l1.sets or self._l2.sets):
            return True
        if paddr is None:
            paddr = self.mem.translate(pid, vaddr)
        line = line_address(paddr, self.mem.config.line_size)
        return (
            self._tlb.clean(self._page(pid, vaddr))
            and self._l1.clean(line) and self._l2.clean(line)
        )

    def flush(self, pid: int, vaddr: int) -> None:
        """``MemorySystem.flush`` in every lane, lane-private lines too."""
        mem = self.mem
        mem.flush(pid, vaddr)
        line = line_address(mem.translate(pid, vaddr), mem.config.line_size)
        self._l1.discard(line)
        self._l2.discard(line)

    # -- deferred fills -------------------------------------------------
    def schedule_fill(
        self, cycle: np.ndarray, paddr: int, pid: int, vaddr: int,
        lanes: object = True,
    ) -> None:
        self._events.append(_FillEvent(cycle, paddr, pid, vaddr, lanes))

    def _deferred_fill(self, event: _FillEvent, lanes: object) -> None:
        """``MemorySystem.apply_deferred_fill`` in ``lanes``."""
        if lanes is True and self._shared_only(
            event.pid, event.vaddr, event.paddr
        ):
            self.mem.apply_deferred_fill(event.paddr, event.pid, event.vaddr)
            return
        mask = _lane_mask(lanes, self.lanes)
        self._tlb.fill(self._page(event.pid, event.vaddr), mask)
        line = line_address(event.paddr, self.mem.config.line_size)
        self._l2.fill(line, mask)
        self._l1.fill(line, mask)

    def apply_fill_events(
        self, issue: Optional[np.ndarray], lanes: object = True,
    ) -> None:
        """Apply every due deferred fill before an access at ``issue``.

        A fill is due in each accessing lane (of ``lanes``) that still
        waits for it and whose issue is past its cycle (verify and
        commit both run before issue within a cycle, so equality
        counts).  It lands in those lanes — lane-private where the
        others keep waiting — so each lane fills between the same two
        of its accesses as its scalar machine.  Two due fills whose
        order crosses in some lane diverge.  ``issue=None`` (end of
        run) applies everything.
        """
        events = self._events
        if not events:
            return
        remaining: List[_FillEvent] = []
        last_applied: Optional[np.ndarray] = None
        for event in events:
            due = _lanes_and(event.lanes, lanes)
            if issue is not None and due is not False:
                due = _lanes_and(due, _lanes(event.cycle <= issue))
            if due is False:
                remaining.append(event)
                continue
            if last_applied is not None:
                behind = last_applied > event.cycle
                if due is not True:
                    behind &= due  # type: ignore[operator]
                if bool(np.any(behind)):
                    raise LaneDivergence(
                        "deferred fills reorder across lanes"
                    )
            self._deferred_fill(event, due)
            if due is True:
                last_applied = event.cycle
            else:
                last_applied = np.where(
                    due, event.cycle,  # type: ignore[arg-type]
                    _INT64_MIN if last_applied is None else last_applied,
                )
            event.lanes = _lanes_and(event.lanes, _lanes_not(due))
            if event.lanes is not False:
                remaining.append(event)
        self._events = remaining
