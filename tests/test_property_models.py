"""Property-based model-equivalence tests.

Three structural invariants:

* The set-associative cache behaves exactly like an idealised
  reference model (per-set LRU lists) under random access sequences.
* A reset cache or memory hierarchy replays any operation sequence
  exactly like a freshly built one (the warm-machine reset protocol).
* The concrete :class:`LastValuePredictor` agrees with the attack
  model's abstract VPS semantics (:class:`_AbstractVps` in
  :mod:`repro.core.model`) on every train/predict sequence — this ties
  the Section V model directly to the simulated hardware.
"""

import random
from collections import OrderedDict
from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.model import _AbstractVps
from repro.memory.cache import SetAssociativeCache
from repro.memory.hierarchy import MemoryConfig, MemorySystem
from repro.vp.base import AccessKey
from repro.vp.lvp import LastValuePredictor

# ----------------------------------------------------------------------
# Cache vs. reference model
# ----------------------------------------------------------------------

_WAYS = 2
_SETS = 4
_LINE = 64

_cache_op = st.tuples(
    st.sampled_from(["access", "flush", "check"]),
    st.integers(0, 31),  # line number; maps to sets 0..3 with conflicts
)


class _ReferenceCache:
    """Per-set LRU list reference model."""

    def __init__(self) -> None:
        self.sets = [OrderedDict() for _ in range(_SETS)]

    def access(self, line: int) -> None:
        index = line % _SETS
        tag = line // _SETS
        entries = self.sets[index]
        if tag in entries:
            entries.move_to_end(tag)
            return
        entries[tag] = True
        if len(entries) > _WAYS:
            entries.popitem(last=False)

    def flush(self, line: int) -> None:
        self.sets[line % _SETS].pop(line // _SETS, None)

    def contains(self, line: int) -> bool:
        return (line // _SETS) in self.sets[line % _SETS]


@given(ops=st.lists(_cache_op, max_size=120))
@settings(max_examples=80, deadline=None)
def test_cache_matches_reference_lru_model(ops):
    cache = SetAssociativeCache(
        "prop", _SETS * _WAYS * _LINE, _WAYS, line_size=_LINE, policy="lru"
    )
    reference = _ReferenceCache()
    for op, line in ops:
        addr = line * _LINE
        if op == "access":
            if cache.lookup(addr):
                pass
            else:
                cache.fill(addr)
            reference.access(line)
        elif op == "flush":
            cache.invalidate(addr)
            reference.flush(line)
        else:
            assert cache.contains(addr) == reference.contains(line)
    for line in range(32):
        assert cache.contains(line * _LINE) == reference.contains(line)


# ----------------------------------------------------------------------
# Reset == fresh construction
# ----------------------------------------------------------------------

_reset_op = st.tuples(
    st.sampled_from(["fill", "lookup", "invalidate"]),
    st.integers(0, 31),  # line number; sets 0..3, touched in any order
)
_policies = st.sampled_from(["lru", "fifo", "random"])


def _build_cache(policy, shared_rng, seed):
    return SetAssociativeCache(
        "prop", _SETS * _WAYS * _LINE, _WAYS, line_size=_LINE,
        policy=policy, rng=random.Random(seed) if shared_rng else None,
    )


def _replay_cache(cache, ops):
    """Every observable outcome of ``ops`` on ``cache``."""
    outcomes = []
    for op, line in ops:
        outcomes.append(getattr(cache, op)(line * _LINE))
    stats = cache.stats
    return outcomes, cache.resident_lines(), cache.occupancy(), (
        stats.hits, stats.misses, stats.fills, stats.evictions,
        stats.flushes,
    )


# 40 conflicting fills into set 0: random victims from the per-set
# streams of a cache built without a shared RNG.
_CONFLICTS = [("fill", 4 * k) for k in range(40)]


@given(policy=_policies, shared_rng=st.booleans(),
       seed=st.integers(0, 2**16), reset_seed=st.integers(0, 2**16),
       before=st.lists(_reset_op, max_size=60),
       after=st.lists(_reset_op, max_size=60))
@example(policy="random", shared_rng=False, seed=0, reset_seed=0,
         before=_CONFLICTS, after=_CONFLICTS)
@settings(max_examples=120, deadline=None)
def test_cache_reset_replays_like_a_fresh_cache(
    policy, shared_rng, seed, reset_seed, before, after
):
    cache = _build_cache(policy, shared_rng, seed)
    _replay_cache(cache, before)
    cache.reset(reset_seed)
    fresh = _build_cache(policy, shared_rng, reset_seed)
    assert _replay_cache(cache, after) == _replay_cache(fresh, after)


_memory_op = st.tuples(
    st.sampled_from(["load", "peek", "store", "flush"]),
    st.integers(0, 47),  # line number over a 2-set L1 and a 4-set L2
)

# Two-way caches with few sets so short sequences evict at both levels.
_SMALL_MEMORY = MemoryConfig(l1_size=2 * 2 * 64, l1_ways=2,
                             l2_size=4 * 2 * 64, l2_ways=2)


def _replay_memory(memory, ops):
    """Every observable outcome of ``ops`` on ``memory`` (pid 1)."""
    outcomes = []
    for op, line in ops:
        vaddr = line * 64
        if op == "load":
            outcomes.append(memory.load(1, vaddr))
        elif op == "peek":
            outcomes.append(memory.load(1, vaddr, fill=False))
        elif op == "store":
            outcomes.append(memory.store(1, vaddr, line))
        else:
            outcomes.append(memory.flush(1, vaddr))
    return outcomes, memory.l1.resident_lines(), memory.l2.resident_lines()


@given(policy=_policies, seed=st.integers(0, 2**16),
       reset_seed=st.integers(0, 2**16),
       before=st.lists(_memory_op, max_size=60),
       after=st.lists(_memory_op, max_size=60))
@settings(max_examples=60, deadline=None)
def test_memory_reset_replays_like_a_fresh_hierarchy(
    policy, seed, reset_seed, before, after
):
    config = replace(_SMALL_MEMORY, replacement_policy=policy, seed=seed)
    memory = MemorySystem(config)
    _replay_memory(memory, before)
    memory.reset(reset_seed)
    fresh = MemorySystem(replace(config, seed=reset_seed))
    assert _replay_memory(memory, after) == _replay_memory(fresh, after)


# ----------------------------------------------------------------------
# Concrete LVP vs. the attack model's abstract VPS
# ----------------------------------------------------------------------

_vps_event = st.tuples(
    st.integers(0, 3),   # which of 4 indices (PCs)
    st.integers(0, 2),   # which of 3 values
)


@given(events=st.lists(_vps_event, min_size=1, max_size=60),
       confidence=st.integers(1, 5))
@settings(max_examples=80, deadline=None)
def test_lvp_matches_abstract_model(events, confidence):
    concrete = LastValuePredictor(
        confidence_threshold=confidence, capacity=64
    )
    abstract = _AbstractVps(confidence)
    pcs = [0x1000, 0x1004, 0x1008, 0x100C]
    values = [11, 22, 33]

    for index_choice, value_choice in events:
        key = AccessKey(pc=pcs[index_choice], addr=0x40)
        value = values[value_choice]
        # Compare the *prediction decision* before each training access.
        concrete_prediction = concrete.predict(key)
        abstract_outcome = abstract.trigger(pcs[index_choice], value)
        if concrete_prediction is None:
            assert abstract_outcome.value == "no-prediction"
        elif concrete_prediction.value == value:
            assert abstract_outcome.value == "correct"
        else:
            assert abstract_outcome.value == "mispredict"
        # Then train both on the observed value.
        concrete.train(key, value, concrete_prediction)
        abstract.access(pcs[index_choice], value, 1)
