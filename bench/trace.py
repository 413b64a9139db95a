"""Outside-in layer tracing for the benchmark's traced runs.

The tracer wraps the public entry points of each layer of ``repro``
from the benchmark's side: every wrapped call opens a span (layer,
start, end, parent span, operation id) and closes it when the call
returns or raises.  Spans stay in memory until the run writes them
out.  A layer's self time is its spans' durations minus the time their
child spans cover, so the self times of every layer plus the root
span's own self time (the residual) add up to the root span exactly.

Wrappers only time calls; they never change arguments or results.
Callables are patched where they are looked up: on their class, on
their defining module, and on every ``repro`` module that imported the
name with ``from x import f``.  Modules not yet imported when the
tracer is installed are patched the moment they are imported, so lazy
imports stay inside the layer that triggers them.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: The span opened around one whole iteration (or one CLI process).
ROOT = "root"

#: ``import repro.cli``, timed by the CLI launcher.
STARTUP = "startup"

#: ``(layer, wrapped callables as "module:Qualified.name", only-under)``.
#: A layer with an only-under layer records calls only while a span of
#: that layer is open (the scalar backend counts as the batched
#: backend's fallback only when the batched backend called it).
LAYERS: Tuple[Tuple[str, Tuple[str, ...], Optional[str]], ...] = (
    ("analysis.preflight",
     ("repro.analysis.preflight:preflight_cell",), None),
    ("analysis.hunt",
     ("repro.analysis.enumerate:hunt_records",
      "repro.analysis.enumerate:build_certificate"), None),
    ("harness.cell",
     ("repro.harness.runner:ResilientExecutor.run_cell_supervised",
      "repro.harness.runner:ResilientExecutor.run_rsa_supervised"), None),
    ("harness.checkpoint",
     ("repro.harness.checkpoint:CheckpointStore.open",
      "repro.harness.checkpoint:CheckpointStore.has",
      "repro.harness.checkpoint:CheckpointStore.save",
      "repro.harness.checkpoint:CheckpointStore.load"), None),
    ("harness.render",
     ("repro.harness.persistence:save_json",
      "repro.harness.persistence:save_text"), None),
    ("core.runner", ("repro.core.attack:AttackRunner.__init__",), None),
    ("core.advance",
     ("repro.core.attack:IncrementalExperiment.advance",), None),
    ("stats.compare",
     ("repro.stats.summary:DistributionComparison.compare",), None),
    ("stats.sequential",
     ("repro.stats.sequential:GroupSequentialTest.decide",), None),
    ("sim.batched", ("repro.sim.batched:BatchedBackend.run_pairs",), None),
    ("sim.lockstep.build",
     ("repro.sim.lockstep:LockstepMachine.__init__",), None),
    ("sim.lockstep.run",
     ("repro.sim.lockstep:LockstepMachine.run_program",), None),
    ("sim.fallback",
     ("repro.sim.scalar:ScalarBackend.run_pairs",), "sim.batched"),
    ("pipeline.run",
     ("repro.pipeline.core:Core.run",
      "repro.pipeline.core:Core.run_concurrent"), None),
    ("memory.build",
     ("repro.memory.hierarchy:MemorySystem.__init__",
      "repro.memory.hierarchy:MemorySystem.reset"), None),
    ("crypto.rsa", ("repro.crypto.leak:RsaVpAttack.run",), None),
)

#: Every layer a summary reports, in report order.
LAYER_NAMES: Tuple[str, ...] = (STARTUP,) + tuple(
    layer for layer, _, _ in LAYERS
)

# Span fields: [layer, start, end, parent index, op id, child seconds].
_LAYER, _START, _END, _PARENT, _OP, _CHILD = range(6)


class Tracer:
    """Records nested spans around the wrapped layer entry points."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: Operation id stamped on new spans (iteration or cell).
        self.op: object = None
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._finder: Optional[_PatchOnImport] = None

    # -- spans ---------------------------------------------------------
    def open(self, layer: str) -> int:
        """Open a span under the innermost open one; returns its index."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            [layer, time.perf_counter(), 0.0, parent, self.op, 0.0]
        )
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        """Close the innermost span, which must be ``index``."""
        end = time.perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError("spans must close innermost first")
        span = self.spans[index]
        span[_END] = end
        if span[_PARENT] >= 0:
            self.spans[span[_PARENT]][_CHILD] += end - span[_START]

    def _inside(self, layer: str) -> bool:
        return any(self.spans[index][_LAYER] == layer for index in self._stack)

    def _wrap(
        self, layer: str, fn: Callable, under: Optional[str]
    ) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            # Re-entry into the open layer (Core.run -> run_concurrent)
            # is one call of that layer, not two.
            if (stack and tracer.spans[stack[-1]][_LAYER] == layer) or (
                under is not None and not tracer._inside(under)
            ):
                return fn(*args, **kwargs)
            index = tracer.open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)

        return traced

    # -- patching ------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer entry point, now or when its module loads."""
        waiting = set()
        for module_name in {
            target.split(":")[0]
            for _, targets, _ in LAYERS for target in targets
        }:
            module = sys.modules.get(module_name)
            if module is None:
                waiting.add(module_name)
            else:
                self._patch_module(module)
        if waiting:
            self._finder = _PatchOnImport(waiting, self._patch_module)
            sys.meta_path.insert(0, self._finder)

    def uninstall(self) -> None:
        """Restore every patched attribute, including ``from`` imports."""
        if self._finder is not None:
            sys.meta_path.remove(self._finder)
            self._finder = None
        originals = {}
        for owner, name, original in reversed(self._patches):
            wrapper = vars(owner)[name]
            originals[id(wrapper)] = (wrapper, original)
            setattr(owner, name, original)
        self._patches.clear()
        # Modules imported while the tracer was installed bound the
        # wrapped function with ``from x import f``; rebind them too.
        for module in _repro_modules():
            for name, value in list(vars(module).items()):
                entry = originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, name, entry[1])

    def _patch_module(self, module) -> None:
        for layer, targets, under in LAYERS:
            for target in targets:
                module_name, qualname = target.split(":")
                if module_name != module.__name__:
                    continue
                *path, name = qualname.split(".")
                owner = module
                for part in path:
                    owner = getattr(owner, part)
                raw = vars(owner)[name]
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(self._wrap(layer, raw.__func__, under))
                else:
                    new = self._wrap(layer, raw, under)
                self._set(owner, name, new)
                if owner is module:
                    for other in _repro_modules():
                        if other is not module and vars(other).get(name) is raw:
                            self._set(other, name, new)

    def _set(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Patches a module right after it executes for the first time."""

    def __init__(self, names, patch: Callable) -> None:
        self._names = set(names)
        self._patch = patch

    def find_spec(self, name, path, target=None):
        if name not in self._names:
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module
        patch = self._patch

        def exec_and_patch(module):
            exec_module(module)
            patch(module)

        spec.loader.exec_module = exec_and_patch
        return spec


def _repro_modules():
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def summarize(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Per-layer ``calls`` and ``self_s`` over ``spans``.

    The ``root`` entry's ``self_s`` is the residual: root time that no
    wrapped layer accounts for.  Its ``total_s`` is the summed root
    duration, which equals the sum of every entry's ``self_s``.
    """
    summary = {
        layer: {"calls": 0, "self_s": 0.0}
        for layer in (ROOT,) + LAYER_NAMES
    }
    total = 0.0
    for layer, start, end, parent, _, child in spans:
        entry = summary[layer]
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child
        if layer == ROOT:
            total += end - start
    summary[ROOT]["total_s"] = total
    return summary
