"""Program-cache memoization for attack-program factories.

Every trial of every cell rebuilds the same handful of gadget
programs (train / trigger / probe / idle) from the same
:class:`~repro.workloads.gadgets.Layout` and scalar knobs.  Assembly
is pure — a factory's output depends only on its arguments — so the
results can be memoized safely.  The cache is keyed by the factory and
its (frozen) arguments; list arguments are frozen to tuples because
``probe_program`` takes the secret-candidate list by value.

The memoizer is deliberately conservative:

* Unhashable arguments fall back to a direct call.
* Cached :class:`~repro.isa.program.Program` objects are shared, which
  is safe because programs are immutable once assembled and their
  internal trace cache is itself keyed and append-only — sharing it
  between trials is exactly the uop-cache reuse this package measures.
* The cache is per-process; worker processes each build their own,
  which keeps the parallel engine free of cross-process mutable state.
"""

from __future__ import annotations

import functools
from collections import OrderedDict
from typing import Any, Callable, Tuple, TypeVar

_F = TypeVar("_F", bound=Callable[..., Any])

#: Default per-factory cache capacity.  Sweeps touch a few dozen
#: distinct (layout, knob) combinations; 256 is comfortably above any
#: realistic working set while bounding memory for adversarial use.
DEFAULT_MAXSIZE = 256

_UNHASHABLE = object()


def _freeze(value: Any) -> Any:
    """Make ``value`` hashable when possible, else ``_UNHASHABLE``."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    if isinstance(value, set):
        return frozenset(_freeze(item) for item in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    try:
        hash(value)
    except TypeError:
        return _UNHASHABLE
    return value


def memoize_program(maxsize: int = DEFAULT_MAXSIZE) -> Callable[[_F], _F]:
    """LRU-memoize a pure program factory.

    Returns a decorator.  The wrapped function gains ``cache_clear()``
    and ``cache_len()`` helpers for tests.
    """

    def decorate(func: _F) -> _F:
        cache: "OrderedDict[Tuple[Any, ...], Any]" = OrderedDict()

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frozen_args = tuple(_freeze(a) for a in args)
            frozen_kwargs = tuple(sorted(
                (k, _freeze(v)) for k, v in kwargs.items()
            ))
            if _UNHASHABLE in frozen_args or any(
                v is _UNHASHABLE for _, v in frozen_kwargs
            ):
                return func(*args, **kwargs)
            key = (frozen_args, frozen_kwargs)
            try:
                result = cache[key]
            except KeyError:
                result = func(*args, **kwargs)
                cache[key] = result
                if len(cache) > maxsize:
                    cache.popitem(last=False)
                return result
            cache.move_to_end(key)
            return result

        wrapper.cache_clear = cache.clear  # type: ignore[attr-defined]
        wrapper.cache_len = lambda: len(cache)  # type: ignore[attr-defined]
        return wrapper  # type: ignore[return-value]

    return decorate
