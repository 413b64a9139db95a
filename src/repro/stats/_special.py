"""The four special functions behind every p-value, loaded on first use.

``repro.stats`` needs exactly four functions it does not compute
itself: the Student t CDF and its inverse (``stdtr``, ``stdtrit``)
and the standard normal CDF and its inverse (``ndtr``, ``ndtri``).
They come from :mod:`scipy.special`, and scipy (with numpy under it)
takes longer to import than everything else a CLI command does.
Commands that compute no statistic (``table1``, ``table2``, ``fig2``,
``lint``, ``analyze``, ``hunt --static``) should not pay for it, so
this module is the one place the package names scipy, and it imports
``scipy.special`` at the first call rather than at import.

Each wrapper returns scipy's result unchanged (a ``numpy.float64`` for
float arguments), so a p-value, an interval or a spending level is
bit-for-bit what a module-level ``from scipy import special`` gave.
"""

from __future__ import annotations

import functools
from types import ModuleType


@functools.cache
def load() -> ModuleType:
    """``scipy.special``, imported on the first call.

    A process that forks workers calls this beforehand, so every
    worker inherits the loaded module instead of importing its own.
    """
    from scipy import special

    return special


def stdtr(dof: float, t: float) -> float:
    """Student t CDF with ``dof`` degrees of freedom, at ``t``."""
    return load().stdtr(dof, t)


def stdtrit(dof: float, probability: float) -> float:
    """Inverse Student t CDF: the ``t`` at which the CDF is ``probability``."""
    return load().stdtrit(dof, probability)


def ndtr(x: float) -> float:
    """Standard normal CDF at ``x``."""
    return load().ndtr(x)


def ndtri(probability: float) -> float:
    """Inverse standard normal CDF."""
    return load().ndtri(probability)
