"""ASCII renderers for the paper's figures.

Figures 5 and 8 are frequency histograms of mapped/unmapped timing
distributions (0–600 cycles, with the p-value annotated; "red" in the
paper becomes an ``[EFFECTIVE]`` marker here).  Figure 7 is a scatter
of per-iteration observations for exponent bits 0 and 1.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.stats.distributions import TimingDistribution, frequency_histogram
from repro.stats.ttest import ALPHA

#: Characters used for the two overlaid series.
_MAPPED_CHAR = "#"
_UNMAPPED_CHAR = "."

#: Width of the histogram bars in characters.
_BAR_WIDTH = 40


def render_histogram_panel(
    title: str,
    mapped: TimingDistribution,
    unmapped: TimingDistribution,
    pvalue: float,
    bin_width: float = 25.0,
    low: float = 0.0,
    high: float = 600.0,
    mapped_label: str = "mapped",
    unmapped_label: str = "unmapped",
) -> str:
    """One Figure 5/8-style panel as ASCII art.

    Each bin shows two bars: ``#`` for the mapped distribution and
    ``.`` for the unmapped one, scaled to percent of runs.
    """
    mapped_bins = frequency_histogram(
        mapped.samples, bin_width=bin_width, low=low, high=high
    )
    unmapped_bins = frequency_histogram(
        unmapped.samples, bin_width=bin_width, low=low, high=high
    )
    effective = pvalue < ALPHA
    marker = "[EFFECTIVE]" if effective else "[not effective]"
    lines = [
        f"--- {title} ---",
        f"pvalue={pvalue:.4f} {marker}   "
        f"{_MAPPED_CHAR}={mapped_label} (n={len(mapped)})   "
        f"{_UNMAPPED_CHAR}={unmapped_label} (n={len(unmapped)})",
    ]
    peak = max(
        [frequency for _, frequency in mapped_bins]
        + [frequency for _, frequency in unmapped_bins]
        + [1.0]
    )
    for (start, mapped_pct), (_, unmapped_pct) in zip(mapped_bins, unmapped_bins):
        if mapped_pct == 0.0 and unmapped_pct == 0.0:
            continue
        mapped_bar = _MAPPED_CHAR * round(_BAR_WIDTH * mapped_pct / peak)
        unmapped_bar = _UNMAPPED_CHAR * round(_BAR_WIDTH * unmapped_pct / peak)
        lines.append(
            f"{start:6.0f}-{start + bin_width:<6.0f} "
            f"|{mapped_bar:<{_BAR_WIDTH}}| {mapped_pct:5.1f}%  "
            f"|{unmapped_bar:<{_BAR_WIDTH}}| {unmapped_pct:5.1f}%"
        )
    return "\n".join(lines)


def render_figure(
    figure_title: str,
    panels: Sequence[Tuple[str, TimingDistribution, TimingDistribution, float]],
    mapped_label: str = "mapped",
    unmapped_label: str = "unmapped",
) -> str:
    """A multi-panel figure (Figures 5 and 8 have four panels)."""
    parts = [f"=== {figure_title} ==="]
    for title, mapped, unmapped, pvalue in panels:
        parts.append(
            render_histogram_panel(
                title, mapped, unmapped, pvalue,
                mapped_label=mapped_label, unmapped_label=unmapped_label,
            )
        )
    return "\n\n".join(parts)


def render_iteration_scatter(
    title: str,
    observations: Sequence[float],
    bits: Sequence[int],
    height: int = 12,
) -> str:
    """Figure 7-style scatter: observation vs. iteration, marked by bit.

    ``o`` marks iterations whose true exponent bit is 0, ``x`` marks
    bit 1; the two horizontal bands are the attack's signal.
    """
    if not observations or len(observations) != len(bits):
        return f"--- {title} --- (no data)"
    low = min(observations)
    high = max(observations)
    span = max(high - low, 1.0)
    rows = [[" "] * len(observations) for _ in range(height)]
    for column, (value, bit) in enumerate(zip(observations, bits)):
        row = int((high - value) / span * (height - 1))
        rows[row][column] = "x" if bit else "o"
    lines = [f"--- {title} ---", "o = e_bit 0, x = e_bit 1"]
    for index, row in enumerate(rows):
        level = high - span * index / (height - 1)
        lines.append(f"{level:7.0f} |{''.join(row)}")
    lines.append(" " * 8 + "+" + "-" * len(observations))
    lines.append(" " * 9 + f"iteration 0..{len(observations) - 1}")
    return "\n".join(lines)
