"""Paper-style tables for experiment results."""

from __future__ import annotations

import math

from repro.core.accounting import BUCKETS, CycleAccount
from repro.core.results import ExperimentResult


def format_gain_table(
    results: dict[str, ExperimentResult],
    title: str = "",
) -> str:
    """Per-benchmark gains for several variants side by side.

    ``results`` maps a column label (e.g. ``"n=8"``) to the comparison
    that produced it; rows are benchmarks, the last row the geomean —
    the layout of Figs. 7-9.
    """
    columns = list(results)
    if not columns:
        return "(no results)"
    names = list(next(iter(results.values())).gains)
    width = max(len(n) for n in names + ["Geomean"]) + 2

    lines = []
    if title:
        lines.append(title)
    header = " " * width + "".join(f"{c:>10}" for c in columns)
    lines.append(header)
    for name in names:
        row = f"{name:<{width}}"
        for col in columns:
            row += f"{results[col].gains[name]:>9.1f}%"
        lines.append(row)
    geo = f"{'Geomean':<{width}}"
    for col in columns:
        geo += f"{results[col].geomean_gain:>9.1f}%"
    lines.append(geo)
    return "\n".join(lines)


def format_account_table(
    baseline: CycleAccount, variant: CycleAccount
) -> str:
    """The Fig. 10 stacked-bar data as a table plus bucket deltas."""
    lines = [
        f"{'bucket':<22}{baseline.label:>16}{variant.label:>16}{'delta':>10}"
    ]
    for bucket in BUCKETS:
        base_cycles = getattr(baseline.counters, bucket)
        var_cycles = getattr(variant.counters, bucket)
        delta = variant.delta_percent(baseline, bucket)
        # a bucket appearing from a zero baseline has no finite delta
        rendered = f"{'new':>10}" if math.isinf(delta) else f"{delta:>+9.1f}%"
        lines.append(
            f"{bucket:<22}{base_cycles:>16.0f}{var_cycles:>16.0f}{rendered}"
        )
    lines.append(
        f"{'TOTAL':<22}{baseline.total:>16.0f}{variant.total:>16.0f}"
        f"{100 * (variant.total / max(baseline.total, 1e-9) - 1):>+9.1f}%"
    )
    lines.append(
        f"{'ozq-full %':<22}{baseline.ozq_full_percent():>15.1f}%"
        f"{variant.ozq_full_percent():>15.1f}%"
    )
    return "\n".join(lines)
