"""Figure 6 — original vs supplemental index size.

Paper reference: the total (original + supplemental for *all* failure
cases) stays moderate — e.g. Gnutella 14 MB total vs 105 MB for per-case
rebuilds; Gnutella shows the smallest supplemental proportion, Facebook
the largest, Wiki-Vote the largest absolute supplement.  Sizes use the
paper-compatible 8 B/entry model (repro.labeling.stats).
"""

from __future__ import annotations

import pytest

from repro.bench.datasets import DATASET_ORDER, DATASETS
from repro.bench.reporting import render_grouped_bars, render_table
from repro.core.segstore import write_index
from repro.core.stats import sief_stats


@pytest.mark.parametrize("name", DATASET_ORDER)
def test_index_serialization(benchmark, context, name, tmp_path):
    """Measured operation: writing the full index to a segment store."""
    index = context(name).index
    writer = benchmark(write_index, index, tmp_path / "index.siefseg")
    assert writer.num_cases == index.num_cases
    assert writer.bytes_written > 0


def test_print_figure6(benchmark, context, emit):
    groups, values, rows = [], [], []
    for name in DATASET_ORDER:
        ctx = context(name)
        stats = sief_stats(ctx.index, ctx.report)
        naive_mb = ctx.graph.num_edges * stats.original_megabytes
        groups.append(DATASETS[name].short)
        values.append(
            [stats.original_megabytes, stats.supplemental_megabytes]
        )
        rows.append(
            [
                name,
                stats.original_megabytes,
                stats.supplemental_megabytes,
                stats.original_megabytes + stats.supplemental_megabytes,
                naive_mb,
            ]
        )
    chart = render_grouped_bars(
        "Figure 6: index size (MB, 8 B/entry model)",
        groups,
        ["original", "supplemental"],
        values,
    )
    table = benchmark.pedantic(
        render_table,
        args=(
            "Figure 6 (data): index sizes",
            [
                "dataset",
                "original MB",
                "supplemental MB",
                "total MB",
                "naive per-case MB",
            ],
            rows,
        ),
        kwargs={
            "note": "'naive' = one full index per failure case (the "
            "paper's 105 MB Gnutella strawman); SIEF total must be far "
            "below it"
        },
        rounds=1,
        iterations=1,
    )
    emit("fig6_index_size", chart + "\n\n" + table)

    for row in rows:
        assert row[3] < row[4] / 5, f"{row[0]}: SIEF not compact vs naive"
