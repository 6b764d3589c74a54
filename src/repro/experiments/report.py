"""Report generation: ASCII figure panels and a full markdown report.

The paper's Figure 6 and Figure 10 are sorted per-configuration speedup
curves; :func:`ascii_curve` renders the same panels in a terminal.
:func:`generate_report` runs the full evaluation (all figures) and writes
a self-contained markdown report plus a JSON archive of every number.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from repro.experiments.config import STUDY_SEED, ExperimentConfig
from repro.experiments.figures import (
    fig6_main_comparison,
    fig7_extra_sites,
    fig8_server_scaling,
    fig9_relocation_period,
    fig10_tree_shape,
)
from repro.experiments.stats import paired_ratio, summarize


def ascii_curve(
    series: dict[str, Sequence[float]],
    height: int = 12,
    title: str = "",
) -> str:
    """Render sorted speedup series as an ASCII chart (Figure 6 style).

    Each named series is drawn with its own marker over a shared y-axis;
    x is the configuration rank.
    """
    if not series:
        raise ValueError("need at least one series")
    markers = "*o+x#@"
    arrays = {name: np.asarray(list(v), dtype=float) for name, v in series.items()}
    width = max(len(v) for v in arrays.values())
    if width == 0:
        raise ValueError("series are empty")
    top = max(v.max() for v in arrays.values())
    bottom = min(1.0, min(v.min() for v in arrays.values()))
    span = max(top - bottom, 1e-9)

    grid = [[" "] * width for _ in range(height)]
    for index, (name, values) in enumerate(sorted(arrays.items())):
        marker = markers[index % len(markers)]
        for x, value in enumerate(np.sort(values)):
            y = int(round((value - bottom) / span * (height - 1)))
            y = min(max(y, 0), height - 1)
            grid[height - 1 - y][x] = marker

    lines = []
    if title:
        lines.append(title)
    for row_index, row in enumerate(grid):
        value = top - span * row_index / (height - 1)
        lines.append(f"{value:6.1f} |" + "".join(row))
    lines.append(" " * 7 + "+" + "-" * width)
    lines.append(
        " " * 8 + f"configurations sorted by speedup (n={width})"
    )
    legend = "  ".join(
        f"{markers[i % len(markers)]}={name}"
        for i, name in enumerate(sorted(arrays))
    )
    lines.append(" " * 8 + legend)
    return "\n".join(lines)


def generate_report(
    setup: Optional[ExperimentConfig] = None,
    out_dir: "str | Path | None" = None,
    echo=print,
) -> dict:
    """Run the evaluation and return (and optionally write) the report.

    ``setup`` is an :class:`~repro.experiments.config.ExperimentConfig`
    carrying both workload and report-scale knobs (``None``: the default
    config).  Returns a dict with ``markdown`` (the report text) and
    ``data`` (all numbers, JSON-serializable).  When ``out_dir`` is
    given, writes ``report.md`` and ``report.json`` there.
    """
    setup = ExperimentConfig() if setup is None else setup
    sections: list[str] = [
        "# Reproduction report — Adapting to Bandwidth Variations in "
        "Wide-Area Data Combination (ICDCS 1998)",
        "",
        f"- servers: {setup.num_servers}, images/server: "
        f"{setup.images_per_server}, tree: {setup.tree_shape}",
        f"- master seed: {setup.seed}, study seed: {STUDY_SEED}",
        f"- figure 6 scale: {setup.n_configs} configurations",
        "",
    ]
    data: dict = {"setup": {
        "num_servers": setup.num_servers,
        "images_per_server": setup.images_per_server,
        "seed": setup.seed,
        "n_configs": setup.n_configs,
    }}

    echo(f"[report] figure 6 ({setup.n_configs} configurations)...")
    fig6 = fig6_main_comparison(
        setup, n_configs=setup.n_configs, workers=setup.workers
    )
    ratio_go = paired_ratio(fig6.global_speedups, fig6.one_shot_speedups)
    ratio_gl = paired_ratio(fig6.global_speedups, fig6.local_speedups)
    sections += [
        "## Figure 6 — speedup over download-all",
        "",
        "```",
        ascii_curve(
            {
                "global": fig6.global_speedups,
                "one-shot": fig6.one_shot_speedups,
                "local": fig6.local_speedups,
            },
            title="sorted per-configuration speedups",
        ),
        "",
        fig6.format_table(),
        "```",
        "",
        f"median global/one-shot ratio: {ratio_go} (paper ~1.40)",
        f"median global/local ratio: {ratio_gl} (paper ~1.25)",
        "",
    ]
    data["fig6"] = {
        "one_shot": summarize(fig6.one_shot_speedups),
        "local": summarize(fig6.local_speedups),
        "global": summarize(fig6.global_speedups),
        "mean_interarrival": fig6.mean_interarrival,
        "ratio_global_one_shot": asdict(ratio_go),
        "ratio_global_local": asdict(ratio_gl),
    }

    n = setup.sweep_configs
    echo(f"[report] figure 7 ({n} configurations)...")
    fig7 = fig7_extra_sites(setup, n_configs=n, workers=setup.workers)
    sections += ["## Figure 7 — extra candidate sites", "", "```",
                 fig7.format_table(), "```", ""]
    data["fig7"] = {"ks": fig7.ks, "mean_speedups": fig7.mean_speedups}

    echo(f"[report] figure 8 ({n} configurations)...")
    fig8 = fig8_server_scaling(setup, n_configs=n, workers=setup.workers)
    sections += ["## Figure 8 — scaling", "", "```",
                 fig8.format_table(), "```", ""]
    data["fig8"] = {
        "server_counts": fig8.server_counts,
        "mean_speedups": fig8.mean_speedups,
    }

    echo(f"[report] figure 9 ({n} configurations)...")
    fig9 = fig9_relocation_period(
        setup, n_configs=n, workers=setup.workers
    )
    sections += ["## Figure 9 — relocation period", "", "```",
                 fig9.format_table(), "```", ""]
    data["fig9"] = {
        "periods": fig9.periods,
        "mean_speedups": fig9.mean_speedups,
    }

    echo(f"[report] figure 10 ({n} configurations)...")
    fig10 = fig10_tree_shape(setup, n_configs=n, workers=setup.workers)
    sections += [
        "## Figure 10 — combination order", "", "```",
        ascii_curve(
            {
                "binary": fig10.global_binary,
                "left-deep": fig10.global_left_deep,
            },
            title="global algorithm: sorted speedups by tree shape",
        ),
        "",
        fig10.format_table(),
        "```",
        "",
    ]
    data["fig10"] = {
        "global_binary_mean": fig10.mean(fig10.global_binary),
        "global_left_deep_mean": fig10.mean(fig10.global_left_deep),
        "local_binary_mean": fig10.mean(fig10.local_binary),
        "local_left_deep_mean": fig10.mean(fig10.local_left_deep),
    }

    markdown = "\n".join(sections)
    result = {"markdown": markdown, "data": data}

    if out_dir is not None:
        out_path = Path(out_dir)
        out_path.mkdir(parents=True, exist_ok=True)
        (out_path / "report.md").write_text(markdown)
        (out_path / "report.json").write_text(json.dumps(data, indent=2))
        echo(f"[report] wrote {out_path / 'report.md'} and report.json")
    return result
