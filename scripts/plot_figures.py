#!/usr/bin/env python3
"""Plot the paper's figures from bench CSV or --stats-json exports.

Usage:
  build/bench/camps_bench fig5_speedup --quiet --csv=fig5.csv
  build/bench/camps_bench fig6_conflicts --quiet --stats-json=fig6.json
  build/bench/camps_bench fig7_accuracy fig8_amat --quiet --csv=figs.csv
      (several presets: writes figs.fig7_accuracy.csv, figs.fig8_amat.csv)
  scripts/plot_figures.py fig5.csv fig6.json ...

A .json input is a bench --stats-json document; its "table" object carries
the same headers/rows as the CSV, so no table scraping is needed. Either
way the first column is the workload id and the remaining columns are
series (one bar group per workload, one bar per scheme), mirroring the
paper's grouped-bar figures. Produces <input>.png next to each input. Falls
back to an ASCII rendering when matplotlib is unavailable.
"""
import csv
import json
import sys
from pathlib import Path


def read(path):
    if path.endswith(".json"):
        with open(path) as f:
            table = json.load(f)["table"]
        return table["headers"], table["rows"]
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    header, body = rows[0], rows[1:]
    return header, body


def parse_cell(cell):
    cell = cell.strip().rstrip("%")
    try:
        return float(cell)
    except ValueError:
        return None


def ascii_plot(header, body):
    width = 40
    values = []
    for row in body:
        for cell in row[1:]:
            v = parse_cell(cell)
            if v is not None:
                values.append(v)
    if not values:
        print("  (no numeric data)")
        return
    peak = max(values)
    for row in body:
        print(f"  {row[0]}")
        for name, cell in zip(header[1:], row[1:]):
            v = parse_cell(cell)
            if v is None:
                continue
            bar = "#" * max(1, int(v / peak * width))
            print(f"    {name:<12} {bar} {cell}")


def matplotlib_plot(header, body, out_path):
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    labels = [row[0] for row in body]
    series = header[1:]
    fig, ax = plt.subplots(figsize=(max(8, len(labels)), 4))
    group_width = 0.8
    bar_width = group_width / max(1, len(series))
    for s_idx, s_name in enumerate(series):
        xs, ys = [], []
        for r_idx, row in enumerate(body):
            v = parse_cell(row[1 + s_idx]) if 1 + s_idx < len(row) else None
            if v is None:
                continue
            xs.append(r_idx - group_width / 2 + (s_idx + 0.5) * bar_width)
            ys.append(v)
        ax.bar(xs, ys, width=bar_width * 0.9, label=s_name)
    ax.set_xticks(range(len(labels)))
    ax.set_xticklabels(labels, rotation=45, ha="right")
    ax.legend(fontsize=8)
    ax.set_title(Path(out_path).stem)
    fig.tight_layout()
    fig.savefig(out_path, dpi=140)
    print(f"wrote {out_path}")


def main():
    if len(sys.argv) < 2:
        print(__doc__)
        return 1
    for arg in sys.argv[1:]:
        header, body = read(arg)
        print(f"=== {arg} ===")
        try:
            matplotlib_plot(header, body, str(Path(arg).with_suffix(".png")))
        except ImportError:
            ascii_plot(header, body)
    return 0


if __name__ == "__main__":
    sys.exit(main())
