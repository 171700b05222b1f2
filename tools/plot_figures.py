#!/usr/bin/env python3
"""Plot the paper's figures from `acctx report` CSV output.

Usage:
    build/tools/acctx report --out figures/
    python3 tools/plot_figures.py figures/ [--out plots/]

Produces one PNG per figure, mirroring the paper's presentation (CDF axes
for Figs. 2/3/4/5/8/9/10, stacked shares for Fig. 6a, scatter for Fig. 7a,
coverage curves for Fig. 7b). Requires matplotlib.
"""

import argparse
import csv
import pathlib
import sys
from collections import defaultdict

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:  # pragma: no cover - environment without matplotlib
    sys.stderr.write("plot_figures.py requires matplotlib (pip install matplotlib)\n")
    sys.exit(1)


def read_series(path, x_col, y_col, series_col):
    """CSV -> {series: ([x], [y])}, preserving row order."""
    series = defaultdict(lambda: ([], []))
    with open(path, newline="") as handle:
        for row in csv.DictReader(handle):
            xs, ys = series[row[series_col]]
            xs.append(float(row[x_col]))
            ys.append(float(row[y_col]))
    return series


def plot_cdf(path, out, title, xlabel, xlim=None, logx=False, ylabel="CDF of users"):
    series = read_series(path, x_col=path_columns(path)[1], y_col="cdf",
                         series_col=path_columns(path)[0])
    fig, ax = plt.subplots(figsize=(7, 4.5))
    for name, (xs, ys) in sorted(series.items()):
        ax.plot(xs, ys, label=name, linewidth=1.4)
    ax.set_xlabel(xlabel)
    ax.set_ylabel(ylabel)
    ax.set_title(title)
    ax.set_ylim(0, 1)
    if xlim:
        ax.set_xlim(*xlim)
    if logx:
        ax.set_xscale("log")
    ax.grid(alpha=0.3)
    ax.legend(fontsize=7, ncol=2)
    fig.tight_layout()
    fig.savefig(out, dpi=150)
    plt.close(fig)


def path_columns(path):
    with open(path, newline="") as handle:
        header = next(csv.reader(handle))
    return header


def plot_fig06a(path, out):
    rows = defaultdict(dict)
    with open(path, newline="") as handle:
        for row in csv.DictReader(handle):
            rows[row["destination"]][row["bucket"]] = float(row["share"])
    destinations = list(rows)
    buckets = ["2", "3", "4", "5+"]
    fig, ax = plt.subplots(figsize=(8, 4.5))
    bottoms = [0.0] * len(destinations)
    for bucket in buckets:
        values = [rows[d].get(bucket, 0.0) for d in destinations]
        ax.bar(destinations, values, bottom=bottoms, label=f"{bucket} ASes")
        bottoms = [b + v for b, v in zip(bottoms, values)]
    ax.set_ylabel("share of probe locations")
    ax.set_title("Fig. 6a: AS path lengths")
    ax.legend(fontsize=8)
    fig.tight_layout()
    fig.savefig(out, dpi=150)
    plt.close(fig)


def plot_fig07a(path, out):
    fig, ax_lat = plt.subplots(figsize=(7, 4.5))
    with open(path, newline="") as handle:
        for row in csv.DictReader(handle):
            sites = int(row["sites"])
            ax_lat.scatter(sites, float(row["median_ms"]), color="tab:blue", s=18)
            ax_lat.annotate(row["deployment"], (sites, float(row["median_ms"])),
                            fontsize=6, xytext=(3, 3), textcoords="offset points")
    ax_lat.set_xlabel("global sites")
    ax_lat.set_ylabel("median probe latency (ms)")
    ax_lat.set_title("Fig. 7a: deployment size vs latency")
    ax_lat.grid(alpha=0.3)
    fig.tight_layout()
    fig.savefig(out, dpi=150)
    plt.close(fig)


def plot_fig07b(path, out):
    series = read_series(path, x_col="radius_km", y_col="covered_fraction",
                         series_col="deployment")
    fig, ax = plt.subplots(figsize=(7, 4.5))
    for name, (xs, ys) in sorted(series.items()):
        ax.plot(xs, ys, label=name, linewidth=1.2)
    ax.set_xlabel("coverage radius (km)")
    ax.set_ylabel("share of users covered")
    ax.set_title("Fig. 7b: coverage")
    ax.set_ylim(0, 1.02)
    ax.grid(alpha=0.3)
    ax.legend(fontsize=6, ncol=2)
    fig.tight_layout()
    fig.savefig(out, dpi=150)
    plt.close(fig)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("csv_dir", type=pathlib.Path)
    parser.add_argument("--out", type=pathlib.Path, default=pathlib.Path("plots"))
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    jobs = [
        ("fig02a_root_geographic_inflation.csv",
         lambda p, o: plot_cdf(p, o, "Fig. 2a: geographic inflation per root query",
                               "inflation (ms)", xlim=(0, 150))),
        ("fig02b_root_latency_inflation.csv",
         lambda p, o: plot_cdf(p, o, "Fig. 2b: latency inflation per root query",
                               "inflation (ms)", xlim=(0, 200))),
        ("fig03_queries_per_user.csv",
         lambda p, o: plot_cdf(p, o, "Fig. 3: root queries per user per day",
                               "queries / user / day", logx=True)),
        ("fig04a_probe_ring_latency.csv",
         lambda p, o: plot_cdf(p, o, "Fig. 4a: probe latency per ring",
                               "RTT (ms)", xlim=(0, 200), ylabel="CDF of probes")),
        ("fig04b_ring_step_delta.csv",
         lambda p, o: plot_cdf(p, o, "Fig. 4b: latency change to the next larger ring",
                               "smaller minus larger ring, per RTT (ms)", xlim=(-20, 20),
                               ylabel="CDF of <region, AS> locations")),
        ("fig05a_cdn_geographic_inflation.csv",
         lambda p, o: plot_cdf(p, o, "Fig. 5a: CDN geographic inflation per RTT",
                               "inflation (ms)", xlim=(0, 40))),
        ("fig05b_cdn_latency_inflation.csv",
         lambda p, o: plot_cdf(p, o, "Fig. 5b: CDN latency inflation per RTT",
                               "inflation (ms)", xlim=(0, 200))),
        ("fig06a_as_path_lengths.csv", plot_fig06a),
        ("fig07a_size_latency_efficiency.csv", plot_fig07a),
        ("fig07b_coverage.csv", plot_fig07b),
        ("fig08_queries_per_user_unfiltered.csv",
         lambda p, o: plot_cdf(p, o, "Fig. 8: root queries per user per day, "
                               "counting invalid TLD and PTR", "queries / user / day",
                               logx=True)),
        ("fig09_queries_per_user_by_ip.csv",
         lambda p, o: plot_cdf(p, o, "Fig. 9: root queries per user per day, "
                               "joined by exact IP", "queries / user / day", logx=True)),
        ("fig10_favorite_site.csv",
         lambda p, o: plot_cdf(p, o, "Fig. 10: /24 queries missing the favorite site",
                               "fraction of queries not to the favorite site",
                               xlim=(0, 1), ylabel="CDF of /24s")),
    ]
    written = []
    for name, plot in jobs:
        source = args.csv_dir / name
        if not source.exists():
            sys.stderr.write(f"skipping missing {source}\n")
            continue
        target = args.out / (name.replace(".csv", ".png"))
        plot(source, target)
        written.append(target)
    for target in written:
        print(f"wrote {target}")


if __name__ == "__main__":
    main()
