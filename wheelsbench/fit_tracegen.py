#!/usr/bin/env python3
"""Fit the trace generator's link model to the committed golden bundle.

    python3 wheelsbench/fit_tracegen.py [tests/golden/bundle]

Reads the driving rows (is_static = 0) of the bundle's kpis.csv and rtts.csv
and prints the tables src/tracegen.cpp embeds:

- per carrier: the mean downlink and uplink rate of the bulk tests' 500 ms
  ticks, which every 5-minute block of a generated trace is scaled to;
- per (carrier, tech): the tech's share of the carrier's driving ticks, its
  mean dwell in ticks (runs of one tech inside a test, so a lower bound),
  the mean and standard deviation of RSRP, and the quantiles at LEVELS of
  downlink Mbps, uplink Mbps and RTT ms;
- per quantity, the lag-1 autocorrelation of the normal scores of
  consecutive samples inside a test, which drives the generator's AR(1)
  processes.

A (carrier, tech, quantity) with fewer than MIN_SAMPLES samples takes the
carrier's samples over all its techs.
"""

import collections
import csv
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
MIN_SAMPLES = 30
CARRIERS = ("Verizon", "T-Mobile", "AT&T")
QUANTITIES = ("dl", "ul", "rtt")
# Deciles, plus the 95th and 99th percentile for the RTT's multi-second tail.
LEVELS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 1.0)


def quantiles(values):
    v = sorted(values)
    return [v[round(level * (len(v) - 1))] for level in LEVELS]


def runs(rows, key):
    """Consecutive runs of rows with the same (test, key(row))."""
    out, current, last = [], [], None
    for row in rows:
        k = (row["test_id"], key(row))
        if k != last and current:
            out.append(current)
            current = []
        last = k
        current.append(row)
    return out + ([current] if current else [])


def normal_scores(rows, value):
    """Each row's value as a normal score within its (carrier, tech)."""
    by_group = collections.defaultdict(list)
    for i, row in enumerate(rows):
        by_group[(row["carrier"], row["tech"])].append((value(row), i))
    scores = [0.0] * len(rows)
    unit = statistics.NormalDist()
    for group in by_group.values():
        group.sort()
        for rank, (_, i) in enumerate(group):
            scores[i] = unit.inv_cdf((rank + 1) / (len(group) + 1))
    return scores


def lag1(rows, value):
    """Pooled lag-1 correlation of normal scores inside (test, tech) runs."""
    scores = normal_scores(rows, value)
    index = {id(row): i for i, row in enumerate(rows)}
    num = den = 0.0
    for run in runs(rows, lambda r: (r["carrier"], r["tech"])):
        z = [scores[index[id(r)]] for r in run]
        num += sum(a * b for a, b in zip(z, z[1:]))
        den += sum(a * a for a in z[1:])
    return num / den


def main():
    bundle = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else (
        ROOT / "tests" / "golden" / "bundle")

    def read(name):
        with open(bundle / name, newline="") as f:
            return list(csv.DictReader(f))

    tests = {r["id"]: r["type"] for r in read("tests.csv")}
    order = lambda r: (int(r["test_id"]), int(r["t"]))
    kpis = sorted((r for r in read("kpis.csv") if r["is_static"] == "0"),
                  key=order)
    rtts = sorted((r for r in read("rtts.csv") if r["is_static"] == "0"),
                  key=order)
    rows = {
        "dl": [r for r in kpis if tests[r["test_id"]] == "downlink-bulk"],
        "ul": [r for r in kpis if tests[r["test_id"]] == "uplink-bulk"],
        "rtt": rtts,
    }
    value = {"dl": lambda r: float(r["throughput"]),
             "ul": lambda r: float(r["throughput"]),
             "rtt": lambda r: float(r["rtt"])}

    print("// Fitted by fit_tracegen.py to tests/golden/bundle "
          f"({len(kpis)} driving KPI ticks, {len(rtts)} driving RTT samples).")
    print("constexpr std::array<CarrierFit, 3> kCarriers{{")
    for carrier in CARRIERS:
        means = [statistics.fmean(value[q](r) for r in rows[q]
                                  if r["carrier"] == carrier)
                 for q in ("dl", "ul")]
        print(f'    {{"{carrier}", {means[0]:.2f}, {means[1]:.2f}}},')
    print("}};")

    ticks = collections.Counter((r["carrier"], r["tech"]) for r in kpis)
    dwell = collections.defaultdict(list)
    for run in runs(kpis, lambda r: (r["carrier"], r["tech"])):
        dwell[(run[0]["carrier"], run[0]["tech"])].append(len(run))
    print(f"constexpr std::array<TechFit, {len(ticks)}> kTechs{{{{")
    for carrier in CARRIERS:
        total = sum(n for (c, _), n in ticks.items() if c == carrier)
        for tech in sorted((t for c, t in ticks if c == carrier),
                           key=lambda t: -ticks[(carrier, t)]):
            rsrp = [float(r["rsrp"]) for r in kpis
                    if (r["carrier"], r["tech"]) == (carrier, tech)]
            print(f'    {{"{carrier}", "{tech}", '
                  f"{ticks[(carrier, tech)] / total:.4f}, "
                  f"{statistics.fmean(dwell[(carrier, tech)]):.1f}, "
                  f"{statistics.fmean(rsrp):.1f}, "
                  f"{statistics.pstdev(rsrp):.1f},")
            for q in QUANTITIES:
                v = [value[q](r) for r in rows[q]
                     if (r["carrier"], r["tech"]) == (carrier, tech)]
                if len(v) < MIN_SAMPLES:
                    v = [value[q](r) for r in rows[q]
                         if r["carrier"] == carrier]
                print("     {" + ", ".join(f"{x:.3f}" for x in quantiles(v)) +
                      "}" + ("}," if q == "rtt" else ","))
    print("}};")
    rho = {q: lag1(rows[q], value[q]) for q in QUANTITIES}
    print(f"constexpr double kRhoDl = {rho['dl']:.3f}, "
          f"kRhoUl = {rho['ul']:.3f}, kRhoRtt = {rho['rtt']:.3f};")


if __name__ == "__main__":
    main()
