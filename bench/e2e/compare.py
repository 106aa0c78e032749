#!/usr/bin/env python3
"""A/B comparison of bench_e2e runs against the bounds in BENCHMARK.json.

    python3 bench/e2e/compare.py --base BASE_RUNS... --new NEW_RUNS...
    python3 bench/e2e/compare.py --check-schema RUNS...
    python3 bench/e2e/compare.py --spread RUNS...

A run is the record `run.py --out` (or `bench_e2e --out`) writes. A
directory argument stands for every *.json under it. Runs of the two sides
are paired by (workload, seed), or by order when the seeds differ.

For every workload x end-to-end metric (from untraced runs) it prints each
side's median and quartiles (statistics.quantiles, n=4), the share of pairs
the new side won, and a verdict:

  improved    the new side wins at least 9/10 of the pairs, and the
              medians differ by more than the base's quartile spread;
  regressed   the new median is worse than the base median by more than
              the metric's bound;
  unresolved  not regressed, but the base's own spread is wider than the
              bound, and not every new run beats every base run;
  no worse    otherwise.

Per-layer metrics (from traced runs, where both sides have them) have no
bound: they read improved, worse (the same rule the other way round),
same (every pair tied) or unresolved. Exits 1 when any end-to-end metric regressed.

--check-schema instead checks that each untraced run reports exactly the
end_to_end metrics of BENCHMARK.json and each traced run exactly its
per_layer metrics, with the same units. --spread prints each end-to-end
metric's quartile spread as a share of its median, marks spreads above a
third of the bound, and exits 1 if any spread exceeds its bound.
"""
import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(HERE, "..", "..", "BENCHMARK.json")


def load_runs(paths):
    runs = []
    for p in paths:
        files = (sorted(glob.glob(os.path.join(p, "**", "*.json"), recursive=True))
                 if os.path.isdir(p) else [p])
        for f in files:
            with open(f) as fh:
                run = json.load(fh)
            if "metrics" in run and "workload" in run:
                run["_path"] = f
                runs.append(run)
    return runs


def check_schema(spec, runs):
    bad = 0
    for run in runs:
        wanted = spec["per_layer" if run.get("trace") else "end_to_end"]
        want = {m["name"]: m["unit"] for m in wanted}
        got = {k: v["unit"] for k, v in run["metrics"].items()}
        extra = sorted(set(got) - set(want))
        missing = sorted(set(want) - set(got))
        units = sorted(k for k in set(got) & set(want) if got[k] != want[k])
        if extra or missing or units:
            bad += 1
            print(f"{run['_path']}: extra={extra} missing={missing} "
                  f"unit_mismatch={units}")
    print(f"schema: {len(runs) - bad}/{len(runs)} runs match BENCHMARK.json")
    return 1 if bad or not runs else 0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(base, new):
    """(base value, new value) pairs: by seed where the seeds match."""
    by_seed = {r["seed"]: r for r in base}
    if all(r["seed"] in by_seed for r in new):
        return [(by_seed[r["seed"]], r) for r in new]
    return list(zip(base, new))


def won_pairs(metric, base, new):
    """(pairs the new side won, pairs it lost, pairs); ties count for
    neither side."""
    name = metric["name"]
    sign = -1 if metric["better"] == "lower" else 1
    ps = pairs(base, new)
    won = lost = 0
    for b, n in ps:
        d = sign * (n["metrics"][name]["value"] - b["metrics"][name]["value"])
        won += d > 0
        lost += d < 0
    return won, lost, len(ps)


def verdict(metric, base_vals, new_vals, won, lost, n_pairs):
    lower = metric["better"] == "lower"
    bq1, bmed, bq3 = quartiles(base_vals)
    _, nmed, _ = quartiles(new_vals)
    worse = (nmed - bmed) if lower else (bmed - nmed)
    spread = bq3 - bq1
    if n_pairs and won >= 0.9 * n_pairs and -worse > spread:
        return "improved"
    if "bound" not in metric:
        if n_pairs and won == lost == 0:
            return "same"
        return "worse" if n_pairs and lost >= 0.9 * n_pairs and worse > spread \
            else "unresolved"
    bound = metric["bound"]
    if worse > bound * abs(bmed):
        return "regressed"
    all_better = (max(new_vals) < min(base_vals)) if lower else (
        min(new_vals) > max(base_vals))
    if bmed and spread / abs(bmed) > bound and not all_better:
        return "unresolved"
    return "no worse"


def compare(spec, base, new):
    regressed = 0
    print(f"{'workload':16} {'metric':28} {'base median [q1, q3]':>34} "
          f"{'new median [q1, q3]':>34} {'delta':>8} {'won':>7}  verdict")
    for w in [w["name"] for w in spec["workloads"]]:
        for traced, metrics in ((False, spec["end_to_end"]),
                                (True, spec["per_layer"])):
            b_runs = [r for r in base
                      if r["workload"] == w and bool(r.get("trace")) == traced]
            n_runs = [r for r in new
                      if r["workload"] == w and bool(r.get("trace")) == traced]
            if not b_runs or not n_runs:
                continue
            for m in metrics:
                name = m["name"]
                bv = [r["metrics"][name]["value"] for r in b_runs]
                nv = [r["metrics"][name]["value"] for r in n_runs]
                won, lost, n_pairs = won_pairs(m, b_runs, n_runs)
                v = verdict(m, bv, nv, won, lost, n_pairs)
                regressed += v == "regressed"
                bq1, bmed, bq3 = quartiles(bv)
                nq1, nmed, nq3 = quartiles(nv)
                delta = (nmed - bmed) / bmed if bmed else 0.0
                print(f"{w:16} {name:28} {bmed:12.5g} [{bq1:9.5g}, {bq3:9.5g}] "
                      f"{nmed:12.5g} [{nq1:9.5g}, {nq3:9.5g}] {delta:+8.2%} "
                      f"{won:3}/{n_pairs:<3}  {v}")
    return 1 if regressed else 0


def spread(spec, runs):
    """Quartile spread / median of each end-to-end metric over `runs`."""
    too_wide = 0
    print(f"{'workload':16} {'metric':20} {'median':>12} {'spread':>8} "
          f"{'bound':>6}")
    for w in [w["name"] for w in spec["workloads"]]:
        ws = [r for r in runs if r["workload"] == w and not r.get("trace")]
        if not ws:
            continue
        for m in spec["end_to_end"]:
            q1, med, q3 = quartiles([r["metrics"][m["name"]]["value"] for r in ws])
            s = (q3 - q1) / med if med else 0.0
            # Wider than the bound, a regression of the bound's size cannot
            # be told from noise; wider than a third, only just.
            mark = ("  WIDER THAN BOUND" if s > m["bound"]
                    else "  over 1/3 of bound" if s > m["bound"] / 3 else "")
            too_wide += s > m["bound"]
            print(f"{w:16} {m['name']:20} {med:12.5g} {s:8.2%} "
                  f"{m['bound']:6.0%}{mark}")
    return 1 if too_wide else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check-schema", nargs="+", metavar="RUN")
    ap.add_argument("--spread", nargs="+", metavar="RUN")
    ap.add_argument("--base", nargs="+", metavar="RUN")
    ap.add_argument("--new", nargs="+", metavar="RUN")
    args = ap.parse_args()
    with open(SPEC) as f:
        spec = json.load(f)
    if args.check_schema:
        return check_schema(spec, load_runs(args.check_schema))
    if args.spread:
        return spread(spec, load_runs(args.spread))
    if not args.base or not args.new:
        ap.error("give --check-schema, --spread, or both --base and --new")
    return compare(spec, load_runs(args.base), load_runs(args.new))


if __name__ == "__main__":
    sys.exit(main())
