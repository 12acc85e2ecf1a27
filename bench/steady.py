"""Run the benchmark several times and report medians and spreads.

Spread over seeds, on one checkout:

    python3 bench/steady.py spread --workload report_all --seeds 1-10

Each run uses another seed.  For every end-to-end metric it prints the
median, the quartiles from ``statistics.quantiles(values, n=4)`` and the
spread (q3 - q1) / median next to the metric's bound in BENCHMARK.json.

Parent against change, on two checkouts of the same benchmark:

    python3 bench/steady.py compare --parent ../parent --change . \\
        --workload renorm_grid --pairs 10

Runs ``--pairs`` pairs with one seed per pair, alternating which side runs
first.  For every metric it reports each side's median and quartiles, the
share of pairs the change wins and a verdict, once on the host-scaled values
of the result line and once on the unscaled values of the bench-record, and
flags a metric whose two verdicts disagree.  It also prints each side's
median reference time, which the scaling divides by.

Every run lasts ``run_seconds`` of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_from(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def load_spec(root: Path) -> dict:
    with open(root / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_once(root: Path, workload: str, seed: int, seconds: int) -> tuple:
    """One untraced run: (metric values of the result line, its bench-record)."""
    spec = load_spec(root)
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    if cmd[0] == "python3":
        cmd[0] = sys.executable
    res = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    if res.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {res.returncode}:\n{res.stderr}")
    lines = res.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)}: {result['failed']} ops failed their check")
    record = next(json.loads(line.split(" ", 1)[1]) for line in lines
                  if line.startswith("bench-record "))
    return {name: m["value"] for name, m in result["metrics"].items()}, record


def quartiles(values: list) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def cmd_spread(args) -> int:
    spec = load_spec(ROOT)
    seconds = spec["run_seconds"]
    runs = []
    for seed in seeds_from(args.seeds):
        runs.append(run_once(ROOT, args.workload, seed, seconds)[0])
        print(f"seed {seed}: " + json.dumps(runs[-1]), flush=True)
    report = {}
    print(f"\n{args.workload}: {len(runs)} runs of {seconds} s")
    print(f"{'metric':20s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for entry in spec["end_to_end"]:
        values = [run[entry["name"]] for run in runs]
        q1, med, q3 = quartiles(values)
        frac = (q3 - q1) / med
        report[entry["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": frac}
        print(f"{entry['name']:20s} {med:12.6g} {q1:12.6g} {q3:12.6g} {frac:8.4f} "
              f"{entry['bound']:>6}")
    print(json.dumps({"workload": args.workload, "seconds": seconds, "metrics": report}))
    return 0


def verdict(parent: list, change: list, lower: bool) -> tuple:
    """(quartiles of each side, pairs the change wins, "better", "worse" or "flat").

    "flat" when the medians differ by no more than the parent's own spread.
    """
    pq, cq = quartiles(parent), quartiles(change)
    wins = sum((cv < pv) if lower else (cv > pv) for pv, cv in zip(parent, change))
    gap = cq[1] - pq[1]
    if abs(gap) <= pq[2] - pq[0]:
        call = "flat"
    else:
        call = "better" if (gap < 0) == lower else "worse"
    return pq, cq, wins, call


def cmd_compare(args) -> int:
    parent, change = Path(args.parent).resolve(), Path(args.change).resolve()
    spec = load_spec(change)
    seconds = spec["run_seconds"]
    sides = {"parent": [], "change": []}
    for k in range(args.pairs):
        seed = args.first_seed + k
        order = (("parent", parent), ("change", change))
        for side, root in (order if k % 2 == 0 else order[::-1]):
            sides[side].append(run_once(root, args.workload, seed, seconds))
        print(f"pair {k + 1}/{args.pairs} (seed {seed}) done", flush=True)

    def column(side: str, name: str, raw: bool) -> list:
        return [(record["raw"] if raw else metrics)[name] for metrics, record in sides[side]]

    print(f"\n{args.workload}: {args.pairs} pairs of {seconds} s runs, alternating order")
    print(f"{'metric':18s} {'values':>6s} {'parent q1/med/q3':>28s} "
          f"{'change q1/med/q3':>28s} {'wins':>6s} {'verdict':>8s}")
    disagree = []
    for entry in spec["end_to_end"]:
        name, lower = entry["name"], entry["better"] == "lower"
        scaled = name in sides["parent"][0][1]["raw"]  # else it has no unscaled twin
        calls = []
        for raw in ((False, True) if scaled else (False,)):
            pq, cq, wins, call = verdict(column("parent", name, raw),
                                         column("change", name, raw), lower)
            calls.append(call)
            label = "raw" if raw else "scaled" if scaled else "as-is"
            print(f"{name:18s} {label:>6s} "
                  f"{'%.4g/%.4g/%.4g' % pq:>28s} {'%.4g/%.4g/%.4g' % cq:>28s} "
                  f"{wins:>3d}/{args.pairs:<2d} {call:>8s}")
        if len(set(calls)) > 1:
            disagree.append(name)
    for key in ("p50", "setup_p50"):
        meds = {side: statistics.median(record["reference_ms"][key] for _, record in runs)
                for side, runs in sides.items()}
        print(f"reference_ms {key}: parent {meds['parent']:.4g}, change {meds['change']:.4g}")
    if disagree:
        print("scaled and raw verdicts disagree on: " + ", ".join(disagree)
              + " (the gap may come from the scaling; claim none of these)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    sp = sub.add_parser("spread", help="one checkout, one run per seed")
    sp.add_argument("--workload", required=True)
    sp.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    cp = sub.add_parser("compare", help="alternating parent/change pairs")
    cp.add_argument("--parent", required=True, help="root of the parent checkout")
    cp.add_argument("--change", required=True, help="root of the changed checkout")
    cp.add_argument("--workload", required=True)
    cp.add_argument("--pairs", type=int, default=10)
    cp.add_argument("--first-seed", type=int, default=101)
    args = parser.parse_args(argv)
    return cmd_spread(args) if args.mode == "spread" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
