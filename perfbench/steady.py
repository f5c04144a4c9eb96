"""Steadiness check for the benchmark: repeated runs over different seeds.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--first-seed 1]
                                [--traced-runs 2] [--out summary.json]
                                [--compare earlier-summary.json]

Run it from the root of a source checkout that holds ``BENCHMARK.json``.
For every workload it runs ``run.py`` once per seed and reports, per
end-to-end metric, the median, the quartiles and their distance as a
share of the median.  It fails when a spread (``setup_s`` excepted) is
above the metric's bound, when a run is not correct, when the exact
per-layer counters differ between traced runs, or, with ``--compare``,
when a median is worse than the earlier summary's by more than the bound.
Spreads above a third of the bound are flagged as unsteady.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced-runs", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--compare")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    earlier = json.loads(Path(args.compare).read_text()) if args.compare else {}
    summary: dict = {}
    failures: list[str] = []
    if [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] != tracer.PER_LAYER:
        failures.append("BENCHMARK.json per_layer differs from tracer.PER_LAYER")

    for workload in args.workloads.split(","):
        seeds = range(args.first_seed, args.first_seed + args.runs)
        values: dict[str, list[float]] = {name: [] for name in bounds}
        op_seconds: dict[str, list[float]] = {}
        for seed in seeds:
            details, result = run_once(workload, seed, spec["run_seconds"], 0)
            if not result["correct"]:
                failures.append(f"{workload} seed {seed}: not correct: {details['failures']}")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload:20s} seed {seed:3d} passes {details['passes']:2d} " + " ".join(
                f"{name} {values[name][-1]:.4g}" for name in bounds), flush=True)
            for op, sec in details["op_seconds"].items():
                op_seconds.setdefault(op, []).append(sec)
        entry: dict = {"seeds": list(seeds), "end_to_end": {}, "op_seconds_median": {
            op: statistics.median(v) for op, v in op_seconds.items()}}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            entry["end_to_end"][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                         "values": vals}
            flag = ""
            if name != "setup_s" and spread > bounds[name]:
                failures.append(f"{workload} {name}: spread {spread:.4f} > bound {bounds[name]}")
                flag = "  OVER BOUND"
            elif spread > bounds[name] / 3:
                flag = "  unsteady (> bound/3)"
            drift = ""
            old = earlier.get(workload, {}).get("end_to_end", {}).get(name)
            if old:
                change = med / old["median"] - 1
                worse = change if better[name] == "lower" else -change
                drift = f"  vs earlier {change:+.4f}"
                if worse > bounds[name]:
                    failures.append(f"{workload} {name}: median worse by {worse:.4f}")
                    drift += " WORSE THAN BOUND"
            print(f"{workload:20s} {name:12s} median {med:12.6g}  spread {spread:.4f}"
                  f" (bound {bounds[name]}){flag}{drift}")

        if args.traced_runs:
            per_layer = []
            for seed in list(seeds)[: args.traced_runs]:
                details, result = run_once(workload, seed, spec["run_seconds"], 1)
                if not result["correct"]:
                    failures.append(f"{workload} traced seed {seed}: not correct: {details}")
                per_layer.append({k: v["value"] for k, v in result["metrics"].items()})
            for name in tracer.EXACT:
                if len({layer[name] for layer in per_layer}) > 1:
                    failures.append(f"{workload} {name} differs between traced runs")
            entry["per_layer_median"] = {
                name: statistics.median(layer[name] for layer in per_layer)
                for name in per_layer[0]}
            print(f"{workload:20s} exact counters equal over {len(per_layer)} traced runs: "
                  f"{all(len({layer[n] for layer in per_layer}) == 1 for n in tracer.EXACT)}")
        summary[workload] = entry

    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    for failure in failures:
        print("FAIL:", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
