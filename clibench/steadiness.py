"""Repeat runs of the benchmark, one seed after another, and their spread.

    python3 clibench/steadiness.py

Run from the root of a source checkout.  Two sets, each of every workload in
BENCHMARK.json at seeds 1-10; each (workload, seed) pair is one untraced run
of run.py with BENCHMARK.json's run_seconds.  For every set and end-to-end
metric, clibench/results/steadiness.json gets the values, their median and
quartiles (``statistics.quantiles(values, n=4)``), and the spread: the
interquartile range as a share of the median, next to the metric's bound.
It also gets each metric's drift: how much worse the second set's median is.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path


SEEDS = list(range(1, 11))
SETS = 2
OUT = Path("clibench/results/steadiness.json")


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    cmd = [sys.executable, "clibench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return json.loads(lines[-1]), env


def summarize(runs: list[dict], bounds: dict[str, float]) -> dict:
    summary = {}
    for name, bound in bounds.items():
        values = [r["values"][name] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median, "bound": bound, "values": values}
        print(f"  {name}: median {median:.6g}, spread {(q3 - q1) / median:.4f} "
              f"(bound {bound})", flush=True)
    return {"all_correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs), "metrics": summary}


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    record = {"run_seconds": bench["run_seconds"], "seeds": SEEDS,
              "env": None, "workloads": {w: {"sets": []} for w in workloads}}
    for n in range(SETS):
        for workload in workloads:
            runs = []
            for seed in SEEDS:
                result, env = run_once(workload, seed, bench["run_seconds"])
                record["env"] = record["env"] or {
                    k: v for k, v in env.items()
                    if k not in ("seed", "workload", "rows_per_op", "bytes_per_op")}
                record["workloads"][workload]["rows_per_op"] = env["rows_per_op"]
                runs.append({"seed": seed, "correct": result["correct"],
                             "attempted": result["attempted"], "failed": result["failed"],
                             "values": {k: v["value"] for k, v in result["metrics"].items()}})
                print(f"set {n + 1}", workload, seed, json.dumps(runs[-1]["values"]), flush=True)
            record["workloads"][workload]["sets"].append(summarize(runs, bounds))
    for workload in workloads:
        first, last = (s["metrics"] for s in record["workloads"][workload]["sets"])
        # how much worse the second set's median is than the first's, as a
        # share of the first (negative: better)
        record["workloads"][workload]["drift"] = {
            name: (1 if lower[name] else -1)
            * (last[name]["median"] - first[name]["median"]) / first[name]["median"]
            for name in bounds}
        print(workload, "drift", json.dumps(record["workloads"][workload]["drift"]))
    OUT.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
