#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads bqp-protocol,sr-protocol --seeds 1-10

Each run is an end-to-end run (``--trace 0``) of BENCHMARK.json's length.
For every workload and metric it prints the median over the runs, the
quartiles, and their distance as a share of the median (the spread that
BENCHMARK.json's bounds are judged against). ``--json`` also writes the
figures, with every run's values and environment, to a file.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    env = next((json.loads(line[6:]) for line in lines if line.startswith("# env ")), None)
    return {"seed": seed, "result": result, "env": env}


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10", help="lo-hi or a comma list")
    ap.add_argument("--json", help="write the summary and every run to this file")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            runs.append(run_once(spec, workload, seed))
            r = runs[-1]["result"]
            print(f"{workload} seed {seed}: correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']}", flush=True)
        names = list(runs[0]["result"]["metrics"])
        summary = {n: summarize([r["result"]["metrics"][n]["value"] for r in runs])
                   for n in names}
        report[workload] = {"summary": summary, "runs": runs}
        for n, s in summary.items():
            bound = bounds[n]
            flag = f"  bound {bound}" + (
                "  OVER A THIRD OF BOUND" if s["iqr_share"] > bound / 3 else "")
            unit = runs[0]["result"]["metrics"][n]["unit"]
            print(f"  {n:16s} {unit:6s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['iqr_share']:.4f}{flag}", flush=True)
        failed = sum(r["result"]["failed"] for r in runs)
        attempted = sum(r["result"]["attempted"] for r in runs)
        print(f"  failed_share = {failed / attempted!r} ({failed}/{attempted})", flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
