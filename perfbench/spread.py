"""Run the benchmark on several seeds and summarise each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 --out perfbench/BENCH_label.json
    python3 perfbench/spread.py --workloads ideal-ops --seeds 1-5 --trace 1

Runs `python3 perfbench/run.py` once per (seed, workload), seeds in the outer
loop so that slow drift of the host spreads over all workloads.  For each
workload and metric it reports the median, the quartiles of
`statistics.quantiles(values, n=4)` and the spread (q3 - q1) / median, and for
end-to-end metrics the bound from BENCHMARK.json.  The unscaled figures of the
`info` line are summarised too, as `unscaled.<metric>`.  With --out it writes every
run's result line and info line plus the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    info = next((json.loads(line[6:]) for line in lines if line.startswith("info: ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return {"workload": workload, "seed": seed, "returncode": proc.returncode,
            "result": result, "info": info, "stderr": proc.stderr[-2000:]}


def summarise(runs: list[dict], bounds: dict) -> dict:
    out = {}
    for run in runs:
        if run["result"] is None:
            continue
        values = {name: m["value"] for name, m in run["result"]["metrics"].items()}
        for name, value in ((run["info"] or {}).get("unscaled") or {}).items():
            values["unscaled." + name] = value
        for name, value in values.items():
            out.setdefault(run["workload"], {}).setdefault(name, []).append(value)
    table = {}
    for workload, metrics in out.items():
        for name, values in metrics.items():
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            table.setdefault(workload, {})[name] = {
                "n": len(values), "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else None, "bound": bounds.get(name),
                "values": values}
    return table


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = []
    for seed in parse_seeds(args.seeds):
        for workload in args.workloads.split(","):
            run = run_once(workload, seed, args.seconds, args.trace)
            runs.append(run)
            ok = run["result"] is not None and run["returncode"] == 0
            print(f"{workload} seed {seed}: " + (" ".join(
                f"{k}={v['value']:.5g}" for k, v in run["result"]["metrics"].items())
                if ok else f"FAILED (exit {run['returncode']}) {run['stderr'][-300:]}"), flush=True)
    table = summarise(runs, bounds)
    failed = sum(1 for r in runs if r["result"] is None or r["returncode"] != 0
                 or not r["result"]["correct"] or r["result"]["failed"])
    print(f"\n{'workload':16} {'metric':40} {'median':>12} {'spread':>8} {'bound':>6}")
    for workload, metrics in table.items():
        for name, row in metrics.items():
            spread = f"{row['spread']:.3f}" if row["spread"] is not None else "-"
            bound = f"{row['bound']:.2f}" if row["bound"] is not None else ""
            print(f"{workload:16} {name:40} {row['median']:12.5g} {spread:>8} {bound:>6}")
    print(f"runs: {len(runs)}, failed or incorrect: {failed}")
    if args.out:
        args.out.write_text(json.dumps({"seconds": args.seconds, "trace": args.trace,
                                        "summary": table, "runs": runs}, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
