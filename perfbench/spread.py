"""Run workloads over several seeds and report each metric's median and spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --runs 10                  # every workload, seeds 1..10
    python3 perfbench/spread.py --workloads drain-http --seeds 3 4 5 --jsonl runs.jsonl
    python3 perfbench/spread.py --summarize runs.jsonl     # no new runs

For each workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the spread
(Q3 - Q1) / median and the bound from BENCHMARK.json.  Runs are only
summarized together when their provenance matches (benchlib.comparable):
a set that mixes machines, BLAS builds or thread settings is refused.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import benchlib  # noqa: E402

RUN_TIMEOUT = 900


def run_once(workload: str, seed: int, seconds: int, trace: int) -> Dict:
    """One benchmark run in a fresh process: its full record, result line and wall seconds."""
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited {completed.returncode}:\n"
                           f"{completed.stderr[-2000:]}")
    return {"record": json.loads(lines[-2])["perfbench"], "result": json.loads(lines[-1]),
            "run_s": time.perf_counter() - started}


def summarize(entries: List[Dict], declaration: Dict) -> bool:
    """Print the spread table; False if any set is incomparable or incorrect."""
    bounds = {m["name"]: m.get("bound") for m in declaration["end_to_end"]}
    ok = True
    by_workload: Dict[str, List[Dict]] = {}
    for entry in entries:
        by_workload.setdefault(entry["record"]["provenance"]["workload"], []).append(entry)
    for workload, group in by_workload.items():
        keys = {benchlib.comparison_key(e["record"]["provenance"]) for e in group}
        if len(keys) > 1:
            print(f"{workload}: runs differ in provenance; not compared:")
            for key in sorted(keys):
                print(f"  {key}")
            ok = False
            continue
        incorrect = [e["record"]["provenance"]["seed"] for e in group if not e["result"]["correct"]]
        commits = sorted({str(e["record"]["provenance"]["commit"]) for e in group})
        run_s = [e["run_s"] for e in group if "run_s" in e]
        print(f"\n{workload}: {len(group)} runs, commits {commits}, incorrect seeds {incorrect}"
              + (f", median run {statistics.median(run_s):.1f} s" if run_s else ""))
        ok = ok and not incorrect
        print(f"  {'metric':32} {'unit':>8} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        names = list(group[0]["result"]["metrics"])
        for name in names:
            values = [e["result"]["metrics"][name]["value"] for e in group]
            unit = group[0]["result"]["metrics"][name]["unit"]
            middle = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (middle,) * 3
            spread = (q3 - q1) / middle if middle else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound:
                flag = "  > bound"
            elif bound is not None and spread > bound / 3:
                flag = "  > bound/3"
            print(f"  {name:32} {unit:>8} {middle:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bound if bound is not None else '':>6}{flag}")
    return ok


def main(argv=None) -> int:
    declaration = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in declaration["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int)
    parser.add_argument("--runs", type=int, default=5, help="seeds 1..N when --seeds is not given")
    parser.add_argument("--seconds", type=int, default=declaration["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jsonl", type=Path, help="append every run's record here")
    parser.add_argument("--summarize", type=Path, help="summarize a JSONL file; run nothing")
    args = parser.parse_args(argv)

    if args.summarize is not None:
        entries = [json.loads(line) for line in args.summarize.read_text().splitlines() if line]
        return 0 if summarize(entries, declaration) else 1
    seeds = args.seeds or list(range(1, args.runs + 1))
    entries = []
    for workload in args.workloads:
        for seed in seeds:
            entry = run_once(workload, seed, args.seconds, args.trace)
            entries.append(entry)
            metrics = {k: round(v["value"], 4) for k, v in entry["result"]["metrics"].items()}
            steal = entry["record"].get("host_steal_frac")
            print(f"{workload} seed {seed}: {entry['run_s']:.1f} s correct={entry['result']['correct']} "
                  f"steal={steal if steal is None else round(steal, 3)} {metrics}", flush=True)
            if args.jsonl is not None:
                with args.jsonl.open("a") as stream:
                    stream.write(json.dumps(entry) + "\n")
    return 0 if summarize(entries, declaration) else 1


if __name__ == "__main__":
    sys.exit(main())
