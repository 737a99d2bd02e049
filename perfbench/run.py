"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload attack-lru4 --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The line before it is the full record: provenance, every
metric under the name it has in README.md, timing tails with their sample
counts, and the problems any output check found.

The program is imported from ``src/`` of the same checkout and run as
shipped: the benchmark sets no BLAS-thread or telemetry variables.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import benchlib  # noqa: E402


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _declared(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    declaration = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declaration["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = _arguments(argv)
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {source}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    declared = _declared(bool(args.trace))

    workdir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    child_env = dict(os.environ)
    child_env["PYTHONPATH"] = os.pathsep.join(
        [str(source)] + ([child_env["PYTHONPATH"]] if child_env.get("PYTHONPATH") else []))
    ctx = workloads.Context(workdir=workdir, seed=args.seed, seconds=args.seconds,
                            trace=bool(args.trace), child_env=child_env)
    cpu_before = benchlib.cpu_times()
    try:
        outcome = workloads.WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        # Flush the deletions now, so that their writeback does not land in
        # the next run's measurement.
        os.sync()

    attempted = max(1, outcome.attempted)
    failed = min(outcome.failed, attempted)
    if args.trace:
        # Layers a workload does not exercise record no spans: 0.
        values = dict.fromkeys(declared, 0.0)
        values.update(outcome.per_layer)
    else:
        values = dict(outcome.end_to_end)
        values["peak_rss_mb"] = benchlib.peak_rss_mb()
        values["ok_frac"] = (attempted - failed) / attempted
    missing = sorted(set(declared) - set(values))
    unknown = sorted(set(values) - set(declared))
    broken = sorted(name for name, value in values.items() if not math.isfinite(value))
    problems = list(outcome.problems)
    if missing or unknown or broken:
        problems.append(f"metrics missing {missing}, undeclared {unknown}, not finite {broken}")
    record = {
        "provenance": benchlib.provenance(ROOT, args.workload, args.seed, args.seconds,
                                          bool(args.trace)),
        "host_steal_frac": benchlib.steal_fraction(cpu_before, benchlib.cpu_times()),
        "problems": problems,
        "details": outcome.report,
    }
    print(json.dumps({"perfbench": record}, default=str))
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name] if name not in broken + missing else None,
                           "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
