"""One-off reference figures for the defense-matrix campaign (not a workload).

Runs the campaigns that one campaign-defense-w1 run of a seed measures, with
the given number of worker processes, and prints each campaign's wall-clock,
its cell-seconds and a digest of its rows.  The script sets no BLAS-thread
variables; to measure the BLAS-pinned reference, set them in the calling
environment::

    python3 perfbench/reference.py --seed 1 --workers 1
    python3 perfbench/reference.py --seed 1 --workers 2
    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 python3 perfbench/reference.py --seed 1 --workers 2

Campaigns with the same seed must print the same rows digest whatever the
worker count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import benchlib  # noqa: E402
import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workers", type=int, required=True)
    args = parser.parse_args(argv)

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    workdir = ROOT / ".perfbench" / f"reference-{args.seed}-{args.workers}"
    campaigns = []
    try:
        for index, seed in enumerate(workloads.campaign_seeds(args.seed, seconds)):
            run = workloads.run_campaign(seed, workdir / str(index), args.workers)
            campaigns.append({
                "campaign_seed": seed,
                "campaign_wall_s": run["wall"],
                "cell_s_sum": sum(run.get("cell_seconds", [])),
                "problems": ([run["error"]] if "error" in run
                             else benchlib.check_campaign_rows(run["rows"])),
                "rows_sha256": hashlib.sha256(
                    benchlib.canonical(run["rows"]).encode()).hexdigest(),
            })
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "provenance": benchlib.provenance(ROOT, "campaign-defense-w1", args.seed, seconds, False),
        "workers": args.workers,
        "campaigns": campaigns,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
