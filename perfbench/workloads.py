"""The benchmark's workloads, driven through the program's public calls.

Each workload function takes a :class:`Context` and returns an
:class:`Outcome`.  With ``ctx.trace`` set, attack-lru4 and drain-http run
their unit of work twice on the same inputs, untraced and then traced: the
traced pass gives the per-layer split and the difference between the passes
is the tracing overhead.  campaign-defense-w1 reads its split from the
artifacts of its untraced campaigns, so it traces nothing.  See README.md
for why each workload exists.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import benchlib

# ----------------------------------------------------------------- settings

#: attack-lru4: the paper's core loop at the repository's bench geometry.
ATTACK_SCENARIO = "guessing/lru-4way"
ATTACK_TARGET = 0.95
ATTACK_EVAL_EVERY = 5
#: Episodes of the trainer's convergence evaluation.  With 40, an agent whose
#: accuracy is near 0.9 passes 38/40 by luck often enough that some seeds
#: declare convergence with a held-out accuracy of 0.88; with 100 the agent
#: it declares converged holds up on held-out episodes.
ATTACK_EVAL_EPISODES = 100
#: Update cap for one attack.  Convergence takes 155-295 updates across
#: seeds; the cap only bounds a run that never converges (counted failed).
ATTACK_MAX_UPDATES = 400
HELDOUT_EPISODES = 200
#: Seconds one attack takes at the baseline on 2 cores; sizes the run.
ATTACK_UNIT_SECONDS = 40.0

#: campaign-defense-w1: the defense matrix at bench geometry with a trimmed
#: update budget, one cell at a time in the runner's worker-process pool.
#: With 2 workers the campaign is 2-3x slower on 2 cores (each cell process
#: runs unpinned BLAS threads) and its wall-clock swings by up to 2x from one
#: campaign to the next, too unsteady to gate; reference.py measures it once.
CAMPAIGN_EXPERIMENT = "defense_matrix"
CAMPAIGN_WORKERS = 1
#: A per-cell watchdog budget far above a cell's ~1 s.  Setting one makes
#: repro.run execute each cell in a pool worker process, the path that
#: ``workers > 1`` uses, instead of in-process.
CAMPAIGN_TIMEOUT = 600.0
CAMPAIGN_UPDATES = 3
CAMPAIGN_CELLS = 15
CAMPAIGN_UNIT_SECONDS = 13.0

#: drain-http: table4 smoke campaigns (17 cheap cells each) drained by one
#: HTTP worker while a status reader polls.
DRAIN_EXPERIMENT = "table4"
DRAIN_CELLS_PER_CAMPAIGN = 17
DRAIN_CAMPAIGNS_PER_SECOND = 1.5
STATUS_THINK_SECONDS = 0.1
WORKER_ID = "perfbench-worker"
STATUS_ID = "perfbench-status"

#: Set-up probes per run.  Set-up time follows the host's state, which drifts
#: over tens of seconds, so half the probes run before the run's work and
#: half after it, and the run reports their median.
SETUP_PROBES = 8
CHILD_TIMEOUT = 120.0


@dataclass
class Context:
    workdir: Path
    seed: int
    seconds: int
    trace: bool
    child_env: Dict[str, str]


@dataclass
class Outcome:
    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    report: Dict[str, Any] = field(default_factory=dict)


def _units(seconds: int, unit_seconds: float) -> int:
    return max(1, int(round(seconds / unit_seconds)))


def _setup_probe(ctx: Context, code: str) -> List[float]:
    """Wall seconds of half the set-up probes: fresh interpreters that import
    and construct."""
    durations = []
    for _ in range(SETUP_PROBES // 2):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ctx.workdir, env=ctx.child_env,
                       check=True, capture_output=True, timeout=CHILD_TIMEOUT)
        durations.append(time.perf_counter() - started)
    return durations


def _overhead(per_layer: Dict[str, float], untraced: float, traced: float) -> None:
    per_layer["trace.overhead_s"] = traced - untraced
    per_layer["trace.overhead_frac"] = (traced - untraced) / untraced


# ------------------------------------------------------------- attack-lru4

_ATTACK_SETUP = """
from repro.experiments.common import BENCH
from repro.rl.trainer import PPOTrainer
PPOTrainer({scenario!r}, BENCH.ppo_config(), hidden_sizes=BENCH.hidden_sizes, seed={seed})
"""


def _train_attack(seed: int, tracer: Optional[benchlib.Tracer] = None) -> Dict[str, Any]:
    from repro import PPOTrainer
    from repro.experiments.common import BENCH

    trainer = PPOTrainer(ATTACK_SCENARIO, BENCH.ppo_config(),
                         hidden_sizes=BENCH.hidden_sizes, seed=seed)
    marks: List[float] = []
    trainer.add_update_callback(lambda *_: marks.append(time.perf_counter()))
    started = time.perf_counter()
    if tracer is not None:
        tracer.enter("rl.train")
    try:
        result = trainer.train(max_updates=ATTACK_MAX_UPDATES, target_accuracy=ATTACK_TARGET,
                               eval_every=ATTACK_EVAL_EVERY,
                               eval_episodes=ATTACK_EVAL_EPISODES)
    finally:
        if tracer is not None:
            tracer.exit()
    wall = time.perf_counter() - started
    steps = [b - a for a, b in zip([started] + marks, marks)]
    return {"trainer": trainer, "result": result.to_dict(include_history=False),
            "wall": wall, "update_steps": steps}


def _trace_rl(tracer: benchlib.Tracer, resets: List[int]) -> None:
    import numpy as np
    import repro.rl.trainer as trainer_module
    from repro.rl.buffer import RolloutBuffer
    from repro.rl.policy import ActorCriticPolicy
    from repro.rl.ppo import PPOUpdater
    from repro.rl.vec_env import VecEnv

    def count_resets(output: Any) -> None:
        resets[0] += int(np.count_nonzero(output[2]))

    tracer.wrap(PPOUpdater, "update", "rl.ppo.update")
    tracer.wrap(ActorCriticPolicy, "act", "rl.policy.act")
    tracer.wrap(VecEnv, "step", "rl.vec_env.step", observe=count_resets)
    tracer.wrap(RolloutBuffer, "add", "rl.buffer.add")
    tracer.wrap(RolloutBuffer, "finalize", "rl.buffer.finalize")
    tracer.wrap(trainer_module, "evaluate_policy", "rl.eval")
    tracer.wrap(trainer_module, "extract_attack_sequence", "rl.extract")


def rl_split(tracer: benchlib.Tracer, wall: float, env_steps: int, resets: int) -> Dict[str, float]:
    """Per-layer seconds of one traced attack; the parts plus ``other`` are the wall."""
    base = "rl.train/"
    parts = {
        "rl.ppo.update_s": tracer.total(base + "rl.ppo.update"),
        "rl.policy.act_s": tracer.total(base + "rl.policy.act"),
        "rl.vec_env.step_s": tracer.total(base + "rl.vec_env.step"),
        "rl.buffer.add_s": tracer.total(base + "rl.buffer.add"),
        "rl.buffer.finalize_s": tracer.total(base + "rl.buffer.finalize"),
        "rl.eval_s": tracer.self_time(base + "rl.eval"),
        "rl.eval.act_s": tracer.total(base + "rl.eval/rl.policy.act"),
        "rl.extract_s": tracer.total(base + "rl.extract"),
    }
    covered = sum(parts.values())
    updates = tracer.durations(base + "rl.ppo.update")
    split = dict(parts)
    split["rl.train_wall_s"] = wall
    split["rl.trainer.other_s"] = wall - covered
    split["rl.split_coverage"] = covered / wall
    split["rl.ppo.update_ms_p50"] = benchlib.median(updates) * 1000 if updates else 0.0
    split["rl.vec_env.resets_per_kstep"] = resets / (env_steps / 1000.0)
    return split


def attack(ctx: Context) -> Outcome:
    from repro import make
    from repro.rl import evaluate_policy

    units = 1 if ctx.trace else _units(ctx.seconds, ATTACK_UNIT_SECONDS)
    inputs = benchlib.attack_inputs(ctx.seed, units)
    out = Outcome()
    setup_code = _ATTACK_SETUP.format(scenario=ATTACK_SCENARIO, seed=inputs["train_seeds"][0])
    setup = _setup_probe(ctx, setup_code)
    walls, epochs, rates, steps = [], [], [], []
    runs = []
    for train_seed, heldout_seed in zip(inputs["train_seeds"], inputs["heldout_seeds"]):
        run = _train_attack(train_seed)
        result = run["result"]
        heldout = evaluate_policy(make(ATTACK_SCENARIO, seed=heldout_seed),
                                  run["trainer"].policy, episodes=HELDOUT_EPISODES,
                                  seed=heldout_seed)["accuracy"]
        problems = benchlib.check_attack(result, round(heldout * HELDOUT_EPISODES),
                                         HELDOUT_EPISODES, ATTACK_TARGET)
        out.attempted += 1
        out.failed += bool(problems)
        out.problems += [f"seed {train_seed}: {p}" for p in problems]
        walls.append(run["wall"])
        epochs.append(result["env_steps"] / 3000.0)
        rates.append(result["env_steps"] / run["wall"])
        steps += run["update_steps"]
        runs.append({"train_seed": train_seed, "updates": result["updates"],
                     "epochs_to_converge": result["epochs_to_converge"],
                     "heldout_accuracy": heldout, "wall_s": run["wall"]})
    setup += _setup_probe(ctx, setup_code)
    out.end_to_end = {
        "setup_s": benchlib.median(setup),
        "rate_per_s": benchlib.median(rates),
    }
    out.report = {"attacks": runs, "setup_s": setup,
                  "time_to_attack_s": benchlib.timing_summary(walls),
                  "epochs_to_attack": benchlib.median(epochs),
                  "env_steps_per_s": benchlib.median(rates),
                  "update_step_ms": benchlib.timing_summary(steps, 1000)}

    if ctx.trace:
        seed = inputs["train_seeds"][0]
        tracer = benchlib.Tracer()
        resets = [0]
        _trace_rl(tracer, resets)
        try:
            run = _train_attack(seed, tracer)
        finally:
            tracer.restore()
        result = run["result"]
        out.attempted += 1
        if result["epochs_to_converge"] != runs[0]["epochs_to_converge"]:
            out.failed += 1
            out.problems.append(f"seed {seed}: traced run converged at "
                                f"{result['epochs_to_converge']} epochs, untraced at "
                                f"{runs[0]['epochs_to_converge']}")
        out.per_layer = rl_split(tracer, run["wall"], result["env_steps"], resets[0])
        out.per_layer["rl.epochs_to_attack"] = epochs[0]
        out.per_layer["rl.heldout_accuracy"] = runs[0]["heldout_accuracy"]
        if out.per_layer["rl.split_coverage"] < 0.95:
            out.failed += 1
            out.problems.append("traced rl parts cover less than 95% of the train wall")
        _overhead(out.per_layer, walls[0], run["wall"])
        out.report["trace"] = tracer.report()
    return out


# ------------------------------------------------------- campaign-defense-w1

_CAMPAIGN_SETUP = """
import repro
from repro.experiments.common import BENCH
spec = repro.get_experiment({experiment!r})
spec.resolve_driver()
spec.cells(BENCH.with_overrides(name="perfbench", max_updates={updates}))
"""


def campaign_scale():
    from repro.experiments.common import BENCH

    return BENCH.with_overrides(name="perfbench", max_updates=CAMPAIGN_UPDATES)


def _cell_engines(rows: List[Optional[Dict[str, Any]]]) -> List[str]:
    """"soa" or "object" per cell: the engine VecEnv picks for its scenario."""
    from repro import make_factory
    from repro.env.batched_env import spec_supports_batching

    engines = []
    for row in rows:
        overrides = {} if row["defense"] == "none" else {"defense": row["defense"]}
        spec = make_factory(row["scenario"], **overrides).spec
        engines.append("soa" if spec_supports_batching(spec) else "object")
    return engines


def campaign_seeds(seed: int, seconds: int) -> List[int]:
    """The campaign seeds one run of campaign-defense-w1 measures."""
    return benchlib.campaign_inputs(seed, _units(seconds, CAMPAIGN_UNIT_SECONDS))["campaign_seeds"]


def run_campaign(seed: int, root: Path, workers: int = CAMPAIGN_WORKERS) -> Dict[str, Any]:
    """One defense-matrix campaign: its wall-clock, rows and per-cell seconds."""
    import repro

    os.sync()
    started = time.perf_counter()
    try:
        campaign = repro.run(CAMPAIGN_EXPERIMENT, scale=campaign_scale(),
                             workers=workers, seed=seed, root=root,
                             timeout=CAMPAIGN_TIMEOUT)
    except Exception as error:  # a failed cell raises; the run reports it
        return {"wall": time.perf_counter() - started, "rows": [],
                "error": f"{type(error).__name__}: {error}"}
    wall = time.perf_counter() - started
    cell_seconds = []
    for cell in campaign.cells:
        payload = json.loads((campaign.out_dir / "cells" / cell["slug"] / "result.json").read_text())
        cell_seconds.append(float(payload["elapsed_seconds"]))
    return {"wall": wall, "rows": campaign.rows, "out_dir": campaign.out_dir,
            "cell_seconds": cell_seconds}


def runs_split(run: Dict[str, Any], engines: List[str]) -> Dict[str, float]:
    cells = run["cell_seconds"]
    capacity = CAMPAIGN_WORKERS * run["wall"]
    return {
        "runs.cell_s_sum": sum(cells),
        "runs.cell_s_max": max(cells),
        "runs.cell_ms_p50": benchlib.median(cells) * 1000,
        "runs.cell_s_sum.soa": sum(s for s, e in zip(cells, engines) if e == "soa"),
        "runs.cell_s_sum.object": sum(s for s, e in zip(cells, engines) if e == "object"),
        "runs.capacity_s": capacity,
        "runs.parallel_efficiency": sum(cells) / capacity,
        "runs.artifact_bytes": float(benchlib.tree_bytes(run["out_dir"])),
        # The split is read from each cell's result.json and the artifact
        # tree: nothing is wrapped, so tracing costs nothing.
        "trace.overhead_s": 0.0,
        "trace.overhead_frac": 0.0,
    }


def campaign(ctx: Context) -> Outcome:
    seeds = campaign_seeds(ctx.seed, ctx.seconds)
    out = Outcome()
    setup_code = _CAMPAIGN_SETUP.format(experiment=CAMPAIGN_EXPERIMENT, updates=CAMPAIGN_UPDATES)
    setup = _setup_probe(ctx, setup_code)
    walls, cells, runs = [], [], []
    for index, seed in enumerate(seeds):
        run = run_campaign(seed, ctx.workdir / f"campaign-{index}")
        problems = ([run["error"]] if "error" in run
                    else benchlib.check_campaign_rows(run["rows"], CAMPAIGN_CELLS))
        out.attempted += 1
        out.failed += bool(problems)
        out.problems += [f"campaign seed {seed}: {p}" for p in problems]
        walls.append(run["wall"])
        cells += run.get("cell_seconds", [])
        runs.append(run)
    setup += _setup_probe(ctx, setup_code)
    out.end_to_end = {
        "setup_s": benchlib.median(setup),
        "rate_per_s": CAMPAIGN_CELLS / benchlib.median(walls),
    }
    out.report = {"campaign_seeds": seeds, "setup_s": setup,
                  "campaign_walls_s": walls,
                  "campaign_wall_s": benchlib.timing_summary(walls),
                  "cell_ms": benchlib.timing_summary(cells, 1000)}
    if ctx.trace and "error" not in runs[0]:
        out.per_layer = runs_split(runs[0], _cell_engines(runs[0]["rows"]))
    return out


# ----------------------------------------------------------------- drain-http


class Server:
    """``repro serve`` in a subprocess, on a free port."""

    def __init__(self, ctx: Context, root: Path):
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--root", str(root), "--port", "0"],
            cwd=ctx.workdir, env=ctx.child_env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True)
        line = self.process.stdout.readline()
        self.ready_seconds = time.perf_counter() - started
        if "http://" not in line:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.url = "http://" + line.split("http://", 1)[1].split("/api/", 1)[0]

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        self.process.stdout.close()


def _server_ready(ctx: Context, root: Path) -> List[float]:
    """Start-to-ready seconds of half the set-up probes: servers on fresh roots."""
    ready = []
    for index in range(SETUP_PROBES // 2):
        probe = Server(ctx, root / str(index))
        ready.append(probe.ready_seconds)
        probe.stop()
    return ready


def _poll_status(client: Any, run_ids: List[str], stop: threading.Event,
                 tracer: benchlib.Tracer) -> None:
    """Closed-loop status reader: one GET, then think, until stopped."""
    index = 0
    while not stop.is_set():
        run_id = run_ids[index % len(run_ids)]
        index += 1
        tracer.enter("store.status")
        try:
            client.get(f"/api/campaigns/{run_id}")
        finally:
            tracer.exit()
        stop.wait(STATUS_THINK_SECONDS)


def _drain_pass(ctx: Context, inputs: Dict[str, Any], name: str, layers: bool) -> Dict[str, Any]:
    """Start a server, enqueue the campaigns, drain them over HTTP, check.

    The claim, complete and status latencies are always traced; with
    ``layers`` the transport and ``run_cell`` are traced too.
    """
    from repro import run as repro_run
    from repro.runs.spec import ExperimentSpec
    from repro.store import Catalog, JobQueue, StoreClient
    from repro.store.client import UrllibTransport
    from repro.store.worker import submit_campaign, work

    base = ctx.workdir / name
    server_root, worker_root = base / "server", base / "worker"
    server = Server(ctx, server_root)
    stop = threading.Event()
    tracer = benchlib.Tracer()
    poller = None
    try:
        run_ids, submit_seconds = [], []
        for seed in inputs["campaign_seeds"]:
            started = time.perf_counter()
            run_ids.append(submit_campaign(DRAIN_EXPERIMENT, scale="smoke", seed=seed,
                                           root=server_root).run_id)
            submit_seconds.append(time.perf_counter() - started)
        os.sync()  # the drain starts with no writeback pending from set-up
        tracer.wrap(StoreClient, "claim", "store.client.claim")
        tracer.wrap(StoreClient, "complete", "store.client.complete")
        if layers:
            tracer.wrap(UrllibTransport, "__call__", "store.client.request")
            tracer.wrap(ExperimentSpec, "run_cell", "runs.run_cell")
        reader = StoreClient(server.url, worker_id=STATUS_ID)
        poller = threading.Thread(target=_poll_status, name=STATUS_ID,
                                  args=(reader, run_ids, stop, tracer))
        poller.start()
        started = time.perf_counter()
        tracer.enter("store.work")
        try:
            summary = work(root=worker_root, server=server.url, worker_id=WORKER_ID)
        finally:
            tracer.exit()
        wall = time.perf_counter() - started
        stop.set()
        poller.join(timeout=60)
        rows = {seed: StoreClient(server.url).get(f"/api/campaigns/{run_id}/rows")["rows"]
                for seed, run_id in zip(inputs["campaign_seeds"], run_ids)
                if seed in inputs["sampled_seeds"]}
    finally:
        stop.set()
        if poller is not None:
            poller.join(timeout=60)
        tracer.restore()
        server.stop()
    with Catalog(server_root / "catalog.sqlite") as catalog:
        events = JobQueue(catalog).lease_events()
    completed: Dict[tuple, int] = {}
    for event in events:
        if event["event"] == "completed":
            key = (event["run_id"], event["cell_index"])
            completed[key] = completed.get(key, 0) + 1
    serial = {seed: repro_run(DRAIN_EXPERIMENT, scale="smoke", seed=seed, catalog=False,
                              root=base / "serial").rows
              for seed in inputs["sampled_seeds"]}
    by_run = benchlib.check_drain(completed, dict(zip(inputs["campaign_seeds"], run_ids)),
                                  DRAIN_CELLS_PER_CAMPAIGN, rows, serial)
    problems = [f"campaign {run_id}: {p}" for run_id, found in by_run.items() for p in found]
    failed = len(by_run)
    cells = len(run_ids) * DRAIN_CELLS_PER_CAMPAIGN
    if summary.failed or summary.completed != cells:
        problems.append(f"worker completed {summary.completed}/{cells} cells, "
                        f"failed {summary.failed}")
        failed = max(failed, 1)
    return {"wall": wall, "campaigns": len(run_ids), "cells": cells, "failed": failed,
            "tracer": tracer, "ready": server.ready_seconds,
            "submit_seconds": submit_seconds, "problems": problems,
            "worker_root": worker_root}


def _latencies(run: Dict[str, Any]) -> Dict[str, List[float]]:
    tracer = run["tracer"]
    return {"claim": tracer.durations("store.work/store.client.claim"),
            "complete": tracer.durations("store.work/store.client.complete"),
            "status": tracer.durations("store.status")}


def store_split(run: Dict[str, Any]) -> Dict[str, float]:
    tracer, cells, latency = run["tracer"], run["cells"], _latencies(run)
    requests = sum(stats.count for path, stats in tracer.paths.items()
                   if path.endswith("store.client.request")
                   and not path.startswith("store.status"))
    run_cell = tracer.durations("store.work/runs.run_cell")
    blocking = sum(latency["claim"]) + sum(latency["complete"]) + sum(run_cell)
    cell_seconds = [json.loads(path.read_text())["elapsed_seconds"]
                    for path in run["worker_root"].glob("*/cells/*/result.json")]
    return {
        "runs.run_cell_ms_p50": benchlib.median(run_cell) * 1000,
        "runs.cell_s_sum": float(sum(cell_seconds)),
        "runs.cell_s_max": float(max(cell_seconds)),
        "runs.artifact_bytes": float(benchlib.tree_bytes(run["worker_root"])),
        "store.client.requests_per_cell": requests / cells,
        "store.worker.other_ms_per_cell": (run["wall"] - blocking) / cells * 1000,
        "store.claim_ms_p50": benchlib.median(latency["claim"]) * 1000,
        "store.claim_ms_p99": benchlib.percentile(latency["claim"], 99) * 1000,
        "store.complete_ms_p50": benchlib.median(latency["complete"]) * 1000,
        "store.complete_ms_p99": benchlib.percentile(latency["complete"], 99) * 1000,
        "store.status_ms_p50": benchlib.median(latency["status"]) * 1000,
        # ~190 reads per drain: p90 is the highest percentile with 10 beyond.
        "store.status_ms_p90": benchlib.percentile(latency["status"], 90) * 1000,
    }


def drain(ctx: Context) -> Outcome:
    campaigns = max(2, int(round(ctx.seconds * DRAIN_CAMPAIGNS_PER_SECOND)))
    inputs = benchlib.drain_inputs(ctx.seed, campaigns)
    out = Outcome()
    ready = _server_ready(ctx, ctx.workdir / "probe-before")
    run = _drain_pass(ctx, inputs, "drain", layers=False)
    ready += [run["ready"]] + _server_ready(ctx, ctx.workdir / "probe-after")
    out.attempted += run["campaigns"]
    out.failed += run["failed"]
    out.problems += run["problems"]
    # Enqueueing is timed per campaign; the median times the count is the
    # enqueue time, steadier than one sum over the whole queue.
    submit = benchlib.median(run["submit_seconds"]) * campaigns
    out.end_to_end = {
        "setup_s": benchlib.median(ready) + submit,
        "rate_per_s": run["cells"] / run["wall"],
    }
    latency = _latencies(run)
    out.report = {"campaigns": campaigns, "sampled_seeds": inputs["sampled_seeds"],
                  "server_ready_s": ready, "submit_s": submit,
                  "submit_ms": benchlib.timing_summary(run["submit_seconds"], 1000),
                  "drain_cells_per_s": run["cells"] / run["wall"],
                  "claim_ms": benchlib.timing_summary(latency["claim"], 1000),
                  "complete_ms": benchlib.timing_summary(latency["complete"], 1000),
                  "status_ms": benchlib.timing_summary(latency["status"], 1000)}

    if ctx.trace:
        traced = _drain_pass(ctx, inputs, "drain-traced", layers=True)
        out.attempted += traced["campaigns"]
        out.failed += traced["failed"]
        out.problems += traced["problems"]
        out.per_layer = store_split(traced)
        _overhead(out.per_layer, run["wall"], traced["wall"])
        out.report["trace"] = traced["tracer"].report()
    return out


WORKLOADS: Dict[str, Callable[[Context], Outcome]] = {
    "attack-lru4": attack,
    "campaign-defense-w1": campaign,
    "drain-http": drain,
}
