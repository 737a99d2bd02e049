"""Pure helpers of the benchmark: inputs, statistics, tracing, checks, provenance.

Nothing here imports ``repro``: the helpers are tested on their own
(``test_perfbench.py``) and the workloads in ``workloads.py`` combine them
with the program's public calls.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import random
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

# ------------------------------------------------------------------ inputs


def derive_seed(seed: int, *labels: object) -> int:
    """A stable 31-bit seed for one named input of a workload.

    Hash-derived rather than ``seed + i`` so that neighbouring benchmark
    seeds share no training seeds.
    """
    text = ":".join([str(int(seed))] + [str(label) for label in labels])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") >> 1


def attack_inputs(seed: int, attacks: int) -> Dict[str, Any]:
    """Training seeds and held-out evaluation seeds for attack-lru4."""
    return {"train_seeds": [derive_seed(seed, "attack", i) for i in range(attacks)],
            "heldout_seeds": [derive_seed(seed, "heldout", i) for i in range(attacks)]}


def campaign_inputs(seed: int, campaigns: int) -> Dict[str, Any]:
    """Campaign seeds for campaign-defense-w1."""
    return {"campaign_seeds": [derive_seed(seed, "campaign", i) for i in range(campaigns)]}


def drain_inputs(seed: int, campaigns: int, sampled: int = 3) -> Dict[str, Any]:
    """Campaign seeds to enqueue for drain-http, and the ones checked serially."""
    base = derive_seed(seed, "drain") % 1_000_000
    seeds = [base + i for i in range(campaigns)]
    picks = random.Random(derive_seed(seed, "sample")).sample(seeds, min(sampled, campaigns))
    return {"campaign_seeds": seeds, "sampled_seeds": sorted(picks)}


# --------------------------------------------------------------- statistics

#: Percentiles reported for a timing, in hundredths of a percent.
_LADDER = (5000, 9000, 9500, 9900, 9990, 9999)


def tail_percentile(samples: int, beyond: int = 10) -> Optional[float]:
    """The highest ladder percentile with at least ``beyond`` samples above it.

    Integer arithmetic on purpose: ``n * (100 - 99.9) / 100`` falls a hair
    short of 10 in floating point for n = 10000.
    """
    best = None
    for rank in _LADDER:
        if samples * (10000 - rank) >= beyond * 10000:
            best = rank / 100
    return best


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    position = (len(ordered) - 1) * p / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def timing_summary(seconds: Sequence[float], scale: float = 1.0) -> Dict[str, Any]:
    """Median, tail percentile (by :func:`tail_percentile`) and sample count."""
    tail = tail_percentile(len(seconds))
    return {"samples": len(seconds),
            "p50": median(seconds) * scale if seconds else None,
            "tail_percentile": tail,
            "tail": percentile(seconds, tail) * scale if tail is not None else None}


# ------------------------------------------------------------------ tracing


class SpanStats:
    """Accumulated spans of one call path."""

    __slots__ = ("count", "total", "self_total", "durations")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.self_total = 0.0
        self.durations: List[float] = []


class Tracer:
    """Spans around calls, kept in memory, with self time per call path.

    A span's key is its call path (``"rl.train/rl.eval/rl.policy.act"``), so
    the same function is told apart by its caller.  Self time is a span's
    duration minus the durations of its direct children.  Each thread has its
    own span stack; a thread's outermost spans have no parent.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.paths: Dict[str, SpanStats] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> None:
        stack = self._stack()
        path = f"{stack[-1][0]}/{name}" if stack else name
        stack.append([path, self.clock(), 0.0])

    def exit(self) -> float:
        stack = self._stack()
        path, started, children = stack.pop()
        duration = self.clock() - started
        if stack:
            stack[-1][2] += duration
        with self._lock:
            stats = self.paths.get(path)
            if stats is None:
                stats = self.paths[path] = SpanStats()
            stats.count += 1
            stats.total += duration
            stats.self_total += duration - children
            stats.durations.append(duration)
        return duration

    def wrap(self, owner: Any, attribute: str, name: str,
             observe: Optional[Callable[[Any], None]] = None) -> None:
        """Replace ``owner.attribute`` with a traced version until :meth:`restore`.

        ``observe(result)`` runs after each call, inside the span, for counts
        taken from what the call returned.
        """
        original = vars(owner)[attribute]
        tracer = self

        def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                result = original(*args, **kwargs)
                if observe is not None:
                    observe(result)
                return result
            finally:
                tracer.exit()

        setattr(owner, attribute, traced)
        self._patches.append((owner, attribute, original))

    def restore(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------- queries
    def total(self, path: str) -> float:
        stats = self.paths.get(path)
        return stats.total if stats else 0.0

    def self_time(self, path: str) -> float:
        stats = self.paths.get(path)
        return stats.self_total if stats else 0.0

    def count(self, path: str) -> int:
        stats = self.paths.get(path)
        return stats.count if stats else 0

    def durations(self, path: str) -> List[float]:
        stats = self.paths.get(path)
        return list(stats.durations) if stats else []

    def report(self) -> Dict[str, Dict[str, float]]:
        return {path: {"count": s.count, "total_s": s.total, "self_s": s.self_total}
                for path, s in sorted(self.paths.items())}


# ----------------------------------------------------------- output checks

#: Probe-accuracy predicates of the defense matrix (the paper's Table VII
#: finding and its controls): (scenario, defense) -> expected probe accuracy.
PROBE_PREDICATES = {
    ("guessing/plcache-baseline-4way", "plcache"): 1.0,
    ("guessing/lru-4way-disjoint", "plcache"): 0.5,
    ("guessing/lru-4way-disjoint", "way-partition"): 0.5,
    ("guessing/plcache-baseline-4way", "way-partition"): 0.5,
}


def binomial_cdf(k: int, n: int, p: float) -> float:
    """P(X <= k) for X ~ Binomial(n, p)."""
    return sum(math.comb(n, i) * p ** i * (1 - p) ** (n - i) for i in range(k + 1))


def check_attack(result: Mapping[str, Any], heldout_correct: int, heldout_episodes: int,
                 target: float = 0.95, alpha: float = 1e-3) -> List[str]:
    """Problems with one attack: not converged, or held-out accuracy below target.

    The held-out count is tested against the target, not compared with it:
    it fails when so few episodes are correct that an agent with accuracy
    ``target`` would score this low with probability below ``alpha``.
    Convergence is declared on a 40-episode evaluation, so an agent at 0.96
    often scores 0.94 on 100 fresh episodes; a plain comparison fails it.
    """
    problems = []
    if not result.get("converged"):
        problems.append(f"did not converge in {result.get('updates')} updates")
    elif result.get("epochs_to_converge") is None:
        problems.append("converged without an epoch count")
    if binomial_cdf(heldout_correct, heldout_episodes, target) < alpha:
        problems.append(f"held-out accuracy {heldout_correct}/{heldout_episodes} is below "
                        f"{target} (binomial p < {alpha})")
    return problems


def check_campaign_rows(rows: Sequence[Optional[Mapping[str, Any]]],
                        expected_cells: int = 15) -> List[str]:
    """Problems with a defense-matrix campaign: missing cells or broken predicates."""
    problems = []
    present = [row for row in rows if row is not None]
    if len(rows) != expected_cells or len(present) != expected_cells:
        problems.append(f"{len(present)}/{expected_cells} cells finished")
    found = {(row.get("scenario"), row.get("defense")): row for row in present}
    for key, expected in PROBE_PREDICATES.items():
        row = found.get(key)
        if row is None:
            problems.append(f"no row for {key}")
        elif row.get("probe_accuracy") != expected:
            problems.append(f"{key} probe accuracy {row.get('probe_accuracy')} != {expected}")
    return problems


def canonical(value: Any) -> str:
    """A row as canonical JSON, so rows from HTTP and from disk compare equal."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def check_drain(completed_events: Mapping[tuple, int], run_ids: Mapping[int, str],
                cells_per_campaign: int, served_rows: Mapping[int, Sequence[Any]],
                serial_rows: Mapping[int, Sequence[Any]]) -> Dict[str, List[str]]:
    """Problems with a drain, by the run id of the campaign they belong to.

    ``run_ids`` maps each enqueued campaign seed to its run id.  A campaign
    fails when one of its cells is not completed exactly once, or when its
    served rows differ from a serial run of the same seed (checked for the
    seeds in ``serial_rows``).
    """
    problems: Dict[str, List[str]] = {}
    expected = {(run_id, index) for run_id in run_ids.values()
                for index in range(cells_per_campaign)}
    for cell in sorted(expected | set(completed_events)):
        times = completed_events.get(cell, 0)
        if cell not in expected:
            problems.setdefault(cell[0], []).append(f"unexpected completion of cell {cell[1]}")
        elif times != 1:
            problems.setdefault(cell[0], []).append(f"cell {cell[1]} completed {times} times")
    for seed, rows in serial_rows.items():
        served = served_rows.get(seed)
        if served is None or [canonical(r) for r in served] != [canonical(r) for r in rows]:
            problems.setdefault(run_ids[seed], []).append(
                f"campaign seed {seed}: served rows differ from a serial run")
    return problems


# --------------------------------------------------------------- provenance

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "REPRO_TELEMETRY")


def _git(root: Path, *args: str) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        completed = subprocess.run(["git", *args], cwd=root, capture_output=True,
                                   text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return completed.stdout.strip() if completed.returncode == 0 else None


def source_digest(root: Path) -> str:
    """SHA-256 over the program's and the benchmark's Python sources.

    Identifies the code in a checkout that is not a git repository.
    """
    digest = hashlib.sha256()
    for directory in ("src", "perfbench"):
        for path in sorted((root / directory).rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def blas_info() -> Dict[str, Optional[str]]:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {"name": None, "version": None}
    return {"name": blas.get("name"), "version": blas.get("version")}


def provenance(root: Path, workload: str, seed: int, seconds: int, trace: bool) -> Dict[str, Any]:
    import numpy

    status = _git(root, "status", "--porcelain")
    return {
        "commit": _git(root, "rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "source_sha256": source_digest(root),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "blas": blas_info(),
        "env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


#: Provenance that must match for two runs to be compared: the machine and
#: software environment and the workload definition (not the seed or commit).
COMPARED_PROVENANCE = ("cpu_count", "cpu_affinity", "machine", "blas", "env",
                       "python", "numpy", "workload", "seconds", "trace")


def comparison_key(record: Mapping[str, Any]) -> str:
    return canonical({key: record.get(key) for key in COMPARED_PROVENANCE})


def comparable(a: Mapping[str, Any], b: Mapping[str, Any]) -> bool:
    return comparison_key(a) == comparison_key(b)


# ------------------------------------------------------------------- memory


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has waited for."""
    import resource

    scale = 1.0 / 1024 if sys.platform != "darwin" else 1.0 / (1024 * 1024)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) * scale


def cpu_times() -> Optional[List[int]]:
    """The machine's aggregate CPU counters from /proc/stat (None elsewhere)."""
    try:
        with open("/proc/stat") as stream:
            return [int(field) for field in stream.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_fraction(before: Optional[List[int]], after: Optional[List[int]]) -> Optional[float]:
    """Share of CPU time the hypervisor gave to other guests between two samples."""
    if before is None or after is None or len(before) < 8:
        return None
    total = sum(after[:8]) - sum(before[:8])
    return (after[7] - before[7]) / total if total > 0 else None


def tree_bytes(directory: Path) -> int:
    return sum(path.stat().st_size for path in Path(directory).rglob("*") if path.is_file())
