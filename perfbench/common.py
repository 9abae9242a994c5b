"""Helpers shared by ``run.py``, its child processes and the self-tests.

Nothing here imports ``repro``: ``run.py`` must be able to start (and
fail cleanly) in a directory that holds only the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space for fresh stores, job dirs, spans and result files.
OUT_DIR = ROOT / ".perfbench_out"
DIGESTS_PATH = BENCH_DIR / "digests.json"


class BenchError(RuntimeError):
    """The benchmark cannot run (missing program, child failure, ...)."""


def program_present() -> bool:
    """True when the checkout holds the ``repro`` package sources."""
    return (SRC / "repro" / "__init__.py").is_file()


def fresh_dir(prefix: str) -> Path:
    """A new empty directory inside the checkout's scratch area."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=OUT_DIR))


def child_env(cache_dir: Path) -> dict:
    """Environment for a child running the program from ``src/``.

    Every ``REPRO_*`` variable is dropped, so no caller setting (tracing,
    shard count, bench scale) leaks in; the child gets a fresh cache.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


# -- output checks -----------------------------------------------------------


def envelope_digest(document: dict) -> str:
    """SHA-256 of an envelope's ``request`` and ``metrics``.

    ``provenance`` is left out: it carries wall-clock ``compute_seconds``
    and the cache state, which differ between cold and warm answers.
    """
    core = {"request": document["request"], "metrics": document["metrics"]}
    text = json.dumps(core, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_digests(path: Path = DIGESTS_PATH) -> dict[str, str]:
    """The committed cell-id -> digest table."""
    with open(path) as handle:
        return json.load(handle)["cells"]


# -- statistics --------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("percentile of no samples")
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """(q, value) for the highest of p99..p50 with >= 10 samples beyond it."""
    for q in (99.0, 98.0, 97.0, 95.0, 90.0, 75.0):
        if len(values) * (100.0 - q) / 100.0 >= 10:
            return q, percentile(values, q)
    return 50.0, statistics.median(values)


# -- environment and noise attribution --------------------------------------


def host_probe() -> float:
    """Seconds for a fixed pure-Python CPU loop (median of three).

    Read beside each run, so a slow host shows up here and not as a
    regression of the program.
    """
    readings = []
    for _ in range(3):
        started = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc + i * i) % 1_000_003
        readings.append(time.perf_counter() - started)
    return statistics.median(readings)


def env_stamp() -> dict:
    """Interpreter, NumPy, core count and platform of this run."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def peak_rss_mb(usage_who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MiB (``ru_maxrss`` is KiB on Linux)."""
    peak = resource.getrusage(usage_who).ru_maxrss
    scale = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    return peak / scale


def gang_counters(metrics: list[dict]) -> dict[str, float]:
    """The ``repro_gang_*`` counters of a metrics JSON rendering."""
    counters = {
        "planned": 0.0, "cells_ganged": 0.0, "cells_solo": 0.0,
        "step_path_vector": 0.0, "step_path_fallback": 0.0,
        "step_path_leader": 0.0,
    }
    for metric in metrics:
        for series in metric.get("series", ()):
            labels = series.get("labels", {})
            value = float(series.get("value", 0.0))
            if metric["name"] == "repro_gang_planned_total":
                counters["planned"] += value
            elif metric["name"] == "repro_gang_cells_total":
                counters[f"cells_{labels.get('placement')}"] = value
            elif metric["name"] == "repro_gang_step_path_total":
                counters[f"step_path_{labels.get('path')}"] = value
    return counters
