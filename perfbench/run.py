"""The repository benchmark: host time of the two-level simulator, end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for why each exists):

- ``paper_grid``  -- cold Fig. 4.3 grids through ``ReproClient.run_campaign``
  on the ``vector`` backend, each in a fresh process and store;
- ``solo_cells``  -- a closed loop of cold single-cell ``simulate`` and
  ``server`` calls in one fresh process;
- ``service_mix`` -- a ``python -m repro serve --jobs`` process under one
  thread of warm ``/v1/simulate`` reads on a kept-alive connection and
  one thread of cold jobs submitted and polled to completion.

Every envelope is checked against ``digests.json``; any mismatch, error
or refusal makes the run fail (exit 1).  ``--trace 0`` reports the
end-to-end metrics with no wrappers installed.  ``--trace 1`` runs the
same inputs twice, untraced and then with the per-layer wrappers of
``layers.py``, checks both produce the same outputs and gang step paths,
and reports the per-layer metrics.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import http.client
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import (
    BENCH_DIR,
    OUT_DIR,
    ROOT,
    SRC,
    BenchError,
    child_env,
    envelope_digest,
    env_stamp,
    fresh_dir,
    gang_counters,
    host_probe,
    load_digests,
    peak_rss_mb,
    program_present,
    tail_percentile,
)
from workloads import (
    CH4_POLICIES,
    WARM_SET_SIZE,
    cell_id,
    paper_grid_inputs,
    service_mix_inputs,
    solo_cells_inputs,
)

WORKLOADS = ("paper_grid", "solo_cells", "service_mix")
#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Client poll interval while a job runs.
POLL_S = 0.05
CHILD_TIMEOUT_S = 150.0
#: Chapter 4 DTM window length (``Chapter4Spec.dtm_interval_s``); every
#: job and warm cell uses the default.
CH4_WINDOW_S = 0.010


class Pass:
    """Everything one pass over a workload's inputs observed."""

    def __init__(self) -> None:
        self.setup_s: list[float] = []
        #: Cold cells: id, digest, cache, seconds waited, windows, kind.
        self.cells: list[dict] = []
        self.warm_ms: list[float] = []
        self.jobs: list[dict] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.rejected = 0
        self.wall_s = 0.0
        self.peak_rss_mb = 0.0
        self.gang: dict[str, float] = {}
        self.profiles: list[dict] = []
        self.memo_entries = 0
        self.tracer_enabled = False
        #: The service's ``/metrics`` document at the end of the pass.
        self.server_metrics: list[dict] = []
        #: The service's reader and writer threads record concurrently.
        self._lock = threading.Lock()

    def record(self, failure: str | None = None) -> None:
        """Count one attempted operation, failed when ``failure`` is given."""
        with self._lock:
            self.attempted += 1
            if failure is not None:
                self.failures.append(failure)


# -- checks --------------------------------------------------------------------


def check_cell(run: Pass, digests: dict, cell: dict, cache: str) -> None:
    """Count one envelope and check its digest and cache state."""
    expected = digests.get(cell["id"])
    failure = None
    if expected is None:
        failure = f"{cell['id']}: no committed digest"
    elif cell["digest"] != expected:
        failure = f"{cell['id']}: output digest mismatch"
    elif cell["cache"] != cache:
        failure = f"{cell['id']}: expected a cache {cache}, got {cell['cache']}"
    run.record(failure)


# -- child processes -------------------------------------------------------------


def _spawn_worker(spec: dict, cache: Path) -> tuple[subprocess.Popen, float]:
    """Start ``worker.py``; returns it once it printed ``ready``, and the set-up time."""
    spec_path = cache / "spec.json"
    spec_path.write_text(json.dumps(spec))
    started = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), str(spec_path)],
        env=child_env(cache), cwd=ROOT, stdout=subprocess.PIPE,
    )
    line = child.stdout.readline()
    setup = time.perf_counter() - started
    if line.strip() != b"ready":
        child.kill()
        child.wait()
        raise BenchError(f"worker did not start (exit {child.returncode})")
    return child, setup


def run_worker(spec: dict) -> tuple[dict, float]:
    """Run one worker to completion on a fresh store; (result, set-up s)."""
    cache = fresh_dir("worker-")
    try:
        spec = {**spec, "result": str(cache / "result.json")}
        child, setup = _spawn_worker(spec, cache)
        try:
            child.stdout.read()
            code = child.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        if code != 0:
            raise BenchError(f"worker exited with {code}")
        if spec.get("setup_only"):
            return {}, setup
        with open(spec["result"]) as handle:
            return json.load(handle), setup
    finally:
        shutil.rmtree(cache, ignore_errors=True)


def absorb_worker(run: Pass, result: dict, digests: dict) -> None:
    """Fold one worker result into the pass and check every cell."""
    for op in result["ops"]:
        for cell in op["cells"]:
            check_cell(run, digests, cell, "miss")
            run.cells.append({**cell, "kind": op["kind"]})
    run.wall_s += result["wall_s"]
    run.peak_rss_mb = max(run.peak_rss_mb, result["peak_rss_mb"])
    for key, value in result["gang"].items():
        run.gang[key] = run.gang.get(key, 0.0) + value
    run.tracer_enabled |= result["tracer_enabled"]
    if "profile" in result:
        run.profiles.append(result["profile"])
        run.memo_entries += result["memo_entries"]


def extra_setups(run: Pass, workload: str, samples: int) -> None:
    """Time set-up-only worker spawns until ``samples`` set-ups are known."""
    while len(run.setup_s) < samples:
        spec = {"workload": workload, "traced": False, "setup_only": True}
        run.setup_s.append(run_worker(spec)[1])


# -- batch workloads ---------------------------------------------------------------


def paper_grid_pass(grids: list[dict], traced: bool, digests: dict,
                    setups: int) -> Pass:
    run = Pass()
    for grid in grids:
        result, setup = run_worker({
            "workload": "paper_grid", "traced": traced,
            "ops": [{"kind": "grid", **grid}],
        })
        run.setup_s.append(setup)
        absorb_worker(run, result, digests)
    extra_setups(run, "paper_grid", setups)
    return run


def solo_cells_pass(sequence: list, traced: bool, digests: dict,
                    setups: int) -> Pass:
    run = Pass()
    result, setup = run_worker({
        "workload": "solo_cells", "traced": traced,
        "ops": [{"kind": kind, "body": body} for kind, body in sequence],
    })
    run.setup_s.append(setup)
    absorb_worker(run, result, digests)
    extra_setups(run, "solo_cells", setups)
    return run


# -- service workload ----------------------------------------------------------------


class Server:
    """One ``repro serve --jobs`` child on an ephemeral port."""

    def __init__(self, profile_path: Path | None) -> None:
        self.dir = fresh_dir("serve-")
        port_file = self.dir / "port"
        serve_args = [
            "serve", "--port", "0", "--port-file", str(port_file),
            "--jobs", "--jobs-dir", str(self.dir / "jobs"),
        ]
        if profile_path is None:
            command = [sys.executable, "-m", "repro", *serve_args]
        else:
            command = [sys.executable, str(BENCH_DIR / "serve_launcher.py"),
                       str(profile_path), *serve_args]
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, env=child_env(self.dir / "cache"), cwd=ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            self.port = self._wait_port(port_file)
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _wait_port(self, port_file: Path) -> int:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise BenchError(f"server exited with {self.process.returncode}")
            text = port_file.read_text().strip() if port_file.exists() else ""
            if text:
                return int(text)
            time.sleep(0.002)
        raise BenchError("server wrote no port file")

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                connection.request("GET", "/v1/healthz")
                response = connection.getresponse()
                response.read()
                if response.status == 200:
                    return
            except OSError:
                pass
            finally:
                connection.close()
            time.sleep(0.002)
        raise BenchError("server never answered /v1/healthz")

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def stop(self) -> None:
        """SIGTERM (the service drains), then wait; kill if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        shutil.rmtree(self.dir, ignore_errors=True)


def _post_simulate(connection: http.client.HTTPConnection, body: dict) -> tuple[int, bytes, float]:
    started = time.perf_counter()
    connection.request("POST", "/v1/simulate", json.dumps(body),
                       {"Content-Type": "application/json"})
    response = connection.getresponse()
    data = response.read()
    return response.status, data, time.perf_counter() - started


def _check_answer(run: Pass, digests: dict, kind: str, body: dict,
                  status: int, data: bytes, cache: str) -> dict | None:
    """Check one HTTP answer holding an envelope; the envelope if well-formed."""
    if status != 200:
        run.record(f"{cell_id(kind, body)}: HTTP {status}")
        return None
    try:
        document = json.loads(data)
        cell = {"id": cell_id(kind, body), "digest": envelope_digest(document),
                "cache": document["provenance"]["cache"]}
    except (ValueError, KeyError, TypeError) as error:
        run.record(f"{cell_id(kind, body)}: malformed envelope: {error!r}")
        return None
    check_cell(run, digests, cell, cache)
    return document


def _reader(run: Pass, digests: dict, server: Server, warm: list[dict],
            order: list[int], stop: threading.Event) -> None:
    """Warm reads on one kept-alive connection until ``stop`` is set."""
    connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
    index = 0
    try:
        while not stop.is_set():
            body = warm[order[index % len(order)]]
            index += 1
            try:
                status, data, seconds = _post_simulate(connection, body)
            except (OSError, http.client.HTTPException) as error:
                run.record(f"warm read failed: {error!r}")
                connection.close()
                continue
            if _check_answer(run, digests, "sim", body, status, data, "hit"):
                run.warm_ms.append(seconds * 1000.0)
    finally:
        connection.close()


def _writer(run: Pass, digests: dict, server: Server, jobs: list[dict]) -> None:
    """Cold jobs, one at a time, each polled until terminal."""
    from repro.jobs import JobsApiError, JobsClient

    client = JobsClient(server.url, timeout_s=60.0)
    for body in jobs:
        started = time.perf_counter()
        try:
            job_id = client.submit({"type": "simulate", **body})["job"]["id"]
            while True:
                record = client.status(job_id)["job"]
                if record["status"] in ("completed", "failed", "cancelled"):
                    break
                time.sleep(POLL_S)
            latency = time.perf_counter() - started
            document = client.result(job_id)
        except JobsApiError as error:
            run.rejected += error.status == 429
            run.record(f"job {cell_id('sim', body)}: {error}")
            continue
        cell = {"id": cell_id("sim", body), "digest": envelope_digest(document),
                "cache": document["provenance"]["cache"]}
        check_cell(run, digests, cell, "miss")
        windows = document["metrics"]["runtime_s"] / CH4_WINDOW_S
        run.cells.append({**cell, "kind": "job", "seconds": latency,
                          "windows": windows})
        run.jobs.append({
            "latency_s": latency,
            "queue_wait_s": record["started_s"] - record["created_s"],
            "run_s": record["finished_s"] - record["started_s"],
            "server_s": record["finished_s"] - record["created_s"],
        })


def service_mix_pass(inputs: dict, traced: bool, digests: dict,
                     setups: int) -> Pass:
    run = Pass()
    for _ in range(setups - 1):
        server = Server(None)
        run.setup_s.append(server.setup_s)
        server.stop()
    profile_path = OUT_DIR / f"serve-profile-{time.time_ns()}.json" if traced else None
    server = Server(profile_path)
    run.setup_s.append(server.setup_s)
    try:
        # Prime the warm working set; these cold answers are not timed.
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=120)
        try:
            for body in inputs["warm"]:
                status, data, _ = _post_simulate(connection, body)
                document = _check_answer(run, digests, "sim", body, status, data, "miss")
                if document is not None:
                    run.cells.append({"kind": "prime", "windows":
                                      document["metrics"]["runtime_s"] / CH4_WINDOW_S})
        finally:
            connection.close()
        stop = threading.Event()
        reader = threading.Thread(target=_reader, args=(
            run, digests, server, inputs["warm"], inputs["reads"], stop))
        started = time.perf_counter()
        reader.start()
        try:
            _writer(run, digests, server, inputs["jobs"])
        finally:
            stop.set()
            reader.join()
        run.wall_s = time.perf_counter() - started
        from repro.jobs import JobsClient
        run.server_metrics = JobsClient(server.url).metrics_json()["metrics"]
        run.gang = gang_counters(run.server_metrics)
    finally:
        server.stop()
    run.peak_rss_mb = peak_rss_mb(resource.RUSAGE_CHILDREN)
    if profile_path is not None:
        with open(profile_path) as handle:
            dump = json.load(handle)
        profile_path.unlink()
        run.profiles.append(dump["profile"])
        run.memo_entries = dump["memo_entries"]
        run.tracer_enabled = dump["tracer_enabled"]
        run.gang = dump["gang"]
    return run


# -- sizing and metrics -------------------------------------------------------------------


def plan(workload: str, seed: int, seconds: int, trace: bool, smoke: bool):
    """The inputs of one pass, sized from ``--seconds`` (halved when traced).

    Work is fixed per run rather than cut at a deadline, so a faster
    program finishes the same work sooner and medians compare.  The
    sizes make a whole run, set-ups and priming included, take about
    ``--seconds`` on a 2-vCPU host.
    """
    def scaled(per_unit_s: float, low: int, high: int) -> int:
        units = max(low, round(seconds / per_unit_s))
        if trace:
            units = max(low, units // 2)
        return min(units, high)

    if workload == "paper_grid":
        grids = paper_grid_inputs(seed, 1 if smoke else scaled(10.0, 1, 6))
        if smoke:
            grids = [{"mixes": g["mixes"][:2], "policies": g["policies"][:2]}
                     for g in grids]
        return grids
    if workload == "solo_cells":
        sequence = solo_cells_inputs(seed, 1 if smoke else scaled(4.0, 3, len(CH4_POLICIES)))
        return sequence[:4] if smoke else sequence
    inputs = service_mix_inputs(
        seed, 1 if smoke else scaled(6.0, 1, len(CH4_POLICIES)),
        warm_size=2 if smoke else WARM_SET_SIZE,
    )
    if smoke:
        inputs["jobs"] = inputs["jobs"][:2]
    return inputs


PASSES = {
    "paper_grid": paper_grid_pass,
    "solo_cells": solo_cells_pass,
    "service_mix": service_mix_pass,
}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(workload: str, run: Pass) -> tuple[dict, list[str]]:
    """The gated metrics, and printable lines with the ungated figures."""
    cold = [c for c in run.cells if c["kind"] in ("grid", "sim", "srv", "job")]
    ch4 = [c["seconds"] for c in cold if c["kind"] in ("grid", "sim", "job")]
    # A grid's cells arrive together, so its wall time is counted once.
    waited = run.wall_s if workload == "paper_grid" else sum(c["seconds"] for c in cold)
    metrics = {
        "setup_s": (_median(run.setup_s), "s", len(run.setup_s)),
        "windows_per_s": (sum(c["windows"] for c in cold) / waited if waited else 0.0,
                          "windows/s", len(cold)),
        "cell_mean_s": (statistics.fmean(ch4) if ch4 else 0.0, "s", len(ch4)),
        "peak_rss_mb": (run.peak_rss_mb, "MB", 1),
    }
    # Cell costs are bimodal (W5/W8 take about half the windows of W6/W7),
    # so the median can sit in the gap between the modes and jump with
    # the seed; it is printed, and the mean is gated.
    extra = {"cell_p50_s": (_median(ch4), "s", len(ch4))}
    srv = [c["seconds"] for c in cold if c["kind"] == "srv"]
    if srv:
        extra["server_cell_p50_s"] = (_median(srv), "s", len(srv))
    if run.warm_ms:
        q, tail = tail_percentile(run.warm_ms)
        extra["warm_p50_ms"] = (_median(run.warm_ms), "ms", len(run.warm_ms))
        extra[f"warm_p{q:g}_ms"] = (tail, "ms", len(run.warm_ms))
    if run.jobs:
        extra["job_p50_s"] = (_median([j["latency_s"] for j in run.jobs]), "s", len(run.jobs))
    extra["error_rate"] = (len(run.failures) / max(1, run.attempted), "ratio", run.attempted)
    lines = [f"  {name:<20} {value:>14.6f} {unit:<10} n={n}"
             for name, (value, unit, n) in {**metrics, **extra}.items()]
    return {name: {"value": value, "unit": unit}
            for name, (value, unit, _) in metrics.items()}, lines


def per_layer(plain: Pass, traced: Pass, probe_s: float) -> dict:
    """Per-layer metrics of the traced pass (0 where a layer is not used)."""
    layers: dict[str, dict] = {}
    spans: list[dict] = []
    for profile in traced.profiles:
        spans.extend(profile["spans"])
        for key, entry in profile["layers"].items():
            total = layers.setdefault(key, dict.fromkeys(entry, 0))
            for field, value in entry.items():
                total[field] += value

    def field(key: str, name: str) -> float:
        return layers.get(key, {}).get(name, 0)

    windows = sum(c["windows"] for c in traced.cells)
    route_ms = [1000.0 * (s["end_s"] - s["start_s"]) for s in spans
                if s["name"] == "api.service.http" and s["label"] == "POST /v1/simulate"]
    route_p50_ms = _median(route_ms)
    jobs = traced.jobs
    gets = field("campaign.store.get", "calls")
    hits = field("campaign.store.get", "hits")
    kernel_calls = field("core.kernel.step", "calls")
    values = {
        "api.client.self_s": (field("api.client", "self_s"), "s"),
        "api.service.route_p50_ms": (route_p50_ms, "ms"),
        "api.service.transport_ms": (
            _median(traced.warm_ms) - route_p50_ms if traced.warm_ms else 0.0, "ms"),
        "jobs.queue_wait_p50_s": (_median([j["queue_wait_s"] for j in jobs]), "s"),
        "jobs.run_p50_s": (_median([j["run_s"] for j in jobs]), "s"),
        "jobs.poll_gap_s": (_median([j["latency_s"] - j["server_s"] for j in jobs]), "s"),
        "jobs.store.save_calls": (field("jobs.store.save", "calls"), "count"),
        "jobs.store.save_s": (field("jobs.store.save", "busy_s"), "s"),
        "jobs.rejected": (traced.rejected, "count"),
        "campaign.store.hits": (hits, "count"),
        "campaign.store.misses": (gets - hits, "count"),
        "campaign.store.hit_ratio": (hits / gets if gets else 0.0, "ratio"),
        "campaign.store.get_s": (field("campaign.store.get", "busy_s"), "s"),
        "campaign.store.put_s": (field("campaign.store.put", "busy_s"), "s"),
        "cluster.backend.busy_s": (field("cluster.backend", "busy_s"), "s"),
        "engine.gang.planned": (traced.gang.get("planned", 0.0), "count"),
        "engine.gang.cells_ganged": (traced.gang.get("cells_ganged", 0.0), "count"),
        "engine.gang.cells_solo": (traced.gang.get("cells_solo", 0.0), "count"),
        "engine.gang.step_path_vector": (traced.gang.get("step_path_vector", 0.0), "count"),
        "engine.gang.step_path_fallback": (traced.gang.get("step_path_fallback", 0.0), "count"),
        "engine.gang.step_calls": (field("engine.gang.step", "calls"), "count"),
        "engine.gang.step_self_s": (field("engine.gang.step", "self_s"), "s"),
        "engine.solo.step_calls": (field("engine.solo.step", "calls"), "count"),
        "engine.solo.step_self_s": (field("engine.solo.step", "self_s"), "s"),
        "core.strategy.window_calls": (field("core.strategy.window", "calls"), "count"),
        "core.strategy.window_self_s": (field("core.strategy.window", "self_s"), "s"),
        "core.window_model.evaluate_calls": (field("core.window_model.evaluate", "calls"), "count"),
        "core.window_model.evaluate_s": (field("core.window_model.evaluate", "busy_s"), "s"),
        "core.window_model.evaluate_per_window": (
            field("core.window_model.evaluate", "calls") / windows if windows else 0.0, "ratio"),
        "core.window_model.memo_entries": (traced.memo_entries, "count"),
        "core.kernel.step_calls": (kernel_calls, "count"),
        "core.kernel.step_s": (field("core.kernel.step", "busy_s"), "s"),
        "core.kernel.lanes_per_call": (
            field("core.kernel.step", "lanes") / kernel_calls if kernel_calls else 0.0, "lanes"),
        "dtm.decide_calls": (field("dtm.decide", "calls"), "count"),
        "dtm.decide_s": (field("dtm.decide", "busy_s"), "s"),
        "workloads.scheduler.advance_calls": (field("workloads.scheduler.advance", "calls"), "count"),
        "workloads.scheduler.advance_s": (field("workloads.scheduler.advance", "busy_s"), "s"),
        "testbed.strategy.window_calls": (field("testbed.strategy.window", "calls"), "count"),
        "testbed.strategy.window_s": (field("testbed.strategy.window", "busy_s"), "s"),
        "obs.trace_overhead_ratio": (traced.wall_s / plain.wall_s, "ratio"),
        "bench.host_probe_s": (probe_s, "s"),
    }
    return {name: {"value": float(value), "unit": unit}
            for name, (value, unit) in values.items()}


def trace_guard(plain: Pass, traced: Pass) -> list[str]:
    """The traced pass must compute what the untraced one did, the same way."""
    problems = []
    if plain.tracer_enabled or traced.tracer_enabled:
        problems.append("repro.obs tracing was on")
    digests_plain = sorted((c["id"], c["digest"]) for c in plain.cells if "id" in c)
    digests_traced = sorted((c["id"], c["digest"]) for c in traced.cells if "id" in c)
    if digests_plain != digests_traced:
        problems.append("traced outputs differ from untraced outputs")
    for path in ("vector", "fallback", "leader"):
        key = f"step_path_{path}"
        if plain.gang.get(key, 0.0) != traced.gang.get(key, 0.0):
            problems.append(f"gang step path {path!r} counts differ when traced")
    return problems


# -- entry point --------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the self-tests")
    args = parser.parse_args(argv)
    if not program_present():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    digests = load_digests()
    stamp = env_stamp()
    probes = [host_probe()]
    inputs = plan(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    setups = 2 if args.smoke else SETUP_SAMPLES
    run_pass = PASSES[args.workload]
    plain = run_pass(inputs, False, digests, 1 if args.trace else setups)
    failures = list(plain.failures)
    attempted = plain.attempted
    if args.trace:
        traced = run_pass(inputs, True, digests, 1)
        failures += traced.failures + trace_guard(plain, traced)
        attempted += traced.attempted
    probes.append(host_probe())
    probe_s = statistics.mean(probes)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(json.dumps({"env": stamp, "bench.host_probe_s": probe_s}))
    if args.trace:
        metrics = per_layer(plain, traced, probe_s)
        lines = [f"  {name:<40} {m['value']:>16.6f} {m['unit']}"
                 for name, m in metrics.items()]
        spans = [s for p in traced.profiles for s in p["spans"]]
        server_metrics = traced.server_metrics
    else:
        metrics, lines = end_to_end(args.workload, plain)
        spans = []
        server_metrics = plain.server_metrics
    print("\n".join(lines))
    for failure in failures[:20]:
        print(f"FAIL {failure}")
    correct = not failures
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    record = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "env": stamp,
        "host_probe_s": probes, "metrics": metrics, "failures": failures,
        "spans": spans, "server_metrics": server_metrics,
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
