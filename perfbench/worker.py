"""Child process of the batch workloads (``paper_grid``, ``solo_cells``).

    python3 worker.py SPEC.json

The spec names the workload, its operations, whether to install the
per-layer wrappers, and where to write the result.  The child imports
the program and builds its client (and, for the grid, the ``vector``
backend), prints ``ready`` -- the end of set-up as the parent times it --
then runs the operations in order and writes per-operation host times,
each envelope's digest, simulated window counts, the gang counters and
its own peak RSS.
"""

from __future__ import annotations

import json
import sys
import time

from common import envelope_digest, gang_counters, peak_rss_mb
from workloads import COOLING, cell_id


def _windows(document: dict, window_s: float) -> float:
    return document["metrics"]["runtime_s"] / window_s


def main(spec_path: str) -> int:
    with open(spec_path) as handle:
        spec = json.load(handle)
    profiler = None
    if spec["traced"]:
        from layers import LayerProfiler, install
        profiler = LayerProfiler()
        install(profiler)
    from repro.analysis.specs import Chapter4Spec
    from repro.api import CampaignRequest, ReproClient, ServerRequest, SimulateRequest
    from repro.obs.metrics import METRICS
    from repro.obs.trace import TRACER
    from repro.testbed.platforms import PLATFORMS

    backend = None
    if spec["workload"] == "paper_grid":
        from repro.cluster import backend_for
        backend = backend_for("vector")
    client = ReproClient(backend=backend)
    client.store  # builds the default store stack
    print("ready", flush=True)
    if spec.get("setup_only"):
        return 0

    ops = []
    started_all = time.perf_counter()
    for op in spec["ops"]:
        if op["kind"] == "grid":
            request = CampaignRequest(
                grid="ch4", mixes=tuple(op["mixes"]),
                policies=tuple(op["policies"]), variants=(COOLING,), copies=1,
            )
            cells = []
            started = time.perf_counter()
            for envelope in client.run_campaign(request):
                arrived = time.perf_counter() - started
                document = envelope.to_dict()
                echo = document["request"]
                cells.append({
                    "id": cell_id("grid", echo),
                    "digest": envelope_digest(document),
                    "seconds": arrived,
                    "windows": _windows(document, echo["dtm_interval_s"]),
                    "cache": document["provenance"]["cache"],
                })
            ops.append({"kind": "grid", "seconds": time.perf_counter() - started,
                        "cells": cells})
            continue
        body = op["body"]
        if op["kind"] == "sim":
            request = SimulateRequest(**body)
            window_s = Chapter4Spec.dtm_interval_s
            call = client.simulate
        else:
            request = ServerRequest(**body)
            window_s = PLATFORMS[body["platform"]].dtm_interval_s
            call = client.server
        started = time.perf_counter()
        envelope = call(request)
        seconds = time.perf_counter() - started
        document = envelope.to_dict()
        ops.append({
            "kind": op["kind"], "seconds": seconds,
            "cells": [{
                "id": cell_id(op["kind"], body),
                "digest": envelope_digest(document),
                "seconds": seconds,
                "windows": _windows(document, window_s),
                "cache": document["provenance"]["cache"],
            }],
        })
    result = {
        "wall_s": time.perf_counter() - started_all,
        "ops": ops,
        "gang": gang_counters(METRICS.render_json()),
        "tracer_enabled": bool(TRACER.enabled),
        "peak_rss_mb": peak_rss_mb(),
    }
    if profiler is not None:
        from layers import window_model_memo_entries
        result["profile"] = profiler.snapshot()
        result["memo_entries"] = window_model_memo_entries()
    if backend is not None:
        backend.close()
    with open(spec["result"], "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
