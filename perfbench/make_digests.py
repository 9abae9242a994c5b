"""Regenerate ``digests.json``: the expected output of every benchmark cell.

Run from the repository root after a change that is *meant* to alter
simulated results (a perf or simplicity change must leave this file
untouched):

    python3 perfbench/make_digests.py

Each cell runs cold in this process on a fresh store.  Grid cells are
run through the ``vector`` backend and must carry the same metrics as
the solo ``simulate`` call of the same cell; a mismatch aborts.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

from common import DIGESTS_PATH, SRC, envelope_digest, fresh_dir, program_present
from workloads import COOLING, all_cells, cell_id


def main() -> int:
    if not program_present():
        print("error: src/repro not found", file=sys.stderr)
        return 2
    cache = fresh_dir("digests-")
    os.environ["REPRO_CACHE_DIR"] = str(cache)
    sys.path.insert(0, str(SRC))
    from repro.api import CampaignRequest, ReproClient, ServerRequest, SimulateRequest
    from repro.cluster import backend_for

    client = ReproClient()
    digests: dict[str, str] = {}
    metrics: dict[str, dict] = {}
    grid = []
    try:
        for kind, body in all_cells():
            if kind == "grid":
                grid.append(body)
                continue
            started = time.perf_counter()
            if kind == "sim":
                envelope = client.simulate(SimulateRequest(**body))
            else:
                envelope = client.server(ServerRequest(**body))
            document = envelope.to_dict()
            key = cell_id(kind, body)
            digests[key] = envelope_digest(document)
            metrics[key] = document["metrics"]
            print(f"{key:32s} {time.perf_counter() - started:7.3f} s", flush=True)
        mixes = tuple(dict.fromkeys(b["mix"] for b in grid))
        policies = tuple(dict.fromkeys(b["policy"] for b in grid))
        request = CampaignRequest(
            grid="ch4", mixes=mixes, policies=policies,
            variants=(COOLING,), copies=1,
        )
        with backend_for("vector") as backend:
            for envelope in ReproClient(backend=backend).run_campaign(request):
                document = envelope.to_dict()
                body = {"mix": document["request"]["mix"],
                        "policy": document["request"]["policy"]}
                solo = cell_id("sim", {**body, "cooling": COOLING})
                if document["metrics"] != metrics[solo]:
                    print(f"error: gang result of {solo} differs from solo",
                          file=sys.stderr)
                    return 1
                digests[cell_id("grid", body)] = envelope_digest(document)
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    document = {
        "about": "sha256 of each cell envelope's request+metrics "
                 "(provenance excluded); see make_digests.py",
        "cells": dict(sorted(digests.items())),
    }
    DIGESTS_PATH.write_text(json.dumps(document, indent=1) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS_PATH.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
