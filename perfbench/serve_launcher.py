"""Start ``repro serve`` with the per-layer wrappers installed.

    python3 serve_launcher.py PROFILE.json serve --port 0 --jobs ...

Everything after the profile path is handed to the ``repro`` CLI
unchanged, so the traced service is the same ``serve`` the untraced
runs start with ``python -m repro serve``.  When the service exits
(SIGTERM drains it), the layer totals, spans, window-model memo size
and gang counters are written to ``PROFILE.json``.
"""

from __future__ import annotations

import json
import sys

from common import gang_counters, peak_rss_mb
from layers import LayerProfiler, install, window_model_memo_entries


def main(argv: list[str]) -> int:
    profile_path, cli_args = argv[0], argv[1:]
    profiler = LayerProfiler()
    install(profiler)
    from repro.cli import main as repro_main
    from repro.obs.metrics import METRICS
    from repro.obs.trace import TRACER

    try:
        return repro_main(cli_args)
    finally:
        document = {
            "profile": profiler.snapshot(),
            "memo_entries": window_model_memo_entries(),
            "gang": gang_counters(METRICS.render_json()),
            "tracer_enabled": bool(TRACER.enabled),
            "peak_rss_mb": peak_rss_mb(),
        }
        with open(profile_path, "w") as handle:
            json.dump(document, handle)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
