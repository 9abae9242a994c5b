"""Self-tests of the benchmark itself (tiny inputs; about a minute).

    python3 perfbench/selftest.py

1. Every workload, untraced and traced, in ``--smoke`` mode: the last
   line is the result object, the run is correct, and its metrics are
   exactly the ``end_to_end`` (untraced) or ``per_layer`` (traced)
   names of ``BENCHMARK.json``, each with its unit.
2. A perturbed digest table is caught: a copy of the checkout whose
   ``digests.json`` has one digest altered must fail (exit 1,
   ``correct`` false).
3. Without the program sources the command fails without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from common import BENCH_DIR, ROOT, fresh_dir
from workloads import cell_id, solo_cells_inputs

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(root: Path, workload: str, trace: int) -> tuple[int, str]:
    done = subprocess.run(
        [sys.executable, str(root / BENCH_DIR.name / "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "2",
         "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    return done.returncode, done.stdout


def result_of(stdout: str) -> dict:
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    return result


def check_metric_names() -> None:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, stdout = run(ROOT, workload, trace)
            result = result_of(stdout)
            assert code == 0 and result["correct"], (workload, trace, stdout)
            assert result["failed"] == 0 and result["attempted"] >= 1, result
            expected = {m["name"]: m["unit"] for m in SPEC[group]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected, (workload, trace, set(got) ^ set(expected))
            for name, metric in result["metrics"].items():
                assert isinstance(metric["value"], float), (name, metric)
            print(f"ok   {workload} trace {trace}: {len(got)} metrics")


def copy_checkout(with_program: bool) -> Path:
    target = fresh_dir("selftest-")
    shutil.copytree(BENCH_DIR, target / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", target / "BENCHMARK.json")
    if with_program:
        shutil.copytree(ROOT / "src", target / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return target


def check_perturbed_digest() -> None:
    target = copy_checkout(with_program=True)
    try:
        path = target / BENCH_DIR.name / "digests.json"
        table = json.loads(path.read_text())
        # The first cell the smoke run of seed 1 computes.
        kind, body = solo_cells_inputs(1, 1)[0]
        key = cell_id(kind, body)
        digest = table["cells"][key]
        table["cells"][key] = ("0" if digest[0] != "0" else "1") + digest[1:]
        path.write_text(json.dumps(table))
        code, stdout = run(target, "solo_cells", 0)
        result = result_of(stdout)
        assert code == 1 and not result["correct"] and result["failed"] >= 1, stdout
        assert "digest mismatch" in stdout, stdout
        print("ok   a perturbed digest fails the run")
    finally:
        shutil.rmtree(target, ignore_errors=True)


def check_without_program() -> None:
    target = copy_checkout(with_program=False)
    try:
        code, stdout = run(target, "paper_grid", 0)
        assert code != 0 and not stdout.strip(), (code, stdout)
        print("ok   no program sources: non-zero exit, no result")
    finally:
        shutil.rmtree(target, ignore_errors=True)


def main() -> int:
    check_without_program()
    check_perturbed_digest()
    check_metric_names()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
