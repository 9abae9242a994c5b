"""Gang execution: planning, bit-identity with serial runs, the vector
backend, and checkpoint/resume of ganged cells in a fresh process.

The acceptance property mirrors the engine suite's: however cells are
ganged (leader broadcast, lockstep, retirement mid-stream, checkpoint
and restore in a new interpreter), the per-cell encoded payloads equal
a solo :func:`engine_for_spec(...).run_to_completion()` byte for byte.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis.specs import Chapter4Spec, Chapter5Spec
from repro.campaign import Campaign
from repro.campaign.spec import engine_for_spec, runner_for, spec_key
from repro.campaign.stores import MemoryStore
from repro.cli import main
from repro.cluster import VectorBackend, backend_for
from repro.engine import EngineStateSerializer, GangStrategy, plan_gangs
from repro.engine.gang import leader_signature
from repro.errors import CheckpointError, ConfigurationError

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

#: A fast leader family: thermally-insensitive cells differing only in
#: a thermal-only axis, plus two thermally-sensitive lockstep partners.
_BASE = Chapter4Spec(mix="W1", policy="no-limit", copies=1)
_LEADER_FAMILY = tuple(
    replace(_BASE, inlet_delta_c=delta) for delta in (0.0, 1.0, 2.0)
)
_LOCKSTEP_PAIR = (
    replace(_BASE, policy="ts"),
    replace(_BASE, policy="ts", inlet_delta_c=1.0),
)


def _cells(specs):
    return [(spec_key(spec), spec) for spec in specs]


def _payload(spec, result) -> dict:
    return runner_for(spec.kind).encode(result)


def _serial_payloads(specs) -> dict[str, dict]:
    return {
        spec_key(spec): _payload(spec, engine_for_spec(spec).run_to_completion())
        for spec in specs
    }


# -- planning ---------------------------------------------------------------


def test_plan_gangs_groups_by_compatibility():
    specs = list(_LEADER_FAMILY) + list(_LOCKSTEP_PAIR) + [
        replace(_BASE, copies=2),  # different leader signature, singleton
        Chapter5Spec(mix="W1", policy="bw", copies=1),  # foreign group
    ]
    plan = plan_gangs(_cells(specs), batch_cells=16)
    modes = sorted((g.gang.mode, len(g.cells)) for g in plan.gangs)
    # The no-limit copies=2 singleton demotes into the lockstep gang;
    # the lone ch5 cell has no partner and runs solo.
    assert modes == [("leader", 3), ("lockstep", 3)]
    assert [spec.kind for _, spec in plan.solo] == ["ch5"]
    assert plan.ganged_cells == 6


def test_plan_gangs_chunks_and_demotes_singletons():
    family = [replace(_BASE, inlet_delta_c=0.5 * i) for i in range(5)]
    plan = plan_gangs(_cells(family), batch_cells=2)
    assert [len(g.cells) for g in plan.gangs] == [2, 2]
    assert all(g.gang.mode == "leader" for g in plan.gangs)
    # The fifth cell's chunk of one is pure overhead -> solo.
    assert len(plan.solo) == 1


def test_plan_gangs_rejects_tiny_batches():
    with pytest.raises(ConfigurationError, match="batch_cells"):
        plan_gangs(_cells(_LEADER_FAMILY), batch_cells=1)


def test_leader_signature_splits_on_workload_axes_only():
    a, b = _LEADER_FAMILY[0], _LEADER_FAMILY[1]
    assert leader_signature(a) == leader_signature(b)
    assert leader_signature(a) != leader_signature(replace(a, copies=2))
    assert leader_signature(a) != leader_signature(replace(a, mix="W2"))
    # Kinds with no declared thermal-only axes never form leader gangs.
    assert leader_signature(Chapter5Spec()) is None


def test_gang_strategy_validation():
    with pytest.raises(ConfigurationError, match="at least one"):
        GangStrategy([])
    engines = [engine_for_spec(spec) for spec in _LOCKSTEP_PAIR]
    with pytest.raises(ConfigurationError, match="mode"):
        GangStrategy(engines, mode="sideways")
    with pytest.raises(ConfigurationError, match="thermally-insensitive"):
        GangStrategy(engines, mode="leader")


# -- bit-identity -----------------------------------------------------------


def test_gang_results_match_serial_bit_for_bit():
    specs = list(_LEADER_FAMILY) + list(_LOCKSTEP_PAIR)
    serial = _serial_payloads(specs)
    plan = plan_gangs(_cells(specs), batch_cells=16)
    assert not plan.solo
    for planned in plan.gangs:
        for (key, spec), result in zip(
            planned.cells, planned.gang.run_to_completion()
        ):
            assert _payload(spec, result) == serial[key]


def test_gang_restore_rejects_wrong_arity():
    gang = plan_gangs(_cells(_LEADER_FAMILY), batch_cells=16).gangs[0].gang
    with pytest.raises(CheckpointError, match="restore needs"):
        gang.restore(gang.checkpoint()[:1])


#: Fresh-interpreter driver: rebuild the same gang, restore the
#: per-cell snapshots, finish, print the encoded payloads in order.
_GANG_RESTORE_DRIVER = """
import json, sys
sys.path.insert(0, {src!r})
import repro.analysis.specs  # registers the ch4/ch5 spec types
from repro.campaign.spec import engine_for_spec, runner_for
from repro.cluster.wire import cell_from_wire
from repro.engine import EngineState, GangStrategy

request = json.load(sys.stdin)
specs = [cell_from_wire(raw) for raw in request["cells"]]
gang = GangStrategy(
    [engine_for_spec(spec) for spec in specs], mode=request["mode"]
)
gang.restore([EngineState.from_dict(raw) for raw in request["states"]])
payloads = [
    runner_for(spec.kind).encode(result)
    for spec, result in zip(specs, gang.run_to_completion())
]
print(json.dumps(payloads))
"""


@pytest.mark.parametrize(
    "specs,mode",
    [(_LEADER_FAMILY, "leader"), (_LOCKSTEP_PAIR, "lockstep")],
    ids=["leader", "lockstep"],
)
def test_gang_checkpoint_restores_bit_identically_in_fresh_process(
    specs, mode
):
    from repro.cluster.wire import cell_to_wire

    serial = _serial_payloads(specs)
    plan = plan_gangs(_cells(specs), batch_cells=16)
    (planned,) = plan.gangs
    assert planned.gang.mode == mode
    assert planned.gang.step_windows(211) == 211
    states = [state.to_dict() for state in planned.gang.checkpoint()]

    request = {
        "cells": [cell_to_wire(spec) for _, spec in planned.cells],
        "states": states,
        "mode": mode,
    }
    proc = subprocess.run(
        [sys.executable, "-c", _GANG_RESTORE_DRIVER.format(src=str(SRC_DIR))],
        input=json.dumps(request),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    resumed = json.loads(proc.stdout)
    expected = [serial[key] for key, _ in planned.cells]
    # JSON round trip == bit identity (shortest-repr floats).
    assert resumed == json.loads(json.dumps(expected))


# -- the vector backend -----------------------------------------------------


def test_vector_backend_matches_serial_campaign():
    specs = list(_LEADER_FAMILY) + list(_LOCKSTEP_PAIR)
    serial = Campaign(specs, store=MemoryStore()).run()
    store = MemoryStore()
    with VectorBackend(batch_cells=4) as backend:
        rows = list(Campaign(specs, store=store, backend=backend).iter_run())
    assert [result for _, result, _, _ in rows] == serial
    assert [spec for spec, _, _, _ in rows] == specs  # spec order preserved
    assert all(not hit for _, _, hit, _ in rows)
    assert all(seconds > 0.0 for _, _, _, seconds in rows)

    # Second pass over a warm store: every cell self-serves as a hit.
    with VectorBackend(batch_cells=4) as backend:
        rows = list(Campaign(specs, store=store, backend=backend).iter_run())
    assert [result for _, result, _, _ in rows] == serial
    assert all(hit for _, _, hit, _ in rows)
    assert all(seconds == 0.0 for _, _, _, seconds in rows)


def test_vector_backend_validation():
    with pytest.raises(ConfigurationError, match="batch_cells"):
        VectorBackend(batch_cells=1)


def test_backend_for_vector_wiring():
    backend = backend_for("vector", batch_cells=8)
    assert isinstance(backend, VectorBackend)
    assert backend.batch_cells == 8
    assert backend_for("vector").batch_cells == 16
    with pytest.raises(ConfigurationError, match="--batch-cells"):
        backend_for("serial", batch_cells=8)
    with pytest.raises(ConfigurationError, match="--jobs"):
        backend_for("vector", jobs=4)
    with pytest.raises(ConfigurationError, match="--workers"):
        backend_for("vector", workers=("http://x",))


def test_cli_campaign_vector_matches_serial(capsys, tmp_path, monkeypatch):
    from repro.campaign import GLOBAL_MEMORY

    args = ["campaign", "--mixes", "W1", "--policies", "no-limit,ts",
            "--copies", "1"]
    GLOBAL_MEMORY.clear()
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "vec"))
    assert main(args + ["--backend", "vector", "--batch-cells", "2"]) == 0
    vector_out = capsys.readouterr().out
    GLOBAL_MEMORY.clear()
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "ser"))
    assert main(args + ["--backend", "serial"]) == 0
    assert capsys.readouterr().out == vector_out


def test_cli_batch_cells_requires_vector(capsys):
    code = main(["campaign", "--mixes", "W1", "--policies", "ts",
                 "--copies", "1", "--batch-cells", "4"])
    assert code != 0
    assert "--batch-cells" in capsys.readouterr().err


# -- the checkpoint serializer ----------------------------------------------


def test_serializer_output_matches_plain_dumps_across_writes():
    engine = engine_for_spec(_LOCKSTEP_PAIR[0])
    serializer = EngineStateSerializer()
    for _ in range(3):
        engine.step_windows(97)
        state = engine.checkpoint()
        assert serializer.serialize(state) == json.dumps(
            state.to_dict(), sort_keys=True
        )


def test_checkpoint_file_written_via_serializer_loads_identically(tmp_path):
    from repro.engine import CheckpointFile

    engine = engine_for_spec(_LOCKSTEP_PAIR[0])
    engine.step_windows(113)
    state = engine.checkpoint()
    plain = CheckpointFile(tmp_path / "plain.json")
    cached = CheckpointFile(tmp_path / "deep" / "cached.json")  # mkdir path
    plain.write(state)
    cached.write(state, serializer=EngineStateSerializer())
    assert (tmp_path / "plain.json").read_text() == (
        tmp_path / "deep" / "cached.json"
    ).read_text()
    assert cached.load().to_dict() == state.to_dict()


# -- lockstep vectorization: property-based bit-identity --------------------


from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

#: Policy families the batched lockstep path must reproduce
#: bit-for-bit: table-driven (ts), latch-driven (bw), multi-actuator
#: (comb), and the PID controller — alone and mixed, so both the
#: single-group decide_all fast case and the multi-group scatter path
#: are exercised.
_LOCKSTEP_FAMILIES = (
    ("ts",),
    ("bw",),
    ("comb",),
    ("bw+pid",),
    ("ts", "bw"),
    ("comb", "bw+pid"),
)


def _lockstep_specs(policies, delta_step):
    return [
        replace(_BASE, policy=policy, inlet_delta_c=delta_step * i)
        for policy in policies
        for i in range(2)
    ]


@settings(max_examples=12, derandomize=True, deadline=None)
@given(
    policies=st.sampled_from(_LOCKSTEP_FAMILIES),
    delta_step=st.floats(
        min_value=0.01, max_value=0.75,
        allow_nan=False, allow_infinity=False,
    ),
    windows=st.integers(min_value=40, max_value=160),
)
def test_lockstep_gang_prefix_bitwise_identical_to_solo(
    policies, delta_step, windows
):
    """Property: any thermally-sensitive gang's full engine state after
    N windows — temperatures, energy integrals, scheduler, policy
    latches and PID integrals — equals the solo engines' bit for bit."""
    specs = _lockstep_specs(policies, delta_step)
    solo = [engine_for_spec(spec) for spec in specs]
    for engine in solo:
        engine.step_windows(windows)
    plan = plan_gangs(_cells(specs), batch_cells=16)
    assert len(plan.gangs) == 1 and not plan.solo
    gang = plan.gangs[0].gang
    assert gang.mode == "lockstep"
    gang.step_windows(windows)
    gang_states = [state.to_dict() for state in gang.checkpoint()]
    solo_states = [engine.checkpoint().to_dict() for engine in solo]
    assert gang_states == solo_states


#: Fresh-interpreter script with NumPy made unimportable before
#: ``repro`` loads: a mixed lockstep gang and its solo twins step the
#: same windows; prints both checkpoints and the gang metric names.
_NO_NUMPY_SCRIPT = """
import json, sys
sys.modules["numpy"] = None  # any ``import numpy`` now raises
sys.path.insert(0, {src!r})
from dataclasses import replace
import repro.analysis.specs  # registers the ch4/ch5 spec types
from repro.analysis.specs import Chapter4Spec
from repro.campaign.spec import engine_for_spec, spec_key
from repro.engine import plan_gangs
from repro.obs.metrics import METRICS

base = Chapter4Spec(mix="W1", policy="no-limit", copies=1)
# One no-limit cell: with no leader partner it joins the lockstep gang.
specs = [
    replace(base, policy=policy, inlet_delta_c=0.4 * i)
    for policy in ("ts", "bw+pid", "comb")
    for i in range(2)
] + [base]
solo = [engine_for_spec(spec) for spec in specs]
for engine in solo:
    engine.step_windows(120)
plan = plan_gangs([(spec_key(s), s) for s in specs], batch_cells=16)
modes = [planned.gang.mode for planned in plan.gangs]
order = [spec for planned in plan.gangs for _, spec in planned.cells]
for planned in plan.gangs:
    planned.gang.step_windows(120)
gang_states = [
    state.to_dict() for planned in plan.gangs for state in planned.gang.checkpoint()
]
solo_states = [solo[specs.index(spec)].checkpoint().to_dict() for spec in order]
rendered = METRICS.render_text()
print(json.dumps({{
    "modes": modes,
    "solo_cells": len(plan.solo),
    "identical": gang_states == solo_states,
    "numpy_loaded": sys.modules.get("numpy") is not None,
    "metrics": [
        name for name in (
            "repro_gang_planned_total",
            "repro_gang_cells_total",
            "repro_gang_step_path_total",
        ) if name in rendered
    ],
}}))
"""


def test_lockstep_gang_identity_without_numpy():
    """With NumPy unimportable, a mixed ts/bw+pid/comb/no-limit gang
    steps bit-identically to solo engines, and the gang metrics
    register: nothing on the gang path needs NumPy."""
    proc = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_SCRIPT.format(src=str(SRC_DIR))],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["modes"] == ["lockstep"]
    assert report["solo_cells"] == 0
    assert report["identical"]
    assert not report["numpy_loaded"]
    assert report["metrics"] == [
        "repro_gang_planned_total",
        "repro_gang_cells_total",
        "repro_gang_step_path_total",
    ]
