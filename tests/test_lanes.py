"""The lane loop: solo, sliced, checkpointed and traced Chapter 4 runs.

A solo engine that passes :func:`~repro.engine.lanes.lane_eligible`
runs as a one-lane :class:`~repro.engine.lanes.LaneLoop`.  The
acceptance property is three-way identity: the lane loop, the
per-window reference (``while not engine.done: engine.step_window()``)
and the scalar ``MemSpot`` oracle (which never rides the loop) give
equal results and equal mid-run checkpoints, for every Chapter 4
policy.  Slicing, restoring into a fresh engine, periodic checkpoint
files and tracing must not move a bit either.
"""

from __future__ import annotations

import pytest

from repro.analysis.specs import (
    CHAPTER4_POLICY_CHOICES,
    Chapter4Spec,
    Chapter5Spec,
    make_chapter4_policy,
    run_result_to_dict,
)
from repro.api import ReproClient
from repro.campaign import MemoryStore, engine_for_spec
from repro.core.simulator import SimulationConfig, TwoLevelSimulator
from repro.engine import (
    CheckpointFile,
    CheckpointObserver,
    Observer,
    SteadyStateGuard,
)
from repro.engine import lanes
from repro.engine.lanes import lane_eligible
from repro.obs.metrics import METRICS
from repro.obs.trace import Tracer, TracingObserver

#: Windows stepped before the mid-run checkpoint comparison.
_MID = 1000


def _engine(mix, policy, kernel="batched", observers=()):
    config = SimulationConfig(
        mix_name=mix, copies=1, kernel=kernel, record_trace=False
    )
    return TwoLevelSimulator(config, make_chapter4_policy(policy)).engine(
        extra_observers=observers
    )


def _per_window(engine, windows=None):
    """The reference path: one ``step_window`` call per window."""
    stepped = 0
    while not engine.done and (windows is None or stepped < windows):
        engine.step_window()
        stepped += 1


def _traced(engine, sample_every):
    tracer = Tracer()
    tracer.configure(enabled=True)
    observer = TracingObserver(tracer, sample_every=sample_every)
    engine._observers.append(observer)
    engine._tracing = observer
    return observer


@pytest.mark.parametrize("policy", CHAPTER4_POLICY_CHOICES)
@pytest.mark.parametrize("mix", ["W1", "W5"])
def test_lane_loop_matches_per_window_and_scalar_oracle(mix, policy):
    lane = _engine(mix, policy)
    assert lane_eligible(lane)
    assert lane.step_windows(_MID) == _MID
    lane_state = lane.checkpoint().to_dict()
    lane_result = run_result_to_dict(lane.run_to_completion())

    reference = _engine(mix, policy)
    _per_window(reference, _MID)
    assert reference.checkpoint().to_dict() == lane_state
    _per_window(reference)
    assert run_result_to_dict(reference.finish()) == lane_result

    oracle = _engine(mix, policy, kernel="scalar")
    assert not lane_eligible(oracle)
    oracle.step_windows(_MID)
    assert oracle.checkpoint().to_dict() == lane_state
    assert run_result_to_dict(oracle.run_to_completion()) == lane_result


@pytest.mark.parametrize("policy", ["ts", "acg+pid", "comb"])
def test_sliced_lane_run_with_mid_run_restore_matches_uninterrupted(policy):
    baseline = run_result_to_dict(_engine("W1", policy).run_to_completion())

    engine = _engine("W1", policy)
    for _ in range(5):
        assert engine.step_windows(137) == 137
    state = engine.checkpoint()
    assert state.windows == 5 * 137

    resumed = _engine("W1", policy)
    resumed.restore(state)
    while resumed.step_windows(137) == 137:
        pass
    assert resumed.done
    assert run_result_to_dict(resumed.finish()) == baseline


def test_checkpoint_observer_rides_the_loop_with_identical_files(tmp_path):
    def build(name):
        path = tmp_path / f"{name}.checkpoint.json"
        observer = CheckpointObserver(CheckpointFile(path), every_windows=250)
        return _engine("W1", "acg+pid", observers=(observer,)), path

    lane, lane_file = build("lane")
    assert lane_eligible(lane)
    reference, reference_file = build("reference")
    for windows in (400, 700, 1000):
        lane.step_windows(windows - lane.windows)
        _per_window(reference, windows - reference.windows)
        assert lane_file.read_bytes() == reference_file.read_bytes()
    assert CheckpointFile(lane_file).load().windows == 1000

    lane_result = run_result_to_dict(lane.run_to_completion())
    _per_window(reference)
    assert run_result_to_dict(reference.finish()) == lane_result
    assert not lane_file.exists() and not reference_file.exists()


def test_traced_lane_run_equals_untraced_and_samples_spans(monkeypatch):
    reads = []

    def counting_clock():
        reads.append(None)
        return 0.0

    monkeypatch.setattr(lanes, "perf_counter", counting_clock)
    plain = run_result_to_dict(_engine("W1", "bw").run_to_completion())

    traced = _engine("W1", "bw")
    observer = _traced(traced, sample_every=500)
    assert lane_eligible(traced)
    result = run_result_to_dict(traced.run_to_completion())
    assert result == plain

    sampled = -(-traced.windows // 500)  # windows 0, 500, 1000, ...
    windows = [s for s in observer.tracer.spans() if s.name == "window"]
    assert len(windows) == sampled
    assert [s.args["index"] for s in windows] == [500 * i for i in range(sampled)]
    for span in windows:
        assert {"policy_s", "kernel_s", "apply_s"} <= set(span.args)
        assert span.args["lanes"] == 1
    # The clock is read four times per sampled window and never else.
    assert len(reads) == 4 * sampled


def test_per_window_tracing_samples_the_same_windows():
    lane = _engine("W1", "ts")
    lane_observer = _traced(lane, sample_every=300)
    while lane.windows < 1200:  # slices flush the tracer's count
        lane.step_windows(min(137, 1200 - lane.windows))
    reference = _engine("W1", "ts")
    reference_observer = _traced(reference, sample_every=300)
    _per_window(reference, 1200)

    def indices(observer):
        return [
            s.args["index"]
            for s in observer.tracer.spans()
            if s.name == "window"
        ]

    assert indices(lane_observer) == indices(reference_observer) == [
        0, 300, 600, 900
    ]


class _Counter(Observer):
    def __init__(self):
        self.calls = 0

    def on_window(self, engine):
        self.calls += 1


def test_lane_eligibility_keys_on_observable_properties():
    assert lane_eligible(_engine("W1", "ts"))
    assert lane_eligible(engine_for_spec(Chapter4Spec(mix="W1", copies=1)))
    # The scalar oracle, Chapter 5 cells, enabled trace recorders,
    # early-stop guards and custom observers keep the per-window path.
    assert not lane_eligible(_engine("W1", "ts", kernel="scalar"))
    assert not lane_eligible(engine_for_spec(Chapter5Spec(copies=1)))
    assert not lane_eligible(
        engine_for_spec(Chapter4Spec(mix="W1", copies=1, record_trace=True))
    )
    assert not lane_eligible(_engine("W1", "ts", observers=(SteadyStateGuard(),)))
    counter = _Counter()
    engine = _engine("W1", "ts", observers=(counter,))
    assert not lane_eligible(engine)
    engine.step_windows(321)
    assert counter.calls == 321


def test_solo_simulate_leaves_gang_counters_unchanged():
    names = (
        "repro_gang_step_path_total",
        "repro_gang_planned_total",
        "repro_gang_cells_total",
    )
    before = {name: METRICS.counter_total(name) for name in names}
    envelope = ReproClient(MemoryStore()).simulate(
        mix="W2", policy="acg", copies=1
    )
    assert envelope.provenance.cache == "miss"
    assert {name: METRICS.counter_total(name) for name in names} == before


def test_traced_gang_steps_the_lane_loop():
    from repro.engine import GangStrategy
    from repro.engine.lanes import LaneLoop

    specs = [
        Chapter4Spec(mix="W1", policy="ts", copies=1, inlet_delta_c=delta)
        for delta in (0.0, 1.0)
    ]
    plain = GangStrategy([engine_for_spec(spec) for spec in specs])
    plain.step_windows(600)

    engines = [engine_for_spec(spec) for spec in specs]
    observers = [_traced(engine, sample_every=200) for engine in engines]
    traced = GangStrategy(engines)
    traced.step_windows(600)
    assert isinstance(traced._vector, LaneLoop)
    assert [s.to_dict() for s in traced.checkpoint()] == [
        s.to_dict() for s in plain.checkpoint()
    ]
    for observer in observers:
        spans = [s for s in observer.tracer.spans() if s.name == "window"]
        assert [s.args["index"] for s in spans] == [0, 200, 400]
        assert all(s.args["lanes"] == 2 for s in spans)
