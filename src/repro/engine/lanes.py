"""The lane loop — the one fast way to step DTM windows.

A *lane* is one :class:`~repro.engine.stepping.SteppingEngine` whose
window splits into a policy decision and a post-decide strategy body
(``dtm_policy`` plus ``window_with_decision``).  :class:`LaneLoop`
steps N >= 1 such lanes together, one window per :meth:`LaneLoop.step`:

1. one batched :meth:`~repro.dtm.base.DTMPolicy.decide_all` per policy
   class;
2. each lane's strategy body under its decision (``window_fast``, the
   steady-state cache, when the strategy has one);
3. one :meth:`~repro.core.kernel.GridMemSpot.step_all_raw` for every
   thermal chain;
4. the :meth:`~repro.engine.stepping.SteppingEngine.apply_window`
   accounting (peaks, ambient integral, energies, clock), kept in
   per-lane lists instead of on the engines.

A solo engine runs the loop over one lane
(:meth:`SteppingEngine.run_to_completion` and
:meth:`SteppingEngine.step_windows`); a lockstep
:class:`~repro.engine.gang.GangStrategy` runs it over its active
cells.  Every operation replays what the per-window
:meth:`SteppingEngine.step_window` path does, in the same
floating-point order, so both paths produce the same bits.

The shadow lists are written back into the engines (:meth:`scatter`)
wherever engine state becomes visible: before a cadenced observer
fires, when the loop stops, and before a runaway-horizon error.
:func:`lane_eligible` is the single test of which engines may ride the
loop; everything else steps window by window.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Sequence

from repro.core.kernel import BatchedMemSpot, GridMemSpot
from repro.engine.observers import TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.engine.stepping import SteppingEngine


def lane_eligible(engine: "SteppingEngine") -> bool:
    """Whether ``engine`` may be stepped by a :class:`LaneLoop`.

    Checks observable properties only.  The strategy must expose the
    split decide/window surface (``dtm_policy`` and
    ``window_with_decision``) on a :class:`BatchedMemSpot` kernel, and
    every observer must be one the loop can serve without per-window
    calls: a disabled :class:`TraceRecorder` (a provable no-op), a
    cadenced observer (fired at exactly the windows it would fire on
    anyway, against scattered engine state), or the engine's own
    tracing observer (fed sampled phase timings by the loop).  Enabled
    trace recorders, early-stop guards and other custom observers keep
    the per-window path.
    """
    strategy = engine.strategy
    if not hasattr(strategy, "dtm_policy") or not hasattr(
        strategy, "window_with_decision"
    ):
        return False
    if not isinstance(strategy.memspot, BatchedMemSpot):
        return False
    for observer in engine.observers:
        if observer is engine._tracing:
            continue
        if type(observer) is TraceRecorder and not observer.enabled:
            continue
        if getattr(observer, "cadenced", False):
            continue
        return False
    return True


class LaneLoop:
    """N eligible engines stepped window by window as lanes.

    One instance spans one membership: built around engines that all
    pass :func:`lane_eligible` and share ``dt_s``, and dropped (after
    :meth:`flush`) as soon as any lane finishes — :meth:`step` reports
    that.  The engines' accumulators are stale while a loop is live;
    call :meth:`scatter` or :meth:`flush` before reading them.
    """

    __slots__ = (
        "engines",
        "strategies",
        "window_fns",
        "done_fns",
        "groups",
        "grid",
        "dt_s",
        "horizons",
        "min_horizon",
        "watchers",
        "fire_in",
        "tracers",
        "trace_in",
        "trace_gap",
        "amb",
        "dram",
        "windows",
        "now",
        "peak_amb",
        "peak_dram",
        "amb_int",
        "mem_e",
        "cpu_e",
    )

    def __init__(self, engines: Sequence["SteppingEngine"]) -> None:
        engines = list(engines)
        strategies = [engine.strategy for engine in engines]
        self.engines = engines
        self.strategies = strategies
        self.dt_s = engines[0].dt_s
        self.window_fns = [
            getattr(s, "window_fast", None) or s.window_with_decision
            for s in strategies
        ]
        self.done_fns = [(s.done, engine) for s, engine in zip(strategies, engines)]
        groups: dict[type, tuple] = {}
        for position, strategy in enumerate(strategies):
            policy = strategy.dtm_policy
            group = groups.get(type(policy))
            if group is None:
                groups[type(policy)] = group = (type(policy), [], [])
            group[1].append(position)
            group[2].append(policy)
        self.groups = list(groups.values())
        self.grid = GridMemSpot([s.memspot for s in strategies])
        self.horizons = [s.max_sim_horizon() for s in strategies]
        self.min_horizon = min(
            (h for h in self.horizons if h is not None), default=None
        )
        #: Per lane, the cadenced observers in notification order.
        self.watchers = [
            [obs for obs in engine.observers if getattr(obs, "cadenced", False)]
            for engine in engines
        ]
        self.tracers = [
            engine._tracing for engine in engines if engine._tracing is not None
        ]
        #: Unsampled windows left before some tracer samples, counted
        #: down from ``trace_gap``; the tracers learn of the skipped
        #: windows in bulk, on the sampled window or at :meth:`flush`.
        self.trace_in = self.trace_gap = min(
            (obs.windows_to_sample() for obs in self.tracers), default=0
        )
        self.amb = [engine.sample.amb_c for engine in engines]
        self.dram = [engine.sample.dram_c for engine in engines]
        self.windows = [engine.windows for engine in engines]
        self.now = [engine.now_s for engine in engines]
        self.peak_amb = [engine.peak_amb_c for engine in engines]
        self.peak_dram = [engine.peak_dram_c for engine in engines]
        self.amb_int = [engine.ambient_integral for engine in engines]
        self.mem_e = [engine.memory_energy_j for engine in engines]
        self.cpu_e = [engine.cpu_energy_j for engine in engines]
        self.fire_in = self._next_fire()

    def _next_fire(self) -> int:
        """Windows until some cadenced observer is due (-1: none is
        attached, so the countdown never reaches zero)."""
        return min(
            (
                obs.every_windows - windows % obs.every_windows
                for windows, lane_watchers in zip(self.windows, self.watchers)
                for obs in lane_watchers
            ),
            default=-1,
        )

    def scatter(self) -> None:
        """Write the shadow accumulators into the engines."""
        for i, engine in enumerate(self.engines):
            engine.peak_amb_c = self.peak_amb[i]
            engine.peak_dram_c = self.peak_dram[i]
            engine.ambient_integral = self.amb_int[i]
            engine.memory_energy_j = self.mem_e[i]
            engine.cpu_energy_j = self.cpu_e[i]
            engine.windows = self.windows[i]
            engine.now_s = self.now[i]

    def flush(self) -> None:
        """Leave every engine as per-window stepping would have.

        Accumulators are scattered and each engine's live ``sample``
        is re-read from its kernel — the boundary contract
        :meth:`SteppingEngine.restore` relies on too (``sample()`` at a
        window boundary equals the last step's sample in every field
        read before the next step).
        """
        self.scatter()
        for engine in self.engines:
            engine.sample = engine.strategy.memspot.sample()
        for obs in self.tracers:
            obs.skip(self.trace_gap - self.trace_in)
        self.trace_gap = self.trace_in

    def _sampled_tracers(self) -> list:
        """Count the skipped windows and this one on every tracer;
        the tracers that sample this window."""
        timed = []
        for obs in self.tracers:
            obs.skip(self.trace_gap)
            if obs.tick():
                timed.append(obs)
        self.trace_in = self.trace_gap = min(
            obs.windows_to_sample() for obs in self.tracers
        )
        return timed

    def step(self) -> bool:
        """Advance every lane by one window; True once a lane is done.

        On a runaway horizon the loop flushes and raises the lane's
        strategy error, exactly where the per-window guard would.
        """
        engines = self.engines
        count = len(engines)
        dt = self.dt_s
        now = self.now
        # Runaway-horizon guard, hoisted: nobody can trip a horizon
        # while the latest clock is below the earliest one.
        if self.min_horizon is not None and max(now) > self.min_horizon:
            for i, engine in enumerate(engines):
                horizon = self.horizons[i]
                if horizon is not None and now[i] > horizon:
                    self.flush()
                    raise self.strategies[i].timeout_error(engine)

        # Tracing: time only the windows some tracer samples.
        timed = None
        if self.tracers:
            if self.trace_in:
                self.trace_in -= 1
            else:
                timed = self._sampled_tracers()
                t0 = perf_counter()

        # Batched policy decisions, one decide_all per policy class.
        amb = self.amb
        dram = self.dram
        groups = self.groups
        if len(groups) == 1:
            cls, _positions, policies = groups[0]
            decisions = cls.decide_all(policies, amb, dram, dt)
        else:
            decisions = [None] * count
            for cls, positions, policies in groups:
                got = cls.decide_all(
                    policies,
                    [amb[i] for i in positions],
                    [dram[i] for i in positions],
                    dt,
                )
                for i, decision in zip(positions, got):
                    decisions[i] = decision

        # Per-lane strategy windows under the precomputed decisions.
        outcomes = [
            fn(engine, decision)
            for fn, engine, decision in zip(self.window_fns, engines, decisions)
        ]
        if timed is not None:
            t1 = perf_counter()

        # One grid step for all thermal chains, as per-field lists.
        amb_peak, dram_peak, ambient_c, power = self.grid.step_all_raw(
            [o.read_bytes_per_s for o in outcomes],
            [o.write_bytes_per_s for o in outcomes],
            [o.heating_sum for o in outcomes],
            dt,
        )
        if timed is not None:
            t2 = perf_counter()

        # apply_window accounting, per lane — the same max/multiply/add
        # sequence the per-window path runs.
        peak_amb = self.peak_amb
        peak_dram = self.peak_dram
        amb_int = self.amb_int
        mem_e = self.mem_e
        cpu_e = self.cpu_e
        for i in range(count):
            if amb_peak[i] > peak_amb[i]:
                peak_amb[i] = amb_peak[i]
            if dram_peak[i] > peak_dram[i]:
                peak_dram[i] = dram_peak[i]
            amb_int[i] += ambient_c[i] * dt
            mem_e[i] += power[i] * dt
            cpu_e[i] += outcomes[i].cpu_power_w * dt
        self.amb = amb_peak
        self.dram = dram_peak

        # Clock advance, then the cadenced observers when one is due.
        windows = self.windows
        for i in range(count):
            now[i] += dt
            windows[i] += 1
        fire_in = self.fire_in - 1
        if fire_in:
            self.fire_in = fire_in
        else:
            # Observers see scattered engine state at exactly the
            # windows they would fire on per window (their own modulo
            # re-checks skip the ones that are not due).
            self.scatter()
            for engine, lane_watchers in zip(engines, self.watchers):
                for obs in lane_watchers:
                    obs.on_window(engine)
            self.fire_in = self._next_fire()
        if timed is not None:
            t3 = perf_counter()
            for obs in timed:
                obs.emit(t1 - t0, t2 - t1, t3 - t2, lanes=count)

        for done, engine in self.done_fns:
            if done(engine):
                return True
        return False

    def run(self, limit: int | None = None) -> int:
        """Step until a lane finishes or ``limit`` windows ran; flushed.

        Returns the number of windows stepped.  The engines are
        flushed however the loop ends — a raised error included — so
        callers can checkpoint or finalize straight after.
        """
        stepped = 0
        try:
            while limit is None or stepped < limit:
                stepped += 1
                if self.step():
                    break
        finally:
            self.flush()
        return stepped

