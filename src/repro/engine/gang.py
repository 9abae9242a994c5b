"""Gang execution — many compatible cells stepped in lock-step.

A campaign grid pays the per-window cadence once per cell: sensor
reading, policy decision, level-1 evaluation, kernel step, accounting.
A *gang* steps N compatible cells through that cadence together, with
one :class:`~repro.core.kernel.GridMemSpot` advancing all N thermal
chains per window.  Two modes, chosen by how much the cells share:

- **lockstep** — cells share the DTM cadence (equal ``dt_s``) and the
  chain topology but may differ in policy/workload.  Each cell's
  strategy still runs every window.  When every cell passes
  :func:`~repro.engine.lanes.lane_eligible` the gang steps them as the
  lanes of one :class:`~repro.engine.lanes.LaneLoop` — the loop a solo
  engine runs over a single lane — with batched policy decisions and
  flat accounting; otherwise each cell runs
  :meth:`SteppingEngine.begin_window` / :meth:`SteppingEngine.apply_window`
  and only the thermal kernel dispatch is batched.
- **leader** — cells additionally share every workload-relevant axis
  (mix, policy, copies, duty cycle, bandwidth scale, ...) and their
  policy is :attr:`~repro.dtm.base.DTMPolicy.thermally_insensitive` —
  the decision provably never reads a temperature.  The per-window
  strategy work is then *identical* across the gang, so one leader
  cell's strategy runs and its :class:`~repro.engine.stepping.WindowOutcome`
  broadcasts to every follower.  This is the mode that makes a
  homogeneous thermal-sensitivity sweep (e.g. a no-limit baseline
  under N inlet temperatures) cost roughly one cell's strategy work
  plus N thermal lanes.

Bit-identity is the design constraint, not an afterthought: lockstep
gangs run the solo lane loop, the per-cell fallback and leader mode
call the exact :meth:`~repro.engine.stepping.SteppingEngine.begin_window` /
:meth:`~repro.engine.stepping.SteppingEngine.apply_window` halves of
the per-window path, the grid kernel is bit-identical to per-cell stepping,
and leader-mode followers receive the leader's strategy-owned
accumulators by *assignment* (their own sequential additions would
have produced exactly these bits — same operations, same order).  The
property suite pins gang results to serial runs byte for byte.

:func:`plan_gangs` is the safe entry point: it groups arbitrary cells
into leader gangs, lockstep gangs, and solo leftovers, proving the
leader precondition from the spec fields (everything except the
declared thermal-only axes must match) plus the policy's insensitivity
marker.  Construct :class:`GangStrategy` directly only with cells you
have proven compatible yourself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Sequence

from repro.core.kernel import BatchedMemSpot, GridMemSpot
from repro.engine.lanes import LaneLoop, lane_eligible
from repro.engine.state import EngineState
from repro.engine.stepping import SteppingEngine
from repro.errors import CheckpointError, ConfigurationError
from repro.obs.metrics import METRICS

#: Per spec kind: fields that influence only the thermal chain (or pure
#: presentation), never the strategy's decision/evaluation/advance.
#: Two thermally-insensitive cells whose remaining fields match produce
#: identical per-window outcomes and may share one leader.  Kinds not
#: listed here never form leader gangs (lockstep still applies).
LEADER_IRRELEVANT_FIELDS: dict[str, frozenset[str]] = {
    "ch4": frozenset(
        {
            "cooling",
            "ambient",
            "interaction",
            "inlet_delta_c",
            "channels",
            "dimms_per_channel",
            # Release points parameterize thermally *sensitive*
            # policies; an insensitive one (the leader gate) ignores
            # them by definition.
            "amb_trp_c",
            "dram_trp_c",
            # Observer/presentation knobs: traces record per cell.
            "record_trace",
            "scenario",
        }
    ),
}


def leader_signature(spec: Any) -> str | None:
    """The workload-identity key for leader grouping, or None.

    Serializes every spec field *except* the kind's declared
    thermal-only axes (same field walk as
    :func:`repro.campaign.spec.spec_key`).  Cells may share a leader
    only when their signatures match **and** their strategies are
    thermally insensitive; kinds with no declared axis split always
    return None.
    """
    irrelevant = LEADER_IRRELEVANT_FIELDS.get(getattr(spec, "kind", None))
    if irrelevant is None:
        return None
    fields = {k: v for k, v in spec.__dict__.items() if k not in irrelevant}
    return f"{spec.kind}|{json.dumps(fields, sort_keys=True, default=str)}"


class GangStrategy:
    """Drives N compatible engines window by window through one grid.

    ``mode`` is ``"lockstep"`` or ``"leader"`` (see the module
    docstring).  The gang owns no results — each engine finalizes its
    own, exactly as a solo run would — and cells that finish early
    retire from the grid while the rest keep stepping.
    """

    def __init__(
        self,
        engines: Sequence[SteppingEngine],
        *,
        mode: str = "lockstep",
    ) -> None:
        engines = list(engines)
        if not engines:
            raise ConfigurationError("a gang needs at least one engine")
        if mode not in ("lockstep", "leader"):
            raise ConfigurationError(
                f"gang mode must be 'lockstep' or 'leader', got {mode!r}"
            )
        dt = engines[0].dt_s
        for engine in engines:
            if engine.dt_s != dt:
                raise ConfigurationError(
                    "gang cells must share the DTM window length "
                    f"(got {engine.dt_s} and {dt})"
                )
            if not isinstance(engine.strategy.memspot, BatchedMemSpot):
                raise ConfigurationError(
                    "gang cells need BatchedMemSpot kernels "
                    f"(got {type(engine.strategy.memspot).__name__})"
                )
        if mode == "leader":
            kinds = {engine.strategy.kind for engine in engines}
            if len(kinds) > 1:
                raise ConfigurationError(
                    f"a leader gang cannot mix strategy kinds {sorted(kinds)}"
                )
            for engine in engines:
                if not getattr(engine.strategy, "thermally_insensitive", False):
                    raise ConfigurationError(
                        "leader mode requires thermally-insensitive "
                        "strategies (the policy must never read a "
                        "temperature); use lockstep mode instead"
                    )
        self.mode = mode
        self.dt_s = dt
        self._engines = engines
        self._active = [
            index for index, engine in enumerate(engines) if not engine.done
        ]
        #: The active engines themselves, cached so the per-window hot
        #: path does no index re-mapping; rebuilt only on membership
        #: changes (retirement, restore).
        self._active_engines = [engines[j] for j in self._active]
        self._grid: GridMemSpot | None = None
        #: Vector fast-path state: None = not yet evaluated for the
        #: current membership, False = ineligible (per-cell fallback),
        #: else the live :class:`~repro.engine.lanes.LaneLoop`.
        self._vector: Any = None
        if mode == "leader":
            METRICS.counter_inc(
                "repro_gang_step_path_total",
                "Gang cells by stepping path",
                amount=float(len(engines)),
                path="leader",
            )

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._engines)

    @property
    def engines(self) -> tuple[SteppingEngine, ...]:
        """Member engines, in gang (and result) order."""
        return tuple(self._engines)

    @property
    def active_cells(self) -> int:
        """Cells still stepping (finished ones have retired)."""
        return len(self._active)

    @property
    def done(self) -> bool:
        """Whether every cell has finished its batch."""
        return not self._active

    # -- stepping ----------------------------------------------------------

    def _ensure_grid(self) -> GridMemSpot:
        if self._grid is None:
            self._grid = GridMemSpot(
                [self._engines[j].strategy.memspot for j in self._active]
            )
        return self._grid

    def _sync_follower_strategies(self) -> None:
        """Overlay the leader's strategy state onto every follower.

        In leader mode follower strategies never step; at any boundary
        where their state becomes visible (retirement, checkpoint,
        finalize) they adopt the leader's — which is the state their
        own identical window stream would have produced.  The JSON
        round-trip gives each follower private containers.
        """
        if self.mode != "leader" or len(self._active) < 2:
            return
        state = json.dumps(self._engines[self._active[0]].strategy.state_dict())
        for j in self._active[1:]:
            self._engines[j].strategy.load_state_dict(json.loads(state))

    def _retire_finished(self) -> None:
        # Leader mode: follower strategies never step, so their done
        # flag (scheduler state) is stale — only the leader's is live,
        # and when it flips every follower is done by construction.
        # Probing it alone keeps the hot path at one done check per
        # window instead of N; the overlay then makes the followers'
        # own flags agree before the shared retirement scan (without
        # it they would run one ghost window after the batch ended).
        if self.mode == "leader":
            if not self._engines[self._active[0]].done:
                return
            self._sync_follower_strategies()
        still = [j for j in self._active if not self._engines[j].done]
        if len(still) == len(self._active):
            return
        # The grid steps the cells' own kernels, so retiring cells leave
        # with their final temperatures; the next grid holds only the
        # survivors.
        self._sync_follower_strategies()
        self._active = still
        self._active_engines = [self._engines[j] for j in still]
        self._grid = None
        self._vector = None

    # -- vector fast path --------------------------------------------------

    def _build_vector_epoch(self) -> Any:
        """The lane loop over the active cells, or False when ineligible.

        Every active engine must pass
        :func:`~repro.engine.lanes.lane_eligible` — the same test a
        solo engine applies to itself — or the whole gang steps the
        per-cell fallback.  Traced engines qualify: the loop feeds
        their tracing observers sampled phase timings.
        """
        engines = self._active_engines
        if not all(lane_eligible(engine) for engine in engines):
            return False
        return LaneLoop(engines)

    def _flush_vector(self) -> None:
        """Fully commit and drop a live lane loop (see
        :meth:`~repro.engine.lanes.LaneLoop.flush`)."""
        loop = self._vector
        if not isinstance(loop, LaneLoop):
            return
        self._vector = None
        loop.flush()

    def step_window(self) -> bool:
        """Advance every unfinished cell by one window.

        Returns False (and does nothing) once the gang is done.
        """
        if not self._active:
            return False
        engines = self._active_engines
        if self.mode == "lockstep":
            epoch = self._vector
            if epoch is None:
                epoch = self._vector = self._build_vector_epoch()
                METRICS.counter_inc(
                    "repro_gang_step_path_total",
                    "Gang cells by stepping path",
                    amount=float(len(engines)),
                    path="vector" if epoch is not False else "fallback",
                )
            if epoch is not False:
                try:
                    finished = epoch.step()
                except BaseException:
                    self._flush_vector()
                    raise
                if finished:
                    self._flush_vector()
                    self._retire_finished()
                return True
        if self.mode == "leader":
            leader = engines[0]
            outcome = leader.begin_window()
            for follower in engines[1:]:
                # Assignment, not addition: the leader's accumulators
                # hold exactly the bits each follower's own (identical)
                # per-slot additions would have produced.
                follower.traffic_bytes = leader.traffic_bytes
                follower.l2_misses = leader.l2_misses
                follower.instructions = leader.instructions
            outcomes = [outcome] * len(engines)
            samples = self._ensure_grid().step_all_uniform(
                outcome.read_bytes_per_s,
                outcome.write_bytes_per_s,
                outcome.heating_sum,
                self.dt_s,
            )
        else:
            outcomes = [engine.begin_window() for engine in engines]
            samples = self._ensure_grid().step_all(
                [o.read_bytes_per_s for o in outcomes],
                [o.write_bytes_per_s for o in outcomes],
                [o.heating_sum for o in outcomes],
                self.dt_s,
            )
        for engine, outcome, sample in zip(engines, outcomes, samples):
            engine.apply_window(outcome, sample)
        self._retire_finished()
        return True

    def step_windows(self, count: int) -> int:
        """Advance up to ``count`` windows; returns how many ran."""
        if count < 0:
            raise ConfigurationError("cannot step a negative window count")
        stepped = 0
        while stepped < count and self.step_window():
            stepped += 1
        return stepped

    def run_to_completion(self) -> list[Any]:
        """Run every cell to completion; results in gang order."""
        while self.step_window():
            pass
        return self.finish()

    def finish(self) -> list[Any]:
        """Finalize every cell (idempotent), in gang order."""
        self._flush_vector()
        self._sync_follower_strategies()
        return [engine.finish() for engine in self._engines]

    # -- checkpoint / restore ----------------------------------------------

    def checkpoint(self) -> list[EngineState]:
        """Per-cell snapshots at the current window boundary.

        The lane loop is flushed and leader-mode follower
        strategies adopt the leader's state first, so each
        snapshot equals the one a solo run of that cell would have
        written — restoring into fresh solo engines (or a fresh gang)
        resumes bit-identically.
        """
        self._flush_vector()
        self._sync_follower_strategies()
        return [engine.checkpoint() for engine in self._engines]

    def restore(self, states: Sequence[EngineState]) -> None:
        """Resume from per-cell snapshots (gang order, one per cell)."""
        if len(states) != len(self._engines):
            raise CheckpointError(
                f"gang restore needs {len(self._engines)} states, "
                f"got {len(states)}"
            )
        for engine, state in zip(self._engines, states):
            engine.restore(state)
        self._active = [
            index
            for index, engine in enumerate(self._engines)
            if not engine.done
        ]
        self._active_engines = [self._engines[j] for j in self._active]
        self._grid = None  # membership may have changed; rebuild lazily
        self._vector = None  # shadow state is stale; rebuild lazily


@dataclass(frozen=True)
class PlannedGang:
    """One gang plus the campaign cells it executes, aligned by index."""

    #: (cache key, spec) per member, in gang order.
    cells: tuple[tuple[str, Any], ...]
    gang: GangStrategy


@dataclass(frozen=True)
class GangPlan:
    """The output of :func:`plan_gangs`: gangs plus solo leftovers."""

    gangs: tuple[PlannedGang, ...]
    #: Cells that could not join any gang (no engine factory, scalar
    #: kernel, no compatible partner) — run these per cell.
    solo: tuple[tuple[str, Any], ...]

    @property
    def ganged_cells(self) -> int:
        """How many cells run inside gangs."""
        return sum(len(planned.cells) for planned in self.gangs)


def _chunked(items: list, size: int) -> list[list]:
    return [items[i : i + size] for i in range(0, len(items), size)]


def plan_gangs(
    cells: Sequence[tuple[str, Any]],
    *,
    batch_cells: int = 16,
) -> GangPlan:
    """Group campaign cells into executable gangs.

    ``cells`` are deduplicated ``(cache key, spec)`` pairs.  Cells
    group by (kind, window length, chain topology); within a group,
    thermally-insensitive cells with equal :func:`leader_signature`
    form leader gangs and the rest form lockstep gangs, each capped at
    ``batch_cells`` members.  Cells with no engine factory, a
    non-batched kernel, or no compatible partner come back in ``solo``
    (order preserved) for per-cell execution.
    """
    from repro.campaign.spec import engine_for_spec, runner_for

    if batch_cells < 2:
        raise ConfigurationError("batch_cells must be >= 2")
    solo: list[tuple[str, Any]] = []
    groups: dict[tuple, list] = {}
    for key, spec in cells:
        if runner_for(spec.kind).make_engine is None:
            solo.append((key, spec))
            continue
        engine = engine_for_spec(spec)
        memspot = engine.strategy.memspot
        if not isinstance(memspot, BatchedMemSpot):
            solo.append((key, spec))
            continue
        group_key = (spec.kind, engine.dt_s, memspot.dimms_per_channel)
        groups.setdefault(group_key, []).append((key, spec, engine))

    gangs: list[PlannedGang] = []

    def emit(members: list, mode: str) -> None:
        for chunk in _chunked(members, batch_cells):
            if len(chunk) < 2:
                # A solo engine already steps the same lane loop a
                # gang would; running it solo skips only the gang's
                # bookkeeping (and its gang-only counters).
                solo.extend((key, spec) for key, spec, _ in chunk)
                continue
            gangs.append(
                PlannedGang(
                    cells=tuple((key, spec) for key, spec, _ in chunk),
                    gang=GangStrategy(
                        [engine for _, _, engine in chunk],
                        mode=mode,
                    ),
                )
            )

    for members in groups.values():
        leaders: dict[str, list] = {}
        lockstep: list = []
        for member in members:
            _, spec, engine = member
            signature = (
                leader_signature(spec)
                if getattr(engine.strategy, "thermally_insensitive", False)
                else None
            )
            if signature is None:
                lockstep.append(member)
            else:
                leaders.setdefault(signature, []).append(member)
        for family in leaders.values():
            if len(family) < 2:
                lockstep.extend(family)
            else:
                emit(family, "leader")
        emit(lockstep, "lockstep")
    plan = GangPlan(gangs=tuple(gangs), solo=tuple(solo))
    if plan.gangs:
        METRICS.counter_inc(
            "repro_gang_planned_total",
            "Gangs produced by plan_gangs",
            amount=float(len(plan.gangs)),
        )
    if plan.ganged_cells:
        METRICS.counter_inc(
            "repro_gang_cells_total",
            "Campaign cells by gang placement",
            amount=float(plan.ganged_cells),
            placement="ganged",
        )
    if plan.solo:
        METRICS.counter_inc(
            "repro_gang_cells_total",
            "Campaign cells by gang placement",
            amount=float(len(plan.solo)),
            placement="solo",
        )
    return plan
