"""DTM policy interface and control vocabulary.

Every policy consumes a :class:`ThermalReading` once per DTM interval and
produces a :class:`ControlDecision` — the full actuator state: memory
on/off, bandwidth cap, active core count and DVFS level.  Schemes that
only use one actuator leave the others at their permissive defaults, so
the second-level simulator can apply any decision uniformly.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ThermalReading:
    """Sensor temperatures delivered to the policy, degC."""

    amb_c: float
    dram_c: float

    def hotter(self, other: "ThermalReading") -> bool:
        """Whether either component exceeds the other reading's."""
        return self.amb_c > other.amb_c or self.dram_c > other.dram_c


@dataclass(frozen=True)
class ControlDecision:
    """One DTM interval's actuator state.

    Attributes:
        memory_on: all memory transactions enabled.
        bandwidth_cap_bytes_per_s: memory throughput ceiling
            (``None`` = unlimited; ignored when memory is off).
        active_cores: cores left running by gating.
        dvfs_level: DVFS ladder position (0 = fastest,
            ``n_points`` = stopped).
        emergency_level: the quantized thermal emergency level that
            produced this decision (for logging / analysis).
    """

    memory_on: bool = True
    bandwidth_cap_bytes_per_s: float | None = None
    active_cores: int = 4
    dvfs_level: int = 0
    emergency_level: int = 0

    def __post_init__(self) -> None:
        if self.bandwidth_cap_bytes_per_s is not None and self.bandwidth_cap_bytes_per_s < 0:
            raise ConfigurationError("bandwidth cap must be non-negative or None")
        if self.active_cores < 0:
            raise ConfigurationError("active core count must be non-negative")
        if self.dvfs_level < 0:
            raise ConfigurationError("DVFS level must be non-negative")


class DTMPolicy(abc.ABC):
    """A dynamic thermal management policy.

    Policies are stateful (hysteresis, fairness rotation, PID integrals);
    :meth:`reset` restores the initial state between experiment runs.
    """

    #: Human-readable scheme name ("DTM-ACG", ...).
    name: str = "DTM"

    #: True when :meth:`decide` provably ignores its ThermalReading —
    #: the opt-in that lets a gang (:mod:`repro.engine.gang`) step one
    #: leader cell's policy and broadcast the decision to cells that
    #: differ only thermally.  Leave False for anything that reads a
    #: temperature, even conditionally.
    thermally_insensitive: bool = False

    @abc.abstractmethod
    def decide(self, reading: ThermalReading, dt_s: float) -> ControlDecision:
        """Produce the actuator state for the next interval."""

    @classmethod
    def decide_all(
        cls,
        policies: Sequence["DTMPolicy"],
        amb_c: Sequence[float],
        dram_c: Sequence[float],
        dt_s: float,
    ) -> list[ControlDecision]:
        """Batched :meth:`decide` over many same-class policy instances.

        The call the lockstep gang (:mod:`repro.engine.gang`) makes
        once per policy class per window: every cell's decision for
        the window from flat temperature sequences, bit-identical —
        decisions *and* policy state — to calling :meth:`decide` per
        cell in order.  State commits immediately, so a policy is
        consistent (``state_dict``, a per-cell ``decide``) between any
        two calls.  The default is the plain per-cell loop; overrides
        only skip the reading/decision object churn.
        """
        return [
            policy.decide(ThermalReading(amb_c=amb, dram_c=dram), dt_s)
            for policy, amb, dram in zip(policies, amb_c, dram_c)
        ]

    def reset(self) -> None:
        """Restore initial policy state (default: stateless)."""

    def state_dict(self) -> dict[str, Any]:
        """JSON-serializable runtime state (hysteresis latches, PID
        integrals, rotation counters) for engine checkpoints.

        Stateless policies return ``{}``.  The dict must round-trip
        through :meth:`load_state_dict` bit-exactly: a restored policy
        produces the same decision stream as one that never paused.
        """
        return {}

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        """Restore runtime state captured by :meth:`state_dict`."""


def _decision_memo(policy: DTMPolicy) -> dict:
    """The per-instance decision cache used by batched deciders.

    A policy emits very few *distinct* decisions (one per ladder rung /
    latch state); ``decide_all`` implementations reuse the frozen
    :class:`ControlDecision` objects instead of re-validating a new one
    per cell per window.  Lazy so the concrete policies' constructors
    stay untouched.
    """
    memo = getattr(policy, "_decision_cache", None)
    if memo is None:
        memo = policy._decision_cache = {}
    return memo


class NoLimitPolicy(DTMPolicy):
    """The ideal system without any thermal limit (the paper's baseline)."""

    name = "No-limit"
    #: The decision is a constant — temperatures are never read.
    thermally_insensitive = True

    def __init__(self, cores: int = 4) -> None:
        self._cores = cores

    def decide(self, reading: ThermalReading, dt_s: float) -> ControlDecision:
        """Always full speed, regardless of temperature."""
        return ControlDecision(active_cores=self._cores)

    @classmethod
    def decide_all(cls, policies, amb_c, dram_c, dt_s):
        """Batched decide: one shared constant decision per policy."""
        if cls is not NoLimitPolicy:
            return super().decide_all(policies, amb_c, dram_c, dt_s)
        decisions = []
        for policy in policies:
            memo = _decision_memo(policy)
            decision = memo.get(None)
            if decision is None:
                decision = memo[None] = ControlDecision(
                    active_cores=policy._cores
                )
            decisions.append(decision)
        return decisions
