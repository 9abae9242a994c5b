"""DTM-COMB: combined core gating and DVFS (§5.2.2).

The Chapter 5 extension: walk both ladders at once — stop a subset of
cores *and* scale the survivors' frequency/voltage.  It inherits ACG's
L2-contention relief and CDVFS's processor-heat reduction, and improved
performance by up to 5.4% over the better of the two in the measured
study.
"""

from __future__ import annotations

from repro.dtm.base import (
    ControlDecision,
    DTMPolicy,
    ThermalReading,
    _decision_memo,
)
from repro.dtm.levels import LevelTracker
from repro.params.emergency import EmergencyLevels, PE1950_LEVELS


class DTMCOMB(DTMPolicy):
    """Combined gating + DVFS by emergency level.

    Args:
        levels: emergency table; the active-core and DVFS ladders are
            applied simultaneously (Table 5.1 bottom rows).
        cores: total core count.
        min_active: lower bound on active cores (one per socket on the
            servers).
    """

    name = "DTM-COMB"

    def __init__(
        self,
        levels: EmergencyLevels | None = None,
        cores: int = 4,
        min_active: int = 2,
    ) -> None:
        self._levels = levels if levels is not None else PE1950_LEVELS
        self._tracker = LevelTracker(self._levels)
        self._cores = cores
        self._min_active = min_active

    def decide(self, reading: ThermalReading, dt_s: float) -> ControlDecision:
        """Apply both the core ladder and the DVFS ladder."""
        level = self._tracker.level(reading)
        active = self._levels.acg_active_cores[level]
        if active > 0:
            active = max(active, self._min_active)
        dvfs = self._levels.cdvfs_levels[level]
        return ControlDecision(
            memory_on=active > 0,
            active_cores=min(active, self._cores),
            dvfs_level=dvfs,
            emergency_level=level,
        )

    @classmethod
    def decide_all(cls, policies, amb_c, dram_c, dt_s):
        """Batched level tracking + both ladders, per-rung decisions."""
        if cls is not DTMCOMB:
            return super().decide_all(policies, amb_c, dram_c, dt_s)
        decisions = []
        for policy, amb, dram in zip(policies, amb_c, dram_c):
            level = policy._tracker.level_values(amb, dram)
            memo = _decision_memo(policy)
            decision = memo.get(level)
            if decision is None:
                levels = policy._levels
                active = levels.acg_active_cores[level]
                if active > 0:
                    active = max(active, policy._min_active)
                decision = memo[level] = ControlDecision(
                    memory_on=active > 0,
                    active_cores=min(active, policy._cores),
                    dvfs_level=levels.cdvfs_levels[level],
                    emergency_level=level,
                )
            decisions.append(decision)
        return decisions

    def reset(self) -> None:
        """Clear the shutdown latch."""
        self._tracker.reset()

    def state_dict(self) -> dict:
        """Serializable latch state."""
        return {"tracker": self._tracker.state_dict()}

    def load_state_dict(self, state) -> None:
        """Restore latch state."""
        self._tracker.load_state_dict(state.get("tracker", {}))
