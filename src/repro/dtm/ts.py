"""DTM-TS: thermal shutdown (§2.3, §4.2.1).

The memory controller polls the temperature; when either the AMB or the
DRAM reaches its thermal design point, all memory accesses stop.  They
resume only when both temperatures have fallen to their thermal release
points.  The TRP is a tunable parameter — Fig. 4.2 sweeps it — and must
stay safely below the TDP to tolerate imperfect sensors (§4.4.1).
"""

from __future__ import annotations

from repro.dtm.base import (
    ControlDecision,
    DTMPolicy,
    ThermalReading,
    _decision_memo,
)
from repro.errors import ConfigurationError
from repro.params.emergency import EmergencyLevels, SIMULATION_LEVELS


class DTMTS(DTMPolicy):
    """Thermal shutdown with TDP/TRP hysteresis.

    Args:
        levels: emergency table supplying the TDPs (and level count for
            the reported ``emergency_level``).
        cores: core count reported in decisions.
        amb_trp_c: AMB thermal release point override (Fig. 4.2 sweep);
            defaults to the table's value.
        dram_trp_c: DRAM release point override.
    """

    name = "DTM-TS"

    def __init__(
        self,
        levels: EmergencyLevels | None = None,
        cores: int = 4,
        amb_trp_c: float | None = None,
        dram_trp_c: float | None = None,
    ) -> None:
        self._levels = levels if levels is not None else SIMULATION_LEVELS
        self._cores = cores
        self._amb_trp_c = amb_trp_c if amb_trp_c is not None else self._levels.amb_trp_c
        self._dram_trp_c = (
            dram_trp_c if dram_trp_c is not None else self._levels.dram_trp_c
        )
        if self._amb_trp_c >= self._levels.amb_tdp_c:
            raise ConfigurationError("AMB TRP must be below the AMB TDP")
        if self._dram_trp_c >= self._levels.dram_tdp_c:
            raise ConfigurationError("DRAM TRP must be below the DRAM TDP")
        self._shut_down = False

    @property
    def shut_down(self) -> bool:
        """Whether memory is currently shut down."""
        return self._shut_down

    def decide(self, reading: ThermalReading, dt_s: float) -> ControlDecision:
        """On/off decision with hysteresis between TDP and TRP."""
        overheated = (
            reading.amb_c >= self._levels.amb_tdp_c
            or reading.dram_c >= self._levels.dram_tdp_c
        )
        released = (
            reading.amb_c <= self._amb_trp_c and reading.dram_c <= self._dram_trp_c
        )
        if overheated:
            self._shut_down = True
        elif self._shut_down and released:
            self._shut_down = False
        level = self._levels.level(reading.amb_c, reading.dram_c)
        return ControlDecision(
            memory_on=not self._shut_down,
            active_cores=self._cores,
            emergency_level=level,
        )

    @classmethod
    def decide_all(cls, policies, amb_c, dram_c, dt_s):
        """Batched hysteresis: one tight loop, shared decision objects.

        Identical comparisons in identical order to :meth:`decide`; the
        per-cell saving is the ThermalReading/ControlDecision object
        churn and the dispatch, not the arithmetic.
        """
        if cls is not DTMTS:
            # A subclass may have changed decide(); never vectorize it.
            return super().decide_all(policies, amb_c, dram_c, dt_s)
        decisions = []
        for policy, amb, dram in zip(policies, amb_c, dram_c):
            levels = policy._levels
            shut = policy._shut_down
            if amb >= levels.amb_tdp_c or dram >= levels.dram_tdp_c:
                shut = policy._shut_down = True
            elif shut and (
                amb <= policy._amb_trp_c and dram <= policy._dram_trp_c
            ):
                shut = policy._shut_down = False
            level = levels.level(amb, dram)
            memo = _decision_memo(policy)
            decision = memo.get((shut, level))
            if decision is None:
                decision = memo[(shut, level)] = ControlDecision(
                    memory_on=not shut,
                    active_cores=policy._cores,
                    emergency_level=level,
                )
            decisions.append(decision)
        return decisions

    def reset(self) -> None:
        """Memory back on."""
        self._shut_down = False

    def state_dict(self) -> dict:
        """Serializable hysteresis state."""
        return {"shut_down": self._shut_down}

    def load_state_dict(self, state) -> None:
        """Restore hysteresis state."""
        self._shut_down = bool(state.get("shut_down", False))
