"""Batched per-window thermal kernel (the MEMSpot hot path, flattened).

Profile of a batch run: the level-1 window model memoizes, so after the
first few hundred windows the simulators spend most of their time inside
:meth:`repro.core.memspot.MemSpot.step` — which, per 10 ms window, builds
a :class:`ChannelTraffic`, one :class:`DimmPower` per DIMM, one
:class:`DimmTemperatures` per DIMM, and dispatches two
:class:`~repro.thermal.rc.RCNode` method calls per DIMM, each re-checking
its cached gain.  None of that allocation changes between windows.

:class:`BatchedMemSpot` precomputes everything that is constant for a
fixed configuration and time step — per-position AMB idle powers, bypass
hop counts, the Table 3.2 resistances, and the three RC gains
``1 - exp(-dt/tau)`` — and keeps the chain's AMB/DRAM temperatures in
flat lists.  One :meth:`step` is then a single pass of scalar float
arithmetic: no dataclasses, no per-node dispatch, no repeated ``exp()``.

:class:`GridMemSpot` is the lane loop's entry point: N >= 1 compatible
cells, one call per window, each lane the cell's own
:meth:`BatchedMemSpot.step_raw` (the sample-free tuple form of
:meth:`BatchedMemSpot.step`).
It is the only grid implementation; its docstring records why there is
no array backend.

Numerical contract: every expression below reproduces the scalar path's
floating-point operations *in the same order*, so the batched and
per-node kernels are bit-identical, not merely close.  The golden-master
suite and the property tests in ``tests/test_property_invariants.py``
enforce this equivalence.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.core.memspot import MemSpot, MemSpotSample
from repro.errors import ConfigurationError, ThermalModelError
from repro.params.power_params import AMBPowerParams, DRAMPowerParams
from repro.params.thermal_params import AmbientModelParams, CoolingConfig
from repro.units import GB


def make_memspot(kernel: str = "batched", **kwargs) -> "MemSpot | BatchedMemSpot":
    """Build the level-2 thermal emulator for the requested kernel.

    ``batched`` is the flat-array fast path, ``scalar`` the per-node
    reference implementation; both yield bit-identical trajectories.
    """
    if kernel == "scalar":
        return MemSpot(**kwargs)
    if kernel == "batched":
        return BatchedMemSpot(**kwargs)
    raise ConfigurationError(
        f"kernel must be 'batched' or 'scalar', got {kernel!r}"
    )


class BatchedMemSpot:
    """Drop-in replacement for :class:`~repro.core.memspot.MemSpot`.

    Same constructor, same :meth:`sample`/:meth:`step`/:meth:`reset`
    interface, same numbers — the state just lives in flat per-position
    lists instead of one object tree per DIMM.
    """

    def __init__(
        self,
        cooling: CoolingConfig,
        ambient: AmbientModelParams,
        physical_channels: int = 4,
        dimms_per_channel: int = 4,
        amb_params: AMBPowerParams | None = None,
        dram_params: DRAMPowerParams | None = None,
        warm_start: bool = True,
    ) -> None:
        if physical_channels < 1 or dimms_per_channel < 1:
            raise ConfigurationError("need at least one channel and one DIMM")
        self._cooling = cooling
        self._channels = physical_channels
        self._dimms = dimms_per_channel
        self._warm_start = warm_start
        p = amb_params if amb_params is not None else AMBPowerParams()
        d = dram_params if dram_params is not None else DRAMPowerParams()

        # Power-model constants, flattened per chain position.
        n = dimms_per_channel
        self._idle_w = [p.idle_power_w(i == n - 1) for i in range(n)]
        #: Integer bypass hop counts (n - 1 - i); kept as ints so the
        #: per-window bypass expression ``total * hops / n`` matches the
        #: scalar path's operation order exactly.
        self._hops = [n - 1 - i for i in range(n)]
        self._beta = p.beta_w_per_gbps
        self._gamma = p.gamma_w_per_gbps
        self._dram_static = d.static_w
        self._alpha1 = d.alpha1_w_per_gbps
        self._alpha2 = d.alpha2_w_per_gbps

        # Thermal constants (Table 3.2 column + Eq. 3.6 scalars).
        r = cooling.resistances
        self._psi_amb = r.psi_amb
        self._psi_dram_amb = r.psi_dram_amb
        self._psi_dram = r.psi_dram
        self._psi_amb_dram = r.psi_amb_dram
        self._tau_amb = cooling.tau_amb_s
        self._tau_dram = cooling.tau_dram_s
        self._inlet = ambient.inlet_for(cooling.name)
        self._interaction = ambient.interaction
        self._tau_ambient = ambient.tau_ambient_s

        # RC gains are recomputed only when dt changes (it never does
        # inside one run: the DTM interval is fixed).
        self._gain_dt = -1.0
        self._gain_ambient = 0.0
        self._gain_amb = 0.0
        self._gain_dram = 0.0

        # Flat thermal state.
        self._t_ambient = self._inlet
        self._t_amb = [self._inlet] * n
        self._t_dram = [self._inlet] * n
        if warm_start:
            self._settle_idle()

    # -- configuration accessors -------------------------------------------

    @property
    def cooling(self) -> CoolingConfig:
        """Cooling configuration."""
        return self._cooling

    @property
    def dimms_per_channel(self) -> int:
        """Chain length — :class:`GridMemSpot` cells must share it."""
        return self._dimms

    @property
    def amb_temperatures_c(self) -> list[float]:
        """Per-chain-position AMB temperatures (for tests/ablations)."""
        return list(self._t_amb)

    @property
    def dram_temperatures_c(self) -> list[float]:
        """Per-chain-position DRAM temperatures (for tests/ablations)."""
        return list(self._t_dram)

    # -- lifecycle ---------------------------------------------------------

    def _settle_idle(self) -> None:
        """Start every DIMM at its zero-traffic stable temperature.

        At zero traffic the AMB power is exactly the idle power and the
        DRAM power exactly the static term, so the stable points reduce
        to the same Eq. 3.3/3.4 affine forms the scalar path evaluates.
        """
        inlet = self._inlet
        for i in range(self._dimms):
            amb_w = self._idle_w[i]
            dram_w = self._dram_static
            self._t_amb[i] = inlet + amb_w * self._psi_amb + dram_w * self._psi_dram_amb
            self._t_dram[i] = inlet + amb_w * self._psi_amb_dram + dram_w * self._psi_dram

    def reset(self) -> None:
        """Restart at the initial (idle-stable or inlet) temperatures."""
        self._t_ambient = self._inlet
        if self._warm_start:
            self._settle_idle()
        else:
            self._t_amb = [self._inlet] * self._dimms
            self._t_dram = [self._inlet] * self._dimms

    # -- checkpoint support ------------------------------------------------

    def thermal_state(self) -> dict:
        """Serializable thermal state (same shape as MemSpot's)."""
        return {
            "t_ambient": self._t_ambient,
            "t_amb": list(self._t_amb),
            "t_dram": list(self._t_dram),
        }

    def load_thermal_state(self, state: dict) -> None:
        """Restore temperatures captured by :meth:`thermal_state`.

        The RC gain cache is invalidated so the first step after a
        restore recomputes the same ``1 - exp(-dt/tau)`` gains a fresh
        kernel would — restored trajectories stay bit-identical.
        """
        t_amb = state["t_amb"]
        t_dram = state["t_dram"]
        if len(t_amb) != self._dimms or len(t_dram) != self._dimms:
            raise ConfigurationError(
                f"thermal state has {len(t_amb)} DIMM positions, "
                f"this chain has {self._dimms}"
            )
        self._t_ambient = float(state["t_ambient"])
        self._t_amb = [float(t) for t in t_amb]
        self._t_dram = [float(t) for t in t_dram]
        self._gain_dt = -1.0

    # -- sampling ----------------------------------------------------------

    def _ambient_c(self) -> float:
        if self._interaction == 0.0:
            return self._inlet
        return self._t_ambient

    def idle_power_w(self) -> float:
        """Memory power with zero throughput (static + AMB idle)."""
        total = 0.0
        for i in range(self._dimms):
            total += self._idle_w[i] + self._dram_static
        return self._channels * total

    def sample(self) -> MemSpotSample:
        """Current temperatures with zero-power bookkeeping (no step)."""
        return MemSpotSample(
            amb_c=max(self._t_amb),
            dram_c=max(self._t_dram),
            ambient_c=self._ambient_c(),
            memory_power_w=self.idle_power_w(),
        )

    # -- the hot path ------------------------------------------------------

    def _set_dt(self, dt_s: float) -> None:
        if dt_s < 0:
            raise ThermalModelError(f"time step must be non-negative, got {dt_s}")
        self._gain_dt = dt_s
        self._gain_ambient = 1.0 - math.exp(-dt_s / self._tau_ambient)
        self._gain_amb = 1.0 - math.exp(-dt_s / self._tau_amb)
        self._gain_dram = 1.0 - math.exp(-dt_s / self._tau_dram)

    def step(
        self,
        read_bytes_per_s: float,
        write_bytes_per_s: float,
        cpu_heating_sum: float,
        dt_s: float,
    ) -> MemSpotSample:
        """Advance the thermal state by one window (see MemSpot.step)."""
        return MemSpotSample(
            *self.step_raw(
                read_bytes_per_s, write_bytes_per_s, cpu_heating_sum, dt_s
            )
        )

    def step_raw(
        self,
        read_bytes_per_s: float,
        write_bytes_per_s: float,
        cpu_heating_sum: float,
        dt_s: float,
    ) -> tuple[float, float, float, float]:
        """:meth:`step` as a bare ``(amb_c, dram_c, ambient_c,
        memory_power_w)`` tuple — the lane loop's per-window call,
        which reads the four fields and never needs the sample object.
        """
        if read_bytes_per_s < 0 or write_bytes_per_s < 0:
            raise ConfigurationError("channel throughput must be non-negative")
        if dt_s != self._gain_dt:
            self._set_dt(dt_s)

        # Eq. 3.6 ambient node.
        stable_ambient = self._inlet + self._interaction * cpu_heating_sum
        self._t_ambient += (stable_ambient - self._t_ambient) * self._gain_ambient
        ambient_c = self._inlet if self._interaction == 0.0 else self._t_ambient

        # Per-channel traffic split (all channels interleave identically).
        channels = self._channels
        read_ch = read_bytes_per_s / channels
        write_ch = write_bytes_per_s / channels
        total = read_ch + write_ch
        n = self._dimms
        local = total / n
        local_gbps = local / GB
        dram_w = (
            self._dram_static
            + self._alpha1 * ((read_ch / n) / GB)
            + self._alpha2 * ((write_ch / n) / GB)
        )

        # One flat pass over the chain: Eq. 3.2 power, Eq. 3.3/3.4 stable
        # points, Eq. 3.5 RC update.  Products that do not depend on the
        # chain position are taken once; each is a whole operand of a
        # left-to-right sum, so the sums round exactly as before.  The
        # running maxima use plain comparisons: ``max(a, b)`` keeps
        # ``a`` unless ``b > a``, which is this test, bit for bit.
        beta = self._beta
        local_w = self._gamma * local_gbps
        dram_to_amb = dram_w * self._psi_dram_amb
        dram_to_dram = dram_w * self._psi_dram
        psi_amb = self._psi_amb
        psi_amb_dram = self._psi_amb_dram
        gain_amb = self._gain_amb
        gain_dram = self._gain_dram
        t_amb = self._t_amb
        t_dram = self._t_dram
        idle_w = self._idle_w
        hops = self._hops
        amb_c = -273.15
        dram_c = -273.15
        total_power = 0.0
        for i in range(n):
            amb_w = idle_w[i] + beta * ((total * hops[i] / n) / GB) + local_w
            stable_amb = ambient_c + amb_w * psi_amb + dram_to_amb
            stable_dram = ambient_c + amb_w * psi_amb_dram + dram_to_dram
            ta = t_amb[i] + (stable_amb - t_amb[i]) * gain_amb
            td = t_dram[i] + (stable_dram - t_dram[i]) * gain_dram
            t_amb[i] = ta
            t_dram[i] = td
            if ta > amb_c:
                amb_c = ta
            if td > dram_c:
                dram_c = td
            total_power += amb_w + dram_w
        return amb_c, dram_c, ambient_c, total_power * channels


class GridMemSpot:
    """N compatible cells' thermal chains stepped as one grid.

    A *grid* holds many :class:`BatchedMemSpot` cells that share the
    chain topology (the DIMMs-per-channel count fixes the number of RC
    nodes) while every per-cell parameter — cooling resistances,
    inlet/interaction, channel count, power coefficients — stays the
    cell's own.  One :meth:`step_all` (or its :meth:`step_all_uniform`
    / :meth:`step_all_raw` variants) advances every cell by one window:
    one kernel call per window for a whole gang, or for a solo run's
    single lane (:mod:`repro.engine.lanes`).

    Each lane is the cell's own :meth:`BatchedMemSpot.step_raw`, so the
    grid is bit-identical to per-cell stepping by construction and the
    cells always hold the live thermal state: there is nothing to copy
    in or write back, and a grid can be dropped and rebuilt around any
    subset of its cells at a window boundary.

    There is deliberately no array (NumPy) backend.  One kept the
    state in ``(cells, dimms)`` float64 arrays and replayed these
    expressions elementwise, bit-identically; measured on a 2 vCPU
    host (Python 3.11, NumPy 2.4), it was slower than these python
    lanes at every gang width on a mixed Fig. 4.3 grid — 5.4x at 1
    cell, 1.7x at 8, 1.1x at 16 — and won only on homogeneous
    32-cell inlet sweeps, which no benchmark workload runs.  Re-adding
    one needs a benchmark workload that shows the win.
    """

    def __init__(self, cells: Sequence[BatchedMemSpot]) -> None:
        cells = list(cells)
        if not cells:
            raise ConfigurationError("a grid needs at least one cell")
        for cell in cells:
            if not isinstance(cell, BatchedMemSpot):
                raise ConfigurationError(
                    f"grid cells must be BatchedMemSpot kernels, "
                    f"got {type(cell).__name__}"
                )
        dimms = cells[0].dimms_per_channel
        if any(cell.dimms_per_channel != dimms for cell in cells):
            raise ConfigurationError(
                "grid cells must share the RC topology "
                "(equal dimms_per_channel)"
            )
        self._cells = cells

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._cells)

    @property
    def cells(self) -> tuple[BatchedMemSpot, ...]:
        """The per-cell kernels, in grid order."""
        return tuple(self._cells)

    # -- the hot path ------------------------------------------------------

    def _check_inputs(
        self,
        read_bytes_per_s: Sequence[float],
        write_bytes_per_s: Sequence[float],
        cpu_heating_sums: Sequence[float],
    ) -> None:
        count = len(self._cells)
        if (
            len(read_bytes_per_s) != count
            or len(write_bytes_per_s) != count
            or len(cpu_heating_sums) != count
        ):
            raise ConfigurationError(
                f"step_all needs one input per cell ({count}), got "
                f"{len(read_bytes_per_s)}/{len(write_bytes_per_s)}/"
                f"{len(cpu_heating_sums)}"
            )

    def step_all(
        self,
        read_bytes_per_s: Sequence[float],
        write_bytes_per_s: Sequence[float],
        cpu_heating_sums: Sequence[float],
        dt_s: float,
    ) -> list[MemSpotSample]:
        """Advance every cell by one window; per-cell samples in order.

        The three traffic sequences give each cell its own window input
        (a lock-step gang passes per-cell outcomes).  ``dt_s`` is
        shared — the gang's lock-step cadence is what makes cells
        compatible.
        """
        self._check_inputs(read_bytes_per_s, write_bytes_per_s, cpu_heating_sums)
        return [
            cell.step(read_bps, write_bps, heating, dt_s)
            for cell, read_bps, write_bps, heating in zip(
                self._cells, read_bytes_per_s, write_bytes_per_s, cpu_heating_sums
            )
        ]

    def step_all_uniform(
        self,
        read_bytes_per_s: float,
        write_bytes_per_s: float,
        cpu_heating_sum: float,
        dt_s: float,
    ) -> list[MemSpotSample]:
        """Advance every cell with one *shared* window input.

        The leader-broadcast gang path: all cells receive the same
        traffic and CPU heating, so the per-window inputs are three
        floats instead of three N-element lists.  Identical to
        :meth:`step_all` with the values repeated per cell.
        """
        return [
            cell.step(read_bytes_per_s, write_bytes_per_s, cpu_heating_sum, dt_s)
            for cell in self._cells
        ]

    def step_all_raw(
        self,
        read_bytes_per_s: Sequence[float],
        write_bytes_per_s: Sequence[float],
        cpu_heating_sums: Sequence[float],
        dt_s: float,
    ) -> tuple[list[float], list[float], list[float], list[float]]:
        """:meth:`step_all` as four per-cell lists.

        Returns ``(amb_peak_c, dram_peak_c, ambient_c, memory_power_w)``
        — the :class:`~repro.core.memspot.MemSpotSample` fields, one
        list per field in grid order — which is the shape the lane
        loop's per-window accounting consumes.  Built straight from
        each lane's :meth:`BatchedMemSpot.step_raw` tuple: no sample
        objects in between.
        """
        self._check_inputs(read_bytes_per_s, write_bytes_per_s, cpu_heating_sums)
        amb_c: list[float] = []
        dram_c: list[float] = []
        ambient_c: list[float] = []
        power_w: list[float] = []
        for cell, read_bps, write_bps, heating in zip(
            self._cells, read_bytes_per_s, write_bytes_per_s, cpu_heating_sums
        ):
            amb, dram, ambient, power = cell.step_raw(
                read_bps, write_bps, heating, dt_s
            )
            amb_c.append(amb)
            dram_c.append(dram)
            ambient_c.append(ambient)
            power_w.append(power)
        return amb_c, dram_c, ambient_c, power_w
