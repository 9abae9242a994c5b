"""Per-layer timing, taken from outside the program.

:func:`install` wraps the public functions of each ``repro`` layer
(listed in :data:`LAYERS`) on their classes, so no file under ``src/``
changes.  Each wrapper records, per layer key, the call count, the busy
(inclusive) time and the self time: busy time minus the part covered
by nested wrapped calls.  A call made while the same key is already
running on the thread (a store stack delegating ``get`` to its tiers, a
policy's ``decide`` reached through ``super()``) belongs to the outer
call and is not counted again.

Per-window calls are only aggregated.  Keys marked as spans (client
call, backend, gang, cell, HTTP request, job) also keep one record per
call, with its parent span and the id of its root, held in memory and
written out when the run ends.

``repro.obs`` tracing stays off: the gang's vector path is only taken
when ``engine._tracing`` is unset, and the traced run must step the
same path as the untraced one.
"""

from __future__ import annotations

import importlib
import inspect
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Layer:
    """One wrapped layer entry point: methods of a class under one key."""

    key: str
    module: str
    cls: str
    methods: tuple[str, ...]
    span: bool = False
    #: Count a non-None result as a hit (store lookups).
    hits: bool = False
    #: Lanes stepped per call (grid kernels), from the instance.
    lanes: Callable[[Any], int] | None = None


def _grid_lanes(grid: Any) -> int:
    return len(grid._cells)


LAYERS: tuple[Layer, ...] = (
    Layer("api.client", "repro.api.client", "ReproClient",
          ("simulate", "server", "run_campaign"), span=True),
    Layer("api.service.http", "repro.api.service", "_Handler",
          ("_dispatch_inner",), span=True),
    Layer("jobs.job", "repro.jobs.scheduler", "JobScheduler",
          ("_execute",), span=True),
    Layer("jobs.store.save", "repro.jobs.store", "JobStore", ("save",)),
    Layer("cluster.backend", "repro.cluster.backends", "VectorBackend",
          ("iter_results",), span=True),
    Layer("engine.gang.run", "repro.engine.gang", "GangStrategy",
          ("run_to_completion",), span=True),
    Layer("engine.gang.step", "repro.engine.gang", "GangStrategy",
          ("step_window",)),
    Layer("engine.cell", "repro.engine.stepping", "SteppingEngine",
          ("run_to_completion",), span=True),
    Layer("engine.solo.step", "repro.engine.stepping", "SteppingEngine",
          ("step_window",)),
    Layer("core.strategy.window", "repro.core.simulator", "Chapter4Strategy",
          ("window", "window_with_decision", "window_fast")),
    Layer("core.window_model.evaluate", "repro.core.windowmodel",
          "WindowModel", ("evaluate",)),
    Layer("core.kernel.step", "repro.core.kernel", "BatchedMemSpot",
          ("step",), lanes=lambda _: 1),
    Layer("core.kernel.step", "repro.core.kernel", "GridMemSpot",
          ("step_all", "step_all_uniform", "step_all_raw"), lanes=_grid_lanes),
    Layer("workloads.scheduler.advance", "repro.workloads.batch",
          "BatchScheduler", ("advance",)),
    Layer("testbed.strategy.window", "repro.testbed.runner", "ServerStrategy",
          ("window",)),
)

#: Result stores: every concrete class in these modules is wrapped.
STORE_MODULES = (
    "repro.campaign.stores.base",
    "repro.campaign.stores.disk",
    "repro.campaign.stores.sharded",
    "repro.campaign.stores.singleflight",
)
#: DTM policy entry points, wrapped on every concrete policy class.
DTM_METHODS = ("decide", "decide_all", "apply_all")


class _ThreadState(threading.local):
    def __init__(self, registry: list, lock: threading.Lock) -> None:
        self.active: set[str] = set()
        #: Child-time accumulators of the wrapped calls in progress.
        self.frames: list[list[float]] = []
        #: Ids of the spans in progress, innermost last.
        self.spans: list[int] = []
        #: key -> [calls, busy_s, self_s, hits, lanes]
        self.stats: dict[str, list] = {}
        with lock:
            registry.append(self.stats)


class LayerProfiler:
    """Aggregates wrapped-call timings per layer key across threads."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._all_stats: list[dict[str, list]] = []
        self._local = _ThreadState(self._all_stats, self._lock)
        self._spans: list[dict] = []
        self._next_span = 0
        self._origin = time.perf_counter()

    def wrap(self, layer: Layer, name: str, func: Callable) -> Callable:
        """``func`` timed under ``layer.key``."""
        wrapper = (self._span_wrapper if layer.span else self._hot_wrapper)(
            layer, name, func)
        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", name)
        return wrapper

    def _hot_wrapper(self, layer: Layer, name: str, func: Callable) -> Callable:
        """Aggregate-only wrapper for calls made once per window or more."""
        key, hits, lanes = layer.key, layer.hits, layer.lanes
        local = self._local
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            state = local
            active = state.active
            if key in active:
                return func(*args, **kwargs)
            active.add(key)
            frames = state.frames
            frame = [0.0]
            frames.append(frame)
            started = clock()
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                busy = clock() - started
                active.discard(key)
                frames.pop()
                if frames:
                    frames[-1][0] += busy
                record = state.stats.get(key)
                if record is None:
                    record = state.stats[key] = [0, 0.0, 0.0, 0, 0]
                record[0] += 1
                record[1] += busy
                record[2] += busy - frame[0]
                if hits and result is not None:
                    record[3] += 1
                if lanes is not None:
                    record[4] += lanes(args[0])

        return wrapper

    def _span_wrapper(self, layer: Layer, name: str, func: Callable) -> Callable:
        """Wrapper that also keeps one span per call (generators: per ``next``)."""
        key = layer.key

        def enter():
            state = self._local
            if key in state.active:
                return None
            state.active.add(key)
            frame = [0.0]
            state.frames.append(frame)
            with self._lock:
                self._next_span += 1
                span_id = self._next_span
            state.spans.append(span_id)
            return frame, span_id, time.perf_counter()

        def leave(token, count: int, label: str) -> None:
            ended = time.perf_counter()
            frame, span_id, started = token
            state = self._local
            state.active.discard(key)
            state.frames.pop()
            busy = ended - started
            if state.frames:
                state.frames[-1][0] += busy
            record = state.stats.get(key)
            if record is None:
                record = state.stats[key] = [0, 0.0, 0.0, 0, 0]
            record[0] += count
            record[1] += busy
            record[2] += busy - frame[0]
            state.spans.pop()
            with self._lock:
                self._spans.append({
                    "id": span_id,
                    "parent": state.spans[-1] if state.spans else None,
                    "root": state.spans[0] if state.spans else span_id,
                    "name": key, "label": label,
                    "start_s": round(started - self._origin, 6),
                    "end_s": round(ended - self._origin, 6),
                    "thread": threading.get_ident(),
                })

        def timed_iter(iterator, label):
            first = 1
            while True:
                token = enter()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    if token is not None:
                        leave(token, first, label)
                first = 0
                yield item

        def wrapper(*args, **kwargs):
            label = _label(name, args)
            token = enter()
            if token is None:
                return func(*args, **kwargs)
            result = None
            try:
                result = func(*args, **kwargs)
            finally:
                # Creating a generator runs none of its code: its work is
                # timed as it is consumed.
                leave(token, 0 if inspect.isgenerator(result) else 1, label)
            if inspect.isgenerator(result):
                return timed_iter(result, label)
            return result

        return wrapper

    def snapshot(self) -> dict:
        """Merged per-key totals and the recorded spans."""
        totals: dict[str, dict] = {}
        with self._lock:
            threads = list(self._all_stats)
            spans = list(self._spans)
        for stats in threads:
            for key, (calls, busy, own, hits, lanes) in list(stats.items()):
                entry = totals.setdefault(
                    key, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                          "hits": 0, "lanes": 0},
                )
                entry["calls"] += int(calls)
                entry["busy_s"] += busy
                entry["self_s"] += own
                entry["hits"] += int(hits)
                entry["lanes"] += int(lanes)
        return {"layers": totals, "spans": spans}


def _label(name: str, args: tuple) -> str:
    """A short per-call label: the route for HTTP, else the method name."""
    if name == "_dispatch_inner" and len(args) >= 3:
        return f"{args[1]} {args[2].path}"
    return name


def _patch(cls: type, name: str, layer: Layer, profiler: LayerProfiler) -> None:
    raw = cls.__dict__[name]
    if isinstance(raw, classmethod):
        setattr(cls, name, classmethod(profiler.wrap(layer, name, raw.__func__)))
    elif isinstance(raw, staticmethod):
        setattr(cls, name, staticmethod(profiler.wrap(layer, name, raw.__func__)))
    else:
        setattr(cls, name, profiler.wrap(layer, name, raw))


def _subclasses(cls: type) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def install(profiler: LayerProfiler) -> None:
    """Wrap every layer entry point on its class."""
    for layer in LAYERS:
        cls = getattr(importlib.import_module(layer.module), layer.cls)
        for name in layer.methods:
            _patch(cls, name, layer, profiler)

    from repro.campaign.stores.base import ResultStore
    get_layer = Layer("campaign.store.get", "", "", ("get",), hits=True)
    put_layer = Layer("campaign.store.put", "", "", ("put",))
    for module in STORE_MODULES:
        importlib.import_module(module)
    for cls in _subclasses(ResultStore):
        if inspect.isabstract(cls):
            continue
        for layer in (get_layer, put_layer):
            name = layer.methods[0]
            if name in cls.__dict__:
                _patch(cls, name, layer, profiler)

    importlib.import_module("repro.dtm")
    importlib.import_module("repro.dtm.pid_policies")
    from repro.dtm.base import DTMPolicy
    dtm_layer = Layer("dtm.decide", "", "", DTM_METHODS)
    for cls in [DTMPolicy] + _subclasses(DTMPolicy):
        for name in DTM_METHODS:
            if name in cls.__dict__ and not getattr(
                cls.__dict__[name], "__isabstractmethod__", False
            ):
                _patch(cls, name, dtm_layer, profiler)


def window_model_memo_entries() -> int:
    """Memoized window evaluations held by the shared window models."""
    from repro.analysis import specs
    return sum(model.cache_entries for model in specs._window_models.values())
