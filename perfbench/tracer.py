"""Per-layer spans and counters, installed from outside the program.

The tracer replaces a layer's public functions *where their callers bind
them* (a module global or a class attribute) with a timing wrapper, and
puts the originals back on :meth:`Tracer.uninstall`.  A span's self time
is its duration minus the time its child spans cover, so nested layers
(the Near-Far batches inside admission pricing, the simulator copies
inside a solve) are never counted twice.

Modules are resolved with :func:`importlib.import_module`: attribute
access like ``repro.core.ooc_johnson`` yields the *function* that
``repro.core`` re-exports under the same name, not the module.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """Spans and counters keyed ``"<layer>.<field>"``, kept in memory."""

    def __init__(self) -> None:
        self.values: "defaultdict[str, float]" = defaultdict(float)
        self._open: "defaultdict[str, int]" = defaultdict(int)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def add(self, key: str, amount: float = 1.0) -> None:
        with self._lock:
            self.values[key] += amount

    def inside(self, layer: str) -> bool:
        """True while a span of ``layer`` is open (on any thread)."""
        return self._open[layer] > 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, layer, pre, post):
        tracer = self

        def wrapped(*args, **kwargs):
            ctx = pre(tracer, args, kwargs) if pre is not None else None
            if layer is None:  # counter only: no span, no time
                result = fn(*args, **kwargs)
            else:
                stack = tracer._stack()
                children = [0.0]
                stack.append(children)
                with tracer._lock:
                    tracer._open[layer] += 1
                t0 = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = time.perf_counter() - t0
                    stack.pop()
                    if stack:
                        stack[-1][0] += dt
                    with tracer._lock:
                        tracer._open[layer] -= 1
                        tracer.values[layer + ".calls"] += 1
                        tracer.values[layer + ".self_s"] += dt - children[0]
            if post is not None:
                post(tracer, ctx, args, kwargs, result)
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    # -- installation ------------------------------------------------------
    def wrap(self, target: str, layer: "str | None", *, pre=None, post=None) -> None:
        """Wrap ``"pkg.module:name"`` or ``"pkg.module:Class.name"``.

        ``layer=None`` installs a counter-only hook (``pre``/``post`` run,
        no span is recorded).  ``pre(tracer, args, kwargs)`` runs before
        the span opens; ``post(tracer, ctx, args, kwargs, result)`` after
        it closes, so neither is charged to the layer.
        """
        module_name, _, qualname = target.partition(":")
        owner = importlib.import_module(module_name)
        *path, name = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        if isinstance(original, classmethod):
            replacement = classmethod(self._wrap(original.__func__, layer, pre, post))
        else:
            replacement = self._wrap(original, layer, pre, post)
        setattr(owner, name, replacement)
        self._restore.append((owner, name, original))

    def install(self) -> None:
        """Wrap every layer this benchmark reports."""
        _install_layers(self)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()


# ---------------------------------------------------------------------------
# The layers this benchmark attributes time to
# ---------------------------------------------------------------------------
def _near_far_post(tracer, _ctx, _args, _kwargs, result):
    stats = result[1]
    tracer.add("sssp.near_far.relaxations", stats.relaxations)
    tracer.add("sssp.near_far.iterations", stats.iterations)


def _update_gop(tracer, _ctx, args, _kwargs, _result):
    _engine, _c, a, b = args[:4]
    tracer.add("engine.gop", a.shape[0] * a.shape[1] * b.shape[1] / 1e9)


def _fw_gop(tracer, _ctx, args, _kwargs, _result):
    n = args[1].shape[0]
    tracer.add("engine.gop", n**3 / 1e9)


def _schedule_post(tracer, _ctx, args, kwargs, _result):
    # Timeline.schedule(engine, start, duration, *, nbytes=..., ...)
    engine, duration = args[1], args[3]
    if engine == "compute":
        tracer.add("gpu.modeled_compute_s", duration)
    elif engine in ("h2d", "d2h"):
        tracer.add("gpu.modeled_transfer_s", duration)
        tracer.add(f"gpu.bytes_{engine}", kwargs.get("nbytes", 0))


def _save_post(tracer, _ctx, _args, kwargs, _result):
    tracer.add("checkpoint.saves")
    tracer.add("checkpoint.bytes", sum(np.asarray(a).nbytes for a in kwargs.values()))


def _coalesce_post(tracer, _ctx, args, _kwargs, batches):
    bat = args[1]
    tracer.add("serve.batcher.batches", len(batches))
    tracer.add("serve.batcher.sources", sum(b.num_sources for b in batches))
    tracer.add("serve.batcher.slots", bat * len(batches))


def _repricing(tracer, _ctx, _args, _kwargs, _result):
    if tracer.inside("serve.admission"):
        tracer.add("serve.admission.repricings")


def _drain_post(tracer, _ctx, _args, _kwargs, responses):
    for r in responses:
        hit = r.served_from in ("closure-cache", "row-cache")
        tracer.add("serve.cache.hits" if hit else "serve.cache.misses")


def _apply_pre(_tracer, args, _kwargs):
    return args[0].dist.copy()


def _apply_post(tracer, before, args, _kwargs, result):
    after = args[0].dist
    for p in result.passes:
        if p.plan.kind != "increase":
            continue
        rows = np.asarray(p.plan.affected_rows, dtype=np.int64)
        changed = np.any(before[rows] != after[rows], axis=1)
        tracer.add("dynamic.rows_recomputed", rows.size)
        tracer.add("dynamic.rows_changed", int(changed.sum()))


_GPU = [
    "repro.gpu.stream:Stream." + m
    for m in ("launch", "copy_h2d", "copy_h2d_async", "copy_d2h",
              "copy_d2h_async", "copy_d2h_2d", "record", "wait", "synchronize")
] + [
    "repro.gpu.device:Device.__init__",
    "repro.gpu.device:Device.synchronize",
    "repro.gpu.device:Device.reset_clock",
    "repro.gpu.memory:DeviceMemory.alloc",
    "repro.gpu.memory:DeviceMemory.upload",
    "repro.gpu.memory:DeviceArray.free",
]
_STORE = [
    "repro.core.tiling:HostStore." + m
    for m in ("__init__", "from_graph", "block", "rows", "flush", "close")
]
_CHECKPOINT = [
    "repro.faults.checkpoint:CheckpointStore." + m
    for m in ("__init__", "bind", "load", "has")
]
_GRAPHS = [
    "repro.graphs.csr:CSRGraph." + m
    for m in ("from_edges", "permute", "subgraph", "to_dense", "to_scipy",
              "reverse", "symmetrize", "edge_array")
] + [
    # graph rebuilds and content hashes, at every module that binds them
    "repro.dynamic.patch:apply_edge_updates",
    "repro.serve.service:apply_edge_updates",
    "repro.faults.checkpoint:graph_fingerprint",
    "repro.serve.service:graph_fingerprint",
    "repro.serve.cache:graph_fingerprint",
    "repro.dynamic.cache:graph_fingerprint",
]


def _install_layers(tracer: Tracer) -> None:
    w = tracer.wrap
    w("repro.core.ooc_johnson:near_far_batch", "sssp.near_far", post=_near_far_post)
    w("repro.dynamic.patch:dijkstra", "sssp.dijkstra")
    w("repro.core.engine:KernelEngine.update", "engine", post=_update_gop)
    w("repro.core.engine:KernelEngine.fw_inplace", "engine", post=_fw_gop)
    w("repro.core.ooc_boundary:partition_kway", "partition")
    w("repro.core.ooc_boundary:plan_boundary", None,
      post=lambda t, *_: t.add("partition.plans"))
    for target in _GPU:
        w(target, "gpu")
    w("repro.gpu.timeline:Timeline.schedule", None, post=_schedule_post)
    for target in _STORE:
        w(target, "store")
    for target in _CHECKPOINT:
        w(target, "checkpoint")
    w("repro.faults.checkpoint:CheckpointStore.save", "checkpoint", post=_save_post)
    for target in _GRAPHS:
        w(target, "graphs")
    w("repro.serve.admission:AdmissionController.estimate", "serve.admission")
    w("repro.select.cost_models:analytic_estimate_johnson", None, post=_repricing)
    w("repro.select.selector:Selector.select", None, post=_repricing)
    w("repro.serve.service:coalesce", None, post=_coalesce_post)
    w("repro.serve.service:APSPService.drain", "serve.drain", post=_drain_post)
    w("repro.dynamic.patch:DynamicAPSP.apply", "dynamic", pre=_apply_pre, post=_apply_post)


#: layers whose self time counts toward trace coverage
SPAN_LAYERS = (
    "sssp.near_far", "sssp.dijkstra", "engine", "partition", "gpu", "store",
    "checkpoint", "graphs", "serve.admission", "serve.drain", "dynamic",
)


def layer_metrics(values: dict, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (``wall_s`` = its wall time)."""
    v = defaultdict(float, values)
    out = {}
    for layer in SPAN_LAYERS:
        out[f"{layer}.calls"] = v[f"{layer}.calls"]
        out[f"{layer}.self_s"] = v[f"{layer}.self_s"]
    for key in ("sssp.near_far.relaxations", "sssp.near_far.iterations",
                "engine.gop", "gpu.bytes_h2d", "gpu.bytes_d2h",
                "gpu.modeled_compute_s", "gpu.modeled_transfer_s",
                "checkpoint.saves", "checkpoint.bytes",
                "serve.admission.repricings", "serve.batcher.batches",
                "serve.cache.hits", "serve.cache.misses",
                "dynamic.rows_recomputed"):
        out[key] = v[key]
    out["engine.gops"] = v["engine.gop"] / v["engine.self_s"] if v["engine.self_s"] else 0.0
    out["partition.calls_per_plan"] = (
        v["partition.calls"] / v["partition.plans"] if v["partition.plans"] else 0.0
    )
    out["serve.batcher.occupancy"] = (
        v["serve.batcher.sources"] / v["serve.batcher.slots"]
        if v["serve.batcher.slots"] else 0.0
    )
    out["dynamic.rows_changed_ratio"] = (
        v["dynamic.rows_changed"] / v["dynamic.rows_recomputed"]
        if v["dynamic.rows_recomputed"] else 0.0
    )
    covered = sum(v[f"{layer}.self_s"] for layer in SPAN_LAYERS)
    out["trace.coverage"] = covered / wall_s if wall_s > 0 else 0.0
    return out
