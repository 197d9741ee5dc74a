"""Per-layer ledger: timing and counting wrappers around public functions.

The traced run installs a :class:`Ledger` before it builds its service.
Every wrapper records into the program's own metrics registry under the
``perfbench.`` prefix.  That registry is the transport that brings
numbers home from forked cluster workers: each worker ships its
registry delta with every batch result, and the gateway merges it.  So
worker-side layer times arrive in the gateway's registry like the
program's own ``cluster.*`` and ``relin.*`` counters do.

Layer rows are keyed by their index in the compiled graph and their
source label (``henn.L1.HePoly_s``).  Two layers with one label (the two
``HePoly`` activations of CNN1) therefore stay two rows.
"""

from __future__ import annotations

import functools
import threading
import time

import numpy as np

import repro.henn.inference as _inference
import repro.henn.plan as _plan
from repro.ckksrns.context import CkksRnsContext
from repro.henn.inference import HeInferenceEngine
from repro.henn.protocol import BatchedCloudService, Client, CloudService
from repro.nt.ntt import BatchedNttPlan, NttPlan
from repro.obs.metrics import get_registry
from repro.serving.cluster import Dispatcher

PREFIX = "perfbench."

#: Every per-layer metric the traced run reports: name -> unit.
PER_LAYER = {
    "protocol.encrypt_s": "s/image",
    "protocol.decrypt_s": "s/image",
    "protocol.serve_s": "s/request",
    "serving.queue_wait_s": "s/request",
    "serving.batch_size_mean": "images/batch",
    "serving.batches": "count",
    "serving.rejected": "count",
    "serving.assemble_s": "s/batch",
    "serving.split_s": "s/batch",
    "cluster.dispatch_s": "s/batch",
    "cluster.worker_compute_s": "s/batch",
    "cluster.ipc_s": "s/batch",
    "cluster.warmup_s": "s/worker",
    "cluster.failovers": "count",
    "henn.evaluate_s": "s/batch",
    "henn.L0.HeConv2d_s": "s/batch",
    "henn.L1.HePoly_s": "s/batch",
    "henn.L3.HeLinear_s": "s/batch",
    "henn.L4.HePoly_s": "s/batch",
    "henn.L5.HeLinear_s": "s/batch",
    "plan.compile_s": "s",
    "plan.fresh_encodes": "count/image",
    "ckksrns.keyswitch_s": "s/image",
    "ckksrns.keyswitch_sweeps": "count/image",
    "ckksrns.rescales": "count/image",
    "ckksrns.ct_mults": "count/image",
    "ckksrns.encrypt_calls": "count/image",
    "ckksrns.hoist_hits": "count/request",
    "ckksrns.hoist_misses": "count/request",
    "nt.ntt_rows": "count/image",
    "nt.ntt_s": "s/image",
    "obs.trace_overhead_frac": "ratio",
}


def unit(name: str) -> str:
    """Unit of a per-layer row; the per-index layer rows are all s/batch."""
    return PER_LAYER.get(name, "s/batch")


def _observe(name: str, seconds: float) -> None:
    # Looked up per call: a cluster worker swaps in a fresh registry
    # after every batch it answers.
    get_registry().histogram(PREFIX + name).observe(seconds)


def _count(name: str, n: int = 1) -> None:
    get_registry().counter(PREFIX + name).inc(n)


def _timed(fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            _observe(name, time.perf_counter() - t0)

    return wrapper


def _counted(fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        _count(name)
        return fn(*args, **kwargs)

    return wrapper


def _until_done(fn, name: str):
    """Time a call that returns a future, up to the future's completion."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        future = fn(*args, **kwargs)
        future.add_done_callback(lambda _: _observe(name, time.perf_counter() - t0))
        return future

    return wrapper


class Ledger:
    """Installs the wrappers; :meth:`uninstall` restores what it patched."""

    def __init__(self) -> None:
        self._patched: list[tuple[object, str, object]] = []
        self._in_ntt = threading.local()

    def _patch(self, owner: object, attr: str, wrap) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, wrap(original))
        self._patched.append((owner, attr, original))

    def install(self) -> "Ledger":
        self._patch(Client, "encrypt_request", lambda f: _timed(f, "protocol.encrypt"))
        self._patch(Client, "decrypt_response", lambda f: _timed(f, "protocol.decrypt"))
        self._patch(CloudService, "try_classify", lambda f: _timed(f, "protocol.serve"))
        self._patch(BatchedCloudService, "submit", lambda f: _until_done(f, "protocol.serve"))
        self._patch(Dispatcher, "dispatch", lambda f: _until_done(f, "cluster.dispatch"))
        self._patch(HeInferenceEngine, "assemble_batch", lambda f: _timed(f, "serving.assemble"))
        self._patch(HeInferenceEngine, "split_scores", lambda f: _timed(f, "serving.split"))
        self._patch(HeInferenceEngine, "run_encrypted", self._evaluate)
        # The engine binds compile_plan at import; the cluster worker
        # factory imports it from the plan module at call time.
        for module in (_plan, _inference):
            self._patch(module, "compile_plan", lambda f: _timed(f, "plan.compile"))
        for attr in ("relinearize", "rotate"):
            self._patch(CkksRnsContext, attr, lambda f: _timed(f, "ckksrns.keyswitch"))
        for attr in ("rescale", "rescale_ext"):
            self._patch(CkksRnsContext, attr, lambda f: _counted(f, "ckksrns.rescales"))
        for attr in ("mul_raw", "square_raw"):
            self._patch(CkksRnsContext, attr, lambda f: _counted(f, "ckksrns.ct_mults"))
        for attr in ("encrypt", "encrypt_many"):
            self._patch(CkksRnsContext, attr, lambda f: _counted(f, "ckksrns.encrypt_calls"))
        for cls in (NttPlan, BatchedNttPlan):
            for attr in ("forward", "inverse"):
                self._patch(cls, attr, self._ntt)
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute (layer wrappers stay on the
        engines built while installed)."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _evaluate(self, fn):
        timed = _timed(fn, "henn.evaluate")

        @functools.wraps(fn)
        def wrapper(engine, enc):
            # Planned engines evaluate plan.layers but report the source
            # layers' labels, as the engine's own spans do.
            exec_layers = engine.plan.layers if engine.plan is not None else engine.layers
            for i, (src, layer) in enumerate(zip(engine.layers, exec_layers)):
                if "forward" not in vars(layer):
                    row = f"henn.L{i}.{type(src).__name__}"
                    layer.forward = _timed(layer.forward, row)
            return timed(engine, enc)

        return wrapper

    def _ntt(self, fn):
        in_ntt = self._in_ntt

        @functools.wraps(fn)
        def wrapper(plan, a):
            # Count outermost transforms only: a batched plan runs its
            # single-channel groups through NttPlan.
            if getattr(in_ntt, "active", False):
                return fn(plan, a)
            in_ntt.active = True
            t0 = time.perf_counter()
            try:
                return fn(plan, a)
            finally:
                in_ntt.active = False
                _observe("nt.ntt", time.perf_counter() - t0)
                _count("nt.ntt_rows", np.size(a) // plan.n)

        return wrapper


def snapshot() -> dict[str, tuple[float, float]]:
    """``key -> (count, total)`` of every counter and histogram."""
    out = {}
    for key, d in get_registry().snapshot().items():
        if d["type"] == "counter":
            out[key] = (d["value"], d["value"])
        elif d["type"] == "histogram":
            out[key] = (d["count"], d["total"])
    return out


def diff(after: dict, before: dict) -> dict[str, tuple[float, float]]:
    """Per-key ``(count, total)`` growth between two :func:`snapshot` calls."""
    zero = (0, 0.0)
    return {
        k: (v[0] - before.get(k, zero)[0], v[1] - before.get(k, zero)[1])
        for k, v in after.items()
    }


def derive_rows(
    window: dict, phase: dict, images: int, requests: int
) -> dict[str, float]:
    """Per-layer rows ``name -> value``, in the units :func:`unit` gives.

    *window* is the registry growth over the measured window; *phase*
    the growth over the whole traced phase (set-up included), which is
    where plan compiles and worker warm-ups happen.  Every layer the
    graph has gets a row, keyed by index; a layer or module the
    workload never reached reads 0.
    """

    def count(key: str, src: dict = window) -> float:
        return src.get(key, (0, 0.0))[0]

    def total(key: str, src: dict = window) -> float:
        return src.get(key, (0, 0.0))[1]

    def mean(key: str, src: dict = window) -> float:
        n = count(key, src)
        return total(key, src) / n if n else 0.0

    def per(value: float, n: int) -> float:
        return value / n if n else 0.0

    p = PREFIX
    dispatch = mean(p + "cluster.dispatch")
    worker = mean("cluster.batch.seconds")
    rows = {
        "protocol.encrypt_s": mean(p + "protocol.encrypt", phase),
        "protocol.decrypt_s": mean(p + "protocol.decrypt"),
        "protocol.serve_s": mean(p + "protocol.serve"),
        "serving.queue_wait_s": mean("serving.batch.wait_seconds"),
        "serving.batch_size_mean": mean("serving.batch.size"),
        "serving.batches": count("serving.batch.size"),
        "serving.rejected": count('henn.requests{outcome="rejected"}'),
        "serving.assemble_s": mean(p + "serving.assemble"),
        "serving.split_s": mean(p + "serving.split"),
        "cluster.dispatch_s": dispatch,
        "cluster.worker_compute_s": worker,
        "cluster.ipc_s": dispatch - worker if dispatch else 0.0,
        "cluster.warmup_s": mean("cluster.worker.warmup_seconds", phase),
        "cluster.failovers": count("cluster.failovers"),
        "henn.evaluate_s": mean(p + "henn.evaluate"),
        "plan.compile_s": total(p + "plan.compile", phase),
        "plan.fresh_encodes": per(count("plan.encode.fresh"), images),
        "ckksrns.keyswitch_s": per(total(p + "ckksrns.keyswitch"), images),
        "ckksrns.keyswitch_sweeps": per(count(p + "ckksrns.keyswitch"), images),
        "ckksrns.rescales": per(count(p + "ckksrns.rescales"), images),
        "ckksrns.ct_mults": per(count(p + "ckksrns.ct_mults"), images),
        "ckksrns.encrypt_calls": per(count(p + "ckksrns.encrypt_calls"), images),
        "ckksrns.hoist_hits": per(count("keyswitch.hoist.hit"), requests),
        "ckksrns.hoist_misses": per(count("keyswitch.hoist.miss"), requests),
        "nt.ntt_rows": per(count(p + "nt.ntt_rows"), images),
        "nt.ntt_s": per(total(p + "nt.ntt"), images),
    }
    for key in window:
        if key.startswith(p + "henn.L"):
            rows[key[len(p) :] + "_s"] = mean(key)
    return rows
