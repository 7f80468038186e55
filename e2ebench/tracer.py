"""Outside-in tracing: spans around the program's public calls.

Traced runs replace a fixed list of public functions and methods (see
:func:`install`) with wrappers that record one :class:`Span` per call: its
layer (the module it belongs to), name, thread, start, end, parent span and
job id, plus counts read off the value the call returns.  Spans stay in
memory; :func:`reduce` turns them into the per-layer metrics.  Untraced runs
never call :func:`install`.

Self time is a span's duration minus the time its child spans cover.  A call
that blocks on another thread (``run()`` waiting on a service worker, a
gateway client waiting for the job) also loses the time the job's spans on
other threads cover; the service's worker-side handling of a job, from its
``run_started`` to its terminal event, is a synthetic ``service`` span, and
so is the wait between queueing and starting.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

from benchstats import median

#: Layers reported, in the order of the stack (``client`` is the benchmark).
LAYERS = ("gateway", "service", "store", "runner", "engine", "fusion", "baselines",
          "core", "solver", "model", "mapping")


@dataclass
class Span:
    sid: int
    parent: int | None
    layer: str
    name: str
    thread: int
    start: float
    end: float = 0.0
    job: str | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        #: ``(job_id, event kind, thread, time)`` for every service event.
        self.events: list[tuple[str, str, int, float]] = []
        self.active = False
        self._local = threading.local()
        self._ids = itertools.count(1)

    # ------------------------------------------------------------ recording
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enabled(self) -> bool:
        return self.active and not getattr(self._local, "suspended", 0)

    @contextmanager
    def suspended(self):
        """No spans from this thread inside the block (the oracle's checks)."""
        self._local.suspended = getattr(self._local, "suspended", 0) + 1
        try:
            yield
        finally:
            self._local.suspended -= 1

    def open(self, layer: str, name: str, root: bool = False) -> Span | None:
        if not self._enabled():
            return None
        stack = self._stack()
        span = Span(
            sid=next(self._ids),
            parent=stack[-1].sid if stack else None,
            layer=layer,
            name=name,
            thread=threading.get_ident(),
            start=time.perf_counter(),
            job=None if stack or root else getattr(self._local, "job", None),
        )
        stack.append(span)
        return span

    def close(self, span: Span, counts: dict | None = None) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        if counts:
            span.counts = counts
        self.spans.append(span)

    @contextmanager
    def root(self):
        """The benchmark's own span around one job, start to verified envelope."""
        span = self.open("client", "job", root=True)
        try:
            yield span
        finally:
            if span is not None:
                self.close(span)

    def bind_job(self, job_id: str) -> None:
        """Attach ``job_id`` to this thread's outermost open span."""
        stack = self._stack()
        if stack and stack[0].job is None:
            stack[0].job = job_id

    def on_event(self, event) -> None:
        self._local.job = event.job_id
        self.events.append((event.job_id, event.KIND, threading.get_ident(), time.perf_counter()))

    # ------------------------------------------------------------- wrapping
    def wrap(self, owner, attr: str, layer: str, name: str | None = None, count=None, after=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``count(args, kwargs, result) -> dict`` reads counts off the return
        value; ``after(span, args, kwargs, result)`` may amend the span.
        """
        fn = getattr(owner, attr)
        fn = getattr(fn, "_traced_original", fn)
        name = name or attr
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                span = tracer.open(layer, name)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    if span is not None:
                        tracer.close(span)
        else:
            def wrapper(*args, **kwargs):
                span = tracer.open(layer, name)
                if span is None:
                    return fn(*args, **kwargs)
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    tracer.close(span)
                    raise
                if after is not None:
                    after(span, args, kwargs, result)
                tracer.close(span, count(args, kwargs, result) if count else None)
                return result

        functools.update_wrapper(wrapper, fn)
        wrapper._traced_original = fn
        setattr(owner, attr, wrapper)


# ------------------------------------------------------------------ counts

def _model_counts(args, kwargs, result) -> dict:
    if isinstance(result, tuple):  # DeltaEvaluator.apply -> (result, undo token)
        result = result[0]
    result = getattr(result, "result", result)  # BatchEvalDetail
    latency = getattr(result, "latency", None)
    if hasattr(latency, "__len__"):
        return {"mappings": len(latency), "valid": int(result.valid.sum())}
    return {"mappings": 1, "valid": int(bool(getattr(result, "valid", True)))}


def install(tracer: Tracer) -> None:
    """Wrap the public calls of every measured layer."""
    from repro.api import runner
    from repro.api.client import GatewayClient
    from repro.api.service import Job, SchedulingService
    from repro.api.store import ResultStore
    from repro.baselines.local_search import LocalSearchScheduler
    from repro.baselines.random_search import RandomScheduler
    from repro.baselines.timeloop_hybrid import TimeloopHybridScheduler
    from repro.baselines.tvm_like import TVMLikeTuner
    from repro.core.formulation import CoSAFormulation
    from repro.core.scheduler import CoSAScheduler
    from repro.engine.engine import SchedulingEngine
    from repro.fusion import schedule as fusion_schedule
    from repro.mapping.space import MapSpace
    from repro.model.batch import BatchCostModel
    from repro.model.cost import CostModel
    from repro.model.delta import DeltaEvaluator
    from repro.model.fused import FusedCostModel
    from repro.model.fused_batch import BatchFusedCostModel
    from repro.model.kernels import CompiledCostModel, CompiledFusedKernel
    from repro.solver.scipy_backend import ScipyMilpBackend

    wrap = tracer.wrap
    # gateway: the client's round trips
    for attr in ("submit", "events", "job", "result_text"):
        wrap(GatewayClient, attr, "gateway",
             after=(lambda span, a, k, r: tracer.bind_job(r["job_id"])) if attr == "submit" else None)

    # service: submission (with an event hook for queue/start/finish times) and waits
    submit = SchedulingService.submit

    def submit_with_events(self, spec, on_event=None, **kwargs):
        def hook(event):
            tracer.on_event(event)
            if on_event is not None:
                on_event(event)

        return submit(self, spec, hook if tracer.active else on_event, **kwargs)

    functools.update_wrapper(submit_with_events, submit)
    SchedulingService.submit = submit_with_events

    def bind_submitted(span, args, kwargs, job):
        span.job = job.id
        tracer.bind_job(job.id)

    wrap(SchedulingService, "submit", "service", after=bind_submitted)
    wrap(Job, "result", "service")

    wrap(ResultStore, "get", "store", count=lambda a, k, r: {"hit": int(r is not None)})
    for attr in ("put", "record_job", "record_events"):
        wrap(ResultStore, attr, "store")
    wrap(runner, "execute", "runner")
    wrap(SchedulingEngine, "schedule_network", "engine",
         count=lambda a, k, r: {"dedup_reuses": r.stats.dedup_reuses})
    wrap(fusion_schedule, "schedule_fused_network", "fusion",
         count=lambda a, k, r: {"groups": len(r.groups)})
    for cls, label in ((RandomScheduler, "random"), (TimeloopHybridScheduler, "hybrid"),
                       (TVMLikeTuner, "tvm"), (LocalSearchScheduler, "local-search")):
        wrap(cls, "schedule_outcome", "baselines", name=label)

    wrap(CoSAScheduler, "schedule", "core", name="schedule", count=lambda a, k, r: {"layers": 1})
    wrap(CoSAFormulation, "__init__", "core", name="build",
         count=lambda a, k, r: {"variables": a[0].stats.num_variables,
                                "constraints": a[0].stats.num_constraints})
    wrap(CoSAFormulation, "decode", "core", name="decode")
    wrap(ScipyMilpBackend, "solve", "solver", count=lambda a, k, r: {"nodes": r.iterations})

    for cls, attrs in (
        (CostModel, ("evaluate",)),
        (BatchCostModel, ("evaluate_batch", "evaluate_detail", "evaluate_mappings")),
        (CompiledCostModel, ("evaluate_batch", "evaluate_draws", "evaluate_mappings")),
        (DeltaEvaluator, ("evaluate", "apply", "preview")),
        (FusedCostModel, ("evaluate_group",)),
        (BatchFusedCostModel, ("evaluate_group",)),
        (CompiledFusedKernel, ("evaluate_group",)),
    ):
        for attr in attrs:
            wrap(cls, attr, "model", name=f"{cls.__name__}.{attr}", count=_model_counts)

    wrap(MapSpace, "sample_batch", "mapping", count=lambda a, k, r: {"samples": len(r)})
    wrap(MapSpace, "random_mapping", "mapping", count=lambda a, k, r: {"samples": 1})
    wrap(MapSpace, "neighborhood", "mapping", count=lambda a, k, r: {"samples": len(r)})


# ------------------------------------------------------------------ reduce

def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def _synthetic_spans(times: dict, spans: list[Span], next_id) -> list[Span]:
    """``service`` spans for each job's queue wait and worker-side handling."""
    submits = {span.job: span for span in spans if span.layer == "service" and span.name == "submit"}
    extra = []
    for job, seen in times.items():
        if "run_started" not in seen:
            continue
        thread, started = seen["run_started"]
        queued = seen.get("run_queued", (None, started))[1]
        if job in submits:
            queued = max(queued, submits[job].end)
        if started > queued:
            extra.append(Span(next_id(), None, "service", "queue", -1, queued, started, job))
        end = seen.get("run_finished") or seen.get("run_failed")
        if end is not None and end[0] == thread:
            extra.append(Span(next_id(), None, "service", "execute", thread, started, end[1], job))
    return extra


def reduce(tracer: Tracer, wall: float) -> dict:
    """Per-layer metrics of one traced phase of ``wall`` seconds, one client."""
    spans = list(tracer.spans)
    by_id = {span.sid: span for span in spans}

    def job_of(span: Span):
        while span.job is None and span.parent is not None:
            span = by_id[span.parent]
        return span.job

    for span in spans:
        span.job = job_of(span)
    times: dict[str, dict] = defaultdict(dict)  # job -> event kind -> (thread, time)
    for job, kind, thread, at in tracer.events:
        times[job].setdefault(kind, (thread, at))
    next_id = itertools.count(max(by_id, default=0) + 1).__next__
    executes = _synthetic_spans(times, spans, next_id)
    for window in executes:
        if window.name != "execute":
            continue
        for span in spans:
            if (span.parent is None and span.thread == window.thread and span.job == window.job
                    and window.start <= span.start and span.end <= window.end):
                span.parent = window.sid
    spans += executes
    by_id = {span.sid: span for span in spans}

    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    roots = [span for span in spans if span.layer == "client"]
    client_threads = {span.thread for span in roots}
    foreign: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is None and span.thread not in client_threads and span.job is not None:
            foreign[span.job].append((span.start, span.end))

    self_s: dict[str, float] = defaultdict(float)
    busy_s: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    by_name: dict[tuple, float] = defaultdict(float)
    gateway_by_job: dict[str, float] = defaultdict(float)
    for span in spans:
        covered = [(child.start, child.end) for child in children[span.sid]]
        if span.thread in client_threads:
            covered += foreign.get(span.job, [])
        own = span.duration - _covered(covered, span.start, span.end)
        self_s[span.layer] += own
        by_name[span.layer, span.name] += own
        if span.layer == "gateway":
            gateway_by_job[span.job] += own
        parent = by_id.get(span.parent)
        nested = parent is not None and parent.layer == span.layer
        if not nested:
            busy_s[span.layer] += span.duration
            calls[span.layer] += 1
        # A nested call counting what its caller already counts (one
        # DeltaEvaluator.preview applying a move) is not counted twice.
        if not (nested and parent.counts.keys() & span.counts.keys()):
            for key, value in span.counts.items():
                counts[span.layer, key] += value

    attributed = sum(self_s[layer] for layer in LAYERS)
    queue_waits = [seen["run_started"][1] - seen["run_queued"][1]
                   for seen in times.values() if "run_started" in seen and "run_queued" in seen]
    followers = sum(1 for seen in times.values()
                    if "run_finished" in seen and "run_started" not in seen)
    jobs = max(1, len(roots))
    solver_calls = calls["solver"]
    cosa_layers = counts["core", "layers"]
    model_mappings = counts["model", "mappings"]

    metrics = {
        "solver.calls": solver_calls,
        "solver.busy_s": busy_s["solver"],
        "solver.nodes": counts["solver", "nodes"],
        "core.build_s": by_name["core", "build"],
        "core.decode_s": by_name["core", "decode"],
        "core.variables": counts["core", "variables"],
        "core.constraints": counts["core", "constraints"],
        "core.resolve_ratio": solver_calls / cosa_layers if cosa_layers else 0.0,
        "model.busy_s": busy_s["model"],
        "model.calls": calls["model"],
        "model.mappings": model_mappings,
        "model.mappings_per_s": model_mappings / busy_s["model"] if busy_s["model"] else 0.0,
        "mapping.busy_s": busy_s["mapping"],
        "mapping.samples": counts["mapping", "samples"],
        "mapping.valid_ratio": counts["model", "valid"] / model_mappings if model_mappings else 0.0,
        "fusion.groups": counts["fusion", "groups"],
        "engine.dedup_reuses": counts["engine", "dedup_reuses"],
        "service.queue_wait_p50_s": median(queue_waits) if queue_waits else 0.0,
        "service.followers": followers,
        "store.get_s": by_name["store", "get"],
        "store.put_s": by_name["store", "put"],
        "store.record_s": by_name["store", "record_job"] + by_name["store", "record_events"],
        "gateway.self_p50_s": median(list(gateway_by_job.values())) if gateway_by_job else 0.0,
        "gateway.requests_per_job": calls["gateway"] / jobs,
        "trace.spans": len(tracer.spans),
        "trace.unattributed_share": 1.0 - attributed / wall,
    }
    for name in ("random", "hybrid", "tvm", "local-search"):
        metrics[f"baselines.{name}.self_s"] = by_name["baselines", name]
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
        metrics[f"{layer}.share"] = self_s[layer] / wall
    return metrics
