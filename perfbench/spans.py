"""The traced run's span recorder, layer wrappers and per-layer metrics.

The recorder wraps the public functions of each layer *from outside*
(nothing under ``src/`` changes): :func:`install` swaps each function
for a timing wrapper in its defining module, in every ``repro`` module
that imported it by name, or on its class.  A span is ``[name, start_ns,
end_ns, parent, attrs]``; synchronous spans nest per thread, coroutine
spans are recorded flat (other tasks run on the same thread while they
wait).  Spans stay in memory and are written out once, at the end.

Layers are named after the modules they cover:

===========  ==========================================================
import       interpreter start plus ``import repro.*`` (``-X importtime``)
packs        ``repro.experiments.packs.load_packs``
registry     ``Scenario.params`` (with ``repro.utils.schema`` validation)
rng          ``repro.utils.rng.spawn_seed_sequences``
store        ``SampleStore.load`` / ``save`` / ``length``
simulate     ``runner._simulate_chunk`` (event engines, kernels, packs)
sequential   ``repro.sim.sequential.run_sequential_replications``
aggregate    ``repro.utils.stats.summarize_rows``
checks       ``Scenario.check_outcomes``
render       ``repro.experiments.report`` JSON, Markdown, canonical
serve        ``repro.serve`` parse, accept, queue wait, run, document,
             fetch
===========  ==========================================================
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable, Mapping

PACKS = ("flowshop-batch", "bandits", "restless", "queueing-networks", "polling")

#: span names whose self time counts as layer time (coverage numerator)
LAYER_PREFIXES = ("packs.", "registry.", "rng.", "store.", "simulate",
                  "sequential.", "aggregate.", "checks.", "render.")
SERVE_LAYERS = ("serve.accept", "serve.parse", "serve.queue_wait",
                "serve.run", "serve.document", "serve.fetch")


class Tracer:
    """In-memory span recorder shared by every wrapper of one process."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, *, nested: bool = True) -> int:
        """Start a span; nested spans become the thread's current parent."""
        stack = self._stack() if nested else []
        with self._lock:
            idx = len(self.spans)
            parent = stack[-1] if stack else -1
            self.spans.append([name, time.perf_counter_ns(), None, parent, None])
        if nested:
            stack.append(idx)
        return idx

    def close(self, idx: int, attrs: Mapping[str, Any] | None = None,
              *, nested: bool = True) -> None:
        """End a span opened by :meth:`open`."""
        span = self.spans[idx]
        span[2] = time.perf_counter_ns()
        span[4] = dict(attrs) if attrs else None
        if nested:
            self._stack().pop()

    def add(self, name: str, start_ns: int, end_ns: int,
            attrs: Mapping[str, Any] | None = None) -> None:
        """Record an already-finished flat span (e.g. a queue wait)."""
        with self._lock:
            self.spans.append([name, start_ns, end_ns, -1, dict(attrs or {})])

    @contextlib.contextmanager
    def span(self, name: str):
        """``with tracer.span(name):`` around a block."""
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, fn: Callable, name: str,
             annotate: Callable[..., Mapping[str, Any]] | None = None) -> Callable:
        """A timing wrapper for ``fn``; ``annotate(args, kwargs, result)``
        adds attributes to the span."""
        if asyncio.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                idx = self.open(name, nested=False)
                attrs = None
                try:
                    result = await fn(*args, **kwargs)
                    attrs = annotate(args, kwargs, result) if annotate else None
                    return result
                finally:
                    self.close(idx, attrs, nested=False)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            attrs = None
            try:
                result = fn(*args, **kwargs)
                attrs = annotate(args, kwargs, result) if annotate else None
                return result
            finally:
                self.close(idx, attrs)

        return wrapper

    def dump(self, path: str) -> None:
        """Write every finished span to ``path`` as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([s for s in self.spans if s[2] is not None], fh)


def patch(tracer: Tracer, owner: Any, attr: str, name: str,
          annotate: Callable[..., Mapping[str, Any]] | None = None) -> Callable:
    """Replace ``owner.attr`` by a traced wrapper; for a module, also every
    ``repro`` module-level alias of the same function.  Returns the
    original."""
    original = getattr(owner, attr)
    wrapped = tracer.wrap(original, name, annotate)
    setattr(owner, attr, wrapped)
    if not isinstance(owner, type):
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    return original


def install(tracer: Tracer, *, serve: bool = False) -> None:
    """Wrap every layer's public functions (and the daemon's, if
    ``serve``)."""
    from pathlib import Path

    from repro.experiments import packs, registry, report, runner, store
    from repro.sim import sequential
    from repro.utils import rng, stats

    def chunk_attrs(args, kwargs, result):
        sid, _fn, _params, backend = args[0]
        return {"backend": backend, "pack": registry.pack_info(sid)[0],
                "reps": len(args[1])}

    def save_attrs(args, kwargs, result):
        written = bool(result)
        size = Path(args[0].path(*args[1:4])).stat().st_size if written else 0
        return {"written": written, "bytes": size}

    def size_attrs(args, kwargs, result):
        return {"bytes": len(result)}

    patch(tracer, packs, "load_packs", "packs.discover")
    params = patch(tracer, registry.Scenario, "params", "registry.params")
    patch(tracer, registry.Scenario, "check_outcomes", "checks.eval")
    patch(tracer, rng, "spawn_seed_sequences", "rng.spawn",
          lambda a, k, r: {"seeds": len(r)})
    patch(tracer, stats, "summarize_rows", "aggregate.summarize")
    patch(tracer, sequential, "run_sequential_replications", "sequential.run",
          lambda a, k, r: {"rounds": r.rounds, "over_min": r.n - r.min_reps})
    patch(tracer, runner, "_simulate_chunk", "simulate", chunk_attrs)
    patch(tracer, runner, "run_scenario", "runner.run_scenario",
          lambda a, k, r: {"reps": r.n_replications,
                           "cached": r.cached_replications})
    patch(tracer, store.SampleStore, "load", "store.load",
          lambda a, k, r: {"rows": len(r) if r else 0})
    patch(tracer, store.SampleStore, "save", "store.save", save_attrs)
    patch(tracer, store.SampleStore, "length", "store.length")
    for fn in ("results_to_json", "sweep_to_json"):
        patch(tracer, report, fn, "render.json", size_attrs)
    for fn in ("generate_markdown", "generate_sweep_markdown"):
        patch(tracer, report, fn, "render.markdown", size_attrs)
    patch(tracer, report, "canonical_sweep_document", "render.canonical")
    if serve:
        _install_serve(tracer, params)


def _install_serve(tracer: Tracer, params: Callable) -> None:
    """Daemon-side wrappers: accept/parse, SEPT queue wait, point run,
    document rebuild, fetch, event streams and cost-model error."""
    from repro.serve import daemon, jobs

    server = daemon.SweepServer
    enqueued: dict[tuple[str, int], tuple[int, float]] = {}
    enqueue, run_point, record_point = server._enqueue, server._run_point, server._record_point

    def traced_enqueue(self, job):
        enqueue(self, job)
        now = time.perf_counter_ns()
        run = job.submission.run
        for point in job.points:
            if point.index not in job.results:
                predicted = self._cost.predict(
                    point.scenario_id, replications=run["replications"],
                    adaptive=run["target_precision"] is not None)
                enqueued[(job.job_id, point.index)] = (now, predicted)

    async def traced_run_point(self, job, point):
        now = time.perf_counter_ns()
        start, _ = enqueued.get((job.job_id, point.index), (now, 0.0))
        tracer.add("serve.queue_wait", start, now)
        merged = params(daemon.get_scenario(point.scenario_id), point.overrides)
        key = self.store.key(point.scenario_id, merged, job.submission.run["seed"])
        waited = key in self._inflight
        idx = tracer.open("serve.run", nested=False)
        try:
            return await run_point(self, job, point)
        finally:
            tracer.close(idx, {"inflight_wait": waited}, nested=False)

    async def traced_record_point(self, job, point, result):
        _, predicted = enqueued.get((job.job_id, point.index), (0, 0.0))
        simulated = result.n_replications - result.cached_replications
        tracer.add("serve.cost", 0, 0, {
            "predicted": predicted, "realized": result.elapsed_seconds,
            "simulated": simulated})
        await record_point(self, job, point, result)

    server._enqueue = traced_enqueue
    server._run_point = traced_run_point
    server._record_point = traced_record_point
    patch(tracer, jobs, "parse_submission", "serve.parse")
    patch(tracer, server, "submit", "serve.accept",
          lambda a, k, r: {"created": r[1]})
    patch(tracer, server, "_document", "serve.document")
    patch(tracer, server, "_handle_document", "serve.fetch")
    patch(tracer, server, "_stream_events", "serve.events",
          lambda a, k, r: {"events": len(a[1].events) + 1})


# -- analysis ----------------------------------------------------------------


def self_times(spans: list[list[Any]]) -> list[float]:
    """Each span's duration minus its children's, in seconds."""
    child = [0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [(s[2] - s[1] - c) / 1e9 for s, c in zip(spans, child)]


def parse_importtime(text: str) -> dict[str, float]:
    """Import self-times from ``-X importtime`` stderr, in seconds:
    total, and the numpy/scipy/repro shares."""
    out = {"total": 0.0, "numpy": 0.0, "scipy": 0.0, "repro": 0.0}
    for line in text.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        try:
            self_us, _cum, name = line[len("import time:"):].split("|")
            seconds = int(self_us) / 1e6
        except ValueError:
            continue
        name = name.strip()
        out["total"] += seconds
        top = name.split(".")[0]
        if top in out:
            out[top] += seconds
    return out


def layer_metrics(span_lists: Iterable[list[list[Any]]], *, n_ops: int,
                  n_procs: int,
                  imports: Iterable[Mapping[str, float]]) -> dict[str, float]:
    """Per-layer metrics from the spans of every traced process (one span
    list per process).

    Times and counts are per operation, except ``import.*`` and
    ``packs.discover_s``, which are per process start.
    """
    ops = max(n_ops, 1)
    procs = max(n_procs, 1)
    pairs = [(span, s) for spans in span_lists
             for span, s in zip(spans, self_times(spans))]
    total: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    attr: dict[str, float] = defaultdict(float)
    cost_errors = []
    events = []
    for span, self_s in pairs:
        name, _, _, _, attrs = span
        attrs = attrs or {}
        total[name] += self_s
        count[name] += 1
        if name == "simulate":
            total[f"simulate.{attrs['backend']}"] += self_s
            total[f"simulate.{attrs['pack']}"] += self_s
            attr["reps"] += attrs["reps"]
        elif name == "serve.cost" and attrs["simulated"] > 0 and attrs["realized"] > 0:
            cost_errors.append(abs(attrs["predicted"] - attrs["realized"]) / attrs["realized"])
        elif name == "serve.events":
            events.append(attrs["events"])
        for key in ("seeds", "rounds", "over_min", "rows", "bytes", "cached"):
            if key in attrs:
                attr[f"{name}.{key}"] += attrs[key]
        if name == "runner.run_scenario":
            attr["runner.reps"] += attrs["reps"]
        if name == "store.save" and not attrs.get("written", True):
            attr["store.skipped"] += 1
        if name == "serve.accept" and not attrs.get("created", True):
            attr["serve.deduped"] += 1
        if name == "serve.run" and attrs.get("inflight_wait"):
            attr["serve.inflight"] += 1
    imports = list(imports)
    n_imp = max(len(imports), 1)
    m = {f"import.{k}_s": sum(i[k] for i in imports) / n_imp
         for k in ("total", "numpy", "scipy", "repro")}
    m["packs.discover_s"] = total["packs.discover"] / procs
    m["registry.params_s"] = total["registry.params"] / ops
    m["registry.params_calls"] = count["registry.params"] / ops
    m["rng.spawn_s"] = total["rng.spawn"] / ops
    m["rng.seeds"] = attr["rng.spawn.seeds"] / ops
    for op in ("load", "save", "length"):
        m[f"store.{op}_s"] = total[f"store.{op}"] / ops
    m["store.load_calls"] = count["store.load"] / ops
    m["store.save_calls"] = count["store.save"] / ops
    m["store.saves_skipped"] = attr["store.skipped"] / ops
    m["store.hit_rows"] = attr["store.load.rows"] / ops
    m["store.hit_ratio"] = attr["runner.run_scenario.cached"] / max(attr["runner.reps"], 1)
    m["store.bytes_written"] = attr["store.save.bytes"] / ops
    m["simulate.event_s"] = total["simulate.event"] / ops
    m["simulate.vectorized_s"] = total["simulate.vectorized"] / ops
    m["simulate.replications"] = attr["reps"] / ops
    m["simulate.s_per_rep"] = total["simulate"] / max(attr["reps"], 1)
    for pack in PACKS:
        m[f"simulate.{pack}_s"] = total[f"simulate.{pack}"] / ops
    m["sequential.rounds"] = attr["sequential.run.rounds"] / ops
    m["sequential.reps_over_min"] = attr["sequential.run.over_min"] / ops
    m["aggregate.summarize_s"] = total["aggregate.summarize"] / ops
    m["checks.eval_s"] = total["checks.eval"] / ops
    m["render.json_s"] = total["render.json"] / ops
    m["render.markdown_s"] = total["render.markdown"] / ops
    m["render.canonical_s"] = total["render.canonical"] / ops
    m["render.bytes"] = (attr["render.json.bytes"] + attr["render.markdown.bytes"]) / ops
    for part in ("accept", "parse", "queue_wait", "run", "document", "fetch"):
        m[f"serve.{part}_s"] = total[f"serve.{part}"] / ops
    m["serve.job_dedup_ratio"] = attr["serve.deduped"] / max(count["serve.accept"], 1)
    m["serve.inflight_waits"] = attr["serve.inflight"] / ops
    m["serve.events_per_job"] = sum(events) / max(len(events), 1)
    m["serve.cost_rel_error"] = sum(cost_errors) / max(len(cost_errors), 1)
    return m


def layer_seconds(spans: list[list[Any]]) -> float:
    """Self time of every layer span (the traced share of latency)."""
    return sum(s for span, s in zip(spans, self_times(spans))
               if span[0].startswith(LAYER_PREFIXES))


def _union(intervals: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    merged: list[tuple[int, int]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def serve_coverage(spans: list[list[Any]], ops: Iterable[tuple[int, int]]) -> float:
    """Share of the time some client operation was in flight during which
    a serve-layer span was open (both on the machine's monotonic clock)."""
    busy = _union((s[1], s[2]) for s in spans if s[0] in SERVE_LAYERS)
    waiting = _union(ops)
    overlap, i = 0, 0
    for start, end in waiting:
        while i < len(busy) and busy[i][1] <= start:
            i += 1
        j = i
        while j < len(busy) and busy[j][0] < end:
            overlap += min(end, busy[j][1]) - max(start, busy[j][0])
            j += 1
    total = sum(end - start for start, end in waiting)
    return overlap / total if total else 0.0
