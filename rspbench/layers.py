"""Per-layer tracing for the benchmark, done entirely from outside the program.

The program is not instrumented.  :class:`Hooks` replaces the public
functions of each layer with timing wrappers *at every name their callers
resolve* and :meth:`Hooks.restore` puts the originals back.  A method is
wrapped on its class.  A module-level function is wrapped in its own module
and in every loaded ``repro`` module that imported it by name
(``extract_profile`` is called through ``repro.flowgraph.mapping``,
``evaluation_context_hash`` through both ``repro.engine.runner`` and
``repro.engine.executor``, ...).

Spans are kept in memory as ``(layer, start, end)`` tuples; only spans
opened on the benchmark's own thread are recorded (the streaming engine
prefetches on a background thread, whose work overlaps the main thread's
spans and would otherwise be counted twice).  Counters are kept for every
thread.  A layer's time is its *exclusive* self time: each span's duration
minus the part of it that its child spans cover.  The root span is the op
itself, so its self time is the op's ``unaccounted`` time, and the layer
self times plus ``unaccounted`` add up to the traced op's wall time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import sys
import threading
import types
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

Span = Tuple[str, float, float]

#: Name of the root span wrapped around each traced op.
ROOT = "unaccounted"


def exclusive_self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Sum of each layer's self time over ``spans``.

    Spans must nest (a span either contains another or is disjoint from
    it), which holds for synchronous calls on one thread.  A span's self
    time is its duration minus the union of its direct children's
    intervals, so the self times of all spans add up to the root's
    duration.
    """
    ordered = sorted(spans, key=lambda span: (span[1], -span[2]))
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    stack: List[int] = []
    for index, (_, start, end) in enumerate(ordered):
        while stack and ordered[stack[-1]][2] < end:
            stack.pop()
        if stack:
            children[stack[-1]].append((start, end))
        stack.append(index)
    totals: Dict[str, float] = defaultdict(float)
    for index, (layer, start, end) in enumerate(ordered):
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children[index]):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        totals[layer] += (end - start) - covered
    return dict(totals)


class Recorder:
    """In-memory spans, counters and per-call facts of one traced op."""

    def __init__(self) -> None:
        self.thread = threading.get_ident()
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.max_seconds: Dict[str, float] = defaultdict(float)
        #: (schedule, dfg, architecture, unlimited_shared) for the checker.
        self.schedules: List[Tuple[Any, Any, Any, bool]] = []
        self.tickers: Dict[str, Iterator[int]] = {}

    def totals(self) -> Dict[str, int]:
        """Every counter, including the count-only wrappers' tickers.

        Reading a ticker advances it, so call this once, after the op."""
        totals = dict(self.counts)
        for name, ticks in self.tickers.items():
            totals[name] = next(ticks)
        return totals


@dataclass(frozen=True)
class Hook:
    """One wrapped callable: ``module[:Class].attribute`` timed as ``layer``.

    ``count`` names a counter bumped once per call; ``span=False`` makes a
    count-only wrapper for very hot calls.  ``after(recorder, args, kwargs,
    result, seconds, state)`` records other facts of the call, where
    ``state`` is what ``before(args, kwargs)`` returned ahead of it.
    """

    target: str
    layer: str
    count: Optional[str] = None
    after: Optional[Callable[..., None]] = None
    before: Optional[Callable[..., Any]] = None
    span: bool = True


def _after_schedule(recorder: Recorder, args, kwargs, result, seconds, state) -> None:
    scheduler, dfg = args[0], args[1] if len(args) > 1 else kwargs["dfg"]
    recorder.counts["mapping.schedule.ops"] += len(result)
    recorder.max_seconds["mapping.schedule"] = max(
        recorder.max_seconds["mapping.schedule"], seconds
    )
    recorder.schedules.append((result, dfg, scheduler.architecture, False))


def _after_rearrange(recorder: Recorder, args, kwargs, result, seconds, state) -> None:
    dfg = args[1] if len(args) > 1 else kwargs["dfg"]
    target = args[2] if len(args) > 2 else kwargs["target"]
    unlimited = bool(args[3] if len(args) > 3 else kwargs.get("unlimited_shared", False))
    recorder.schedules.append((result, dfg, target, unlimited))


def _artifact_is_memo(args, kwargs) -> bool:
    store, stage, key = args[0], args[1], args[2]
    return (stage, key) in store._memory


def _after_artifact_fetch(recorder: Recorder, args, kwargs, result, seconds, memo) -> None:
    # A fetch the store answers from its in-process memory front is memo
    # reuse, not a store hit.
    if memo:
        recorder.counts["store.artifact.memo"] += 1
    else:
        recorder.counts["store.artifact.hits" if result[0] else "store.artifact.misses"] += 1


def _after_eval_get(recorder: Recorder, args, kwargs, result, seconds, state) -> None:
    recorder.counts["store.eval.hits" if result is not None else "store.eval.misses"] += 1


def _eval_front_size(args, kwargs) -> int:
    return len(args[0]._front)


def _after_eval_put(recorder: Recorder, args, kwargs, result, seconds, front_before) -> None:
    # put() and put_many() skip records the cache already holds; the
    # cache's in-process front grows by exactly the records stored.
    recorder.counts["store.eval.put_records"] += len(args[0]._front) - front_before


def _after_checkpoint_save(recorder: Recorder, args, kwargs, result, seconds, state) -> None:
    path = args[1] if len(args) > 1 else kwargs["path"]
    recorder.counts["engine.checkpoint.bytes_written"] += os.path.getsize(path)


def _after_batch(recorder: Recorder, args, kwargs, result, seconds, state) -> None:
    parameters = args[1] if len(args) > 1 else kwargs["parameters"]
    recorder.counts["core.batch.candidates"] += len(parameters)


#: Every wrapped callable, grouped by the layer its time is charged to.
HOOKS: Tuple[Hook, ...] = (
    Hook("repro.ir.loops:Kernel.build", "ir.build_dfg", count="ir.build_dfg.calls"),
    Hook(
        "repro.mapping.loop_pipelining:LoopPipeliningScheduler.schedule",
        "mapping.schedule",
        count="mapping.schedule.calls",
        after=_after_schedule,
    ),
    Hook(
        "repro.mapping.placement:ResourceTracker.placement_feasible",
        "mapping.placement",
        count="mapping.placement.probes",
        span=False,
    ),
    Hook("repro.mapping.profile:extract_profile", "mapping.profile"),
    Hook(
        "repro.mapping.rearrange:rearrange_schedule",
        "mapping.rearrange",
        count="mapping.rearrange.calls",
        after=_after_rearrange,
    ),
    Hook("repro.mapping.fingerprints:dfg_fingerprint", "mapping.fingerprint"),
    Hook("repro.mapping.fingerprints:architecture_fingerprint", "mapping.fingerprint"),
    Hook("repro.mapping.mapper:RSPMapper.map_kernel", "mapping.pipeline"),
    Hook("repro.mapping.pipeline:MappingPipeline.dfg_artifact", "mapping.pipeline"),
    Hook("repro.mapping.pipeline:MappingPipeline.base_schedule_artifact", "mapping.pipeline"),
    Hook("repro.mapping.pipeline:MappingPipeline.profile_artifact", "mapping.pipeline"),
    Hook("repro.mapping.pipeline:MappingPipeline.profiles_for", "mapping.pipeline"),
    Hook("repro.mapping.pipeline:MappingPipeline.rearrange_artifact", "mapping.pipeline"),
    Hook("repro.mapping.pipeline:MappingPipeline.context_artifact", "mapping.pipeline"),
    Hook("repro.mapping.pipeline:MappingPipeline.stage_keys", "mapping.pipeline"),
    Hook("repro.mapping.pipeline:MappingPipeline.run", "mapping.pipeline"),
    Hook("repro.flowgraph.core:Flow.run", "flowgraph.run"),
    Hook("repro.flowgraph.core:Flow.keys_for", "flowgraph.run"),
    Hook("repro.core.batch:BatchEvaluator.evaluate", "core.batch", after=_after_batch),
    Hook("repro.engine.executor:run_exploration", "engine.explore"),
    Hook(
        "repro.engine.jobs:EvaluationJob.content_hash",
        "engine.job_hash",
        count="engine.job_hash.calls",
    ),
    Hook("repro.engine.jobs:evaluation_context_hash", "engine.job_hash"),
    Hook(
        "repro.engine.checkpoint:CampaignCheckpoint.save",
        "engine.checkpoint",
        count="engine.checkpoint.saves",
        after=_after_checkpoint_save,
    ),
    Hook("repro.engine.stream:EventLog.emit", "engine.stream", count="engine.stream.events"),
    Hook("repro.utils.serialization:to_json", "engine.report"),
    Hook("repro.engine.stream:write_stream_report", "engine.report"),
    Hook(
        "repro.engine.artifacts:ArtifactStore.fetch",
        "store.artifact.fetch",
        after=_after_artifact_fetch,
        before=_artifact_is_memo,
    ),
    Hook("repro.engine.artifacts:ArtifactStore.prefetch", "store.artifact.fetch"),
    Hook("repro.engine.artifacts:ArtifactStore.put", "store.artifact.put"),
    Hook("repro.engine.cache:EvaluationCache.__init__", "store.eval.get"),
    Hook("repro.engine.cache:EvaluationCache.get", "store.eval.get", after=_after_eval_get),
    Hook("repro.engine.cache:EvaluationCache.prefetch", "store.eval.get"),
    Hook(
        "repro.engine.cache:EvaluationCache.put",
        "store.eval.put",
        after=_after_eval_put,
        before=_eval_front_size,
    ),
    Hook(
        "repro.engine.cache:EvaluationCache.put_many",
        "store.eval.put",
        after=_after_eval_put,
        before=_eval_front_size,
    ),
    Hook("repro.eval.tables:table4_livermore", "eval.tables"),
    Hook("repro.eval.tables:table5_dsp", "eval.tables"),
    Hook("repro.eval.tables:format_performance_table", "eval.tables"),
)


def _resolve(target: str) -> Tuple[Any, str]:
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute


def _bindings(target: str, owner: Any, attribute: str, original: Any) -> List[Tuple[Any, str]]:
    """Every ``(owner, name)`` a caller may resolve ``original`` through.

    ``from module import function`` copies the binding into the importer,
    so a module-level function is looked up in every loaded module of the
    program; a method is only ever resolved through its class.
    """
    if not isinstance(owner, types.ModuleType):
        return [(owner, attribute)]
    package = target.split(".", 1)[0]
    return [
        (module, name)
        for module in list(sys.modules.values())
        if getattr(module, "__name__", "").split(".", 1)[0] == package
        for name, value in list(vars(module).items())
        if value is original
    ]


def _span_wrapper(function: Callable, hook: Hook, recorder: Recorder) -> Callable:
    layer, count, before, after = hook.layer, hook.count, hook.before, hook.after
    thread, spans, counts = recorder.thread, recorder.spans, recorder.counts

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        state = before(args, kwargs) if before is not None else None
        if threading.get_ident() != thread:
            result = function(*args, **kwargs)
            seconds = 0.0
        else:
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = perf_counter()
                spans.append((layer, start, end))
            seconds = end - start
        if count is not None:
            counts[count] += 1
        if after is not None:
            after(recorder, args, kwargs, result, seconds, state)
        return result

    return wrapper


def _count_wrapper(function: Callable, hook: Hook, recorder: Recorder) -> Callable:
    # Hot path (a million calls per op): positional arguments only and a
    # C-level counter keep the added cost near 0.1 us per call.
    ticks = recorder.tickers[hook.count] = itertools.count()

    @functools.wraps(function)
    def wrapper(*args):
        next(ticks)
        return function(*args)

    return wrapper


class Hooks:
    """The installed wrappers of one traced op; :meth:`restore` undoes them."""

    def __init__(self, recorder: Recorder) -> None:
        self.saved: List[Tuple[Any, str, Any]] = []
        try:
            for hook in HOOKS:
                owner, attribute = _resolve(hook.target)
                original = vars(owner)[attribute]
                make = _span_wrapper if hook.span else _count_wrapper
                wrapper = make(original, hook, recorder)
                for bound_owner, name in _bindings(hook.target, owner, attribute, original):
                    self.saved.append((bound_owner, name, original))
                    setattr(bound_owner, name, wrapper)
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self.saved:
            owner, attribute, original = self.saved.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Hooks":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()
