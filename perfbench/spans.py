"""In-memory spans around the public functions of each layer.

The traced run replays the same one-call entry points as the untimed
run (``repro.cli.main`` and ``AnalysisService.handle``); a
:class:`Recorder` wraps the public functions those entry points call,
at the module attribute (or class attribute) they are looked up
through, so each call opens a span.  A span has a name, start, end,
parent span and request id, plus the counts read off the call's result
at the same boundary.  Nothing in the program changes: the wrappers
are installed for a traced round and removed after it.

Spans stay in memory until the run ends (:meth:`Recorder.write`).
"""

from __future__ import annotations

import gc
import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "counts", "payload", "gc")

    def __init__(self, name: str, start: float, parent: Optional[int], request) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.counts: Dict[str, float] = {}
        self.payload = None
        self.gc = 0.0  # collector pauses inside this span, outside its children

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans; one clock read at each span boundary."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._installed: List[tuple] = []
        self._gc_started: Optional[float] = None

    @contextmanager
    def span(self, name: str, request=None):
        index = self._open(name, request)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def _open(self, name: str, request=None) -> int:
        parent = self._stack[-1] if self._stack else None
        if request is None and parent is not None:
            request = self.spans[parent].request
        self.spans.append(Span(name, time.perf_counter(), parent, request))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn: Callable, count: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span.  ``name`` is a string or a function of
        the call's arguments; ``count(span, result, args, kwargs)``
        records counts after the span has closed."""

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            index = self._open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                count(self.spans[index], result, args, kwargs)
            return result

        return traced

    def _gc(self, phase: str, info: dict) -> None:
        """Charge garbage-collector pauses to the innermost open span as
        ``gc`` time (a float per span, no allocation), so the layer a
        collection interrupts is not charged for it."""
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._stack and self._gc_started is not None:
            self.spans[self._stack[-1]].gc += time.perf_counter() - self._gc_started
            self._gc_started = None

    # -- installation ---------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer's public functions (see :func:`_targets`)."""
        for owner, attr, name, count in _targets():
            own = vars(owner)
            self._installed.append((owner, attr, attr in own, own.get(attr)))
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), count))
        gc.callbacks.append(self._gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._gc)
        for owner, attr, had_own, original in reversed(self._installed):
            if had_own:
                setattr(owner, attr, original)
            else:  # an instance attribute shadowing a method
                delattr(owner, attr)
        self._installed.clear()

    def write(self, path) -> None:
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as out:
            for index, span in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index,
                    "request": span.request,
                    "name": span.name,
                    "start": round(span.start - origin, 9),
                    "end": round(span.end - origin, 9),
                    "parent": span.parent,
                    "counts": span.counts,
                    "gc": round(span.gc, 9),
                }, sort_keys=True) + "\n")


# -- what is wrapped, and what is counted at each boundary -----------------------------------
_METRIC_FIELDS = (
    "total_work", "propagations", "transfers", "rtransfers", "compositions",
    "bu_triggers", "summary_instantiations", "pruned_relations",
    "relations_created", "transfer_cache_hits", "transfer_cache_misses",
)


def _count_session(span, result, args, kwargs) -> None:
    metrics = result.metrics
    for name in _METRIC_FIELDS:
        span.counts[name] = getattr(metrics, name)
    span.counts["td_summaries"] = result.td_summaries
    span.counts["bu_summaries"] = result.bu_summaries


def _solve_name(args, kwargs) -> str:
    config = args[1] if len(args) > 1 else kwargs["config"]
    return "numeric.solve" if config.domain == "typestate-interval" else "framework.solve"


def _count_parse(span, result, args, kwargs) -> None:
    span.payload = result  # points are counted after the round, off the clock


def _count_findings(span, result, args, kwargs) -> None:
    span.counts["error_sites"] = len({site for _, site in result})


def _count_diff(span, result, args, kwargs) -> None:
    span.counts["invalidated_procs"] = len(result.invalidated)


def _count_save(span, result, args, kwargs) -> None:
    span.counts["snapshot_bytes"] = result.stat().st_size


def _count_analyze(span, result, args, kwargs) -> None:
    span.counts["store_hits"] = result.store_hits
    span.counts["store_misses"] = result.store_misses
    span.counts["cold_starts"] = int(result.cold)


def _count_cone(span, result, args, kwargs) -> None:
    span.counts["cone_procs"] = result.size
    span.counts["frontier_procs"] = len(result.frontier)


def _count_plan(span, result, args, kwargs) -> None:
    span.counts["cone_procs"] = sum(len(c.solve_cone) for c in result.components)
    span.counts["frontier_procs"] = sum(len(c.frontier) for c in result.components)


def _count_query(span, result, args, kwargs) -> None:
    span.counts["targets"] = 1
    span.counts["solves"] = int(result.cone_size > 0)
    span.counts["batch_components"] = 0
    span.counts["out_of_cone_interior_rows"] = result.out_of_cone_interior_rows


def _count_batch(span, result, args, kwargs) -> None:
    span.counts["targets"] = len(result.answers)
    span.counts["solves"] = result.solves
    span.counts["batch_components"] = result.batch_components
    span.counts["out_of_cone_interior_rows"] = result.out_of_cone_interior_rows


def _targets():
    """``(owner, attribute, span name, count)`` for every wrapped call.

    Each public function is wrapped where its callers look it up: the
    module that imported it by name, or the class for methods.
    """
    import repro.alias
    import repro.cli
    import repro.incremental.driver as driver
    import repro.query
    import repro.query.batch as batch
    import repro.query.engine as engine
    import repro.service.daemon as daemon
    import repro.typestate.client as client
    from repro.framework.session import analysis_session
    from repro.incremental.store import SummaryStore

    return [
        (repro.cli, "parse_program", "ir.parse", _count_parse),
        (daemon, "parse_program", "ir.parse", _count_parse),
        (repro.alias, "points_to_oracle", "alias.points_to", None),
        (analysis_session(), "run", _solve_name, _count_session),
        (client, "find_errors", "typestate.findings", _count_findings),
        (driver, "alias_facts", "incremental.fingerprint", None),
        (driver, "ProgramFingerprints", "incremental.fingerprint", None),
        (driver, "config_fingerprint", "incremental.fingerprint", None),
        (engine, "alias_facts", "incremental.fingerprint", None),
        (engine, "ProgramFingerprints", "incremental.fingerprint", None),
        (engine, "config_fingerprint", "incremental.fingerprint", None),
        (daemon, "config_fingerprint", "incremental.fingerprint", None),
        (SummaryStore, "load", "incremental.store_load", None),
        (driver, "build_warm_start", "incremental.store_load", None),
        (driver, "diff_fingerprints", "incremental.invalidate", _count_diff),
        (engine, "diff_fingerprints", "incremental.invalidate", _count_diff),
        (driver, "build_snapshot", "incremental.encode_save", None),
        (SummaryStore, "save", "incremental.encode_save", _count_save),
        (driver, "write_frontier", "incremental.encode_save", None),
        (daemon, "analyze_with_store", "incremental.analyze", _count_analyze),
        (engine, "compute_cone", "query.slice", _count_cone),
        (batch, "plan_batch", "query.slice", _count_plan),
        (SummaryStore, "load_frontier", "query.frontier_load", None),
        (repro.query, "run_query", "query.cone_solve", _count_query),
        (repro.query, "run_query_batch", "query.cone_solve", _count_batch),
    ]


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus its child spans and collector pauses."""
    own = [span.duration - span.gc for span in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.duration
    return own


# -- per-layer metrics --------------------------------------------------------------------------
#: Per-layer time metric -> span name; each is the span's self time,
#: averaged over the ops that entered it.
SELF_TIME_METRICS = {
    "ir.parse_ms": "ir.parse",
    "alias.points_to_ms": "alias.points_to",
    "framework.solve_ms": "framework.solve",
    "typestate.findings_ms": "typestate.findings",
    "numeric.solve_ms": "numeric.solve",
    "incremental.fingerprint_ms": "incremental.fingerprint",
    "incremental.store_load_ms": "incremental.store_load",
    "incremental.invalidate_ms": "incremental.invalidate",
    "incremental.encode_save_ms": "incremental.encode_save",
    "query.slice_ms": "query.slice",
    "query.frontier_load_ms": "query.frontier_load",
    "query.cone_solve_ms": "query.cone_solve",
    "service.self_ms": "service.handle",
}
#: Framework counters summed over the finite-domain solves.
FRAMEWORK_COUNTS = (
    "total_work", "propagations", "transfers", "rtransfers", "compositions",
    "bu_triggers", "summary_instantiations", "td_summaries", "bu_summaries",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: List[Span], first_round: set, kinds: Dict[str, str], stats):
    """Per-layer metrics of the traced rounds.

    ``first_round`` holds the request ids of the first traced round,
    whose counts are reported (every traced round replays the same
    schedule from the same state, so its counts are the run's);
    ``kinds`` maps request id to op kind; ``stats`` is the service's
    ``stats`` response after that round (``None`` without a service).
    Returns ``(metrics, notes)`` with metrics as ``name -> (value, unit)``.
    """
    from repro.ir.cfg import ControlFlowGraphs

    own = self_times(spans)
    root = []
    for index, span in enumerate(spans):
        root.append(index if span.parent is None else root[span.parent])

    self_total: Dict[str, float] = {}
    ops_with: Dict[str, set] = {}
    counts: Dict[str, float] = {}
    work_all = {"framework.solve": 0, "numeric.solve": 0}
    points = 0
    for index, span in enumerate(spans):
        self_total[span.name] = self_total.get(span.name, 0.0) + own[index]
        ops_with.setdefault(span.name, set()).add(root[index])
        if span.name in work_all:
            work_all[span.name] += span.counts["total_work"]
        if spans[root[index]].request not in first_round:
            continue
        if span.name == "ir.parse":
            points += ControlFlowGraphs(span.payload).total_points()
        if span.name == "incremental.analyze" and kinds[span.request] != "edit":
            continue  # store traffic is reported per edit
        for key, value in span.counts.items():
            counts[f"{span.name}.{key}"] = counts.get(f"{span.name}.{key}", 0) + value
    for span in spans:
        span.payload = None

    def c(span_name: str, key: str) -> float:
        return counts.get(f"{span_name}.{key}", 0)

    metrics = {}
    for metric, name in SELF_TIME_METRICS.items():
        touched = len(ops_with.get(name, ()))
        metrics[metric] = (_ratio(self_total.get(name, 0.0) * 1000.0, touched), "ms")
    roots = [i for i, span in enumerate(spans) if span.parent is None]
    # Any op may pay a collection, so the pause is averaged over all ops.
    metrics["runtime.gc_ms"] = (_ratio(sum(span.gc for span in spans) * 1000.0, len(roots)), "ms")
    service_roots = [i for i in roots if spans[i].name == "service.handle"]
    metrics["service.handle_ms"] = (
        _ratio(sum(spans[i].duration for i in service_roots) * 1000.0, len(service_roots)), "ms")

    metrics["ir.points"] = (points, "count")
    for key in FRAMEWORK_COUNTS:
        metrics[f"framework.{key}"] = (c("framework.solve", key), "count")
    metrics["framework.us_per_work"] = (
        _ratio(self_total.get("framework.solve", 0.0) * 1e6, work_all["framework.solve"]), "us")
    metrics["framework.prune_ratio"] = (
        _ratio(c("framework.solve", "pruned_relations"), c("framework.solve", "relations_created")),
        "ratio")
    hits = c("framework.solve", "transfer_cache_hits")
    metrics["framework.transfer_cache_hit_ratio"] = (
        _ratio(hits, hits + c("framework.solve", "transfer_cache_misses")), "ratio")
    metrics["typestate.error_sites"] = (c("typestate.findings", "error_sites"), "count")
    metrics["numeric.total_work"] = (c("numeric.solve", "total_work"), "count")
    metrics["numeric.us_per_work"] = (
        _ratio(self_total.get("numeric.solve", 0.0) * 1e6, work_all["numeric.solve"]), "us")

    metrics["incremental.invalidated_procs"] = (c("incremental.invalidate", "invalidated_procs"), "count")
    store_hits = c("incremental.analyze", "store_hits")
    store_misses = c("incremental.analyze", "store_misses")
    metrics["incremental.store_hits"] = (store_hits, "count")
    metrics["incremental.store_misses"] = (store_misses, "count")
    metrics["incremental.store_hit_ratio"] = (_ratio(store_hits, store_hits + store_misses), "ratio")
    metrics["incremental.cold_starts"] = (c("incremental.analyze", "cold_starts"), "count")
    metrics["incremental.snapshot_bytes"] = (c("incremental.encode_save", "snapshot_bytes"), "bytes")

    metrics["query.cone_procs"] = (c("query.slice", "cone_procs"), "count")
    metrics["query.frontier_procs"] = (c("query.slice", "frontier_procs"), "count")
    metrics["query.batch_components"] = (c("query.cone_solve", "batch_components"), "count")
    metrics["query.solves_per_target"] = (
        _ratio(c("query.cone_solve", "solves"), c("query.cone_solve", "targets")), "ratio")
    metrics["query.out_of_cone_interior_rows"] = (
        c("query.cone_solve", "out_of_cone_interior_rows"), "count")

    warm = (stats or {}).get("warm_cache", {})
    metrics["service.warm_cache_hit_ratio"] = (
        _ratio(warm.get("hits", 0), warm.get("hits", 0) + warm.get("misses", 0)), "ratio")
    metrics["service.warm_cache_evictions"] = (warm.get("evictions", 0), "count")
    metrics["service.frontier_snapshot_hits"] = ((stats or {}).get("frontier_snapshot_hits", 0), "count")

    # Time inside layer spans, as a share of op wall time, per op kind.
    covered: Dict[str, float] = {}
    wall: Dict[str, float] = {}
    for index, span in enumerate(spans):
        if span.parent is None:
            kind = kinds[span.request]
            wall[kind] = wall.get(kind, 0.0) + span.duration
            covered[kind] = covered.get(kind, 0.0) + span.duration - own[index]
    metrics["trace.accounted_ratio"] = (_ratio(sum(covered.values()), sum(wall.values())), "ratio")
    notes = [
        f"trace.accounted_ratio[{kind}]: {_ratio(covered[kind], wall[kind]):.4f}"
        for kind in sorted(wall)
    ]
    return metrics, notes
