"""The benchmark of record: end-to-end latency of real entry points,
with a traced run for the per-layer split.

    python3 perfbench/run.py --workload verify-cold --seed 1 --seconds 32 --trace 0

One process, one closed-loop client, no threads.  ``verify`` ops call
``repro.cli.main(["verify", ...])`` in process; service ops call
``AnalysisService.handle(request)``; every op runs the default
configuration (``swift`` over ``typestate-full``) unless the schedule
names ``--engine td`` or the interval domain.

A run sets up ``SETUP_REPEATS`` times (reporting the median as
``setup_s``), then replays the seeded round of ops (see ``schedule.py``)
``round(seconds / NOMINAL_ROUND_S)`` times, each time from the same
stated state: a fresh service over a fresh copy of the seeded store and
empty process-wide memo tables (each ``verify`` op also starts from
empty tables, as its own process would).  The verdict checks run
between ops, off the clock, and every replay is checked.

Timings are host-speed scaled.  The host's speed drifts by up to 2x
over seconds and by 20-30% between runs a minute apart, for the same
code, so raw wall times of identical runs spread past any useful
bound.  Every timed interval (an entry-point call, a set-up, the
import) therefore runs between two runs of a fixed probe loop
(``probe``), and a timer signal runs a short probe every 20 ms inside
it.  Its wall time is multiplied by ``REFERENCE_ITERATION_S`` over the
mean probe time: the time the interval would have taken on the
reference machine at the probe's reference speed (see ``timed``).  An
op run of every replay is one sample at its scaled time.  The same
metrics in unscaled wall-clock time are printed above the result
line.

``--trace 1`` runs half as many replays, each untraced and then traced,
and reports the per-layer metrics instead (``spans.py``); a traced op
must reproduce its untraced twin's verdict and deterministic counters.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Spans of the traced replays
are written to ``.perfbench/spans-<workload>-seed<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"

#: Seconds one replay of the round takes on the reference machine
#: (2 vCPU x86-64 container); the number of replays is fixed from
#: ``--seconds`` by it, so a seed and a run length fix the schedule.
NOMINAL_ROUND_S = {
    "verify-cold": 8.0,
    "edit-stream": 8.0,
    "query-mix": 6.0,
}
#: No further replay starts once the run would pass this multiple of
#: ``--seconds`` (a slow host then runs fewer replays, never fewer than
#: ``MIN_REPLAYS``; the output says how many ran).
DEADLINE_FACTOR = 1.15
MIN_REPLAYS = 2
SETUP_REPEATS = 3
#: An op slower than this counts as failed (timed out).
OP_TIMEOUT_S = 60.0
#: The host-speed probe (see ``timed``): iterations at the edges of a
#: timed interval and at each tick inside it, the tick period, and the
#: probe's median seconds per iteration on the reference machine
#: (2 vCPU x86-64 container), so scaled times read as wall times there
#: at its usual speed.
EDGE_ITERATIONS = 20000
TICK_ITERATIONS = 1000
TICK_S = 0.02
REFERENCE_ITERATION_S = 6.8e-8
#: Workloads whose ops go through ``AnalysisService.handle``.
SERVICE_WORKLOADS = ("edit-stream", "query-mix")
#: A tail is the highest percentile with at least this many samples
#: beyond it.
TAIL_BEYOND = 10

#: Workload -> ((label, filter) of the ops behind ``op_p50_ms`` and
#: ``op_tail_ms``, (label, filter) of the ops behind ``aux_p50_ms``).
HEADLINE = {
    "verify-cold": (("finite-domain verify", lambda op: "domain" not in op),
                    ("value-mode verify", lambda op: "domain" in op)),
    "edit-stream": (("edit", lambda op: op["kind"] == "edit"),
                    ("analyze", lambda op: op["kind"] == "analyze")),
    "query-mix": (("single-target demand", lambda op: op["kind"] == "demand"),
                  ("8-target demand", lambda op: op["kind"] == "batch")),
}


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail(values):
    """``(percentile, value)``: the highest percentile with at least
    ``TAIL_BEYOND`` samples beyond it, never below the median."""
    q = min(99.9, max(50.0, 100.0 * (1.0 - TAIL_BEYOND / len(values))))
    return q, percentile(values, q)


def error_set(pairs) -> frozenset:
    return frozenset((str(point), site) for point, site in pairs)


def probe(iterations: int) -> float:
    """Seconds per iteration of a fixed integer loop.  It allocates
    nothing the collector tracks, so it cannot move the program's
    collections."""
    started = time.perf_counter()
    total = 0
    for i in range(iterations):
        total += i * i
    return (time.perf_counter() - started) / iterations


class _Ticks:
    """Probe samples taken by the SIGALRM handler inside an interval,
    and the seconds the handler took."""

    samples: list = []
    spent = 0.0

    @classmethod
    def tick(cls, signum, frame) -> None:
        started = time.perf_counter()
        cls.samples.append(probe(TICK_ITERATIONS))
        cls.spent += time.perf_counter() - started


def timed(fn, *args):
    """``(result, scaled seconds, wall seconds)`` of ``fn(*args)``.

    The host's speed is probed right before and after the call, and
    every ``TICK_S`` during it by a SIGALRM handler (between bytecodes
    of the one thread, so no thread runs).  The wall time, less the
    handler's own time, is scaled by the reference probe time over the
    mean probe time.
    """
    signal.signal(signal.SIGALRM, _Ticks.tick)
    _Ticks.samples, _Ticks.spent = [probe(EDGE_ITERATIONS)], 0.0
    signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
    started = time.perf_counter()
    try:
        result = fn(*args)
    finally:
        elapsed = time.perf_counter() - started
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall = elapsed - _Ticks.spent
    samples = _Ticks.samples + [probe(EDGE_ITERATIONS)]
    return result, wall * REFERENCE_ITERATION_S / statistics.mean(samples), wall


def reset_process_memos() -> None:
    """Empty every process-wide memo table and collect garbage.

    Besides the warm-store and query decode caches, the state intern
    tables and the sort-key cache are process-wide: left warm, later
    ops would run on a larger heap (longer collector pauses) with more
    memo hits, so an op's cost would depend on what ran before it.
    """
    import repro.framework.topdown as topdown
    import repro.typestate.full.states as full_states
    import repro.typestate.states as states
    from repro.incremental.driver import clear_warm_cache
    from repro.query.engine import clear_query_cache

    clear_warm_cache()
    clear_query_cache()
    states._interned.clear()
    full_states._interned.clear()
    topdown._SORT_KEYS.clear()
    gc.collect()


class Bench:
    """One workload's set-up, oracles and op executor."""

    def __init__(self, workload: str, seed: int, workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.texts = {}
        self.live = None  # directory of the set-up the rounds use
        self.expected = json.loads((HERE / "expected.json").read_text())["programs"]
        self.oracle = {}

    # -- set-up ---------------------------------------------------------------------------
    def setup(self, index: int) -> float:
        """Generate the programs, write their IR files and seed the
        service shards; returns the scaled time (see ``timed``)."""
        return timed(self._setup, index)[1]

    def _setup(self, index: int) -> None:
        from repro.service.daemon import AnalysisService
        from schedule import program_texts

        texts = program_texts(self.workload)
        live = self.workdir / f"setup{index}"
        live.mkdir(parents=True)
        for name, text in texts.items():
            (live / f"{name}.ir").write_text(text)
        if self.workload in SERVICE_WORKLOADS:
            service = AnalysisService(live / "store")
            for name, text in texts.items():
                response = service.handle(
                    {"op": "analyze", "program": text, "format": "ir"}
                )
                if not response.get("ok") or response.get("timed_out"):
                    raise RuntimeError(f"seeding {name} failed: {response}")
        if self.live is not None:
            shutil.rmtree(self.live)
        self.texts, self.live = texts, live

    def prepare_oracles(self, ops) -> None:
        """Reference verdicts the service ops are checked against,
        computed before the first replay (verify ops use expected.json)."""
        from repro.ir.parser import parse_program
        from repro.typestate.client import run_typestate
        from repro.typestate.properties import property_by_name

        prop = property_by_name("File")
        for op in ops:
            # An edit's (or analyze's) verdict must equal a cold run of
            # the same version; keyed by program text.
            if op["kind"] in ("analyze", "edit") and op["text"] not in self.oracle:
                report = run_typestate(
                    parse_program(op["text"]), prop, engine="swift", domain="full"
                )
                self.oracle[op["text"]] = error_set(report.errors)
        for name in sorted({op["program"] for op in ops if op["kind"] in ("demand", "batch")}):
            # A demand answer must equal whole-program TD at the target;
            # keyed by program name.
            report = run_typestate(
                parse_program(self.texts[name]), prop, engine="td", domain="full"
            )
            by_proc = {}
            for point, site in report.errors:
                by_proc.setdefault(point.proc, set()).add((str(point), site))
            self.oracle[name] = by_proc

    # -- one round ------------------------------------------------------------------------
    def fresh_state(self, round_index: int):
        """The stated state every round starts from."""
        reset_process_memos()
        if self.workload not in SERVICE_WORKLOADS:
            return None
        from repro.service.daemon import AnalysisService

        root = self.workdir / f"round{round_index}"
        shutil.copytree(self.live / "store", root)
        return AnalysisService(root)

    def execute(self, op: dict, service):
        """Run one op through its entry point; returns the raw result."""
        import repro.cli

        kind = op["kind"]
        if kind == "verify":
            argv = ["verify", str(self.live / f"{op['program']}.ir")]
            if op["engine"] != "swift":
                argv += ["--engine", op["engine"]]
            if op.get("domain"):
                argv += ["--domain", op["domain"]]
            out = io.StringIO()
            with redirect_stdout(out):
                code = repro.cli.main(argv)
            return code, out.getvalue()
        if kind in ("analyze", "edit"):
            request = {"op": kind, "program": op["text"], "format": "ir"}
        elif kind == "demand":
            request = {"op": "demand", "program": self.texts[op["program"]],
                       "format": "ir", "target": op["target"]}
        else:
            request = {"op": "demand", "program": self.texts[op["program"]],
                       "format": "ir", "targets": op["targets"]}
        return service.handle(request)

    def execute_traced(self, op: dict, service, recorder, root: str, request: str):
        """``execute`` inside the root span of request ``request``."""
        with recorder.span(root, request=request):
            return self.execute(op, service)

    def check(self, op: dict, result):
        """``(ok, signature)``: whether the verdict is right, and the
        verdict plus deterministic counters a traced replay must match."""
        kind = op["kind"]
        if kind == "verify":
            return self._check_verify(op, *result)
        if not result.get("ok") or result.get("timed_out"):
            return False, ("error", result.get("error"))
        if kind in ("analyze", "edit"):
            errors = frozenset(tuple(pair) for pair in result["errors"])
            signature = (sorted(errors), result["work"], result["store_hits"],
                         result["cold"], result["td_summaries"], result["bu_summaries"])
            return errors == self.oracle[op["text"]], signature
        reference = self.oracle[op["program"]]
        if kind == "demand":
            answers = {op["target"]: result["answer"]}
        else:
            answers = result["answers"]
        ok = result["out_of_cone_interior_rows"] == 0
        for target, answer in answers.items():
            ok = ok and frozenset(map(tuple, answer)) == frozenset(reference.get(target, ()))
        signature = (sorted((t, sorted(map(tuple, a))) for t, a in answers.items()),
                     result["work"], result["cold"])
        return ok, signature

    def _check_verify(self, op, code: int, output: str):
        from expected import text_digest

        expected = self.expected.get(op["program"])
        lines = output.splitlines()
        sites = frozenset(
            line.split(" from ", 1)[1].split(" may be ", 1)[0]
            for line in lines[1:]
            if line.startswith("  object from ")
        )
        pairs = len(lines) - 1 if code == 1 else 0
        signature = (code, sorted(sites), pairs)
        if expected is None or code not in (0, 1):
            return False, signature
        if expected["sha256"] != text_digest(self.texts[op["program"]]):
            return False, signature  # the generator changed: regenerate expected.json
        ok = (
            sorted(sites) == expected["error_sites"]
            and pairs == expected["engines"][op["engine"]]["pairs"]
        )
        return ok, signature

    def run_round(self, ops, round_index: int, recorder=None):
        """Run one round of ``ops``; returns (op records, service stats)."""
        service = self.fresh_state(round_index)
        records = []
        for index, op in enumerate(ops):
            if op["kind"] == "verify":
                # Each `repro-swift verify` is its own process: start it
                # from empty memo tables, as a fresh interpreter would.
                reset_process_memos()
            request = f"{self.workload}-s{self.seed}-r{round_index}-{index}"
            root = "cli.verify" if op["kind"] == "verify" else "service.handle"
            if recorder is None:
                result, scaled, wall = timed(self.execute, op, service)
            else:
                result, scaled, wall = timed(self.execute_traced, op, service, recorder,
                                             root, request)
            ok, signature = self.check(op, result)
            ok = ok and wall <= OP_TIMEOUT_S
            records.append({"op": op, "seconds": scaled, "wall": wall, "ok": ok,
                            "signature": signature, "request": request})
        stats = None
        if service is not None:
            stats = service.handle({"op": "stats"})
            shutil.rmtree(service.root)
        return records, stats


def run_replays(bench: Bench, ops, count: int, seconds: float, recorder=None):
    """Replay the round ``count`` times (fewer if the deadline passes);
    returns one record list per replay, plus each replay's service stats.

    With a recorder, each replay runs untraced and then traced, and the
    traced copies come back as a second list of replays.
    """
    started = time.perf_counter()
    untraced, traced, stats = [], [], []
    for index in range(count):
        elapsed = time.perf_counter() - started
        if index >= MIN_REPLAYS and elapsed * (index + 1) / index > DEADLINE_FACTOR * seconds:
            break
        if recorder is None:
            untraced.append(bench.run_round(ops, index)[0])
            continue
        untraced.append(bench.run_round(ops, 2 * index)[0])
        recorder.install()
        try:
            records, round_stats = bench.run_round(ops, 2 * index + 1, recorder)
        finally:
            recorder.uninstall()
        traced.append(records)
        stats.append(round_stats)
    return untraced, traced, stats


def mark_divergent(replays, reference) -> None:
    """Fail every op whose verdict or deterministic counters differ from
    its twin in ``reference`` (a replay of the same round)."""
    for records in replays:
        for record, twin in zip(records, reference):
            if record["signature"] != twin["signature"]:
                record["ok"] = False


# -- metrics --------------------------------------------------------------------------------
def latencies(workload, records, key: str):
    """The latency metrics over ``records`` (every op of every replay,
    each one sample), timed by ``key``: ``seconds`` (scaled) or
    ``wall``.  Returns the metrics and the tail's percentile."""
    (_, main_filter), (_, aux_filter) = HEADLINE[workload]
    main = [r[key] * 1000.0 for r in records if main_filter(r["op"])]
    aux = [r[key] * 1000.0 for r in records if aux_filter(r["op"])]
    tail_q, tail_ms = tail(main)
    return {
        "ops_per_s": len(records) / sum(r[key] for r in records),
        "op_p50_ms": statistics.median(main),
        "op_tail_ms": tail_ms,
        "aux_p50_ms": statistics.median(aux),
    }, tail_q


def end_to_end(workload, replays, setup_s):
    """End-to-end metrics over the replays."""
    (main_label, main_filter), (aux_label, aux_filter) = HEADLINE[workload]
    records = [r for ops in replays for r in ops]
    scaled, tail_q = latencies(workload, records, "seconds")
    wall, _ = latencies(workload, records, "wall")
    main = sum(main_filter(r["op"]) for r in records)
    aux = sum(aux_filter(r["op"]) for r in records)
    notes = [
        f"replays: {len(replays)} of a {len(replays[0])}-op round; every op of every "
        f"replay is one sample",
        f"op_p50_ms: median of {main} {main_label} samples",
        f"op_tail_ms: p{tail_q:.1f} of {main} {main_label} samples "
        f"({main * (1 - tail_q / 100):.1f} beyond)",
        f"aux_p50_ms: median of {aux} {aux_label} samples",
        f"ops_per_s: {len(records)} ops over {sum(r['seconds'] for r in records):.3f} s",
        "wall clock, not scaled: "
        + ", ".join(f"{name} {value:.3f}" for name, value in sorted(wall.items())),
    ]
    metrics = {name: (value, "1/s" if name == "ops_per_s" else "ms")
               for name, value in scaled.items()}
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics, notes


def ops_per_s(records) -> float:
    return len(records) / sum(r["seconds"] for r in records)


def result_of(records, metrics) -> dict:
    """The result line: verdict counts plus ``name -> (value, unit)``."""
    return {
        "correct": all(r["ok"] for r in records),
        "attempted": len(records),
        "failed": sum(not r["ok"] for r in records),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }


def traced_run(bench: Bench, ops, count: int, seconds: float):
    """Run each replay untraced, then again traced; report the per-layer
    split of the traced replays.

    Every traced op must reproduce its untraced twin's verdict and
    deterministic counters (its signature), and every traced verify op
    the engine work recorded in expected.json, or it counts as failed.
    """
    from spans import Recorder, layer_metrics

    recorder = Recorder()
    untraced, traced, stats = run_replays(bench, ops, count, seconds, recorder)
    mark_divergent(untraced[1:] + traced, untraced[0])
    kinds = {r["request"]: r["op"]["kind"] for records in traced for r in records}
    work = {}
    for span in recorder.spans:
        if span.name in ("framework.solve", "numeric.solve"):
            work[span.request] = work.get(span.request, 0) + span.counts["total_work"]
    for records in traced:
        for record in records:
            op = record["op"]
            if op["kind"] == "verify":
                expected = bench.expected[op["program"]]["engines"][op["engine"]]
                if work.get(record["request"]) != expected["total_work"]:
                    record["ok"] = False

    first = {r["request"] for r in traced[0]}
    metrics, notes = layer_metrics(recorder.spans, first, kinds, stats[0])
    flat_untraced = [r for records in untraced for r in records]
    flat_traced = [r for records in traced for r in records]
    metrics["trace.overhead_ratio"] = (ops_per_s(flat_traced) / ops_per_s(flat_untraced), "ratio")
    OUT_DIR.mkdir(exist_ok=True)
    recorder.write(OUT_DIR / f"spans-{bench.workload}-seed{bench.seed}.jsonl")
    for record in traced[0]:
        op = record["op"]
        if op["kind"] == "edit":
            edit = [s for s in recorder.spans
                    if s.request == record["request"] and s.name == "incremental.analyze"]
            notes.append(
                f"edit {op['program']} {op['proc']} ({op['edit']}): "
                f"{record['seconds'] * 1000:.1f} ms, "
                + ", ".join(f"{k}={v}" for span in edit for k, v in sorted(span.counts.items()))
            )
    return result_of(flat_untraced + flat_traced, metrics), notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    from schedule import WORKLOADS, build_schedule

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {WORKLOADS}", file=sys.stderr)
        return 2

    import_s = timed(import_layers)[1]

    workdir = OUT_DIR / f"work-{os.getpid()}"
    try:
        bench = Bench(args.workload, args.seed, workdir)
        setup_s = import_s + statistics.median(bench.setup(i) for i in range(SETUP_REPEATS))
        count = max(MIN_REPLAYS, round(args.seconds / NOMINAL_ROUND_S[args.workload]))
        ops = build_schedule(args.workload, args.seed, bench.texts)
        bench.prepare_oracles(ops)
        if args.trace:
            # Each traced replay runs twice (untraced, then traced).
            result, notes = traced_run(bench, ops, max(1, count // 2), args.seconds)
        else:
            replays = run_replays(bench, ops, count, args.seconds)[0]
            mark_divergent(replays[1:], replays[0])
            metrics, notes = end_to_end(args.workload, replays, setup_s)
            result = result_of([r for records in replays for r in records], metrics)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for note in notes:
        print(note)
    print(json.dumps(result, sort_keys=True))
    return 0


def import_layers() -> None:
    """Import every layer the ops reach, so no op pays a first import."""
    import repro.alias  # noqa: F401
    import repro.cli  # noqa: F401
    import repro.numeric  # noqa: F401
    import repro.query  # noqa: F401
    import repro.service.daemon  # noqa: F401
    import repro.typestate.full  # noqa: F401


if __name__ == "__main__":
    sys.exit(main())
