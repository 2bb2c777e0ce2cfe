"""Inputs of the benchmark: the programs and the seeded op schedules.

Everything here is a pure function of its arguments.  The programs come
from the repository's own generators with their registered seeds; the
benchmark's ``--seed`` reaches only :func:`build_schedule`, which picks
the order of verify ops, the edited leaves and the demand targets.  The analysed
programs, and the configuration every op runs under, never see it.

A schedule is one *round*, a list of JSON-able op dicts, which a run
replays several times, each time from the same stated state.  Every
seed gives a round with the same multiset of op kinds and programs, so
medians stay comparable across seeds, while the seed draws what the
round contains.
"""

from __future__ import annotations

import random
from typing import Dict, List

WORKLOADS = ("verify-cold", "edit-stream", "query-mix")

#: Table-1 programs jpat-p..antlr, hub_flood(256) and the four finite
#: large shapes: the whole-program ``verify`` corpus.
VERIFY_PROGRAMS = (
    "jpat-p",
    "elevator",
    "toba-s",
    "javasrc-p",
    "hedc",
    "antlr",
    "hub_flood-256",
    "wide-fanout-160",
    "deep-recursion-128",
    "scc-heavy-128",
    "diamond-sharing-144",
)
#: Programs that also run once per round with ``--engine td`` (the
#: paper's baseline); hub_flood(256) and wide-fanout-160 are the
#: ROADMAP kernel targets.  Costs spread from ~20 ms to ~1 s; the
#: median of the 15 finite-domain verify ops lands on scc-heavy-128,
#: inside a cluster of five ops (hedc td, scc, diamond, wide, hedc)
#: within 1.5x of each other, not in a gap between two clusters.
VERIFY_TD_PROGRAMS = ("jpat-p", "wide-fanout-160", "hedc", "hub_flood-256")
#: The value-mode share of ``verify-cold``: ``verify --domain
#: interval-typestate`` on loop_nest 4 and 8 with both engines.  Value
#: mode grows faster than linearly with size (about 0.4 s at 4, 0.55 s
#: at 8, 1.1 s at 12); size 12 is left out to keep a round short.
NUMERIC_SIZES = (4, 8)
NUMERIC_ENGINES = ("td", "swift")
NUMERIC_DOMAIN = "interval-typestate"

#: Four programs whose cold re-analysis costs differ by 2-3x, so the
#: edit median falls between toba-s's and elevator's edits.
EDIT_PROGRAMS = ("jpat-p", "elevator", "toba-s", "hedc")
#: The edit script of each program, over its leaf procedures (an
#: edit's invalidation cone is the leaf and its transitive callers, as
#: in a typical local change): a no-op change to a seeded leaf, a real
#: change (body run twice) to the first leaf, then the no-op undone.
#: Which leaf gets the no-op is the seed's; the semantic change stays
#: fixed so the cost of a cold re-analysis does not depend on the seed.
#: Each edit is followed by an ``analyze`` of the version it produced.
EDIT_KINDS = ("skip", "dup", "revert")

QUERY_PROGRAMS = (
    "wide-fanout-160",
    "deep-recursion-128",
    "scc-heavy-128",
    "diamond-sharing-144",
    "hedc",
)
#: Each program's procedures are ranked by cone size and cut into this
#: many strata; the seed draws one hot target per stratum, and one
#: other target per stratum for a second batch, both among the
#: procedures with the stratum's median cone size.  The first batch holds
#: the eight hot targets, so its cones repeat cones the single-target
#: demands solved before it; the second asks for eight fresh cones.
STRATA = 8
BATCH_SIZE = STRATA
#: Zipf exponent of the draw inside a stratum, over a seeded ranking of
#: the stratum's procedures.
ZIPF_S = 0.8


def programs_for(workload: str) -> List[str]:
    """Names of the programs ``workload`` analyses."""
    if workload == "verify-cold":
        return list(VERIFY_PROGRAMS) + [f"loop_nest-{size}" for size in NUMERIC_SIZES]
    if workload == "edit-stream":
        return list(EDIT_PROGRAMS)
    if workload == "query-mix":
        return list(QUERY_PROGRAMS)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def generate_program(name: str):
    """Generate one named program, bypassing the suite's memo caches
    (so repeated set-ups pay generation every time)."""
    from repro.bench.generator import generate, generate_shape
    from repro.bench.suite import SHAPE_CONFIGS, SUITE_CONFIGS
    from repro.bench.workloads import hub_flood, loop_nest

    if name == "hub_flood-256":
        return hub_flood(256)
    if name.startswith("loop_nest-"):
        return loop_nest(int(name.split("-", 1)[1]))
    for config in SUITE_CONFIGS:
        if config.name == name:
            return generate(config).program
    for shape in SHAPE_CONFIGS:
        if shape.name == name:
            return generate_shape(shape).program
    raise KeyError(f"unknown program {name!r}")


def program_texts(workload: str) -> Dict[str, str]:
    """Canonical IR text of every program ``workload`` analyses."""
    from repro.ir.printer import format_program

    return {name: format_program(generate_program(name)) for name in programs_for(workload)}


# -- edits -----------------------------------------------------------------------------
def apply_edit(program, proc: str, kind: str, original):
    """``program`` with procedure ``proc``'s body changed by ``kind``.

    ``skip`` prepends a no-op (the body's fingerprint changes, its
    meaning does not); ``dup`` runs the original body twice (which may
    change the verdict); ``revert`` restores the original body.
    """
    from repro.ir.commands import Seq, Skip
    from repro.ir.program import Program

    body = original.procedures[proc]
    if kind == "skip":
        new_body = Seq((Skip(), body))
    elif kind == "dup":
        new_body = Seq((body, body))
    elif kind == "revert":
        new_body = body
    else:
        raise ValueError(f"unknown edit kind {kind!r}")
    procs = dict(program.procedures)
    procs[proc] = new_body
    return Program(procs, main=program.main)


def _zipf_draw(rng: random.Random, ranked: List[str], count: int) -> List[str]:
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(ranked))]
    return rng.choices(ranked, weights=weights, k=count)


def build_schedule(workload: str, seed: int, texts: Dict[str, str]) -> List[dict]:
    """The round of ``workload``'s ops drawn from ``seed``.

    ``texts`` maps program name to IR text (see :func:`program_texts`).
    Every seed gives the same multiset of op kinds and programs; the
    seed draws the order, the edited procedures and the demand targets.
    Edit ops carry the full text of the version they produce, so the
    executor never re-derives it.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-cold":
        ops = [{"kind": "verify", "program": p, "engine": "swift"} for p in VERIFY_PROGRAMS]
        ops += [{"kind": "verify", "program": p, "engine": "td"} for p in VERIFY_TD_PROGRAMS]
        ops += [
            {"kind": "verify", "program": f"loop_nest-{size}", "engine": engine,
             "domain": NUMERIC_DOMAIN}
            for size in NUMERIC_SIZES
            for engine in NUMERIC_ENGINES
        ]
        # The seed rotates a fixed cycle.  Replays run back to back, so
        # every op follows the same op under every seed: an op's cost
        # depends on what ran just before it (the allocator's free
        # memory, the caches), by up to 25% under a shuffled order.
        shift = rng.randrange(len(ops))
        return ops[shift:] + ops[:shift]
    if workload == "edit-stream":
        return _edit_schedule(rng, texts)
    if workload == "query-mix":
        return _query_schedule(rng, texts)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def _edit_schedule(rng: random.Random, texts: Dict[str, str]) -> List[dict]:
    from repro.ir.parser import parse_program
    from repro.ir.printer import format_program

    # Per program: analyze the stored original, then alternate an edit
    # (one procedure body changed) with an analyze of the new version.
    streams = []
    for name in EDIT_PROGRAMS:
        original = parse_program(texts[name])
        leaves = sorted(
            p for p in original.names() if p != original.main and not original.callees(p)
        )
        fixed = leaves[0]
        seeded = rng.choice(leaves[1:])
        current = original
        stream = [{"kind": "analyze", "program": name, "text": texts[name]}]
        for proc, kind in zip((seeded, fixed, seeded), EDIT_KINDS):
            current = apply_edit(current, proc, kind, original)
            text = format_program(current)
            stream.append({"kind": "edit", "program": name, "proc": proc, "edit": kind,
                           "text": text})
            stream.append({"kind": "analyze", "program": name, "text": text})
        streams.append(stream)
    # Round-robin over the programs, keeping each stream's own order (an
    # edit builds on the previous version).  The order is fixed rather
    # than seeded: the resident heap, and with it the garbage collector's
    # share of each op, then grows the same way under every seed.
    ops = []
    while any(streams):
        for stream in streams:
            if stream:
                ops.append(stream.pop(0))
    return ops


def _query_schedule(rng: random.Random, texts: Dict[str, str]) -> List[dict]:
    from repro.ir.parser import parse_program
    from repro.query.slice import compute_cone, resolve_target

    hot, fresh = {}, {}
    for name in QUERY_PROGRAMS:
        program = parse_program(texts[name])
        size = {proc: compute_cone(program, resolve_target(program, proc)).size
                for proc in program.names()}
        by_cone = sorted(program.names(), key=lambda proc: (size[proc], proc))
        hot[name], fresh[name] = [], []
        for i in range(STRATA):
            stratum = by_cone[len(by_cone) * i // STRATA:len(by_cone) * (i + 1) // STRATA]
            # Candidates share the stratum's median cone size, so the
            # seed changes which procedures are asked about far more
            # than what the answers cost.
            middle = size[stratum[len(stratum) // 2]]
            ranked = sorted(stratum, key=lambda proc: (abs(size[proc] - middle), proc))
            close = [proc for proc in ranked if size[proc] == middle]
            rng.shuffle(close)
            target = _zipf_draw(rng, close, 1)[0]
            others = [proc for proc in close if proc != target]
            if not others:
                others = [proc for proc in ranked if proc != target][:1]
            hot[name].append(target)
            fresh[name].append(rng.choice(others))
        rng.shuffle(hot[name])
    # A fixed interleaving (see _edit_schedule): one demand per program
    # in turn, then the hot batch of every program, then the fresh one.
    ops = [{"kind": "demand", "program": name, "target": hot[name][i]}
           for i in range(STRATA) for name in QUERY_PROGRAMS]
    ops += [{"kind": "batch", "program": name, "targets": hot[name]} for name in QUERY_PROGRAMS]
    ops += [{"kind": "batch", "program": name, "targets": fresh[name]} for name in QUERY_PROGRAMS]
    return ops
