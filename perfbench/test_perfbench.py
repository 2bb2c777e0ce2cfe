"""The benchmark's own tests.

    python3 -m pytest perfbench/test_perfbench.py -q

They cover the schedule generator (seeded, valid, seed-isolated), the
determinism of the traced run's counter columns, and the refusal to
run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from schedule import WORKLOADS, build_schedule, program_texts  # noqa: E402


def _shape(ops):
    return Counter((op["kind"], op["program"], op.get("engine"), op.get("domain"))
                   for op in ops)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_gives_a_different_valid_schedule(workload):
    from repro.ir.parser import parse_program

    texts = program_texts(workload)
    first = build_schedule(workload, 1, texts)
    again = build_schedule(workload, 1, texts)
    held_out = build_schedule(workload, 2, texts)
    assert first == again
    assert held_out != first
    # Same multiset of op kinds and programs under any seed.
    assert _shape(held_out) == _shape(first)

    versions = {name: parse_program(text) for name, text in texts.items()}
    for op in held_out:
        _check_op(op, versions)


def _check_op(op, versions):
    """``op`` names real procedures; an edit changes exactly one body
    against the previous version (which it then becomes)."""
    from repro.ir.parser import parse_program

    program = versions[op["program"]]
    if op["kind"] == "demand":
        assert op["target"] in program.names()
    elif op["kind"] == "batch":
        assert len(set(op["targets"])) == len(op["targets"]) == 8
        assert set(op["targets"]) <= set(program.names())
    elif op["kind"] == "edit":
        after = parse_program(op["text"])
        changed = [p for p in after.names()
                   if str(after.procedures[p]) != str(program.procedures[p])]
        assert changed == [op["proc"]]
        versions[op["program"]] = after


@pytest.mark.parametrize("workload", ["edit-stream", "query-mix"])
def test_seed_reaches_only_the_generator(workload, tmp_path):
    """Set-up (programs, IR files, seeded shards) is byte-identical
    under two seeds; the seed only shapes the schedule."""
    trees = []
    for seed in (1, 2):
        bench = run.Bench(workload, seed, tmp_path / f"seed{seed}")
        bench.setup(0)
        trees.append({
            str(path.relative_to(bench.live)): path.read_bytes()
            for path in sorted(bench.live.rglob("*")) if path.is_file()
        })
    assert trees[0] == trees[1]
    assert any(name.endswith(".jsonl") for name in trees[0])


def _counter_columns(seed: int, tmp_root: Path) -> str:
    """The count-valued per-layer metrics of one traced run, as JSON."""
    checkout = tmp_root / "checkout"
    if not checkout.exists():
        shutil.copytree(ROOT / "src", checkout / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(HERE, checkout / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "edit-stream",
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=checkout, capture_output=True, text=True, check=True, timeout=600,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    counts = {name: metric["value"] for name, metric in result["metrics"].items()
              if metric["unit"] in ("count", "bytes")}
    assert counts["incremental.cold_starts"] > 0
    return json.dumps(counts, sort_keys=True)


def test_traced_counter_columns_are_byte_identical(tmp_path):
    assert _counter_columns(3, tmp_path) == _counter_columns(3, tmp_path)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_seed_rotates_one_verify_cycle():
    """Every seed runs the verify ops in the same cyclic order, so each
    op follows the same op under every seed."""
    texts = program_texts("verify-cold")
    first = build_schedule("verify-cold", 1, texts)
    doubled = first + first
    for seed in (2, 3):
        other = build_schedule("verify-cold", seed, texts)
        assert any(doubled[i:i + len(first)] == other for i in range(len(first)))
