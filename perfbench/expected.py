"""Regenerate ``expected.json``: the whole-program verdicts the
``verify-cold`` ops are checked against.

Each program is verified with both ``td`` and ``swift``; the two
engines must report the same error sites (Theorem 3.1's coincidence)
or generation fails.  Per engine the file also keeps the number of
reported (point, site) pairs and the deterministic work counters, which
the traced run must reproduce.  Run from the repository root::

    python3 perfbench/expected.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from schedule import NUMERIC_DOMAIN, program_texts  # noqa: E402

EXPECTED_PATH = HERE / "expected.json"


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def verdict(text: str, engine: str, domain: str) -> dict:
    from repro.ir.parser import parse_program
    from repro.typestate.client import run_typestate
    from repro.typestate.properties import property_by_name

    report = run_typestate(
        parse_program(text), property_by_name("File"), engine=engine, domain=domain
    )
    if report.timed_out:
        raise SystemExit(f"{engine} timed out")
    return {
        "sites": sorted(report.error_sites),
        "pairs": len(report.errors),
        "total_work": report.result.metrics.total_work,
        "td_summaries": report.td_summaries,
        "bu_summaries": report.bu_summaries,
    }


def main() -> int:
    programs = {}
    for name, text in program_texts("verify-cold").items():
        domain = NUMERIC_DOMAIN if name.startswith("loop_nest-") else "full"
        runs = {engine: verdict(text, engine, domain) for engine in ("td", "swift")}
        if runs["td"]["sites"] != runs["swift"]["sites"]:
            raise SystemExit(f"{name}: td and swift error sites differ")
        programs[name] = {
            "sha256": text_digest(text),
            "domain": domain,
            "error_sites": runs["td"]["sites"],
            "engines": {
                engine: {k: v for k, v in run.items() if k != "sites"}
                for engine, run in runs.items()
            },
        }
        print(name, len(runs["td"]["sites"]), "error sites", flush=True)
    EXPECTED_PATH.write_text(json.dumps({"programs": programs}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
