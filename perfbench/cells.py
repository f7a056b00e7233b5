"""Cells of a workload's output and their digests.

A cell is one (program, scenario) unit of a ``--json`` report.  Each
cell's digest is the SHA-256 of its canonical JSON, so a pass is checked
cell by cell against the committed files under ``expected/``.
"""

from __future__ import annotations

import hashlib
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")

WORKLOADS = ("kernels-cold", "gen-small", "store-warm")

#: ``repro suite`` flags of one kernels-cold pass (serial, JSON report).
SUITE_FLAGS = ("--spm", "--validate", "--hier", "--json", "--jobs", "1")

#: The gen-small block: profile, first seed and number of seeds.
GEN_PROFILE = "small"
GEN_SEED_START = 0
GEN_SEEDS = 16

#: The warm-up pass runs the same commands on one small kernel and one
#: gen seed: enough to take every code path once, at a few per cent of
#: a kernels-cold pass.
WARMUP_KERNEL = "adpcm"


def suite_argv(names, store: str, *extra: str) -> list[str]:
    return ["suite", *names, *SUITE_FLAGS, *extra, "--cache-dir", store]


def gen_argv(seed_start: int, store: str,
             seeds: int = GEN_SEEDS) -> list[str]:
    return ["gen", "--profile", GEN_PROFILE, "--seeds", str(seeds),
            "--seed-start", str(seed_start), "--jobs", "1", "--json",
            "--cache-dir", store]


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def suite_cells(payload: dict) -> dict[str, str]:
    """Digests of a ``repro suite --spm --validate --hier --json``
    payload: ``suite:<kernel>`` (Tables I-III rows and the SPM sweep),
    ``validate:<kernel>:<scenario>`` (the profile scenario carries the
    self-validation summary, every other scenario its cross cell) and
    ``hier:<kernel>:<scenario>:<cache config>``."""
    rows: dict[str, dict] = {}
    for table in ("table1", "table2", "table3"):
        for row in payload[table]:
            rows.setdefault(row["benchmark"], {})[table] = row
    cells = {}
    for name, tables in rows.items():
        tables["spm_sweep"] = payload["spm_sweep"].get(name)
        cells[f"suite:{name}"] = digest(tables)
    for row in payload["validation"]:
        name = row["benchmark"]
        summary = {key: value for key, value in row.items() if key != "cross"}
        cells[f"validate:{name}:{row['profile']}"] = digest(summary)
        for cross in row["cross"]:
            cells[f"validate:{name}:{cross['scenario']}"] = digest(cross)
    for row in payload["hierarchy"]:
        key = f"hier:{row['benchmark']}:{row['scenario']}:{row['cache_config']}"
        cells[key] = digest(row)
    return cells


def gen_cells(payload: dict) -> dict[str, str]:
    """Digests of a ``repro gen --json`` payload, one cell per program.
    The ``cached`` flag says where an outcome came from, not what it
    is, so it is left out: a warm rerun must match the cold run."""
    return {
        f"gen:{row['profile']}:{row['seed']}": digest(
            {key: value for key, value in row.items() if key != "cached"})
        for row in payload["programs"]
    }


def gen_tally(payload: dict) -> dict[str, dict[str, int]]:
    """Per check: programs it ran on (pass or fail) and skipped on."""
    return {
        check: {"ran": counts.get("pass", 0) + counts.get("fail", 0),
                "skipped": counts.get("skip", 0)}
        for check, counts in payload["check_counts"].items()
    }


def source_digest(source: str) -> str:
    return hashlib.sha256(source.encode()).hexdigest()


def expected_path(name: str) -> str:
    return os.path.join(EXPECTED_DIR, f"{name}.json")


def load_expected(name: str) -> dict:
    with open(expected_path(name)) as handle:
        return json.load(handle)


def compare(produced: dict[str, str],
            expected: dict[str, str]) -> tuple[int, list[str]]:
    """(cells attempted, names of failed cells): a cell fails when it is
    missing, unexpected or has another digest."""
    names = sorted(set(produced) | set(expected))
    failed = [name for name in names
              if produced.get(name) is None
              or produced.get(name) != expected.get(name)]
    return len(names), failed
