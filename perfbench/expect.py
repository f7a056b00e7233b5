"""Regenerate the committed oracle files under ``perfbench/expected/``.

Run from the root of a checkout::

    PYTHONPATH=src python3 perfbench/expect.py [--seed-start N]

* ``kernels-cold.json``: the cell digests of one ``repro suite --spm
  --validate --hier --json`` run on the AST reference engine
  (``--engine ast``), not on the fast tier the benchmark times.
* ``gen-small.json``: for each program of the gen block, the digest of
  its generated source and of its battery outcome, with the per-check
  ran/skipped tally and the generator version.  The file is not
  written unless every program passes.

Stores go to a fresh directory under ``.bench_build/`` and are removed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import cells
from repro.gen import GENERATOR_VERSION, generate_program
from worker import run_cli


def write(name: str, payload: dict) -> None:
    os.makedirs(cells.EXPECTED_DIR, exist_ok=True)
    with open(cells.expected_path(name), "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed-start", type=int,
                        default=cells.GEN_SEED_START,
                        help="first small seed of the gen block")
    seed_start = parser.parse_args().seed_start

    store = os.path.join(".bench_build", "perfbench", "expect-store")
    shutil.rmtree(store, ignore_errors=True)
    try:
        argv = cells.suite_argv((), store, "--engine", "ast")
        write("kernels-cold", {
            "command": ["repro", *argv[:-2]],
            "cells": cells.suite_cells(json.loads(run_cli(argv))),
        })
        payload = json.loads(run_cli(cells.gen_argv(seed_start, store)))
    finally:
        shutil.rmtree(store, ignore_errors=True)
    digests = cells.gen_cells(payload)
    programs = {}
    for row in payload["programs"]:
        if row["status"] != "pass":
            print(f"expect: {row['spec']} does not pass: {row}",
                  file=sys.stderr)
            return 1
        source = generate_program(row["seed"], cells.GEN_PROFILE)
        programs[str(row["seed"])] = {
            "source_sha256": cells.source_digest(source.workload.source),
            "digest": digests[f"gen:{row['profile']}:{row['seed']}"],
        }
    write("gen-small", {
        "generator_version": GENERATOR_VERSION,
        "profile": cells.GEN_PROFILE,
        "seed_start": seed_start,
        "seeds": cells.GEN_SEEDS,
        "tally": cells.gen_tally(payload),
        "programs": programs,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
