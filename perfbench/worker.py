"""One benchmark process: set up a workload, then time its passes.

``run.py`` starts this file with ``PYTHONPATH=src`` and a pinned
interpreter state.  Modes:

* ``setup``: import, resolve the inputs, print ``ready`` and exit (a
  start-up sample for ``setup_s``);
* ``fill``: run one cold kernels pass and one cold gen pass into the
  work directory's store and record their cell digests (store-warm's
  set-up);
* ``measure``: set up, print ``ready``, run a short warm-up pass, then
  passes for ``--seconds``, and print one JSON line with the pass
  walls, the cell tally, the peak RSS and, with ``--trace 1``, the
  per-layer figures of traced passes.

Every pass is serial (``--jobs 1``) and runs the real CLI entry point
in this process, with its report captured and checked cell by cell.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from time import perf_counter

import cells
from layers import TIMED, Tracer, import_layers
from repro import cli
from repro.gen import GENERATOR_VERSION, generate_program
from repro.gen.fuzz import FUZZ_CHECKS
from repro.pipeline import clear_caches
from repro.store import code_fingerprint
from repro.workloads.registry import get_workload, workload_names


def run_cli(argv: list[str]) -> str:
    """Run ``repro <argv>`` in-process and return its standard output;
    an exception or a non-zero exit propagates as an exception."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(argv)
        except SystemExit as error:
            if error.code not in (0, None):
                raise RuntimeError(
                    f"repro {argv[0]} exited {error.code}: "
                    f"{err.getvalue()[-300:]}") from None
    return out.getvalue()


class Workload:
    """Inputs, oracle and one pass of a workload."""

    def __init__(self, name: str, seed: int, seed_start: int, work: str):
        self.name = name
        self.work = work
        self.store = os.path.join(work, "store")
        self.seed_start = seed_start
        # The seed fixes the order in which a pass visits the kernels.
        kernels = list(workload_names())
        random.Random(seed).shuffle(kernels)
        self.kernels = kernels
        for kernel in kernels:
            get_workload(kernel)
        self.expected: dict[str, str] = {}
        self.tally = None
        self.bad_sources: set[str] = set()
        if name in ("kernels-cold", "store-warm"):
            self.expected.update(cells.load_expected("kernels-cold")["cells"])
        if name in ("gen-small", "store-warm"):
            gen = cells.load_expected("gen-small")
            if (gen["generator_version"], gen["profile"], gen["seed_start"],
                    gen["seeds"]) != (GENERATOR_VERSION, cells.GEN_PROFILE,
                                      seed_start, cells.GEN_SEEDS):
                raise SystemExit(
                    "expected/gen-small.json does not cover generator "
                    f"v{GENERATOR_VERSION} {cells.GEN_PROFILE} seeds "
                    f"{seed_start}+{cells.GEN_SEEDS}; regenerate it with "
                    "perfbench/expect.py")
            self.tally = gen["tally"]
            for seed in range(seed_start, seed_start + cells.GEN_SEEDS):
                program = gen["programs"][str(seed)]
                cell = f"gen:{cells.GEN_PROFILE}:{seed}"
                self.expected[cell] = program["digest"]
                source = generate_program(seed, cells.GEN_PROFILE)
                if (cells.source_digest(source.workload.source)
                        != program["source_sha256"]):
                    self.bad_sources.add(cell)
        self.cold: dict[str, str] = {}
        self.runs_per_pass = 0
        code_fingerprint()

    # -- passes -------------------------------------------------------

    def prepare(self) -> None:
        """Untimed: clear the in-memory caches and, for the cold
        workloads, empty the store."""
        clear_caches()
        if self.name != "store-warm":
            shutil.rmtree(self.store, ignore_errors=True)
        gc.collect()

    def run(self, tracer: Tracer | None = None,
            warmup: bool = False) -> tuple[float, dict, dict]:
        """One timed pass: (wall seconds, cell digests, reports).  An
        exception ends the pass; the cells it did not produce fail.  A
        warm-up pass runs one kernel and one gen seed only."""
        kernels = (cells.WARMUP_KERNEL,) if warmup else self.kernels
        seeds = 1 if warmup else cells.GEN_SEEDS
        parts = []
        if self.name in ("kernels-cold", "store-warm"):
            parts.append(("suite", cells.suite_argv(kernels, self.store)))
        if self.name in ("gen-small", "store-warm"):
            parts.append(("gen", cells.gen_argv(self.seed_start,
                                                self.store, seeds)))
        reports = {}
        if tracer is not None:
            tracer.install()
        start = perf_counter()
        try:
            for kind, argv in parts:
                reports[kind] = run_cli(argv)
        except Exception:
            traceback.print_exc(file=sys.stderr)
        finally:
            wall = perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        produced = {}
        try:
            reports = {kind: json.loads(text)
                       for kind, text in reports.items()}
            if "suite" in reports:
                produced.update(cells.suite_cells(reports["suite"]))
            if "gen" in reports:
                produced.update(self.gen_check(reports["gen"]))
        except (KeyError, TypeError, ValueError):
            traceback.print_exc(file=sys.stderr)
            reports = {}
        return wall, produced, reports

    def gen_check(self, payload: dict) -> dict[str, str]:
        """Gen cells, with a cell that did not pass, was generated from
        another source or came with another check tally voided."""
        produced = cells.gen_cells(payload)
        tally_ok = cells.gen_tally(payload) == self.tally
        for row in payload["programs"]:
            cell = f"gen:{row['profile']}:{row['seed']}"
            if (row["status"] != "pass" or not tally_ok
                    or cell in self.bad_sources):
                produced[cell] = None
        return produced

    def score(self, produced: dict, sim_runs: int) -> tuple[int, list[str]]:
        """(cells attempted, failed cells) of a measured pass that made
        ``sim_runs`` engine runs."""
        if self.name == "store-warm":
            # A warm pass must simulate nothing and reproduce the cold
            # fill's result exactly; the cold result must be expected.
            produced = {} if sim_runs else {
                cell: digest for cell, digest in produced.items()
                if self.cold.get(cell) == digest}
        elif not sim_runs or sim_runs != self.runs_per_pass:
            # A cold pass redoes all of its simulation: none of it may
            # be kept from an earlier pass in the process.
            produced = {}
        return cells.compare(produced, self.expected)


def fill(workload: Workload) -> None:
    """Cold kernels pass + cold gen pass into the work store; record
    the cold cell digests next to it."""
    workload.prepare()
    _, produced, _ = workload.run()
    with open(os.path.join(workload.work, "cold.json"), "w") as handle:
        json.dump(produced, handle, sort_keys=True)


def measure(workload: Workload, seconds: float, trace: bool) -> dict:
    if workload.name == "store-warm":
        with open(os.path.join(workload.work, "cold.json")) as handle:
            workload.cold = json.load(handle)
    # Counts engine runs in every pass: a warm pass must make none, and
    # every cold pass as many as the first measured pass made.
    sim_probe = Tracer({"sim.exec_s": TIMED["sim.exec_s"]}, counted=())
    sim_probe.install()
    # The warm-up pass is not measured or scored: one-time costs of a
    # process's first pass (lazy imports, first calls) stay out of
    # wall_s.
    workload.prepare()
    warmup_s = workload.run(warmup=True)[0]
    walls: list[float] = []
    traced: list[dict] = []
    attempted = steps = 0
    failures: list[str] = []
    first = perf_counter()
    index = 0
    while True:
        # A traced run alternates untraced and traced passes so that
        # trace.overhead compares like with like.
        tracer = Tracer() if trace and index % 2 else None
        workload.prepare()
        sim_probe.reset()
        wall, produced, reports = workload.run(tracer)
        runs = sim_probe.counts["sim.runs"]
        steps += sim_probe.counts["sim.steps"]
        if index == 0:
            workload.runs_per_pass = runs
        count, failed = workload.score(produced, runs)
        attempted += count
        failures.extend(failed)
        if tracer is not None:
            traced.append(layer_figures(tracer, wall, reports))
        else:
            walls.append(wall)
        index += 1
        done = perf_counter() - first >= seconds
        if done and (len(traced) >= 1 if trace else len(walls) >= 2):
            break
    sim_probe.uninstall()
    result = {
        "walls": walls,
        "warmup_s": warmup_s,
        "attempted": attempted,
        "failed": len(failures),
        "failures": sorted(set(failures))[:20],
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_runs_per_pass": workload.runs_per_pass,
        "sim_steps_all_passes": steps,
    }
    if trace:
        result["layers"] = summarize_layers(traced, walls)
    return result


def layer_figures(tracer: Tracer, wall: float, reports: dict) -> dict:
    """Per-layer figures of one traced pass."""
    figures = dict(tracer.self_s)
    figures.update(tracer.counts)
    figures["wall_s"] = wall
    figures["attributed_s"] = tracer.attributed_s
    tally = cells.gen_tally(reports["gen"]) if "gen" in reports else {}
    for check in FUZZ_CHECKS:
        counts = tally.get(check, {"ran": 0, "skipped": 0})
        figures[f"gen.ran.{check}"] = counts["ran"]
        figures[f"gen.skipped.{check}"] = counts["skipped"]
    return figures


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize_layers(traced: list[dict], walls: list[float]) -> dict:
    """Median over the traced passes of each figure, plus the derived
    rates and the trace's own health figures."""
    # Counts repeat exactly from pass to pass; times are medians.
    out = {key: value if isinstance(value, int)
           else statistics.median(p[key] for p in traced)
           for key, value in traced[0].items()
           if key not in ("wall_s", "attributed_s")}
    out["foray.accesses_per_s"] = _ratio(out["foray.accesses"],
                                         out["foray.extract_s"])
    out["sim.steps_per_s"] = _ratio(out["sim.steps"], out["sim.exec_s"])
    lookups = out["store.hits"] + out["store.misses"]
    out["store.hit_ratio"] = _ratio(out["store.hits"], lookups)
    out["other_s"] = statistics.median(
        p["wall_s"] - p["attributed_s"] for p in traced)
    out["trace.attributed"] = statistics.median(
        _ratio(p["attributed_s"], p["wall_s"]) for p in traced)
    out["trace.overhead"] = _ratio(
        statistics.median(p["wall_s"] for p in traced),
        statistics.median(walls))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "fill", "measure"))
    parser.add_argument("--workload", choices=cells.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seed-start", type=int,
                        default=cells.GEN_SEED_START)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.time() when the parent spawned us")
    args = parser.parse_args(argv)

    import_layers()
    workload = Workload(args.workload, args.seed, args.seed_start, args.work)
    if args.mode == "fill":
        fill(workload)
        return 0
    print(f"ready {time.time() - args.spawned!r}", flush=True)
    if args.mode == "setup":
        return 0
    result = measure(workload, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
