"""FORAY-GEN end-to-end benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload kernels-cold --seed 1 \\
        --seconds 20 --trace 0

Workloads (see ``perfbench/LAYERS.md`` for why each was chosen):

* ``kernels-cold``: ``repro suite --spm --validate --hier`` over the
  seven mini-MiBench kernels, in-memory caches cleared and a fresh,
  empty artifact store at the start of every pass;
* ``gen-small``: the default ``repro gen`` battery over a fixed block of
  ``small`` seeds (``--seed-start``), fresh store per pass;
* ``store-warm``: set-up fills a store with one pass of each of the two
  above in a separate process; every pass then clears the in-memory
  caches and reruns both against that store.

``--seed`` fixes the order in which a pass visits the kernels.  The last
line of standard output is one JSON object: ``correct``, ``attempted``
and ``failed`` count cells (one program and scenario of a report),
``metrics`` holds ``wall_s``, ``setup_s``, ``peak_rss_mb`` and
``ok_share`` (``--trace 0``) or the per-layer figures (``--trace 1``).
The line before it holds the host tag and the pass statistics.

This file uses the standard library only.  It precompiles the sources
into ``.bench_build/pycache`` (the build), keeps every store and
temporary file under ``.bench_build/`` and starts each measured process
with a pinned interpreter state.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import cells
from layers import unit_of

HERE = os.path.dirname(os.path.abspath(__file__))
#: Fresh-interpreter start-ups timed per run, besides the measured one.
SETUP_PROBES = 6
#: Whole-run deadline; the contract allows 180 s.
DEADLINE_S = 170.0


class BenchError(Exception):
    """The run cannot produce a result."""


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def host_tag(load_start: tuple[float, ...]) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
    }


class Runner:
    """Builds, then starts and times the benchmark's processes."""

    def __init__(self, root: str, args: argparse.Namespace):
        self.root = root
        self.args = args
        self.deadline = time.monotonic() + DEADLINE_S
        build = os.path.join(root, ".bench_build")
        self.pycache = os.path.join(build, "pycache")
        self.work = os.path.join(build, "perfbench",
                                 f"{args.workload}-{os.getpid()}")
        env = dict(os.environ)
        env.update(
            PYTHONPATH=os.path.join(root, "src"),
            PYTHONHASHSEED="0",
            PYTHONPYCACHEPREFIX=self.pycache,
            REPRO_CACHE_DIR=os.path.join(self.work, "store"),
            TMPDIR=os.path.join(self.work, "tmp"),
        )
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env = env

    def _timeout(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"run exceeded {DEADLINE_S:.0f} s")
        return left

    def build(self) -> None:
        """Precompile every module into the out-of-tree bytecode cache
        so that no first-run ``.pyc`` compile lands in ``setup_s``."""
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q",
             os.path.join(self.root, "src"), HERE],
            env=self.env, check=True, timeout=self._timeout(),
            stdout=subprocess.DEVNULL)
        os.makedirs(self.env["TMPDIR"], exist_ok=True)

    def start(self, mode: str) -> tuple[float, str]:
        """Run a worker to its end; (seconds from spawn until it was
        ready to run its first pass, or until it exited when it has no
        passes to run; its last stdout line)."""
        a = self.args
        spawned = time.time()
        argv = [sys.executable, os.path.join(HERE, "worker.py"), mode,
                "--workload", a.workload, "--seed", str(a.seed),
                "--seed-start", str(a.seed_start),
                "--seconds", str(a.seconds), "--trace", str(a.trace),
                "--work", self.work, "--spawned", repr(spawned)]
        with subprocess.Popen(argv, env=self.env, cwd=self.root,
                              stdout=subprocess.PIPE, text=True) as proc:
            try:
                out, _ = proc.communicate(timeout=self._timeout())
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        elapsed = time.time() - spawned
        if proc.returncode != 0:
            raise BenchError(f"worker {mode} exited with code "
                             f"{proc.returncode}")
        lines = out.splitlines()
        ready = [line for line in lines if line.startswith("ready ")]
        return (float(ready[0].split()[1]) if ready else elapsed,
                lines[-1] if lines else "")

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def measure(runner: Runner) -> tuple[dict, dict]:
    """(worker result, set-up figures)."""
    runner.build()
    # setup_s is an end-to-end metric: a traced run does not report it.
    probes = 0 if runner.args.trace else SETUP_PROBES
    # Half of the start-up probes run before the measuring process and
    # half after it: the host's speed wanders over seconds, and the
    # median should span the run, not one moment of it.
    samples = [runner.start("setup")[0] for _ in range(probes // 2)]
    fill_s = 0.0
    if runner.args.workload == "store-warm":
        fill_s = runner.start("fill")[0]
    ready_s, line = runner.start("measure")
    samples.append(ready_s)
    samples += [runner.start("setup")[0] for _ in range(probes - probes // 2)]
    result = json.loads(line)
    return result, {"startup_samples_s": samples, "fill_s": fill_s,
                    "setup_s": statistics.median(samples) + fill_s}


def report(args, result: dict, setup: dict, host: dict) -> dict:
    walls = result["walls"]
    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in result["layers"].items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": setup["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "ok_share": {"value": (attempted - failed) / attempted,
                         "unit": "share"},
        }
    quartiles = (statistics.quantiles(walls, n=4) if len(walls) > 1
                 else walls * 3)
    detail = {
        "host": host,
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(walls),
        "wall_s_quartiles": quartiles,
        "wall_s_range": [min(walls), max(walls)],
        **setup,
        "warmup_s": result["warmup_s"],
        "sim_runs_per_pass": result["sim_runs_per_pass"],
        "sim_steps_all_passes": result["sim_steps_all_passes"],
        "failed_cells": result["failures"],
    }
    print(json.dumps(detail))
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=cells.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed-start", type=int,
                        default=cells.GEN_SEED_START,
                        help="first small seed of the gen block "
                             "(default: %(default)s)")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "cli.py")):
        return fail("run from the root of a checkout: src/repro is missing")
    for name in ("REPRO_VERIFY_IR", "REPRO_CHECK_RANGES"):
        if name in os.environ:
            return fail(f"{name} is set; it changes the timed code path")
    load_start = os.getloadavg()
    runner = Runner(root, args)
    try:
        result, setup = measure(runner)
    except (BenchError, subprocess.SubprocessError, OSError,
            ValueError) as error:
        return fail(str(error))
    finally:
        runner.cleanup()
    print(json.dumps(report(args, result, setup, host_tag(load_start))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
