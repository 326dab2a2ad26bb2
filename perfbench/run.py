"""Seeded benchmark of peafowl: one workload per run, timed and checked.

Run from the root of a checkout:

    python3 perfbench/run.py --workload campaign --seed 0 --seconds 15 --trace 0

The workload builds its inputs from ``--seed`` three times, to time the
set-up; a fresh interpreter imports peafowl five times before the set-up and
once after every untraced pass, and the median import is taken as the import
time.  Then passes repeat until ``--seconds`` have gone by.  ``--trace 0``
times untraced passes and reports the end-to-end metrics, with import, set-up
and pass times adjusted for machine speed (see ``speed.py``); ``--trace 1`` runs
each pass untraced and then traced and reports the per-layer metrics.  Lines
starting with ``#`` record the environment, the answers and the unadjusted
times; the last line of standard output is the JSON result.  All load comes
from this process; the import timer is its only child.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SETUP_REPEATS = 3
IMPORT_REPEATS = 5  # before the set-up; one more follows every untraced pass
# Run in a fresh interpreter: the import itself cannot be repeated in-process.
_IMPORT_TIMER = (
    "import sys, time; start = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import peafowl; print(time.perf_counter() - start)"
)
# One BLAS/OpenMP thread: the machine is shared and the timed code is mostly
# element-wise NumPy, so extra threads would add noise rather than speed.
BLAS_THREADS = 1
_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
WORKLOAD_NAMES = ("campaign", "select", "classify", "ingest")
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _timed(fn, *args):
    gc.collect()
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def _import_seconds(src: Path) -> float:
    """Seconds a fresh interpreter takes to import peafowl, NumPy and PyYAML included."""
    child = subprocess.run(
        [sys.executable, "-c", _IMPORT_TIMER, str(src)], capture_output=True, text=True, check=True, timeout=60
    )
    return float(child.stdout)


def _run_pass(workload, index, probes):
    if probes is None:
        return _timed(workload.run, index)
    with probes.tracer:
        probes.install()
        return _timed(workload.run, index, probes)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def measure(workload, seconds, trace, speed, time_import):
    """Repeat passes until ``seconds`` are up; at least one pass.

    ``speed()`` times the speed probe before the first pass and after every
    pass, and ``time_import`` runs after every untraced pass; each import is
    kept with the probe just before it.  With
    ``trace`` every pass runs twice on the same inputs, untraced and traced,
    and the two take turns going first.
    """
    from layers import Probes

    walls, units, probe_s, traced_walls, summaries, missing, imports = [], [], [], [], [], [], []
    attempted = failed = 0
    last_probe = speed()
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        order = ((False, True) if index % 2 == 0 else (True, False)) if trace else (False,)
        for traced in order:
            probes = Probes() if traced else None
            ops, wall = _run_pass(workload, index, probes)
            next_probe = speed()
            attempted += len(ops)
            failed += workload.check(index, ops)
            if traced:
                traced_walls.append(wall)
                summaries.append(probes.summary())
                missing = probes.missing
            else:
                walls.append(wall)
                units.append(workload.units(ops))
                probe_s.append(min(last_probe, next_probe))
                imports.append((time_import(), next_probe))
            last_probe = next_probe
            del ops
        index += 1
    return {
        "walls": walls,
        "units": units,
        "probe_s": probe_s,
        "traced_walls": traced_walls,
        "summaries": summaries,
        "missing": missing,
        "imports": imports,
        "attempted": attempted,
        "failed": failed,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = Path.cwd() / "src"
    if not (src / "peafowl" / "__init__.py").is_file():
        print(f"perfbench: no peafowl sources under {src}; run from a checkout root", file=sys.stderr)
        return 2
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    for var in _THREAD_VARS:
        os.environ[var] = str(threads)
    sys.path.insert(0, str(src))

    import numpy
    import peafowl
    from layers import layer_metrics
    from speed import REFERENCE_S, SpeedProbe
    from workloads import WORKLOADS

    if not Path(peafowl.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: imported peafowl from {peafowl.__file__}, not {src}", file=sys.stderr)
        return 2
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
    }
    print("# env " + json.dumps(env), flush=True)

    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent, prefix="tmp-") as workdir:
        workload = WORKLOADS[args.workload](peafowl, args.seed, Path(workdir))
        rss_before_probe = _peak_rss_mb()
        probe, probe_parts = SpeedProbe(), []

        def speed():
            probe_parts.append(probe())
            return sum(probe_parts[-1][task] for task in workload.speed_tasks)

        first_imports = [_import_seconds(src) for _ in range(IMPORT_REPEATS)]
        last_probe = speed()
        imports = [(seconds, last_probe) for seconds in first_imports]
        setups, setup_probes = [], []
        for _ in range(SETUP_REPEATS):
            setups.append(_timed(workload.setup)[1])
            next_probe = speed()
            setup_probes.append(min(last_probe, next_probe))
            last_probe = next_probe
        result = measure(workload, args.seconds, args.trace, speed, lambda: _import_seconds(src))
    imports += result["imports"]
    rss_mb = {"before_probe": rss_before_probe, "probe": probe.nbytes / 1e6, "peak": _peak_rss_mb()}

    attempted, failed = result["attempted"], result["failed"]
    answers = workload.answer_metrics()
    print("# answers " + json.dumps({k: v["value"] for k, v in answers.items()}))
    print(f"# error_rate {failed / attempted}")
    print("# imports " + json.dumps({"import_s": [t for t, _ in imports], "probe_s": [p for _, p in imports]}))
    print("# setups " + json.dumps({"setup_s": setups, "probe_s": setup_probes}))
    passes = {"wall_s": result["walls"], "probe_s": result["probe_s"], "probe_parts": probe_parts}
    print("# passes " + json.dumps(passes))
    print("# rss_mb " + json.dumps(rss_mb))
    if args.trace:
        overhead = sum(result["traced_walls"]) / sum(result["walls"]) - 1.0
        print("# missing " + json.dumps(result["missing"]))
        metrics = {**layer_metrics(result["summaries"], overhead, result["missing"]), **answers}
    else:
        reference = sum(REFERENCE_S[task] for task in workload.speed_tasks)
        adjusted = [w * reference / p for w, p in zip(result["walls"], result["probe_s"])]
        adjusted_setups = [s * reference / p for s, p in zip(setups, setup_probes)]
        adjusted_imports = [t * reference / p for t, p in imports]
        values = {
            # The host switches between a fast and a slow state for seconds at a time,
            # so imports are spread over the run.  They and the set-ups are adjusted
            # like passes.
            "setup_s": statistics.median(adjusted_imports) + statistics.median(adjusted_setups),
            "wall_s": statistics.median(adjusted),
            "ops_per_s": statistics.median(u / w for u, w in zip(result["units"], adjusted)),
            # The probe's block stays resident through every pass, so it sits in the
            # high-water mark whole; what is left is the workload's process.
            "peak_rss_mb": rss_mb["peak"] - rss_mb["probe"],
        }
        unadjusted = {
            "setup_s": statistics.median(t for t, _ in imports) + statistics.median(setups),
            "wall_s": statistics.median(result["walls"]),
            "ops_per_s": statistics.median(u / w for u, w in zip(result["units"], result["walls"])),
        }
        print("# unadjusted " + json.dumps(unadjusted))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
