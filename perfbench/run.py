"""Benchmark of the kdsim pipeline on four workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload matrix --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): ``matrix``, ``grid``, ``federate`` and
``requests``. The workload seed becomes the run configuration's master
seed, so one seed always gives the same inputs. Every stage goes through
``kdsim.cli.main`` in this process, imported from ``src/`` of the
checkout.

One run:

1. repeats, until ``--seconds`` have passed and at least ``MIN_REPEATS``
   times, a set-up (data generation, ``partition``, ``pretrain``) and then
   the workload's measured stages, and reports medians over the
   repetitions. Spreading the set-ups over the whole run, instead of
   making them all at the start, lets ``setup_s`` average over the same
   swings in machine speed as ``wall_s``. Between these steps it times a
   fixed reference loop (reference.py) and reports every end-to-end time
   rescaled to the machine speed at which that loop takes
   ``reference.NOMINAL_S``; the raw medians and the median scale are
   printed beside them;
2. with ``--trace 1``, installs the tracer (tracer.py) and makes one more
   repetition, set-up included, which gives the per-layer numbers. The
   counts of that repetition depend only on the seed.

The outputs of every stage invocation are checked (workloads.py); a
failed check or a non-zero exit counts as a failed invocation, and the
benchmark then exits with code 1. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
the end-to-end metrics with tracing off and the per-layer metrics with
tracing on. The lines before it print every metric by name and unit,
the environment, and the SHA-256 of every artifact, which is a label for
comparing commits and not a gate.

Out of scope: there is no ``jobs > 1`` workload, because spans are not
collected across worker processes, and partition redraw counts are not
visible from outside the program.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from reference import Speed
from tracer import CLI_SPAN, Tracer
from workloads import SETUP_STAGES, WORKLOADS, Workload, check_stage

ROOT = Path(__file__).resolve().parent.parent
RUNS_DIR = ROOT / ".perfbench_runs"
MIN_REPEATS = 3

# Reported on every workload with --trace 0; the gated ones in BENCHMARK.json.
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MiB"))


def _import_kdsim_main():
    src = ROOT / "src"
    if not (src / "kdsim" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no kdsim sources under {src}")
    sys.path.insert(0, str(src))
    try:
        import kdsim
        from kdsim.cli import main
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import kdsim from {src}: {exc}")
    if src.resolve() not in Path(kdsim.__file__).resolve().parents:
        raise SystemExit(f"perfbench: kdsim imported from {kdsim.__file__}, not {src}")
    return main


# --------------------------------------------------------------------------
# Environment
# --------------------------------------------------------------------------


def _blas_threads() -> dict:
    setting = {
        k: os.environ[k]
        for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        if k in os.environ
    }
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return setting
    libs = sorted(
        {line.split()[-1] for line in maps.splitlines() if "openblas" in line and ".so" in line}
    )
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                setting["openblas_runtime"] = fn()
                return setting
    return setting


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


# --------------------------------------------------------------------------
# Stage invocations
# --------------------------------------------------------------------------


class Session:
    """One run directory and the counts of stage invocations made in it."""

    def __init__(self, workload: Workload, seed: int, out: Path, main) -> None:
        self.workload = workload
        self.out = out
        self.main = main
        self.config_path = out / "config.yaml"
        # JSON is valid YAML
        self.config_path.write_text(json.dumps(workload.config(seed), indent=1) + "\n")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.tracer: Tracer | None = None

    def invoke(self, argv: list[str]) -> float:
        """Run one stage through kdsim.cli.main; returns its wall seconds."""
        args = [*argv, "--config", str(self.config_path), "--out-dir", str(self.out)]
        self.attempted += 1
        rc = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                if self.tracer is None:
                    rc = self.main(args)
                else:
                    rc = self.tracer.span(CLI_SPAN, self.main, args)
        except Exception:
            traceback.print_exc()
        elapsed = time.perf_counter() - start
        if rc != 0:
            problems = [f"exit code {rc}"]
        else:
            try:
                problems = check_stage(self.workload, argv, self.out)
            except Exception as exc:
                problems = [f"output unreadable: {exc!r}"]
        if problems:
            self.failed += 1
            self.problems.extend(f"{' '.join(argv)}: {p}" for p in problems)
        return elapsed

    def setup(self) -> float:
        return sum(self.invoke(argv) for argv in SETUP_STAGES)

    def repetition(
        self, rng: random.Random, speed: Speed | None = None
    ) -> list[tuple[str, float]]:
        stages = self.workload.measured_stages(rng)
        times = []
        for i, argv in enumerate(stages):
            times.append((argv[0], self.invoke(argv)))
            if speed is not None and i + 1 < len(stages) and speed.due():
                speed.sample()
        return times


def artifact_digests(out: Path) -> dict[str, str]:
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------


def tail(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(samples)
    if n <= 10:
        return None
    pct = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(pct * n / 100))
    return pct, sorted(samples)[rank - 1]


def end_to_end(workload: Workload, setups, reps, session: Session) -> dict:
    """Every end-to-end number of the run: {name: (value, unit, note)}.

    setups holds (raw seconds, scale) and reps ([(stage, raw seconds)],
    scale). Times are rescaled by their scale (see reference.Speed); the
    raw medians are printed too.
    """
    walls_raw = [sum(t for _, t in stages) for stages, _ in reps]
    wall = statistics.median(w * scale for w, (_, scale) in zip(walls_raw, reps))
    m = {
        "setup_s": (
            statistics.median(t * sc for t, sc in setups),
            "s",
            f"median of {len(setups)} set-ups",
        ),
        "wall_s": (wall, "s", f"median of {len(reps)} repetitions"),
    }
    by_stage: dict[str, list[float]] = {}
    for stages, scale in reps:
        for stage, t in stages:
            by_stage.setdefault(stage, []).append(t * scale)
    if "matrix" in by_stage:
        records = workload.matrix_records
        m["records_per_s"] = (records / wall, "1/s", f"{records} records")
    if "consolidate" in by_stage:
        m["consolidate_s"] = (statistics.median(by_stage["consolidate"]), "s", "median")
        rounds = 2 * workload.sections["fed"]["rounds"]
        fed = statistics.median(by_stage["fedavg"])
        m["rounds_per_s"] = (rounds / fed, "1/s", f"{rounds} rounds, both arms")
    if "distill" in by_stage:
        latencies = [t * 1e3 for t in by_stage["distill"]]
        n = len(latencies)
        records = len(reps[0][0])
        m["records_per_s"] = (records / wall, "1/s", f"{records} records")
        m["request_p50_ms"] = (statistics.median(latencies), "ms", f"n={n}")
        if (t := tail(latencies)) is not None:
            m["request_tail_ms"] = (t[1], "ms", f"p{t[0]}, n={n}")
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    m["peak_rss_mb"] = (peak_kib / 1024, "MiB", "benchmark process")
    m["failed_share"] = (
        session.failed / session.attempted,
        "ratio",
        f"{session.failed} of {session.attempted} stage invocations",
    )
    scales = [sc for _, sc in setups] + [sc for _, sc in reps]
    m["setup_raw_s"] = (statistics.median(t for t, _ in setups), "s", "as measured")
    m["wall_raw_s"] = (statistics.median(walls_raw), "s", "as measured")
    m["time_scale"] = (
        statistics.median(scales), "ratio", "median factor from raw to rescaled times"
    )
    return m


# --------------------------------------------------------------------------
# Main
# --------------------------------------------------------------------------


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run(args) -> int:
    main = _import_kdsim_main()
    workload = WORKLOADS[args.workload]
    print(
        f"perfbench workload={workload.name} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )
    print("environment " + json.dumps(environment(), sort_keys=True))
    out = RUNS_DIR / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    try:
        session = Session(workload, args.seed, out, main)
        rng = random.Random(args.seed)
        speed = Speed()
        setups, reps = [], []
        deadline = time.perf_counter() + args.seconds
        while not session.failed and (len(reps) < MIN_REPEATS or time.perf_counter() < deadline):
            mark = speed.mark()
            raw = session.setup()
            setups.append((raw, speed.scale(mark)))
            mark = speed.mark()
            stages = session.repetition(rng, speed)
            reps.append((stages, speed.scale(mark)))
        e2e = end_to_end(workload, setups, reps, session)
        layers = {}
        if args.trace and not session.failed:
            session.tracer = tracer = Tracer()
            with tracer:
                session.setup()
                speed.sample()
                mark = speed.mark()
                traced = session.repetition(random.Random(args.seed), speed)
                scale = speed.scale(mark)
            session.tracer = None
            layers = {name: (value, unit, "") for name, (value, unit) in tracer.metrics().items()}
            overhead = sum(t for _, t in traced) * scale - e2e["wall_s"][0]
            layers["tracing_overhead_s"] = (overhead, "s", "traced minus untraced wall_s")
        digests = artifact_digests(out)
    finally:
        shutil.rmtree(out, ignore_errors=True)

    for name, (value, unit, note) in e2e.items():
        print(f"metric {name} = {value:.6g} {unit}  ({note})")
    for name, (value, unit, _) in layers.items():
        line = f"layer {name} = {value:.6g} {unit}"
        if name.endswith(".self_s"):
            calls = layers[name[: -len("self_s")] + "calls"][0]
            if calls:
                line += f"  ({value / calls * 1e6:.3g} us/call over {calls} calls)"
        print(line)
    combined = hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()
    print(f"artifacts sha256={combined} " + json.dumps(digests, sort_keys=True))
    for problem in session.problems:
        print(f"check failed: {problem}")

    failed = session.failed
    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u, _) in layers.items()}
    else:
        metrics = {name: {"value": e2e[name][0], "unit": unit} for name, unit in END_TO_END}
    result = {
        "correct": failed == 0,
        "attempted": session.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(run(_parse(sys.argv[1:])))
