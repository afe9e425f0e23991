"""Benchmark for qetsim: one workload per fresh process, checked and timed.

    python3 perfbench/run.py --workload ground --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; qetsim is imported from its `src`
directory, never from an installed copy.  The workload's operation repeats
while the next one is predicted to end within `--seconds` (at least once).
Every output is checked; a failed check or an exception counts as a failed
operation.

With `--trace 0` the last stdout line reports the end-to-end metrics
(medians over the operations of the run, except `peak_rss_mb`):

- setup_s: interpreter start to the first timed operation, the median of
  SETUP_SAMPLES fresh interpreters that import qetsim and build the inputs;
- solve_s / cpu_s: wall time / user plus system CPU time of one operation,
  checks excluded;
- peak_rss_mb: the process's peak resident memory.

With `--trace 1` it reports the per-layer metrics of tracer.py as means
per operation; `trace.solve_s` is the mean wall time of a traced operation,
which the module self times and `bench.unattributed_s` add up to.

The line before the result holds the run's details: the per-operation
samples, failures, absent metrics and machine information.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3
SUBPROCESS_TIMEOUT_S = 120
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Cap each BLAS thread variable at nproc (before numpy loads); returns nproc."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(min(max(current, 1), nproc))
    return nproc


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: build the inputs, print the time, exit")
    return parser.parse_args(argv)


def import_benchmark():
    """Import the workloads, the tracer and qetsim from this checkout, or exit non-zero."""
    if not (SRC / "qetsim" / "__init__.py").is_file():
        sys.exit(f"error: no qetsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import qetsim
    import tracer
    import workloads

    if Path(qetsim.__file__).resolve().parent != SRC / "qetsim":
        sys.exit(f"error: qetsim was imported from {qetsim.__file__}, not from {SRC}")
    return workloads, tracer


def measure_setup(args) -> list[float]:
    """Interpreter start to inputs built, in SETUP_SAMPLES fresh processes."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            sys.exit(f"error: setup probe failed ({proc.returncode}): {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]) - start)
    return samples


def run_ops(workload, inputs, seconds: float, root_span=contextlib.nullcontext):
    """Repeat the operation; returns per-op (wall, cpu) samples and failure messages."""
    samples, failures = [], []
    begin = time.perf_counter()
    while True:
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with root_span():
                output = workload.run(inputs)
            error = None
        except Exception as exc:  # a failing operation is counted, not fatal
            output, error = None, f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        samples.append((wall, cpu))
        if error is None:
            try:
                problems = workload.check(inputs, output)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            error = "; ".join(problems) or None
        if error is not None:
            failures.append(f"op {len(samples)}: {error}")
        if time.perf_counter() - begin + wall > seconds:
            return samples, failures


def _read(path) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def _openblas_threads() -> int | None:
    """Threads OpenBLAS will use, asked from numpy's bundled library when it is found."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(dll, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def machine_info(nproc: int) -> dict:
    import numpy as np
    import scipy

    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches[f"l{level}"] = _read(index / "size")
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc, "cpu_model": cpu_model, "l2": caches.get("l2"), "l3": caches.get("l3"),
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_cap": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "blas_threads": _openblas_threads(),
    }


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main(argv=None) -> int:
    start = time.monotonic()
    args = parse_args(argv)
    nproc = cap_blas_threads()
    workloads, tracing = import_benchmark()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.prepare(args.seed)
    if args.setup_probe:
        print(time.monotonic())
        return 0
    own_setup = time.monotonic() - start

    spec = load_spec()
    setup = [] if args.trace else measure_setup(args)
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "own_setup_s": own_setup,
               "setup_samples_s": setup}
    if args.trace:
        tr = tracing.Tracer()
        span_cost = tracing.span_cost()
        restore = tracing.install(tr)
        try:
            samples, failures = run_ops(workload, inputs, args.seconds,
                                        lambda: tr.span(tracing.ROOT, "bench"))
        finally:
            restore()
        n = len(samples)
        values = tr.summary(n)
        values["trace.solve_s"] = sum(w for w, _ in samples) / n
        values["trace.spans"] = (tr.n_spans - n) / n
        values["trace.overhead_s"] = values["trace.spans"] * span_cost
        values["bench.unattributed_s"] = values.get("bench.self_s", 0.0)
        wanted = spec["per_layer"]
        absent = sorted(m["name"] for m in wanted
                        if m["name"] not in values or m["name"] in tr.absent)
        details.update(absent=absent, span_cost_s=span_cost)
    else:
        samples, failures = run_ops(workload, inputs, args.seconds)
        values = {
            "setup_s": statistics.median(setup),
            "solve_s": statistics.median(w for w, _ in samples),
            "cpu_s": statistics.median(c for _, c in samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = spec["end_to_end"]
        absent = []
    metrics = {m["name"]: {"value": 0.0 if m["name"] in absent else float(values[m["name"]]),
                           "unit": m["unit"]}
               for m in wanted}
    details.update(op_wall_s=[w for w, _ in samples], op_cpu_s=[c for _, c in samples],
                   failures=failures, machine=machine_info(nproc))
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": not failures, "attempted": len(samples),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
