"""Benchmark of the spheretorus package: one workload, one seed, one result.

    python3 bench/run.py --workload exact --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports the package from ``./src``.
Workloads (closed loop, one client, this process, BLAS pinned to one thread):

- ``exact``: reduce identity expressions in a fresh algebra context;
- ``matrix``: solve, build, verify, irreducibility and a product check;
- ``roundtrip``: emit -> load -> verify -> emit of representation JSON;
- ``survey``: the README command set through ``cli.main``.

A run makes whole passes over the workload's fixed input set until
``--seconds`` are used (at least two untraced passes).  Times are at
reference speed: the machine the bounds were set on (2 shared vCPUs) runs
the same Python code 1.5-2x slower in phases lasting seconds to minutes, in
CPU time as much as in wall time, so every timed interval is scaled by a
fixed standard-library probe timed next to it (``probe``, ``scaled``).  The
unscaled figures go to the provenance line.  Each op's latency is its
median over the passes.  End-to-end metrics (``--trace 0``):

- ``ops_per_s``: ops per pass / sum of the per-op latencies;
- ``p50_ms``, ``p90_ms``: percentiles of the per-op latencies (>= 100 ops);
- ``setup_s``: median of 7 fresh interpreters importing ``spheretorus.cli``,
  launched before and after the passes;
- ``peak_rss_mb``: peak resident memory of this process.

With ``--trace 1`` untraced and traced passes alternate; the traced ones
record spans (see ``tracer.py``), which give the per-layer metrics
(unscaled, the least over the traced passes) and ``trace.overhead_ratio``;
the spans of the last traced pass are written to ``.bench_out/``.

Output: a provenance line (versions, seed, commit, op mix, output digest,
unscaled figures), then the result line ``{"correct", "attempted",
"failed", "metrics"}``.  An op fails when its check fails or it raises;
``failed / attempted`` is the error rate.  Exits 2 without a result when
the package is not there.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

WORKLOADS = ("exact", "matrix", "roundtrip", "survey")
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
SETUP_LAUNCHES = (3, 4)  # fresh interpreters before and after the passes
OUT_DIR = ".bench_out"
# the probe's best wall time on the machine the bounds were set on
PROBE_REF_S = 0.46e-3


def probe() -> float:
    """Wall time of a fixed piece of standard-library work: fractions, str,
    dict and an int loop, the kinds of work the package's Python code does.
    It uses nothing from the package, so it does not speed up with it."""
    start = time.perf_counter()
    table = {}
    f = Fraction(1, 3)
    for i in range(40):
        f = f * Fraction(i + 2, i + 1) + Fraction(1, i + 7)
        table[(i, -i)] = str(f)
    total = 0
    for i in range(2000):
        total += i * i % 7
    return time.perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """An interval at reference speed: scaled by the faster of the probes
    timed just before and just after it."""
    return seconds * PROBE_REF_S / min(before, after)


def run_pass(ops, tracer=None):
    """Run every op once, a probe between ops.  Returns (latencies at
    reference speed, raw latencies, failures, output digest)."""
    latencies, raw = [], []
    failed = 0
    digest = hashlib.sha256()
    before = probe()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        start = time.perf_counter()
        try:
            ok, out = op.run()
        except Exception as exc:  # a raising op is a failed op; the run goes on
            ok, out = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        after = probe()
        latencies.append(scaled(elapsed, before, after))
        raw.append(elapsed)
        before = after
        failed += not ok
        digest.update(out.encode() + b"\0")
    return latencies, raw, failed, digest.hexdigest()


def measure(ops, seconds, tracer=None):
    """Whole passes until `seconds` are used; with a tracer, an untraced and
    a traced pass alternate.  Returns untraced passes, traced passes and the
    per-layer metrics of each traced pass."""
    plain, traced, layers = [], [], []
    begin = time.perf_counter()
    longest = 0.0
    while True:
        start = time.perf_counter()
        plain.append(run_pass(ops))
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                traced.append(run_pass(ops, tracer))
            finally:
                tracer.uninstall()
            layers.append(tracer.metrics())
        longest = max(longest, time.perf_counter() - start)
        elapsed = time.perf_counter() - begin
        enough = len(plain) >= (1 if tracer is not None else 2)
        if enough and elapsed + longest > seconds:
            return plain, traced, layers


def op_latencies(passes, field=0):
    """Each op's median latency over the passes (field 1: raw latencies)."""
    return [statistics.median(lat) for lat in zip(*(p[field] for p in passes))]


def end_to_end(latencies, setup, rss_mb):
    return {
        "ops_per_s": (len(latencies) / sum(latencies), "ops/s"),
        "p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "p90_ms": (statistics.quantiles(latencies, n=10)[8] * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }


def setup_time(root, env):
    """One fresh interpreter importing the CLI: (at reference speed, raw)."""
    before = probe()
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import spheretorus.cli"],
                   cwd=root, env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    elapsed = time.perf_counter() - start
    return scaled(elapsed, before, probe()), elapsed


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import numpy

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _commit(root):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None  # not a git checkout
    return out.stdout.strip()


def provenance(root, seed):
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": _commit(root),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "spheretorus", "cli.py")):
        print("bench: src/spheretorus not found; run from the repository root",
              file=sys.stderr)
        return 2
    # before numpy is imported anywhere in this process or its children
    os.environ.update(THREAD_ENV)
    os.environ["NO_COLOR"] = "1"
    env = dict(os.environ, PYTHONPATH=src)
    sys.path.insert(0, src)

    launches = [setup_time(root, env) for _ in range(SETUP_LAUNCHES[0])]

    import spheretorus
    import tracer as tracing
    import workloads

    if not os.path.abspath(spheretorus.__file__).startswith(src + os.sep):
        print(f"bench: imported {spheretorus.__file__}, not the checkout",
              file=sys.stderr)
        return 2
    workdir = os.path.join(root, OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        ops = workloads.make_ops(args.workload, args.seed, workdir)
        tracer = tracing.Tracer() if args.trace else None
        plain, traced, layers = measure(ops, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    launches += [setup_time(root, env) for _ in range(SETUP_LAUNCHES[1])]
    setup, setup_raw = zip(*launches)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    passes = plain + traced
    digests = sorted({p[3] for p in passes})
    failed = sum(p[2] for p in passes)
    attempted = len(ops) * len(passes)
    latencies = op_latencies(plain)
    if args.trace:
        metrics = {name: (min(layer[name] for layer in layers), unit)
                   for name, unit in tracing.METRIC_UNITS.items()}
        metrics["trace.overhead_ratio"] = (
            sum(op_latencies(traced)) / sum(latencies), "ratio")
        spans = os.path.join(root, OUT_DIR,
                             f"spans-{args.workload}-seed{args.seed}.tsv")
        tracer.write_spans(spans)
    else:
        metrics = end_to_end(latencies, setup, rss_mb)

    print(json.dumps({
        "workload": args.workload,
        "provenance": provenance(root, args.seed),
        "passes": len(plain),
        "traced_passes": len(traced),
        "ops_per_pass": len(ops),
        "latency_samples": len(latencies),
        "op_mix": workloads.op_mix(ops),
        "digest": digests,
        "setup_launches_s": setup_raw,
        "unscaled": {k: v for k, (v, _) in end_to_end(
            op_latencies(plain, 1), setup_raw, rss_mb).items()
            if k != "peak_rss_mb"},
    }))
    print(json.dumps({
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
