"""valiron benchmark: one workload, one process, one thread.

    python3 bench/run.py --workload renorm_grid --seed 1 --seconds 30 --trace 0

Runs from a source checkout: the package is imported from ``src/`` next to
this directory, as ``PYTHONPATH=src`` would.  With ``--trace 0`` it prints
the end-to-end metrics; with ``--trace 1`` the per-layer metrics of a
traced run.  Human-readable lines and a ``bench-record`` JSON line (seed,
input digest, provenance, spreads) come first; the last line of standard
output is the result object.  See bench/README.md.
"""

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# pinned before numpy loads, so no BLAS pool starts
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 15
TAIL_BEYOND = 10
# The host's speed drifts by up to 2x, in phases of about a second.  A fixed
# reference loop, timed between ops, slows by about the same factor, so each
# op time is scaled by REF_NOMINAL_S over the median reference time of the
# samples taken right before and right after that op (see bench/README.md,
# "Host-speed scaling").
REF_NOMINAL_S = 3.5e-3
REF_EVERY_S = 0.1
REF_ITERS = 1500
# Set-up is mostly the package import, which compiles and runs module code
# and builds dataclasses.  That slows less than the op reference in the slow
# phases (1.6x against 1.9x), so set-up is scaled by a reference of its own
# kind: compiling and running SETUP_REF_SOURCE SETUP_REF_ITERS times.
SETUP_REF_NOMINAL_S = 10e-3
SETUP_REF_ITERS = 8
SETUP_REF_SOURCE = '''
from dataclasses import dataclass, field

@dataclass(frozen=True)
class Point:
    x: float
    y: complex = 0j
    tags: tuple = ()

    def norm_sq(self):
        return self.x * self.x + abs(self.y) ** 2

@dataclass
class Bag:
    name: str
    items: list = field(default_factory=list)
    scale: float = 1.0

    def total(self):
        return sum(i * self.scale for i in self.items)

def helper(a, b, *, c=1):
    if a > b:
        return [a * k for k in range(c)]
    return {k: b for k in range(c)}
'''
# run_valiron(siegel_linear(2, 2), tol=0, n_max=1200) stops at the scale ceiling
CEILING_RUN = (2.0, 2, 1200)


def load_valiron():
    """Import valiron and its eight layers afresh, re-executing every module."""
    from spans import LAYERS

    for name in [n for n in sys.modules if n == "valiron" or n.startswith("valiron.")]:
        del sys.modules[name]
    pkg = importlib.import_module("valiron")
    for layer in LAYERS:
        importlib.import_module(f"valiron.{layer}")
    return pkg


def provenance() -> dict:
    import numpy

    def git(*cmd):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            res = subprocess.run(["git", *cmd], cwd=ROOT, env=env, capture_output=True,
                                 text=True, timeout=30)
        except (OSError, subprocess.SubprocessError):
            return None
        return res.stdout.strip() if res.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {
        "git_sha": sha,
        "dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def spread(values) -> float:
    """Interquartile distance over the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def tail(latencies) -> tuple:
    """Highest order statistic with TAIL_BEYOND samples above it, and its percentile.

    With fewer than 4 * TAIL_BEYOND samples, a quarter of them lie beyond it
    (the maximum below 4 samples), so the tail never drops under p75.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n // 4)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n


def reference() -> float:
    """Seconds for one pass of a fixed loop of small numpy and complex arithmetic.

    The loop mixes what valiron's hot paths do (tiny arrays, dot products,
    Python complex arithmetic) and never changes, so its time tracks the
    host's speed only.
    """
    import numpy as np

    t0 = time.perf_counter()
    acc = 0.0
    for k in range(REF_ITERS):
        a = np.array((k * 1.0, 2.0 + 1j))
        acc += float(np.real(np.dot(a, np.conjugate(a))))
        acc += abs(complex(k, 1.0)) * 0.5
    return time.perf_counter() - t0


def setup_reference() -> float:
    """Seconds to compile and run a fixed module source SETUP_REF_ITERS times."""
    t0 = time.perf_counter()
    for _ in range(SETUP_REF_ITERS):
        exec(compile(SETUP_REF_SOURCE, "<setup-reference>", "exec"), {})
    return time.perf_counter() - t0


class Tally:
    """Op outcomes: latencies, failures and point-steps of passing ops."""

    def __init__(self):
        self.latencies: list = []
        self.work: list = []
        self.failed = 0
        self.messages: list = []

    def run(self, wl, i: int):
        t0 = time.perf_counter()
        try:
            out = wl.op(i)
        except Exception:  # a raising op counts as failed; the run goes on
            out = None
            self.messages.append(f"op {i} raised:\n{traceback.format_exc()}")
        self.latencies.append(time.perf_counter() - t0)
        return out

    def check(self, wl, i: int, out) -> None:
        ok, msg, work = False, "", 0
        if out is not None:
            try:
                ok, msg, work = wl.check(i, out)
            except Exception:  # malformed output that the check cannot read
                msg = f"op {i}: check raised:\n{traceback.format_exc()}"
        self.work.append(work if ok else 0)
        if not ok:
            self.failed += 1
            if msg:
                self.messages.append(msg)


def measure(wl, seconds: float) -> tuple:
    """Ops until ``seconds`` are up, with reference samples between ops.

    Returns the tally and, per gap, the reference times sampled there:
    ``refs[k]`` right before op k and ``refs[k + 1]`` right after it.  A gap
    holds one sample per REF_EVERY_S of the op before it, and at least one.
    """
    tally, refs = Tally(), [[reference()]]
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        out = tally.run(wl, i)
        tally.check(wl, i, out)
        samples = max(1, round(tally.latencies[-1] / REF_EVERY_S))
        refs.append([reference() for _ in range(samples)])
        i += 1
    return tally, refs


def scaled_latencies(latencies, refs) -> list:
    """Each op time times REF_NOMINAL_S over the median reference time next to it."""
    return [lat * REF_NOMINAL_S / statistics.median(refs[k] + refs[k + 1])
            for k, lat in enumerate(latencies)]


def measure_traced(wl, tracer, seconds: float) -> tuple:
    """Alternate untraced and traced passes over the same ``trace_ops`` ops."""
    plain, traced = Tally(), Tally()
    plain_map = wl.map
    traced_map = None if plain_map is None else tracer.wrap_map(plain_map)
    start = time.perf_counter()
    while not traced.latencies or time.perf_counter() - start < seconds:
        for tally, on in ((plain, False), (traced, True)):
            outs = []
            if on:
                tracer.install()
                wl.map = traced_map
            try:
                for i in range(wl.trace_ops):
                    if on:
                        tracer.begin_op(i)
                    outs.append(tally.run(wl, i))
                    if on:
                        tracer.end_op()
            finally:
                tracer.uninstall()
                wl.map = plain_map
            for i, out in enumerate(outs):
                tally.check(wl, i, out)
    return plain, traced


def ceiling_step(valiron) -> int:
    lam, n_dim, n_max = CEILING_RUN
    m = valiron.maps.make_siegel_linear(lam, n_dim)
    return valiron.renorm.run_valiron(m, tol=0.0, n_max=n_max).n_stop


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("renorm_grid", "classify_sweep", "report_all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (SRC / "valiron" / "__init__.py").is_file():
        print(f"error: no valiron sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy  # noqa: F401  -- loaded before the set-up clock starts

    from spans import Tracer
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    work_dir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        # Each set-up is scaled by the median of one set-up reference sample
        # taken right before it and two right after it.  The previous set-up's
        # package and inputs are freed first, so no set-up starts with them alive.
        setup_times, setup_refs, setup_scaled, digests = [], [], [], set()
        for _ in range(SETUP_REPEATS):
            wl = valiron = None
            gc.collect()
            refs_around = [setup_reference()]
            t0 = time.perf_counter()
            valiron = load_valiron()
            wl = cls(valiron, args.seed, str(work_dir))
            setup_times.append(time.perf_counter() - t0)
            refs_around += [setup_reference(), setup_reference()]
            setup_refs += refs_around
            setup_scaled.append(
                setup_times[-1] * SETUP_REF_NOMINAL_S / statistics.median(refs_around))
            digests.add(wl.digest.hexdigest())
        if len(digests) != 1:
            print("error: set-up produced different inputs for one seed", file=sys.stderr)
            return 1
        setup_peak_mb = peak_rss_mb()

        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "input_sha256": digests.pop(),
            "provenance": provenance(),
        }
        if args.trace:
            tracer = Tracer(valiron)
            plain, tally = measure_traced(wl, tracer, args.seconds)
            WORK.mkdir(exist_ok=True)
            span_file = WORK / f"spans-{args.workload}-seed{args.seed}.npz"
            tracer.save(span_file)
            metrics = tracer.layer_metrics()
            metrics["trace.overhead_frac"] = (
                sum(tally.latencies) / sum(plain.latencies) - 1.0, "ratio")
            metrics["renorm.ceiling_step"] = (ceiling_step(valiron), "count")
            attempted = len(plain.latencies) + len(tally.latencies)
            failed = plain.failed + tally.failed
            record.update(traced_ops=tracer.ops, ops_per_pass=wl.trace_ops,
                          spans_kept=len(tracer.span_start),
                          spans_dropped=tracer.spans_dropped, span_file=str(
                              span_file.relative_to(ROOT)))
            messages = plain.messages + tally.messages
        else:
            tally, refs = measure(wl, args.seconds)
            raw = tally.latencies
            lat = scaled_latencies(raw, refs)
            busy = sum(lat)
            tail_s, tail_pct = tail(lat)
            metrics = {
                "setup_s": (statistics.median(setup_scaled), "s"),
                "ops_per_s": (len(lat) / busy, "1/s"),
                "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
                "op_tail_ms": (1e3 * tail_s, "ms"),
                "point_steps_per_s": (sum(tally.work) / busy, "1/s"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
            }
            attempted, failed, messages = len(lat), tally.failed, tally.messages
            ref_times = [r for gap in refs for r in gap]
            record.update(
                failed_frac=failed / attempted,
                op_count=attempted,
                op_tail_percentile=tail_pct,
                reference_ms={"nominal": 1e3 * REF_NOMINAL_S,
                              "p50": 1e3 * statistics.median(ref_times),
                              "setup_nominal": 1e3 * SETUP_REF_NOMINAL_S,
                              "setup_p50": 1e3 * statistics.median(setup_refs),
                              "samples": len(ref_times),
                              "iqr_frac": spread(ref_times)},
                raw={"setup_s": statistics.median(setup_times),
                     "ops_per_s": attempted / sum(raw),
                     "op_p50_ms": 1e3 * statistics.median(raw),
                     "op_tail_ms": 1e3 * tail(raw)[0],
                     "point_steps_per_s": sum(tally.work) / sum(raw)},
                op_iqr_frac=spread(raw),
                setup_runs_s=setup_times,
                setup_iqr_frac=spread(setup_times),
                setup_peak_rss_mb=setup_peak_mb,
            )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for msg in messages[:5]:
        print(f"check failed: {msg}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"# {name:32s} {value:>16.6g} {unit}")
    if not args.trace:
        print(f"# {'failed_frac':32s} {record['failed_frac']:>16.6g} ratio")
        ref = record["reference_ms"]
        print(f"# ops scaled to a {ref['nominal']:g} ms reference (median in the run "
              f"{ref['p50']:.3f} ms), set-up to a {ref['setup_nominal']:g} ms one (median "
              f"{ref['setup_p50']:.3f} ms); op_tail_ms is "
              f"p{record['op_tail_percentile']:.2f} of {attempted} ops")
    print("bench-record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
