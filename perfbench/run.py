"""Benchmark of the twostage library: one workload per run, correctness-checked.

Run from the repository root:

    python3 perfbench/run.py --workload true_run --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run times the workload untraced at threads=1 and
reports the end-to-end metrics; with ``--trace 1`` it runs a fixed number of
ops under the layer trace and reports the per-layer metrics.  The last line
of standard output is the result object; the line before it is the full
report (provenance, sample counts, every check's problems), which is also
written under perfbench/out/.  See perfbench/README.md.
"""
import time

T0 = time.perf_counter()  # set-up time starts before the heavy imports

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_SAMPLES = 5  # set-ups per run, each in a fresh interpreter
PARALLEL_SAMPLES = 4000  # reference samples per wall time of montecarlo.parallel_eff


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="time one set-up in this interpreter, print it and exit")
    return p.parse_args(argv)


def import_library():
    """Import twostage from this checkout's src/ and nowhere else."""
    # Gated metrics run single-threaded (threads=1), and so does the BLAS under
    # numpy: a second BLAS thread competes for the other vCPU of a small machine.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "twostage", "__init__.py")):
        raise SystemExit(f"perfbench: no twostage package under {SRC}")
    sys.path.insert(0, SRC)
    import twostage
    if os.path.dirname(os.path.dirname(os.path.abspath(twostage.__file__))) != SRC:
        raise SystemExit(f"perfbench: imported twostage from {twostage.__file__}, not {SRC}")
    import workloads
    return workloads


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def tail(values):
    """Highest order statistic with at least 10 values beyond it.

    Returns (value, percentile, values beyond).  With 10 or fewer values no
    order statistic qualifies and the maximum is reported with 0 beyond.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    k = n - 11  # 0-based rank; n - 1 - k = 10 values lie above it
    return xs[k], 100.0 * (k + 1) / n, n - 1 - k


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------


NEIGHBOURS = 2  # an op's time is normalized by the kernel timings of the ops within 2 of it


class OpRecord:
    """One op: wall seconds (and per-part laps), kernel timings, work units, checks."""

    def __init__(self, index, traced):
        self.index = index
        self.traced = traced
        self.seconds = 0.0
        self.laps = {}
        self.timings = []  # speed kernel timings around this op
        self.units = 0.0
        self.result = None
        self.problems = []


def run_op(wl, i, tracer=None):
    """One op: the call of the entry point, timed, then its (untimed) checks."""
    import speed

    rec = OpRecord(i, tracer is not None)
    stopwatch = speed.Stopwatch(wl.kernel, sample_laps=tracer is None)
    try:
        if tracer is not None:
            tracer.install()
        try:
            stopwatch.start()
            with tracer.op_span(i) if tracer is not None else contextlib.nullcontext():
                rec.result = wl.op(i, stopwatch)
            if not stopwatch.laps:
                stopwatch.lap(wl.name)
        finally:
            if tracer is not None:
                tracer.uninstall()
        rec.seconds, rec.laps, rec.timings = stopwatch.wall_s, stopwatch.laps, stopwatch.timings
        rec.units = wl.units(rec.result)
        rec.problems = wl.check(rec.result)
    except Exception as exc:  # an op that raises is a failed op; the run goes on
        where = traceback.format_exc(limit=-3).strip().splitlines()
        rec.problems = [f"op {i} raised {type(exc).__name__}: {exc}", *where]
        rec.result = None
    return rec


def slowdowns(wl, records):
    """Per op, the kernel slowdown over the timings of the ops within NEIGHBOURS of it.

    Short ops borrow their neighbours' timings, which smooths the kernel's own
    noise; long ops span the machine's drift themselves.
    """
    import speed

    out = []
    for j in range(len(records)):
        near = records[max(0, j - NEIGHBOURS):j + NEIGHBOURS + 1]
        out.append(speed.slowdown(wl.kernel, [t for r in near for t in r.timings]))
    return out


def setup_samples(args, kernel, count):
    """Wall seconds of set-ups in fresh interpreters, so that imports are paid each time.

    Returns (walls, kernel timings); the kernel runs in this warm process
    before and after each fresh interpreter.
    """
    import speed

    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    walls, timings = [], []
    speed.sample(kernel, timings)
    for _ in range(count):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        speed.sample(kernel, timings)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        walls.append(float(proc.stdout.strip().splitlines()[-1]))
    return walls, timings


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def git_revision():
    """HEAD of the checkout when it is a git work tree of its own, else "unavailable"."""
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unavailable"
    return lines[1]


def source_digest():
    """SHA-256 over src/twostage/*.py, which identifies the code without git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "twostage")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def provenance(args):
    import numpy
    return {
        "python": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "threads": 1,
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(wl, ops, setups):
    """Gated metrics; every time is divided by the kernel slowdown measured around it."""
    import speed

    timed = [r for r in ops if r.result is not None] or ops
    wall = [r.seconds for r in timed]
    slow = slowdowns(wl, timed)
    normalized = [w / s for w, s in zip(wall, slow)]
    tail_value, tail_pct, beyond = tail(normalized)
    setup_walls, setup_timings = setups
    setup_slow = speed.slowdown(wl.kernel, setup_timings)
    metrics = {
        "setup_s": (statistics.median(setup_walls) / setup_slow, "s"),
        "work_per_s": (statistics.median(r.units / n if n > 0 else 0.0
                                         for r, n in zip(timed, normalized)), "1/s"),
        "op_p50_s": (statistics.median(normalized), "s"),
        "op_tail_s": (tail_value, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    samples = {
        "ops": len(wall),
        "op_tail_s": {"percentile": tail_pct, "ops_beyond": beyond, "ops": len(wall)},
        "setup_s": {"samples": len(setup_walls), "wall_s": setup_walls},
        "work_unit": wl.unit,
        "speed": {"kernel": wl.kernel, "op_slowdown": slow, "setup_slowdown": setup_slow},
        "wall_s": {"op_p50": statistics.median(wall), "op_tail": tail(wall)[0],
                   "setup": statistics.median(setup_walls)},
        "lap_median_s": {name: statistics.median(r.laps[name] / s
                                                 for r, s in zip(timed, slow) if name in r.laps)
                         for name in timed[0].laps},
    }
    return metrics, samples


def per_layer(wl, tracer, traced, untraced, parallel_eff):
    """Per-op layer metrics from the traced ops (calls, self time, share of op wall)."""
    from layertrace import LAYER_NAMES, OP_LAYER

    k = len(traced)
    own = tracer.self_times()
    calls = dict.fromkeys(LAYER_NAMES, 0)
    self_ns = dict.fromkeys(LAYER_NAMES, 0)
    op_ns = 0
    for (name, start, end, _, _), s in zip(tracer.spans, own):
        calls[name] += 1
        self_ns[name] += s
        if name == OP_LAYER:
            op_ns += end - start
    metrics = {}
    for name in LAYER_NAMES:
        metrics[f"{name}.calls"] = (calls[name] / k, "count")
        metrics[f"{name}.self_s"] = (self_ns[name] / 1e9 / k, "s")
        metrics[f"{name}.share"] = (self_ns[name] / op_ns if op_ns else 0.0, "ratio")
    c = tracer.counters
    metrics["designs.psu_subtotal_estimates.mb"] = (
        c.get("designs.psu_subtotal_estimates.mb", 0.0) / k, "MB")
    metrics["bootstrap.multinomial_weights.mb"] = (
        c.get("bootstrap.multinomial_weights.mb", 0.0) / k, "MB")
    be_calls = calls["coupling.coupled_be_si"]
    metrics["coupling.coupled_be_si.repair_frac"] = (
        c.get("coupling.coupled_be_si.repaired", 0.0) / be_calls if be_calls else 0.0, "ratio")
    # the frame written by gen-pop is the file that every frame layer moves
    file_mb = {"frame.generate_population": c.get("frame.frame_to_csv.file_mb", 0.0),
               "frame.frame_to_csv": c.get("frame.frame_to_csv.file_mb", 0.0),
               "frame.ingest_frame": c.get("frame.ingest_frame.file_mb", 0.0)}
    for name, mb in file_mb.items():
        s = self_ns[name] / 1e9
        metrics[f"{name}.mb_per_s"] = (mb / s if s > 0 else 0.0, "MB/s")
    metrics["montecarlo.parallel_eff"] = (parallel_eff, "ratio")
    # the twins ran at different moments: compare them at reference speed
    traced_s = sum(w / s for w, s in zip((r.seconds for r in traced), slowdowns(wl, traced)))
    untraced_s = sum(w / s for w, s in zip((r.seconds for r in untraced), slowdowns(wl, untraced)))
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0 if untraced_s else 0.0, "ratio")
    for command in ("gen-pop", "estimate", "bootstrap"):
        times = [r.laps[command] / s for r, s in zip(untraced, slowdowns(wl, untraced))
                 if command in r.laps]
        metrics[f"cli.{command.replace('-', '_')}_s"] = (
            statistics.median(times) if times else 0.0, "s")
    return metrics


def measure_parallel_eff(wl):
    """t(1 worker) / (2 x t(2 workers)) of one reference run on the fork pool, untraced."""
    import twostage.montecarlo as montecarlo

    scenario = dataclasses.replace(wl.scenario, true_run=PARALLEL_SAMPLES)
    seconds = {}
    for threads in (1, 2):
        start = time.perf_counter()
        montecarlo.approximate_true_variance(wl.frame, scenario, seed=wl.op_seed(-1),
                                             threads=threads)
        seconds[threads] = time.perf_counter() - start
    return seconds[1] / (2.0 * seconds[2])


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def main(argv=None):
    args = parse_args(argv)
    workloads = import_library()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        wl.setup()
        if args.setup_probe:
            print(repr(time.perf_counter() - T0))
            return 0
        return run(args, wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, wl):
    import speed

    speed.warm_up(wl.kernel)
    warmup = run_op(wl, 0)
    untimed = wl.untimed_checks()
    records = [warmup]
    report = {"provenance": provenance(args)}

    if args.trace == 0:
        start = time.perf_counter()
        i = 1
        while True:
            records.append(run_op(wl, i))
            i += 1
            if time.perf_counter() - start >= args.seconds:
                break
        setups = setup_samples(args, wl.kernel, SETUP_SAMPLES)
        metrics, samples = end_to_end(wl, records[1:], setups)
        pooled_from = records
    else:
        from layertrace import Tracer

        tracer = Tracer()
        indices = range(1, 1 + wl.traced_ops)
        untraced = [run_op(wl, i) for i in indices]
        traced = [run_op(wl, i, tracer) for i in indices]
        records += untraced + traced
        parallel_eff = measure_parallel_eff(wl) if args.workload == "true_run" else 0.0
        metrics = per_layer(wl, tracer, traced, untraced, parallel_eff)
        samples = {"traced_ops": len(traced), "spans": len(tracer.spans)}
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.csv"))
        pooled_from = [warmup] + traced  # the untraced twins repeat the traced inputs

    ok = [r.result for r in pooled_from if r.result is not None and not r.problems]
    pooled = wl.pooled_checks(ok) if ok else ["no op produced a checkable result"]
    attempted = len(records)
    failed = sum(1 for r in records if r.problems)
    if pooled or untimed:
        failed = attempted  # a run-level check judges every op of the run
    problems = {f"op {r.index}{' traced' if r.traced else ''}": r.problems
                for r in records if r.problems}
    report.update({
        "samples": samples,
        "error_rate": failed / attempted,
        "problems": {"ops": problems, "pooled": pooled, "untimed": untimed},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }
    with open(os.path.join(OUT, f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
