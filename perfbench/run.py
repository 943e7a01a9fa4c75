"""Benchmark of solitonlab's acceptance flows and identity suite.

Run from anywhere inside a checkout of the repository:

    python3 perfbench/run.py --workload ellipse_round --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

With ``--trace 0`` a run repeats its workload's round, one short
``solitonlab`` command, until ``--seconds`` would be exceeded, and reports the
end-to-end metrics: ``wall_ref`` (median over the rounds of the round's time
from the call into ``cli.main`` to its return, over the time of a fixed
reference block run right after it), ``setup_s`` (median of fresh
interpreters importing solitonlab.cli and building the inputs, spread over
the run) and ``peak_rss_mb``.  With ``--trace 1`` a run makes one round
untraced and one traced, runs the full criterion flow once, and reports the
per-layer metrics; its spans go to ``perfbench/out/spans-<workload>.npz``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# the keys of workloads.WORKLOADS, which can only be imported from a checkout with src/
WORKLOAD_NAMES = ("ellipse_round", "spheroid_round", "circle_shrink", "identity_suite")
SETUP_PROBES = 5
RUN_TIMEOUT_S = 170


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure_setup(name, seed):
    """Seconds from starting a fresh interpreter until its inputs are built."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "probe.py"), name, str(seed)],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe for {name} exited {proc.returncode}")
    return elapsed


class Tally:
    """Operations attempted, failed (error or wrong output), and wrong outputs."""

    def __init__(self):
        self.attempted = self.failed = self.wrong = 0

    def add_error(self, what):
        print(f"operation failed: {what}", file=sys.stderr)
        self.attempted += 1
        self.failed += 1

    def add_checked(self, operations):
        for problems in operations:
            self.attempted += 1
            if problems:
                print("wrong output: " + "; ".join(problems), file=sys.stderr)
                self.failed += 1
                self.wrong += 1


def run_round(main, workload, argv, tally, full=False):
    """One ``cli.main`` call with its outputs checked; returns its wall time."""
    for path in workload.outputs():
        path.unlink(missing_ok=True)
    gc.collect()
    rc = None
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        try:
            rc = main(argv)
        except Exception:
            traceback.print_exc()
        wall = time.perf_counter() - t0
    # the identity suite exits 1 when a row fails; the rows say which
    if rc == 0 or (rc == 1 and not workload.is_flow):
        try:
            tally.add_checked(workload.operations(full))
        except (OSError, ValueError, KeyError) as exc:
            tally.add_error(f"{workload.name}: unreadable output ({exc})")
    else:
        tally.add_error(f"{workload.name}: solitonlab exited {rc}")
    return wall


def timed_run(workload, seed, seconds):
    """Rounds for ``seconds``, with the set-up probes spread among them.

    A round is one call of the workload's command; the reference block
    (reference.py) runs before and after it.  ``wall_ref`` is the median
    over the rounds of round time over the mean of those two reference
    times, so the host's speed, which drifts over seconds and minutes,
    cancels (README.md).  The first round warms caches and is not timed.
    """
    import reference
    from solitonlab import cli
    argv = workload.prepare(seed)
    tally = Tally()
    setup, walls = [], []
    start = time.perf_counter()
    run_round(cli.main, workload, argv, tally)
    refs = [reference.block()]          # refs[i] and refs[i + 1] flank walls[i]
    while True:
        elapsed = time.perf_counter() - start
        if len(setup) < SETUP_PROBES and elapsed >= len(setup) * seconds / SETUP_PROBES:
            setup.append(measure_setup(workload.name, seed))
            continue
        walls.append(run_round(cli.main, workload, argv, tally))
        refs.append(reference.block())
        if time.perf_counter() - start + walls[-1] + refs[-1] > seconds:
            break
    while len(setup) < SETUP_PROBES:
        setup.append(measure_setup(workload.name, seed))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_ref = statistics.median(2.0 * w / (before + after)
                                 for w, before, after in zip(walls, refs, refs[1:]))
    print(f"{workload.name}: wall_ref {wall_ref:.4f} over {len(walls)} rounds; median round "
          f"{statistics.median(walls):.4f} s, median reference {statistics.median(refs):.4f} s; "
          f"setup_s median {statistics.median(setup):.4f} s of "
          f"{[round(s, 3) for s in setup]}; peak_rss_mb {peak_mb:.1f} MB")
    return tally, {"wall_ref": metric(wall_ref, "ratio"),
                   "setup_s": metric(statistics.median(setup), "s"),
                   "peak_rss_mb": metric(peak_mb, "MB")}


def _steps(workload):
    trace = workload.outputs()[0]
    if not workload.is_flow or not trace.exists():
        return 0
    return len(trace.read_text().splitlines()) - 2     # header and the t = 0 row


def traced_run(workload, seed, seconds=None):
    """One untraced and one traced round, the full criterion flow, then the
    per-call sweep; ``seconds`` is unused."""
    import tracing
    from solitonlab import cli
    argv = workload.prepare(seed)
    tally = Tally()
    plain_wall = run_round(cli.main, workload, argv, tally)
    plain_steps = _steps(workload)

    rec = tracing.SpanRecorder()
    with tracing.patched(rec):
        traced_wall = run_round(rec.wrap("cli.main", cli.main), workload, argv, tally)
    steps = _steps(workload)
    written = workload.outputs()[0]
    out_bytes = written.stat().st_size if written.exists() else 0
    if workload.full_command:
        full_wall = run_round(cli.main, workload, workload.prepare(seed, full=True), tally,
                              full=True)
        print(f"{workload.name}: full criterion flow {full_wall:.3f} s, "
              f"{_steps(workload)} steps")

    spans = rec.summary()
    metrics = {}
    for name, (calls, self_s, us) in spans.items():
        metrics[f"{name}.calls"] = metric(calls, "count")
        metrics[f"{name}.self_s"] = metric(self_s, "s")
        metrics[f"{name}.us_per_call"] = metric(us, "us")
    extractions = (spans["hypersurface.curve_geometry"][0]
                   + spans["hypersurface.revolution_geometry"][0])
    advances = spans["flow._advance"][0]
    batched = spans["curvfun.value"][0] + spans["curvfun.gradient"][0]
    metrics.update({
        "flow.steps": metric(steps, "count"),
        "flow.step_us": metric(plain_wall / plain_steps * 1e6 if plain_steps else 0.0, "us"),
        "flow.extract_per_step": metric(extractions / steps if steps else 0.0, "ratio"),
        "flow.accept_ratio": metric(steps / advances if advances else 0.0, "ratio"),
        "curvfun.rows_per_call": metric(rec.rows / batched if batched else 0.0, "rows/call"),
        "cli.trace_bytes": metric(out_bytes, "B"),
        "trace.overhead_s": metric(traced_wall - plain_wall, "s"),
    })
    sweep = {name: 0.0 for name in tracing.sweep_names()}
    if workload.sweep:
        sweep.update(tracing.per_call_sweep(lambda m: workload.make_input(seed, m)))
    metrics.update({name: metric(us, "us") for name, us in sweep.items()})

    span_path = workload.workdir.parent / f"spans-{workload.name}.npz"
    rec.save(span_path)
    print(f"{workload.name}: {len(rec.start)} spans written to {span_path}; "
          f"untraced {plain_wall:.3f} s, traced {traced_wall:.3f} s")
    for name in sorted(spans, key=lambda n: -spans[n][1]):
        calls, self_s, us = spans[name]
        if calls:
            print(f"  {name:36s} calls {calls:9d}  self {self_s:9.4f} s  {us:10.2f} us/call")
    return tally, metrics


def run_all(args):
    """Every workload in its own interpreter, one after the other."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
        if proc.returncode != 0:
            print(f"{name}: benchmark exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        for key, m in result["metrics"].items():
            if args.trace == 0 or m["value"]:
                print(f"  {key} = {m['value']:.6g} {m['unit']}")
            total["metrics"][f"{name}.{key}"] = m
    print(json.dumps(total))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # one thread of work: numpy, imported below and by the probes, keeps its
    # BLAS pool to the calling thread
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if not (ROOT / "src" / "solitonlab" / "cli.py").is_file():
        print(f"error: {ROOT} holds no src/solitonlab to benchmark", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)

    import workloads        # imports solitonlab from the checkout's src/
    workload = workloads.WORKLOADS[args.workload]
    measure = traced_run if args.trace else timed_run
    tally, metrics = measure(workload, args.seed, args.seconds)
    result = {"correct": tally.wrong == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    text = json.dumps(result)
    (workloads.OUT / f"result-{workload.name}-trace{args.trace}.json").write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
