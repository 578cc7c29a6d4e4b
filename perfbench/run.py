"""End-to-end benchmark of the khalfin CLI.

    python3 perfbench/run.py --workload {sweep,crosscheck,catalog} \
        --seed N --seconds S --trace {0,1} [--results-dir DIR]

Run from the repository root.  One process, one closed-loop client: each
op is a ``khalfin.cli.main(argv)`` call issued after the previous one
returns, with BLAS/OpenMP threads pinned to 1.  A run repeats the seeded
op list in whole passes while the next pass still fits in S seconds, so
every run of a seed does the same work.  The oracles in workloads.py
check the first pass after timing ends; every later pass must reproduce
it byte for byte.

Op latencies and rows_per_s are reported at a reference machine speed.
The virtual CPUs of a shared host run up to ~1.8x slower for seconds to
minutes at a time, whatever this process does, so raw times of two runs
of the same code differ by more than any bound worth setting.  A fixed
pure-Python probe (see probe()) runs before every timed op, and each op's
time is scaled by PROBE_REF_S over the median probe time around it.  The
probe does not touch the program, so a change to the program moves the
scaled time as it moves the raw one, while the host's speed cancels.
Raw figures and probe times are kept in the record.  setup_s and
peak_rss_mb are not scaled.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced passes and reports the per-layer metrics of tracing.py and the
tracing overhead.  The last line of stdout is one JSON object; the full
record (all metrics, fail_share, output digest, provenance) is written to
DIR (default perfbench/results) for compare.py.
"""

from __future__ import annotations

import os

THREAD_PINS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
MIN_PASSES = 3      # each op's latency is its mean over >= 3 passes
PROBE_KEYS = [str(i * 7919) for i in range(4000)]
PROBE_REF_S = 2.5e-4   # about the probe's time on an idle 2.1 GHz Xeon core
PROBE_WINDOW = 4       # the local speed is the median of the 2*4 nearest probes
LAYER_UNITS = (("_ms", "ms"), ("_per_line", "1/line"))   # otherwise "count"


class Runner:
    """Runs passes over the op list.  Keeps the outputs of the first pass
    and compares each later pass against them rather than storing it."""

    def __init__(self, cli, ops):
        self.cli, self.ops = cli, ops
        self.first = None
        self.passes = 0
        self.mismatches = {}      # op index -> later passes whose output differed

    def run_op(self, op):
        from workloads import Outcome

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(op.argv)
            except Exception as exc:  # a traceback is a wrong result, not a crash
                rc = 1
                print(f"uncaught {type(exc).__name__}: {exc}", file=sys.stderr)
            dt = time.perf_counter() - t0
        return Outcome(rc, out.getvalue(), err.getvalue(), dt)

    def run_pass(self, after_op=None) -> tuple:
        """(per-op seconds, probe seconds before each op, pass wall seconds)."""
        t0 = time.perf_counter()
        outcomes, probes = [], []
        for op in self.ops:
            probes.append(probe())
            outcomes.append(self.run_op(op))
            if after_op is not None:
                after_op(op, outcomes[-1])
        wall = time.perf_counter() - t0
        self.passes += 1
        if self.first is None:
            self.first = outcomes
        else:
            for i, (o, f) in enumerate(zip(outcomes, self.first)):
                if (o.rc, o.out) != (f.rc, f.out):
                    self.mismatches[i] = self.mismatches.get(i, 0) + 1
        return [o.seconds for o in outcomes], probes, wall

    def rows(self) -> list:
        from workloads import count_rows

        return [count_rows(o.out) for o in self.first]


def probe() -> float:
    """Seconds to fill a dict from fixed strings: the host's current speed.
    In trials on a contended host its hashing, allocation and memory
    traffic tracked the slow-downs of all three workloads' ops more closely
    than an integer loop or a float-formatting loop did."""
    t0 = time.perf_counter()
    table = {}
    for key in PROBE_KEYS:
        table[key] = len(key)
    return time.perf_counter() - t0


def scale_to_reference(samples, probes) -> list:
    """Each per-op time of each pass times PROBE_REF_S over the median of
    the probes run nearest to it (in time order, across passes)."""
    flat = [p for pass_probes in probes for p in pass_probes]
    n = len(probes[0])
    scaled = []
    for j, times in enumerate(samples):
        row = []
        for i, t in enumerate(times):
            g = j * n + i
            local = statistics.median(flat[max(g - PROBE_WINDOW, 0):g + PROBE_WINDOW])
            row.append(t * PROBE_REF_S / local)
        scaled.append(row)
    return scaled


def measure_setup(op) -> tuple:
    """Median wall time of fresh interpreters running the first op."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-m", "khalfin.cli", *op.argv]

    def once():
        t0 = time.perf_counter()
        rc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, timeout=120).returncode
        return time.perf_counter() - t0, rc

    once()  # compiles bytecode and fills the page cache; users have both
    samples = [once() for _ in range(SETUP_REPEATS)]
    return statistics.median(s for s, _ in samples), {rc for _, rc in samples}


def provenance(seed) -> dict:
    import mpmath
    import numpy
    import scipy

    commit = None
    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        top, head = git.stdout.split()
        if git.returncode == 0 and Path(top).resolve() == ROOT:
            commit = head
    except (OSError, subprocess.SubprocessError, ValueError):
        pass  # not a git checkout; src_sha256 still identifies the code
    src_hash = hashlib.sha256()
    for f in sorted((SRC / "khalfin").glob("*.py")):
        src_hash.update(f.name.encode() + b"\0" + f.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "seed": seed,
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_pins": THREAD_PINS,
        "client": "closed loop, 1 client, 1 process",
    }


def timed(runner, seconds) -> tuple:
    """Untraced passes while the next one still fits in `seconds`, at
    least MIN_PASSES: (per-op seconds, probe seconds and wall of each pass)."""
    samples, probes, walls = [], [], []
    start = time.perf_counter()
    while True:
        times, pass_probes, wall = runner.run_pass()
        samples.append(times)
        probes.append(pass_probes)
        walls.append(wall)
        if len(walls) >= MIN_PASSES and time.perf_counter() - start + wall > seconds:
            return samples, probes, walls


def quantile(values, p) -> float:
    """Harrell-Davis estimate of the p-quantile: a beta-weighted mean of all
    order statistics, steadier than the one or two a plain percentile uses."""
    import numpy as np
    from scipy.special import betainc

    n = len(values)
    weights = np.diff(betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n))
    return float(np.dot(weights, sorted(values)))


def latency_metrics(runner, ok, samples) -> dict:
    """op_p50_ms, op_p90_ms and rows_per_s over the successful ops `ok`,
    each op's latency being its mean over the passes."""
    lat = [statistics.fmean(s[i] for s in samples) for i in ok]
    rows = runner.rows()
    return {
        "op_p50_ms": (quantile(lat, 0.5) * 1e3, "ms"),
        "op_p90_ms": (quantile(lat, 0.9) * 1e3, "ms"),
        "rows_per_s": (sum(rows[i] for i in ok) / sum(lat), "1/s"),
    }


def end_to_end(runner, ok, samples, probes, walls, setup_s) -> tuple:
    """(metrics, notes, raw metrics) over the successful ops `ok`."""
    raw = latency_metrics(runner, ok, samples)
    metrics = {
        "setup_s": (setup_s, "s"),
        **latency_metrics(runner, ok, scale_to_reference(samples, probes)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    ok_rows = sum(runner.rows()[i] for i in ok)
    all_probes = [p for pass_probes in probes for p in pass_probes]
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} fresh interpreters running op 0",
        "op_p50_ms": f"n={len(ok)} successful ops, each the mean of {len(walls)} "
                     f"passes; Harrell-Davis quantiles",
        "op_p90_ms": f"n={len(ok)}, {len(ok) - int(0.9 * len(ok))} beyond",
        "rows_per_s": f"{ok_rows} rows per pass",
        "peak_rss_mb": "this process",
    }
    notes.update({name: notes[name] + f"; raw {value:.6g}"
                  for name, (value, _) in raw.items()})
    notes["op_p50_ms"] += (f"; probe median {statistics.median(all_probes) * 1e6:.0f} us "
                           f"vs reference {PROBE_REF_S * 1e6:.0f} us")
    return metrics, notes, raw


def per_layer(runner, seconds) -> tuple:
    """Alternate untraced and traced passes: (metrics, notes, pass walls)."""
    from tracing import Tracer

    tracer = Tracer()
    snaps, plain_walls, traced_walls = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain_walls.append(runner.run_pass()[-1])
        tracer.reset()
        redshift = {"solves": 0, "lines": 0, "seen": 0}

        def after_op(op, outcome):
            # solves made inside redshift ops, per catalog line
            solves = tracer.calls["crossover.solve_crossover"]
            if op.kind == "redshift" and outcome.rc == 0:
                redshift["solves"] += solves - redshift["seen"]
                redshift["lines"] += len(op.catalog)
            redshift["seen"] = solves

        with tracer.installed():
            traced_walls.append(runner.run_pass(after_op)[-1])
        snaps.append(dict(tracer.snapshot(), **{
            "redshift.solves_per_line":
                redshift["solves"] / redshift["lines"] if redshift["lines"] else 0.0}))
        if time.perf_counter() - start + (time.perf_counter() - t0) > seconds:
            break
    rows = sum(runner.rows())
    metrics = {}
    for name in snaps[0]:
        unit = next((u for suffix, u in LAYER_UNITS if name.endswith(suffix)), "count")
        metrics[name] = (statistics.median(s[name] for s in snaps), unit)
    metrics["numerics.e1s_per_row"] = (
        metrics["numerics.exp_integral_e1_scaled.calls"][0] / max(rows, 1), "1/row")
    metrics["density.evals_per_row"] = (
        metrics["density.density_at.evals"][0] / max(rows, 1), "1/row")
    metrics["cli.bytes_out"] = (sum(len(o.out.encode()) for o in runner.first), "B")
    metrics["cli.nonzero_exits"] = (sum(o.rc != 0 for o in runner.first), "count")
    overhead = statistics.median(traced_walls) - statistics.median(plain_walls)
    metrics["trace.overhead_s"] = (overhead, "s")
    notes = {"trace.overhead_s": f"per pass, traced minus untraced wall "
                                 f"({overhead / statistics.median(plain_walls):+.1%})",
             "numerics.e1s_per_row": f"over {rows} rows per pass"}
    return metrics, notes, {"pass_s": plain_walls, "traced_pass_s": traced_walls}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "crosscheck", "catalog"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results-dir", type=Path, default=HERE / "results")
    args = parser.parse_args(argv)
    results_dir = args.results_dir.resolve()

    if not (SRC / "khalfin" / "cli.py").is_file():
        print(f"error: no khalfin sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    from khalfin import cli

    import workloads

    started_at = time.time()
    ops = workloads.build_ops(args.workload, args.seed,
                              Path("perfbench") / "_work" / f"{args.workload}-{args.seed}")
    setup_s = setup_rcs = None
    if args.trace == 0:
        setup_s, setup_rcs = measure_setup(ops[0])

    runner = Runner(cli, ops)
    # untimed warm-up of the first op of each kind: lazy imports and
    # first-call costs are not charged to the first timed op
    for kind in dict.fromkeys(op.kind for op in ops):
        runner.run_op(next(op for op in ops if op.kind == kind))

    if args.trace == 0:
        samples, probes, walls = timed(runner, args.seconds)
        extra = {"pass_s": walls}
    else:
        metrics, notes, extra = per_layer(runner, args.seconds)

    # oracles, after every timed region
    status, problems = [], []
    for i, (op, o) in enumerate(zip(ops, runner.first)):
        s, reason = workloads.check(op, o)
        status.append(s)
        if s == "miss":
            problems.append(f"op {i} ({' '.join(op.argv)}): {reason}")
    failed = sum(s == "miss" for s in status) * runner.passes
    for i, n in sorted(runner.mismatches.items()):
        problems.append(f"op {i}: output differs in {n} later passes")
        failed += n if status[i] != "miss" else 0
    if setup_rcs is not None and setup_rcs != {runner.first[0].rc}:
        failed += 1
        problems.append(f"op 0 exited {sorted(setup_rcs)} in a fresh interpreter, "
                        f"{runner.first[0].rc} in process")
    if args.trace == 0:
        ok = [i for i, s in enumerate(status) if s == "pass"]
        if len(ok) < 10:
            print("\n".join(problems[:20]), file=sys.stderr)
            print(f"error: only {len(ok)} of {len(ops)} ops passed; nothing to time",
                  file=sys.stderr)
            return 1
        metrics, notes, raw = end_to_end(runner, ok, samples, probes, walls, setup_s)
        extra["raw_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in raw.items()}
        extra["probe_s"] = probes
    not_passed = sum(s != "pass" for s in status)
    digest = hashlib.sha256()
    for o in runner.first:
        digest.update(f"{o.rc}\n".encode() + o.out.encode())

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "started_at": started_at,
        "ops": len(ops),
        "passes": runner.passes,
        **extra,
        "oracle_misses": failed,
        "refused": status.count("refused"),
        "fail_share": not_passed / len(ops),
        "output_sha256": digest.hexdigest(),
        "provenance": provenance(args.seed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                          f"{int(started_at * 1000)}.json")
    path.write_text(json.dumps(record, indent=1) + "\n")

    report = [f"workload {args.workload}  seed {args.seed}  ops {len(ops)}  "
              f"passes {runner.passes}"]
    for name, (value, unit) in metrics.items():
        report.append(f"  {name:<42} {value:>14.6g} {unit:<6} {notes.get(name, '')}")
    report.append(f"  {'fail_share':<42} {record['fail_share']:>14.6g} {'1':<6} "
                  f"{not_passed} of {len(ops)} ops: {record['refused']} exit 3 in a "
                  f"documented failing region, {status.count('miss')} missed the oracle")
    report.append(f"  output sha256 {record['output_sha256']}")
    report += [f"  oracle miss: {p}" for p in problems[:20]]
    report.append(f"  record {os.path.relpath(path, ROOT)}")
    print("\n".join(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops) * runner.passes,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
