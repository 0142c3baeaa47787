"""ddlab benchmark: run one seeded workload and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload cert-family --seed 1 --seconds 25 --trace 0

Workloads: cert-family, derivation-grid, ideal-ops, cli-batch (see
workloads.py for what each one runs and why).

A run repeats one input sequence in a fixed number of rounds (see
`run_rounds`).  Every latency, set-up time included, is scaled to a reference
host speed by a calibration loop sampled next to it (see calibrate.py), and
each position keeps the median of its scaled latencies; the unscaled figures
are on the `info` line.

--trace 0 measures with tracing off and reports the end-to-end metrics:
  setup_s      median over fresh processes of start-to-inputs-ready time
               (interpreter start, `import ddlab`, generating and parsing
               inputs), scaled by loop samples taken in each process
  ops_per_s    correct positions per second of their latencies
  op_p50_ms    median over positions of their latency
  peak_rss_mb  peak resident memory of the workload process (of the CLI
               process tree for cli-batch)
--trace 1 runs the odd rounds under the outside-in tracer (tracer.py) and the
even ones untraced, so every position has a traced and an untraced latency
on the same input.  It reports per-layer metrics per traced
operation, the tracing overhead from those pairs, checks that the traced and
untraced outputs are identical position by position, and checks that each
workload still isolates its layer.

The operation count, the failure count (wrong or unverified result, exception,
BudgetExceeded, non-zero exit), the failure ratio, the tail latency with its
percentile and sample count, and the run's environment are printed as an
`info` line before the final result line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

from calibrate import REF_S, REPEATS, Calibration, sample_loop

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_BASE = ROOT / ".perfbench-work"
SETUP_REPEATS = 9
JOBS = min(2, os.cpu_count() or 1)
MAX_REPORTED_FAILURES = 5
POLL_S = 0.002


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["cert-family", "derivation-grid", "ideal-ops", "cli-batch"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs and exit (used to time set-up in a fresh process)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# -- environment ----------------------------------------------------------------------


def environment(args, params) -> dict:
    sha = None
    if (ROOT / ".git").exists():  # else git would report an enclosing repository
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "ddlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "git_sha": sha,
            "src_sha256": digest.hexdigest()[:16], "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "params": params}


# -- statistics -----------------------------------------------------------------------


def tail(latencies):
    """Nearest-rank latency at the highest whole percentile that leaves at least
    10 samples beyond it; the maximum when there are fewer than 11 samples."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return {"percentile": 100, "value_ms": xs[-1] * 1e3, "samples": n, "beyond": 0}
    p = math.floor(100 * (n - 10) / n)
    k = max(1, math.ceil(p * n / 100))
    return {"percentile": p, "value_ms": xs[k - 1] * 1e3, "samples": n, "beyond": n - k}


class Tally:
    """Per-position results of one measured phase.

    A position is one operation on one input in the phase's input sequence.
    The sequence runs several rounds.  A position's latency is the median of
    its runs, each scaled to the reference host speed by `cal`, the run's
    calibration, once it is set (see calibrate.py).  It keeps the output
    digest of its first run, and it fails when any of its runs fails or gives
    another output than the first.
    """

    def __init__(self):
        self.pos = array("l")    # position, start and latency of each run
        self.start = array("d")
        self.dt = array("d")
        self.fingerprints: list[str | None] = []
        self.bad: list[bool] = []
        self.attempted = 0
        self.failed = 0
        self.busy = 0.0
        self.wall = 0.0
        self.cal = None

    def record(self, pos: int, dt: float, ok: bool, fingerprint, why: str = "",
               start: float = 0.0):
        self.attempted += 1
        self.busy += dt
        self.pos.append(pos)
        self.start.append(start)
        self.dt.append(dt)
        if pos == len(self.fingerprints):
            self.fingerprints.append(fingerprint)
            self.bad.append(False)
        elif ok and fingerprint != self.fingerprints[pos]:
            ok, why = False, "output differs from the first round"
        if not ok:
            self.failed += 1
            self.bad[pos] = True
            if self.failed <= MAX_REPORTED_FAILURES:
                print(f"operation at position {pos} failed: {why}", file=sys.stderr)

    def latencies(self, scaled: bool = True) -> list[float]:
        """Each position's median latency over its runs."""
        runs = [[] for _ in self.fingerprints]
        for pos, start, dt in zip(self.pos, self.start, self.dt):
            if scaled and self.cal is not None:
                dt *= self.cal.factor(start, start + dt)
            runs[pos].append(dt)
        return [statistics.median(r) for r in runs]

    def rate(self, scaled: bool = True) -> float:
        """Correct positions per second of their latencies."""
        return (len(self.fingerprints) - sum(self.bad)) / sum(self.latencies(scaled))

    @property
    def ops_per_s(self) -> float:
        return self.rate()


def run_rounds(w, seconds: float, execute, start_round=None, cal=None) -> float:
    """Run w.ROUNDS rounds over one input sequence within about `seconds`;
    return the wall time.

    Round 0 runs whole passes, cycling through w.passes, while the next pass
    is predicted (by the last one) to end within seconds / ROUNDS; it always
    runs one.  The other rounds repeat round 0's sequence.  Each operation is
    `execute(x, pos, k)` for input x at position pos in round k, and
    `start_round(k)`, if given, runs before round k.  Spreading each
    position's runs over the whole run, and keeping their median, evens out
    bursts of contention from other processes on the host; the fixed round
    count keeps that the same for fast and slow programs.  With `cal`, the
    reference loop is sampled between operations every INTERVAL_S seconds,
    and once more at the end.
    """
    tick = cal.tick if cal is not None else (lambda: None)
    t0 = time.perf_counter()
    budget = seconds / w.ROUNDS
    sequence = []
    passes = 0
    last = 0.0
    if start_round is not None:
        start_round(0)
    while not passes or time.perf_counter() - t0 + last <= budget:
        start = time.perf_counter()
        for x in w.passes[passes % len(w.passes)]:
            tick()
            execute(x, len(sequence), 0)
            sequence.append(x)
        passes += 1
        last = time.perf_counter() - start
    for k in range(1, w.ROUNDS):
        if start_round is not None:
            start_round(k)
        for pos, x in enumerate(sequence):
            tick()
            execute(x, pos, k)
    if cal is not None:
        cal.sample()
    return time.perf_counter() - t0


# -- in-process workloads -------------------------------------------------------------


def attempt(w, x, pos: int, tally: Tally, tracer=None):
    """Time w.op(x) (under the tracer, if given), then check it untimed."""
    from workloads import CheckFailed

    error = None
    t0 = time.perf_counter()
    try:
        if tracer is not None:
            tracer.active = True
        result = w.op(x)
    except Exception as exc:  # a failed operation is counted, the run goes on
        error = f"{type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.active = False
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.fold()
    if error is not None:
        tally.record(pos, dt, False, None, error, start=t0)
        return
    try:
        w.check(x, result)
    except CheckFailed as exc:
        tally.record(pos, dt, False, None, str(exc), start=t0)
        return
    except Exception as exc:  # a check that cannot run leaves the result unverified
        tally.record(pos, dt, False, None, f"check raised {type(exc).__name__}: {exc}",
                     start=t0)
        return
    tally.record(pos, dt, True, w.fingerprint(result), start=t0)


def run_in_process(w, seconds: float, tracer=None) -> tuple[Tally, Tally]:
    """Untraced and traced tallies of one run, both calibrated.  With a
    tracer, the odd rounds run with it installed, so every position has an
    untraced and a traced latency on the same input;
    otherwise every round is untraced and the traced tally stays empty."""
    plain, under = Tally(), Tally()
    cal = Calibration()

    def start_round(k):
        tracer.uninstall()
        if k % 2:
            tracer.install()

    def execute(x, pos, k):
        if tracer is not None and k % 2:
            attempt(w, x, pos, under, tracer)
        else:
            attempt(w, x, pos, plain)

    try:
        plain.wall = run_rounds(w, seconds, execute, start_round if tracer else None, cal)
    finally:
        if tracer is not None:
            tracer.uninstall()
    plain.cal = under.cal = cal
    return plain, under


# -- cli-batch ------------------------------------------------------------------------


class CliTally(Tally):
    def __init__(self):
        super().__init__()
        self.cpu = 0.0
        self.maxrss_kb = 0
        self.traces: list[dict] = []


def run_cli(w, seconds: float, workdir: Path, paired: bool = False) -> tuple[CliTally, CliTally]:
    """One `ddlab cancel-cert` subprocess per batch of files.  With `paired`,
    the odd rounds run the CLI under the tracer, as `run_in_process` does.

    The pool's workers run on every CPU, each of which has its own speed on
    a shared host, so while a batch runs the reference loop is sampled
    pinned to each CPU in turn, and a batch is scaled by the samples that
    shared their CPU with one of the CLI's processes (`Calibration.shared`).
    The CLI process is started unpinned."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    plain, under = CliTally(), CliTally()
    cal = Calibration()
    cpus = sorted(os.sched_getaffinity(0))
    runs = 0

    def batch(files, pos, k):
        from workloads import CheckFailed

        nonlocal runs
        runs += 1
        traced = paired and k % 2 == 1
        tally = under if traced else plain
        out = workdir / f"report-{runs}.json"
        args = ["cancel-cert", *(str(f.relative_to(ROOT)) for f in files),
                "--jobs", str(JOBS), "--json", "--out", str(out.relative_to(ROOT))]
        if traced:
            dump_dir = workdir / f"trace-{runs}"
            dump_dir.mkdir()
            cmd = [sys.executable, str(HERE / "tracecli.py"), str(dump_dir), *args]
        else:
            cmd = [sys.executable, "-m", "ddlab.cli", *args]
        with open(workdir / "cli-output.txt", "wb") as sink:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sink, stderr=subprocess.STDOUT)
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                cal.tick(cpus)
                time.sleep(POLL_S)
            dt = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        tally.cpu += usage.ru_utime + usage.ru_stime
        tally.maxrss_kb = max(tally.maxrss_kb, usage.ru_maxrss)
        report = out.read_text(encoding="utf-8") if out.exists() else ""
        if traced:
            tally.traces += [json.loads(p.read_text()) for p in sorted(dump_dir.glob("*.json"))]
        try:
            w.check_report(proc.returncode, report, len(files))
        except (CheckFailed, ValueError) as exc:
            output = (workdir / "cli-output.txt").read_text(errors="replace")[-400:]
            tally.record(pos, dt, False, None, f"{exc}; output ends: {output!r}",
                         start=start)
        else:
            tally.record(pos, dt, True, hashlib.sha256(report.encode()).hexdigest()[:16],
                         start=start)

    plain.wall = run_rounds(w, seconds, batch)
    plain.cal = under.cal = cal.shared()
    return plain, under


# -- set-up time ----------------------------------------------------------------------


def measure_setup(args) -> tuple[float, float]:
    """Median time of fresh processes that import ddlab and build the inputs,
    scaled and unscaled.  Each process samples the reference loop after its
    own start-up and again when its inputs are ready (see `main`); the
    loop's time is taken off its wall time, and the rest is scaled by REF_S
    over the mean of its two samples."""
    scaled, unscaled = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", args.workload, "--seed", str(args.seed),
                               "--setup-only"],
                              cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True)
        wall = time.perf_counter() - start
        loops = json.loads(proc.stdout.strip().splitlines()[-1])["loop_s"]
        dt = wall - sum(loops) * REPEATS
        unscaled.append(dt)
        scaled.append(dt * REF_S / statistics.mean(loops))
    return statistics.median(scaled), statistics.median(unscaled)


# -- reporting ------------------------------------------------------------------------


def result_line(correct: bool, tally: Tally, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def summary(tally: Tally) -> dict:
    return {"attempted": tally.attempted, "failed": tally.failed,
            "ops_failed_ratio": tally.failed / tally.attempted,
            "positions": len(tally.fingerprints), "op_tail_ms": tail(tally.latencies())}


def end_to_end(args, w, workdir: Path) -> int:
    setup_s, setup_unscaled_s = measure_setup(args)
    if args.workload == "cli-batch":
        tally, _ = run_cli(w, args.seconds, workdir)
        rss_kb = tally.maxrss_kb
    else:
        tally, _ = run_in_process(w, args.seconds)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "ops_per_s": (tally.ops_per_s, "1/s"),
        "op_p50_ms": (statistics.median(tally.latencies()) * 1e3, "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    info = {**environment(args, w.params), **summary(tally), "wall_s": tally.wall,
            "unscaled": {"ops_per_s": tally.rate(scaled=False),
                         "op_p50_ms": statistics.median(tally.latencies(scaled=False)) * 1e3,
                         "setup_s": setup_unscaled_s},
            "calibration": tally.cal.summary()}
    print("info: " + json.dumps(info))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(result_line(tally.failed == 0, tally, metrics))
    return 0


def isolation_problems(workload: str, snap: dict, busy: float) -> list[str]:
    """Conditions under which a workload still measures the layer it was chosen for."""
    from tracer import stage_times

    calls, incl = snap["calls"], snap["incl"]
    problems = []
    if workload == "derivation-grid":
        n = calls.get("groebner.normal_form", 0) + calls.get("groebner.buchberger", 0)
        if n:
            problems.append(f"derivation-grid made {n:g} Groebner calls (expected 0)")
    elif workload == "ideal-ops":
        share = incl.get("laurent.eval", 0.0) / busy
        if share >= 0.05:
            problems.append(f"ideal-ops spent {share:.1%} of its time in Laurent evaluation (limit 5%)")
    elif workload == "cert-family":
        stages = stage_times(snap)
        top = max(stages, key=stages.get)
        if top != "express_old_generators":
            problems.append(f"cert-family's largest stage is {top}, not express_old_generators")
    return problems


def traced(args, w, workdir: Path) -> int:
    from tracer import Tracer, layer_metrics, merge

    if args.workload == "cli-batch":
        plain, under = run_cli(w, args.seconds, workdir, paired=True)
        snap = merge(under.traces)
    else:
        tracer = Tracer()
        plain, under = run_in_process(w, args.seconds, tracer)
        snap = tracer.snapshot()
    ops = under.attempted
    metrics = layer_metrics(snap, ops)
    if isinstance(plain, CliTally):
        capacity = JOBS * plain.busy
        metrics["cli.worker_cpu_s"] = (plain.cpu / plain.attempted, "s/op")
        metrics["cli.busy_ratio"] = (plain.cpu / capacity, "ratio")
        metrics["cli.idle_s"] = ((capacity - plain.cpu) / plain.attempted, "s/op")
    else:
        for name, unit in (("cli.worker_cpu_s", "s/op"), ("cli.busy_ratio", "ratio"),
                           ("cli.idle_s", "s/op")):
            metrics[name] = (0.0, unit)  # no command-line layer in this workload
    overhead = plain.ops_per_s / under.ops_per_s
    metrics["trace.overhead_ratio"] = (overhead, "ratio")

    compared = len(under.fingerprints)
    mismatched = [i for i in range(compared) if plain.fingerprints[i] != under.fingerprints[i]]
    problems = isolation_problems(args.workload, snap, under.busy)
    info = {**environment(args, w.params), "wall_s": plain.wall,
            "untraced": summary(plain), "traced": summary(under),
            "untraced_ops_per_s": plain.ops_per_s, "traced_ops_per_s": under.ops_per_s,
            "tracing_overhead_ratio": overhead, "calibration": plain.cal.summary(),
            "outputs_compared": compared,
            "outputs_mismatched": mismatched, "layer_isolation": problems or "ok"}
    print("info: " + json.dumps(info))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    if problems:
        for problem in problems:
            print(f"LAYER ISOLATION CHECK FAILED: {problem}", file=sys.stderr)
        return 1
    correct = plain.failed == 0 and under.failed == 0 and not mismatched
    if mismatched:
        print(f"traced outputs differ from untraced ones at operations {mismatched[:10]}",
              file=sys.stderr)
    both = Tally()
    both.attempted = plain.attempted + under.attempted
    both.failed = plain.failed + under.failed
    print(result_line(correct, both, metrics))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ddlab" / "__init__.py").is_file():
        print(f"error: no ddlab sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    loops = [sample_loop()] if args.setup_only else []
    sys.path.insert(0, str(SRC))
    import workloads

    workdir = WORK_BASE / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        w = workloads.make(args.workload, args.seed, workdir)
        if args.setup_only:
            loops.append(sample_loop())
            print(json.dumps({"loop_s": loops}))
            return 0
        if args.trace:
            return traced(args, w, workdir)
        return end_to_end(args, w, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_BASE.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
