"""gbfan benchmark: one workload, one process, one thread, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; gbfan is imported from its `src/`.

The seed draws one pass: a fixed, stratified list of jobs (see
`inputs.py`).  Each job goes from input text to a checked result, and the
next job starts when it ends (one client).  With `--trace 0` the set-up
and the pass repeat until `--seconds` have passed, and the end-to-end
metrics of the first REPEATS repeats are printed.

Times are calibrated.  A shared cloud VM (2 vCPUs) was measured to switch
between a fast state and one about 1.6 times slower, for seconds to
minutes at a time, in process CPU time as much as in wall time, so a raw
time says as much about the neighbours as about gbfan.  A fixed
pure-Python loop (`calibration_s`, standard library only) is therefore
timed after every set-up and every job, and each wall time is scaled by
CAL_REF_S over the mean of the loop's times just before and just after
it: seconds at the speed at which the loop takes CAL_REF_S.  The raw wall
times are printed too.  job_p50_s and job_tail_s are taken over every
measured job sample, jobs_per_s over their sum, and setup_s is the median
of the measured set-ups.

With `--trace 1` the pass runs once untraced and once traced, whatever
`--seconds` says, and the per-layer metrics of the traced pass are
printed; a fixed pass keeps every work counter exactly repeatable.  The
last line of stdout is one JSON object: correct, attempted, failed and
metrics.  failed / attempted is printed as `fail_ratio`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("fan_selfcheck", "buchberger_systems", "point_designs")

# The statistics come from the first REPEATS repeats of the pass, so a
# faster program is compared with its parent on the same statistics; time
# left after them only extends the loop, and every repeat is still
# checked.  A pass takes 4 to 9 s as the VM's speed varies, so five repeats
# fill a 25 s run and stay under 50 s in its slow state.  Each repeat sets
# up SETUPS_PER_REPEAT times in a row.
REPEATS = 5
SETUPS_PER_REPEAT = 2
# calibration_s() takes about this long in the fast state of a 2.1 GHz
# Xeon vCPU; every reported time is scaled to that speed.
CAL_REF_S = 1.5e-3
JOB_BUDGET_S = 60.0
# Warm-up jobs: fixed inputs (not drawn from the run's seed), by index into
# the warm-up seed's pass; cheap strata, about 0.2 s in all.
WARMUP_SEED = 0
WARMUP_JOBS = {
    "fan_selfcheck": tuple(range(12)),
    "buchberger_systems": (2, 3),
    "point_designs": (9, 11, 15),
}


def _import_gbfan():
    if not (SRC / "gbfan" / "__init__.py").is_file():
        sys.exit(f"error: gbfan sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import gbfan

    if Path(gbfan.__file__).resolve().parent != (SRC / "gbfan").resolve():
        sys.exit(f"error: imported gbfan from {gbfan.__file__}, not from {SRC}")


def setup(workload: str, seed: int) -> tuple[float, str]:
    """Draw and serialise the pass, then warm up: the timed set-up."""
    import inputs
    from jobs import NullTracer, run_job

    warm = inputs.pass_text(workload, WARMUP_SEED).splitlines()
    t0 = perf_counter()
    text = inputs.pass_text(workload, seed)
    for i in WARMUP_JOBS[workload]:
        run_job(warm[i], NullTracer(), JOB_BUDGET_S)
    return perf_counter() - t0, text


class _Mod:
    """A residue mod 32003, as a stand-in for a field element class."""

    __slots__ = ("v",)

    def __init__(self, v: int):
        self.v = v % 32003

    def __add__(self, other):
        return _Mod(self.v + other.v)

    def __mul__(self, other):
        return _Mod(self.v * other.v)


def calibration_s() -> float:
    """Wall time of a fixed loop of the kinds of work gbfan does (Fraction
    and small-class arithmetic, tuple-keyed dicts, a sort), which no change
    to gbfan can alter: the machine's speed right now."""
    t0 = perf_counter()
    for _ in range(2):
        acc, g, d = Fraction(0), _Mod(1), {}
        for i in range(1, 120):
            acc += Fraction(i, i + 7) * Fraction(3, i + 1)
            g = g * _Mod(i) + _Mod(7)
            key = (i % 5, i % 7, i % 3)
            d[key] = d.get(key, 0) + i
        sorted(d.items())
    return perf_counter() - t0


class Clock:
    """Scales a wall time to the reference speed, from the calibration
    loop's times just before and just after it."""

    def __init__(self):
        self.last = calibration_s()

    def scale(self, wall: float) -> float:
        now = calibration_s()
        scaled = wall * CAL_REF_S / ((self.last + now) / 2)
        self.last = now
        return scaled


def digest_matches(workload: str, seed: int, text: str) -> bool:
    """A seed recorded in the manifest must still draw the same inputs."""
    import inputs

    recorded = json.loads((HERE / "manifest.json").read_text())["input_digests"]
    want = recorded.get(workload, {}).get(str(seed))
    if want is None or want == inputs.digest(text):
        return True
    print(f"input digest mismatch for {workload} seed {seed}", file=sys.stderr)
    return False


def measure(workload: str, seed: int, seconds: float):
    """Untraced closed loop of set-up and pass, repeated.  Returns the
    end-to-end metrics, job counts, the pass text and the (input line,
    output text) pairs of the first repeat for the reference cross-check."""
    from jobs import NullTracer, run_job

    tracer = NullTracer()
    clock = Clock()
    setups: list[float] = []
    times: list[float] = []
    wall = 0.0
    attempted = failed = repeats = 0
    reference: list[tuple[str, str]] = []
    start = perf_counter()
    while repeats < REPEATS or perf_counter() - start < seconds:
        measured = repeats < REPEATS
        for _ in range(SETUPS_PER_REPEAT):
            elapsed, text = setup(workload, seed)
            scaled = clock.scale(elapsed)
            if measured:
                setups.append(scaled)
        for i, line in enumerate(text.splitlines()):
            t0 = perf_counter()
            out, ok = run_job(line, tracer, JOB_BUDGET_S)
            dt = perf_counter() - t0
            scaled = clock.scale(dt)
            if i == len(reference):
                reference.append((line, out))
            # a deterministic program renders the same text every repeat
            failed += not ok or out != reference[i][1]
            attempted += 1
            if measured:
                times.append(scaled)
                wall += dt
        repeats += 1
    times.sort()
    n = len(times)
    print(f"repeats {repeats}, the first {REPEATS} measured; attempted {attempted}, "
          f"failed {failed}, fail_ratio {failed / attempted}")
    print(f"job_tail_s is p{100 * (n - 10) / n:.1f}: {n} samples, 10 beyond it")
    print(f"measured jobs took {wall:.4f} s of wall time, {sum(times):.4f} s calibrated")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_tail_s": (times[n - 11], "s"),
        "jobs_per_s": (n / sum(times), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    return metrics, attempted, failed, text, reference


def traced(pass0: str):
    """The pass untraced, then traced: per-layer metrics and job counts."""
    import cProfile

    from jobs import NullTracer, run_job
    from tracing import Tracer, layer_metrics

    lines = pass0.splitlines()
    failed = 0
    t0 = perf_counter()
    for line in lines:
        failed += not run_job(line, NullTracer(), JOB_BUDGET_S)[1]
    plain = perf_counter() - t0

    tracer = Tracer()
    profile = cProfile.Profile()
    with tracer.installed():
        t0 = perf_counter()
        profile.enable()
        for line in lines:
            with tracer.span("job", json.loads(line)["stratum"]):
                failed += not run_job(line, tracer, JOB_BUDGET_S)[1]
        profile.disable()
        wall = perf_counter() - t0
    for name, (count, total, own) in sorted(tracer.table().items()):
        print(f"span {name}: {count} calls, {total:.4f} s total, {own:.4f} s self")
    return layer_metrics(tracer, profile, wall / plain), 2 * len(lines), failed


def sympy_agrees(reference) -> bool:
    """Cross-check one basis of each system with sympy, outside the
    timing; a failed job has no basis to compare and is already counted."""
    from jobs import sympy_matches

    agree = True
    seen = set()
    for line, out in reference:
        stratum = json.loads(line)["stratum"]
        if out is None or stratum in seen:
            continue
        seen.add(stratum)
        verdict = sympy_matches(line, out)
        print(f"sympy cross-check {stratum}: {verdict}")
        agree = agree and verdict is not False
    return agree


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_gbfan()
    import inputs

    if args.trace:
        _, pass0 = setup(args.workload, args.seed)
        metrics, attempted, failed = traced(pass0)
    else:
        metrics, attempted, failed, pass0, reference = measure(
            args.workload, args.seed, args.seconds
        )
    print(f"workload {args.workload}, seed {args.seed}, input digest {inputs.digest(pass0)}")
    correct = digest_matches(args.workload, args.seed, pass0)
    if not args.trace and args.workload == "buchberger_systems":
        correct = sympy_agrees(reference) and correct
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # str hashing feeds set and dict layouts inside gbfan; a fixed seed
        # keeps traced call counts identical from run to run.
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    sys.exit(main())
