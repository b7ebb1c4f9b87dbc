"""convexiq benchmark: one workload per process, or every workload.

Run one workload (the last stdout line is a JSON result):

    python3 perfbench/run.py --workload proven-corpus --seed 1 --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics of an untraced run, with
times in reference seconds: wall time rescaled to a fixed host speed
(see ``HostClock``).
``--trace 1`` reports per-layer metrics: a child process runs a fixed
number of rounds untraced, then this process runs the same rounds with
every public library function wrapped (see ``tracer.py``), checks that
both produced identical artifact digests, and writes the spans as JSON
lines under ``.bench_out/``.

Run every workload, traced and untraced, plus a correctness check on a
held-out seed; exits non-zero if any check fails:

    python3 perfbench/run.py --all --seed 1 --seconds 15

The program is imported from ``src/`` next to this directory; nothing is
installed.  BLAS pools are pinned to one thread and ``CONVEXIQ_THREADS``
is unset (serial search), identically on every commit.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SETUP_REPEATS = 3
IMPORT_REPEATS = 2      # fresh interpreters timing ``import convexiq``
WORKLOAD_NAMES = ("proven-corpus", "search-exact", "search-quadrature",
                  "width-symmetral")
HELD_OUT_SEED = 8_675_309      # never used while tuning; checked by --all
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"

# name -> unit, in print order
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
              "op_tail_ms": "ms", "failed_ratio": "ratio", "peak_rss_mb": "MB"}


class HostClock:
    """Host speed, sampled by timing two fixed reference kernels.

    The benchmark's host is a share of a machine whose processor speed
    swings by a quarter or more within a second (CPU time swings with
    wall time).  So the timed phase is cut into stretches of about
    CAL_EVERY_S, the kernels are timed between them, and each stretch's
    times are scaled to *reference seconds*: seconds at the speed at
    which its kernel takes CAL_REF_S (see ``scale``).

    Work of different kinds follows the swings differently, so there are
    two kernels.  ``interp`` (interpreted Python, small qhull hulls and
    small numpy products) follows most ops; ``stream`` (summing a 16 MB
    array) follows ops whose time goes to large arrays: the workloads
    name those in ``STREAM_OPS``.  Neither calls the program, so no
    change to the program can move them.
    """

    CAL_REF_S = 0.002
    CAL_EVERY_S = 0.05
    # A stretch this long is weighted half on the kernel times at its ends
    # and half on the run's median kernel time; see ``scale``.
    BLEND_S = 1.0

    def __init__(self, stream: bool = False):
        """``stream``: also sample the ``stream`` kernel, whose 16 MB array
        then counts in the process's peak memory."""
        import numpy as np
        from scipy.spatial import ConvexHull
        rng = np.random.default_rng(np.random.SeedSequence(20261017))
        self._np, self._hull = np, ConvexHull
        self._p3 = rng.standard_normal((60, 3))
        self._p4 = rng.standard_normal((40, 4))
        self._big = rng.standard_normal(2_000_000) if stream else None
        self.samples: dict[str, list[float]] = {"interp": []}
        if stream:
            self.samples["stream"] = []
        for _ in range(3):          # warm the kernels' own code paths
            self.sample()
        for times in self.samples.values():
            times.clear()

    def sample(self) -> int:
        """Time each kernel once; returns the sample's index.  ``stream``
        runs first, so the op after a sample finds the caches as it would
        after ``interp`` alone."""
        np = self._np
        if self._big is not None:
            t0 = time.perf_counter()
            self._big.sum()
            self.samples["stream"].append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        acc = 0
        table = {}
        for i in range(1500):
            acc += i * i % 7
            table[i % 64] = acc
        for _ in range(4):
            self._hull(self._p3)
            self._hull(self._p4)
            np.linalg.norm(self._p3 @ self._p3.T, axis=1).sum()
        self.samples["interp"].append(time.perf_counter() - t0)
        return len(self.samples["interp"]) - 1

    def scale(self, seconds: float, before: int, after: int,
              kernel: str = "interp") -> float:
        """Factor from wall to reference seconds for a stretch of
        ``seconds`` between samples ``before`` and ``after``.

        The ends tell the speed of a short stretch; a long one spans many
        swings, so its speed is nearer the run's median, which is known
        only once the run is over.
        """
        times = self.samples[kernel]
        w = seconds / (seconds + self.BLEND_S)
        k = ((1.0 - w) * 0.5 * (times[before] + times[after])
             + w * statistics.median(times))
        return self.CAL_REF_S / k


class Runner:
    """Executes ops: times each call, counts failures, checks outputs.

    With a ``clock`` the timed phase (between ``start`` and ``stop``) is
    cut into stretches with a kernel sample between each two, and
    ``finish`` returns it in reference seconds (see HostClock).  An op
    whose kind is in ``stream_ops`` is a stretch of its own, scaled by
    the ``stream`` kernel.
    """

    def __init__(self, tracer=None, clock=None, stream_ops=()):
        self.tracer = tracer
        self.clock = clock
        self.stream_ops = frozenset(stream_ops)
        self.raw_latencies: list[float] = []
        self.raw_wall = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: dict = {}
        self._stretch: list[float] = []
        self._stretches: list[tuple] = []   # (wall, latencies, before, after, kernel)
        self._t0 = None
        self._before = None

    def start(self) -> None:
        """Open the timed phase."""
        if self.clock is not None:
            self._before = self.clock.sample()
        self._t0 = time.perf_counter()

    def stop(self) -> None:
        """Close the timed phase."""
        self._close_stretch()
        self._t0 = None

    def _close_stretch(self, kernel: str = "interp") -> None:
        wall = time.perf_counter() - self._t0
        after = self.clock.sample() if self.clock is not None else None
        self._stretches.append((wall, self._stretch, self._before, after, kernel))
        self.raw_wall += wall
        self.raw_latencies += self._stretch
        self._before = after
        self._stretch = []
        self._t0 = time.perf_counter()

    def finish(self) -> tuple[float, list[float]]:
        """The timed phase's time and op latencies in reference seconds
        (needs a clock, and all kernel samples taken)."""
        wall, latencies = 0.0, []
        for seconds, lat, before, after, kernel in self._stretches:
            k = self.clock.scale(seconds, before, after, kernel)
            wall += seconds * k
            latencies += [x * k for x in lat]
        return wall, latencies

    def op(self, kind, check, fn, *args, **kwargs):
        """Run one op; returns its result, or None if it raised.

        ``check(result)`` returns None when the output is right and a
        message otherwise.
        """
        stream = (self.clock is not None and self._t0 is not None
                  and kind in self.stream_ops)
        if stream:
            self._close_stretch()
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                result = fn(*args, **kwargs)
            else:
                self.tracer.op_id = self.attempted - 1
                result = self.tracer.span(f"bench.op.{kind}", fn, *args, **kwargs)
        except Exception as exc:        # an op that raises is a failed op
            self._record(time.perf_counter() - t0, stream)
            self.fail(kind, f"raised {type(exc).__name__}: {exc}")
            return None
        self._record(time.perf_counter() - t0, stream)
        if check is not None:
            message = check(result)
            if message is not None:
                self.fail(kind, message)
        return result

    def _record(self, latency: float, stream: bool) -> None:
        self._stretch.append(latency)
        if stream:
            self._close_stretch("stream")
        elif (self.clock is not None and self._t0 is not None
                and time.perf_counter() - self._t0 >= self.clock.CAL_EVERY_S):
            self._close_stretch()

    def fail(self, kind: str, message: str) -> None:
        """Count a failed op (it raised or its output check failed)."""
        self.failed += 1
        self.problem(f"{kind}: {message}")

    def note_max(self, name: str, value: float) -> None:
        """Keep the largest value of a printed diagnostic."""
        self.notes[name] = max(self.notes.get(name, value), value)

    def problem(self, message: str) -> None:
        """Record a failed output check."""
        if len(self.problems) < 20:
            self.problems.append(message)


def pin_threads() -> dict:
    """Pin BLAS pools to one thread and unset CONVEXIQ_THREADS (serial
    search); must run before numpy is imported.  Returns what was found."""
    found = {k: os.environ.get(k) for k in (*PINNED_ENV, "CONVEXIQ_THREADS")}
    os.environ.update(PINNED_ENV)
    os.environ.pop("CONVEXIQ_THREADS", None)
    return found


def environment(found: dict) -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ[k] for k in PINNED_ENV},
        "CONVEXIQ_THREADS": "unset (serial)",
        "found_in_environment": found,
    }


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten samples beyond
    it, and that percentile."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def planned_rounds(cls, seconds: float) -> int:
    """Rounds in a run of ``seconds``: fixed per workload, so that every
    commit does the same work and its statistics cover the same samples."""
    return max(1, round(seconds / cls.round_s))


def run_rounds(work, runner, rounds: int) -> list:
    """Run ``rounds`` whole rounds as the timed phase.  Returns the
    per-round digests; the runner holds the times."""
    digests = []
    seen: dict = {}
    runner.start()
    for r in range(rounds):
        d = work.run_round(r, runner)
        key = r % work.rounds
        if key in seen and seen[key] != d:
            runner.problem(f"round {key} artifacts changed on rerun")
        seen.setdefault(key, d)
        digests.append(d)
    runner.stop()
    return digests


def plant_failure(runner) -> None:
    from convexiq import bodies, inequalities
    runner.op("planted", None, inequalities.evaluate, "no-such-inequality",
              bodies.cube(3))


def run_one(args) -> int:
    t0 = time.perf_counter()
    try:
        import convexiq
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    if Path(convexiq.__file__).resolve().parent != ROOT / "src" / "convexiq":
        print(f"convexiq imported from {convexiq.__file__}, not from this "
              f"checkout", file=sys.stderr)
        return 2

    cls = WORKLOADS[args.workload]
    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    try:
        return _measure(args, cls, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _setup(args, cls, workdir, repeats, clock=None):
    """Set the workload up ``repeats`` times; returns the last set-up and,
    for each, (seconds, kernel sample before, kernel sample after)."""
    times, work = [], None
    before = clock.sample() if clock else None
    for i in range(repeats):
        t0 = time.perf_counter()
        work = cls(args.seed, workdir / f"setup-{i}", tiny=args.tiny)
        work.setup()
        work.warmup()
        dt = time.perf_counter() - t0
        after = clock.sample() if clock else None
        times.append((dt, before, after))
        before = after
    return work, times


def _import_times(clock, repeats) -> list[tuple]:
    """Time ``import convexiq`` in ``repeats`` fresh interpreters; returns
    (seconds, kernel sample before, kernel sample after) for each."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t0 = time.perf_counter(); import convexiq; "
            "print(time.perf_counter() - t0)")
    times = []
    before = clock.sample()
    for _ in range(repeats):
        child = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                               stdout=subprocess.PIPE, text=True, check=True,
                               timeout=60)
        after = clock.sample()
        times.append((float(child.stdout), before, after))
        before = after
    return times


def _measure(args, cls, workdir, import_s) -> int:
    env = environment(args.found_env)
    if args.trace:
        return _traced(args, cls, workdir, env)
    clock = HostClock(stream=bool(cls.STREAM_OPS))
    cal = clock.sample()
    imports = [(import_s, cal, cal)] + _import_times(clock, IMPORT_REPEATS)
    work, setups = _setup(args, cls, workdir, SETUP_REPEATS, clock)
    runner = Runner(clock=clock, stream_ops=cls.STREAM_OPS)
    if args.plant_failure:
        plant_failure(runner)
    ops_before = runner.attempted
    digests = run_rounds(work, runner, planned_rounds(cls, args.seconds))
    ref_wall, lat = runner.finish()
    import_ref_s = statistics.median(dt * clock.scale(dt, b, a) for dt, b, a in imports)
    setup_times = [dt * clock.scale(dt, b, a) for dt, b, a in setups]
    tail_s, tail_pct = tail(lat)
    metrics = {
        "setup_s": import_ref_s + statistics.median(setup_times),
        "ops_per_s": (runner.attempted - ops_before) / ref_wall,
        "op_p50_ms": 1000.0 * statistics.median(lat),
        "op_tail_ms": 1000.0 * tail_s,
        "failed_ratio": runner.failed / runner.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw_tail_s, _ = tail(runner.raw_latencies)
    raw = {
        "import_s": [dt for dt, _, _ in imports],
        "ops_per_s": (runner.attempted - ops_before) / runner.raw_wall,
        "op_p50_ms": 1000.0 * statistics.median(runner.raw_latencies),
        "op_tail_ms": 1000.0 * raw_tail_s,
    }
    kernels = {k: {"samples": len(v), "min": 1000 * min(v),
                   "median": 1000 * statistics.median(v), "max": 1000 * max(v)}
               for k, v in clock.samples.items()}
    correct = runner.failed == 0 and not runner.problems
    info = {
        "workload": args.workload, "seed": args.seed, "rounds": len(digests),
        "wall_s": runner.raw_wall, "ref_wall_s": ref_wall,
        "setup_runs_ref_s": setup_times, "wall_clock": raw,
        "kernel_ms": kernels,
        "samples": len(lat), "tail_percentile": tail_pct,
        "digests": digests, "problems": runner.problems, "environment": env,
        "notes": runner.notes,
    }
    for name, unit in END_TO_END.items():
        print(f"{args.workload} {name} = {metrics[name]!r} {unit}")
    print(f"{args.workload} op_tail_ms is p{tail_pct:.2f} of {len(lat)} ops")
    for name, k in kernels.items():
        print(f"{args.workload} kernel {name} took {k['median']:.3f} ms (median "
              f"of {k['samples']}) against {1000 * clock.CAL_REF_S:.3f} ms")
    for name, value in raw.items():
        print(f"{args.workload} wall-clock {name} = {value!r}")
    for name, value in sorted(runner.notes.items()):
        print(f"{args.workload} note {name} = {value!r}")
    print("info " + json.dumps(info, sort_keys=True))
    declared = {m["name"]: m["unit"] for m in _declared()["end_to_end"]}
    print(json.dumps({
        "correct": correct, "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in declared.items()},
    }))
    return 0


def _traced(args, cls, workdir, env) -> int:
    from tracer import Tracer, unit_of

    seconds = args.seconds / 2
    rounds = planned_rounds(cls, seconds)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", "0"]
    if args.tiny:
        cmd.append("--tiny")
    child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    if child.returncode != 0:
        print(f"untraced reference pass exited {child.returncode}", file=sys.stderr)
        return 1
    untraced = next(json.loads(line[len("info "):])
                    for line in child.stdout.splitlines() if line.startswith("info "))

    work, _ = _setup(args, cls, workdir, 1)
    clock = HostClock(stream=bool(cls.STREAM_OPS))
    tracer = Tracer()
    tracer.install()
    runner = Runner(tracer, clock=clock, stream_ops=cls.STREAM_OPS)
    try:
        digests = run_rounds(work, runner, rounds)
    finally:
        tracer.uninstall()
    layers = tracer.layer_table(runner.attempted)
    wall, _ = runner.finish()
    layers["trace.overhead_ratio"] = wall / untraced["ref_wall_s"]
    layers["trace.bindings_wrapped"] = tracer.bindings
    same = digests == untraced["digests"]
    if not same:
        runner.problem("traced and untraced artifact digests differ")

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"trace-{args.workload}-seed{args.seed}"
    tracer.write_jsonl(stem.with_suffix(".jsonl"))
    stem.with_suffix(".layers.json").write_text(
        json.dumps(layers, indent=1, sort_keys=True), encoding="utf-8")
    for name in sorted(layers):
        print(f"{args.workload} {name} = {layers[name]!r} {unit_of(name)}")
    print("info " + json.dumps({
        "workload": args.workload, "seed": args.seed, "rounds": rounds,
        "traced_wall_s": runner.raw_wall, "untraced_wall_s": untraced["wall_s"],
        "traced_ref_wall_s": wall, "untraced_ref_wall_s": untraced["ref_wall_s"],
        "digests_match": same, "spans": len(tracer.spans),
        "problems": runner.problems, "environment": env}, sort_keys=True))
    declared = _declared()["per_layer"]
    print(json.dumps({
        "correct": runner.failed == 0 and not runner.problems,
        "attempted": runner.attempted, "failed": runner.failed,
        "metrics": {m["name"]: {"value": float(layers.get(m["name"], 0.0)),
                                "unit": unit_of(m["name"])} for m in declared},
    }))
    return 0


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_all(args) -> int:
    """Every workload untraced and traced, then the held-out seed check."""
    from workloads import WORKLOADS

    ok = True

    def child(name, seed, trace):
        nonlocal ok
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", str(trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name} seed {seed} trace {trace}: exited {proc.returncode}\n"
                  f"{proc.stderr}", file=sys.stderr)
            ok = False
            return None
        for line in lines[:-1]:
            if not line.startswith("info "):
                print(line)
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            print(f"{name} seed {seed} trace {trace}: output check failed "
                  f"({result['failed']} of {result['attempted']} ops)", file=sys.stderr)
            ok = False
        return result

    for name in WORKLOADS:
        child(name, args.seed, 0)
        child(name, args.seed, 1)
    for name in WORKLOADS:
        if child(name, HELD_OUT_SEED, 0) is not None:
            print(f"{name} held-out seed {HELD_OUT_SEED}: checked")
    print("all checks passed" if ok else "CHECKS FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    src = ROOT / "src"
    if not (src / "convexiq" / "__init__.py").is_file():
        print(f"no program source at {src}", file=sys.stderr)
        return 2
    found_env = pin_threads()
    sys.path[:0] = [str(src), str(BENCH)]

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--all", action="store_true", help="run every workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrink every round (smoke test)")
    p.add_argument("--plant-failure", action="store_true",
                   help="add one op that fails (smoke test)")
    args = p.parse_args(argv)
    args.found_env = found_env
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.all:
        return run_all(args)
    if args.workload is None:
        p.error("give --workload or --all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
