#!/usr/bin/env python3
"""baresim benchmark: closed-loop solves through the public API, checked
against independent truths, with a separate traced run for per-layer numbers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

With ``--trace 0`` one process solves the workload back to back for S
seconds and reports the end-to-end metrics.  With ``--trace 1`` it solves a
fixed set of seeds untraced and then traced, and reports the per-layer
metrics, the law sweep and the tracing overhead.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The program imports baresim from ``src/`` next to this directory and exits
with code 2 if it is not there.  Scratch files go to ``perfbench/_work/``
and span dumps to ``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
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
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

SETUP_REPEATS = 5         # this process plus fresh ones
WARMUP_INDEX = 2**31      # solve index of the untimed warm-up solve
TAIL_BEYOND = 10          # solves beyond the tail percentile

END_TO_END = {
    "solve_s": "s",
    "solve_s_tail": "s",
    "rmse": "nat",
    "se_undercover": "log10",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# printed beside the end-to-end metrics, not part of the result line
PRINTED = {
    "wall_solve_s": "s",
    "wall_solve_s_tail": "s",
    "wall_setup_s": "s",
    "speed_scale": "ratio",
    "fail_ratio": "ratio",
}
LAYER_UNITS = {
    "laws.tilted_draw_s": "s/solve",
    "laws.untilted_draw_s": "s/solve",
    "laws.calls": "count/solve",
    "laws.block_sums": "count/solve",
    "laws.ns_per_block_sum": "ns",
    "constraints.contains_s": "s/solve",
    "constraints.calls": "count/solve",
    "constraints.points": "count/solve",
    "constraints.ns_per_point": "ns",
    "engine.proxy_s": "s/solve",
    "engine.proxy_draws": "count/solve",
    "engine.proxy_gap": "nat",
    "divergence.calls": "count/solve",
    "divergence.s": "s/solve",
    "engine.batches_s": "s/solve",
    "engine.isf_self_s": "s/solve",
    "engine.ns_per_replication": "ns",
    "engine.hits": "count/solve",
    "engine.hit_rate": "ratio",
    "engine.invert_s": "s/solve",
    "engine.ingest_s": "s/solve",
    "problems.reduce_s": "s/solve",
    "cli.overhead_s": "s/solve",
    "trace.overhead_frac": "ratio",
}


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def import_baresim():
    """Import baresim from this checkout's ``src/``, never from elsewhere."""
    if "baresim" in sys.modules:
        return sys.modules["baresim"]
    src = ROOT / "src"
    if not (src / "baresim" / "__init__.py").is_file():
        fail(f"no baresim sources under {src}")
    sys.path.insert(0, str(src))
    try:
        import baresim
    except ImportError as exc:
        fail(f"cannot import baresim: {exc}")
    if Path(baresim.__file__).resolve().parent != (src / "baresim").resolve():
        fail(f"baresim imported from {baresim.__file__}, not from {src}")
    return baresim


def layer_units() -> dict:
    from lawsweep import BLOCK_SIZES, law_names, metric_name

    units = dict(LAYER_UNITS)
    for law in law_names():
        for nk in BLOCK_SIZES:
            units[metric_name(law, nk)] = "ns"
    return units


def environment(seed: int, **extra) -> dict:
    import numpy
    import scipy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "seed": seed,
        **extra,
    }


class WorkDir:
    """A private scratch directory under perfbench/_work, removed on exit."""

    def __init__(self, name: str):
        self.path = BENCH / "_work" / f"{name}-{os.getpid()}"

    def __enter__(self) -> Path:
        self.path.mkdir(parents=True, exist_ok=True)
        return self.path

    def __exit__(self, *exc):
        shutil.rmtree(self.path, ignore_errors=True)


# -- set-up ---------------------------------------------------------------


def prepare(name: str, seed: int, workdir: Path):
    """Generate the workload's inputs, then build it; returns the workload
    and the build time (set-up without the import)."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    workload.generate(seed, workdir)
    t0 = time.perf_counter()
    workload.build(import_baresim())
    return workload, time.perf_counter() - t0


def setup_sample(name: str, seed: int, import_s: float, workdir: Path):
    """Set-up time of this process (import plus build), the speed scale
    measured right after it, and the built workload."""
    from speed import SpeedTrack

    workload, build_s = prepare(name, seed, workdir)
    track = SpeedTrack(seed)
    for _ in range(5):
        track.sample()
    return import_s + build_s, track.scale(track.times[2]), workload


def measure_setup(name: str, seed: int, repeats: int) -> list:
    """(set-up time, speed scale) of ``repeats`` fresh processes."""
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--setup-probe", "--workload", name,
             "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}")
        samples.append(tuple(json.loads(proc.stdout.strip().splitlines()[-1])["setup"]))
    return samples


# -- solving --------------------------------------------------------------


class Solver:
    """Runs and judges the solves of one workload."""

    def __init__(self, workload, seed: int, truth: float, L: int):
        self.workload, self.seed, self.truth, self.L = workload, seed, truth, L
        self.starts, self.times, self.outcomes, self.failures = [], [], [], {}

    def warm_up(self) -> None:
        """One small untimed solve, so that lazy imports and caches are filled."""
        self.solve(WARMUP_INDEX, self.workload.small_L)

    def solve(self, index: int, L: int | None = None):
        """(start, wall time, outcome or None) of one solve."""
        from workloads import solve_seed

        t0 = time.perf_counter()
        try:
            outcome = self.workload.solve(solve_seed(self.seed, index), L or self.L)
        except Exception:  # a failed solve is counted, the run goes on
            outcome = None
            if not self.failures:
                traceback.print_exc(file=sys.stderr)
        return t0, time.perf_counter() - t0, outcome

    def record(self, start: float, elapsed: float, outcome) -> None:
        from workloads import judge

        self.starts.append(start)
        self.times.append(elapsed)
        self.outcomes.append(outcome)
        reason = judge(outcome, self.truth)
        if reason is not None:
            self.failures[reason] = self.failures.get(reason, 0) + 1

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def scaled_times(self, track) -> list[float]:
        return [t * track.scale(t0, t0 + t) for t0, t in zip(self.starts, self.times)]


def accuracy(outcomes, truth: float):
    """(rmse, median reported stderr) over the solves that returned finite
    numbers.  The median, not the rms, of the stderr: one solve in a few
    dozen reports a stderr several times the usual one, and an rms over a
    run's solves follows those outliers."""
    finite = [o for o in outcomes if o is not None and math.isfinite(o.value)]
    if not finite:
        return None, None
    rmse = math.sqrt(statistics.fmean((o.value - truth) ** 2 for o in finite))
    errs = [o.stderr for o in finite if math.isfinite(o.stderr) and o.stderr > 0]
    return rmse, statistics.median(errs) if errs else None


def tail(times: list[float]):
    """Highest percentile with TAIL_BEYOND solves beyond it, and that
    percentile; never below the median, which it is on runs of fewer than
    about 2 * TAIL_BEYOND solves."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    i = max(n - TAIL_BEYOND - 1, n // 2)
    return ordered[i], 100.0 * (i + 1) / n


def run_untraced(name: str, seed: int, seconds: float, import_s: float, small: bool = False):
    """Closed loop for ``seconds``; returns (solver, metrics, notes)."""
    from speed import LONG_REPEATS, SpeedTrack
    from workloads import tolerance

    with WorkDir(name) as workdir:
        setup_s, setup_scale, workload = setup_sample(name, seed, import_s, workdir)
        setup = [(setup_s, setup_scale)]
        setup += measure_setup(name, seed, 0 if small else SETUP_REPEATS - 1)
        truth = workload.truth()
        solver = Solver(workload, seed, truth, workload.small_L if small else workload.L)
        solver.warm_up()
        track = SpeedTrack(seed)
        track.sample(LONG_REPEATS)
        deadline = time.perf_counter() + seconds
        index = 0
        while index == 0 or time.perf_counter() < deadline:
            start, elapsed, outcome = solver.solve(index)
            solver.record(start, elapsed, outcome)
            track.after_solve(elapsed)
            index += 1
    rmse, typical_se = accuracy(solver.outcomes, truth)
    if rmse is None:
        fail("no solve returned a finite value", 1)
    if typical_se is None:
        fail("no solve reported a finite standard error", 1)
    scaled = solver.scaled_times(track)
    tail_s, tail_pct = tail(scaled)
    n = len(solver.times)
    metrics = {
        "solve_s": statistics.median(scaled),
        "solve_s_tail": tail_s,
        "rmse": rmse,
        "se_undercover": abs(math.log10(rmse / typical_se)),
        "setup_s": statistics.median(t * k for t, k in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wall_solve_s": statistics.median(solver.times),
        "wall_solve_s_tail": tail(solver.times)[0],
        "wall_setup_s": statistics.median(t for t, _ in setup),
        "speed_scale": statistics.median(track.scale(t) for t in track.times),
        "fail_ratio": solver.failed / n,
    }
    notes = {
        "solve_s": f"median of {n} solves, rescaled",
        "solve_s_tail": f"p{tail_pct:.1f} of {n} solves, rescaled",
        "rmse": f"truth {truth:.6f}, tolerance {tolerance(truth):.4f}",
        "se_undercover": f"median reported stderr {typical_se:.3e}",
        "setup_s": f"median of {len(setup)} processes, rescaled",
        "peak_rss_mb": "this process",
        "wall_solve_s": "not rescaled",
        "wall_solve_s_tail": "not rescaled",
        "wall_setup_s": "not rescaled",
        "speed_scale": f"median of {len(track.times)} reference timings; rescaled = wall x scale",
        "fail_ratio": f"{solver.failed} of {n} solves failed {solver.failures or ''}",
    }
    return solver, metrics, notes


def baresim_modules() -> dict:
    import importlib

    return {name: importlib.import_module(f"baresim.{name}")
            for name in ("laws", "constraints", "engine", "problems", "cli")}


def run_traced(name: str, seed: int, small: bool = False, sweep: bool = True,
               spans_file: Path | None = None):
    """The same seeds untraced, then traced; returns (solver, per-layer
    metrics, exact counts)."""
    from lawsweep import run_sweep
    from speed import LONG_REPEATS, SpeedTrack
    from tracing import Tracer, exact_counts, layer_metrics

    tracer = Tracer()
    track = SpeedTrack(seed)
    with WorkDir(name) as workdir:
        workload, _ = prepare(name, seed, workdir)
        truth = workload.truth()
        solver = Solver(workload, seed, truth, workload.small_L if small else workload.L)
        solves = 1 if small else workload.traced_solves
        solver.warm_up()
        track.sample(LONG_REPEATS)
        for index in range(solves):
            start, elapsed, outcome = solver.solve(index)
            solver.record(start, elapsed, outcome)
            track.after_solve(elapsed)
        tracer.install(baresim_modules())
        try:
            for index in range(solves):
                tracer.solve_id = index
                start, elapsed, outcome = solver.solve(index)
                solver.record(start, elapsed, outcome)
                track.after_solve(elapsed)
        finally:
            tracer.uninstall()
    scaled = solver.scaled_times(track)
    untraced, traced = sum(scaled[:solves]), sum(scaled[solves:])
    metrics = layer_metrics(tracer.spans, solves)
    proxies = [s.result for s in tracer.spans if s.name == "engine.proxy_q_star"]
    gaps = [workload.proxy_divergence(p) - workload.truth_divergence() for p in proxies]
    metrics["engine.proxy_gap"] = statistics.fmean(gaps) if gaps else math.nan
    metrics["trace.overhead_frac"] = (traced - untraced) / untraced
    if sweep:
        metrics.update(run_sweep(seed, small))
    if spans_file is not None:
        spans_file.parent.mkdir(parents=True, exist_ok=True)
        with spans_file.open("w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")
    return solver, metrics, exact_counts(tracer.spans)


# -- output ---------------------------------------------------------------


def result_line(solver: Solver, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": solver.failed == 0,
        "attempted": len(solver.times),
        "failed": solver.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    })


def main_run(args, import_s: float) -> int:
    if args.trace:
        spans_file = BENCH / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        solver, metrics, counts = run_traced(args.workload, args.seed, spans_file=spans_file)
        units = layer_units()
        env = environment(args.seed, solves=len(solver.times),
                          traced_solves=len(solver.times) // 2)
        print(f"workload {args.workload} traced; spans in {spans_file.relative_to(ROOT)}")
        print(f"env {json.dumps(env)}")
        print(f"counts {json.dumps(counts)}")
        for key, unit in units.items():
            print(f"  {key:<46} {metrics[key]:>14.6g} {unit}")
        print(f"  {len(solver.times)} solves, {solver.failed} failed {solver.failures or ''}")
    else:
        solver, metrics, notes = run_untraced(args.workload, args.seed, args.seconds, import_s)
        units = END_TO_END
        print(f"workload {args.workload}")
        print(f"env {json.dumps(environment(args.seed, solves=len(solver.times)))}")
        for key, unit in (END_TO_END | PRINTED).items():
            print(f"  {key:<17} {metrics[key]:>12.6g} {unit:<6} {notes[key]}")
    print(result_line(solver, metrics, units))
    return 0


def main_all(args) -> int:
    """Every workload in its own process, then one summary."""
    from workloads import WORKLOADS

    rows, status = [], 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = 1
            continue
        rows.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    print("\nsummary")
    for name, result in rows:
        cells = ", ".join(f"{k}={v['value']:.4g} {v['unit']}"
                          for k, v in result["metrics"].items() if k.count(".") < 2)
        print(f"  {name}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']}; {cells}")
    return status


# -- self-check -----------------------------------------------------------


def check(condition: bool, message: str) -> None:
    if not condition:
        fail(f"self-check failed: {message}", 1)


ESTIMATORS = ("estimate_min_divergence", "estimate_entropy_extremum", "is_estimate")


def raising_solve(name: str, truth: float) -> Solver:
    """A workload solved once, then once more with every estimator entry
    point raising RuntimeError, in the same scratch directory."""

    def broken(*args, **kwargs):
        raise RuntimeError("estimator made to fail by the self-check")

    with WorkDir(name) as workdir:
        workload, _ = prepare(name, 1, workdir)
        solver = Solver(workload, 1, truth, workload.small_L)
        solver.record(*solver.solve(0))
        patches = [(mod, attr, mod.__dict__[attr])
                   for mod_name, mod in list(sys.modules.items())
                   if mod_name.split(".")[0] == "baresim"
                   for attr in ESTIMATORS if attr in mod.__dict__]
        for mod, attr, _ in patches:
            setattr(mod, attr, broken)
        try:
            solver.record(*solver.solve(1))
        finally:
            for mod, attr, original in patches:
                setattr(mod, attr, original)
    return solver


def self_check(import_s: float) -> int:
    """One small solve per workload through both modes; checks that every
    metric is emitted with its unit, that traced counts repeat exactly, that
    the truth check flags a wrong truth, and that a solve whose estimator
    raises is counted as failed."""
    from workloads import WORKLOADS, judge, tolerance

    layer = layer_units()
    spec_file = ROOT / "BENCHMARK.json"
    if spec_file.is_file():
        spec = json.loads(spec_file.read_text())
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        check(declared == END_TO_END, f"BENCHMARK.json end_to_end {declared}")
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        check(declared == layer, "BENCHMARK.json per_layer differs from the emitted set")
        check({w["name"] for w in spec["workloads"]} <= set(WORKLOADS),
              "BENCHMARK.json names an unknown workload")
    for name in WORKLOADS:
        solver, metrics, _ = run_untraced(name, 1, 0.0, import_s, small=True)
        out = json.loads(result_line(solver, metrics, END_TO_END))
        check(all(out["metrics"][k]["unit"] == u for k, u in END_TO_END.items()),
              f"{name}: end-to-end names or units")
        check(all(math.isfinite(m["value"]) for m in out["metrics"].values()),
              f"{name}: non-finite end-to-end metric")
        check(set(PRINTED) <= set(metrics), f"{name}: printed metrics")
        solved = next(o for o in solver.outcomes if o is not None)
        wrong = solver.truth + 10.0 * tolerance(solver.truth)
        check(judge(solved, wrong) == "truth check", f"{name}: wrong truth not flagged")
        raised = raising_solve(name, solver.truth)
        check(raised.outcomes[1] is None and raised.failures.get("raised") == 1,
              f"{name}: a raising estimator was not counted as failed")
        first = run_traced(name, 1, small=True)
        second = run_traced(name, 1, small=True, sweep=False)
        out = json.loads(result_line(first[0], first[1], layer))
        check(all(out["metrics"][k]["unit"] == u for k, u in layer.items()),
              f"{name}: per-layer names or units")
        check(first[2] == second[2], f"{name}: traced counts differ: {first[2]} {second[2]}")
        print(f"self-check {name}: ok (counts {first[2]})")
    print("self-check passed")
    return 0


def main(argv=None) -> int:
    sys.path.insert(0, str(BENCH))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="one small solve per workload; checks names, units and counts")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    t0 = time.perf_counter()
    import_baresim()
    import_s = time.perf_counter() - t0
    from workloads import WORKLOADS

    if args.self_check:
        return self_check(import_s)
    if args.workload not in (*WORKLOADS, "all"):
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    if args.setup_probe:
        with WorkDir(f"probe-{args.workload}") as workdir:
            setup = setup_sample(args.workload, args.seed, import_s, workdir)[:2]
        print(json.dumps({"setup": setup}))
        return 0
    if args.workload == "all":
        return main_all(args)
    return main_run(args, import_s)


if __name__ == "__main__":
    sys.exit(main())
