"""mirrormatch benchmark: three workloads, end-to-end metrics and a per-layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--scale full|smoke]

Run it from the root of a checkout; it imports the package from ``src/``
and writes only under ``.perfbench_work/``. Each workload is a closed loop
with one client: a pass is a fixed list of steps (``mirrormatch`` commands
with the argv a user would type, or the analytic job), each in its own
process, and the next pass starts when the previous one ends.

``--trace 0`` runs set-up several times, a warm-up pass whose outputs are
the byte reference, then measured passes for ``--seconds`` and reports the
end-to-end metrics. ``--trace 1`` runs rounds of a pass at the workload's
worker count, a 1-worker pass and a traced 1-worker pass, and reports the
per-layer metrics. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
RUNNER = HERE / "runner.py"
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from spans import LAYERS  # noqa: E402

SETUP_REPEATS = 7
MIN_PASSES = 3
# one BLAS/OpenMP thread per process, so a 2-worker pass is 2 busy processes
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "ops_per_s": "1/s",
    "time_to_se_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "sampler.calls": "count",
    "sampler.coords": "count",
    "sampler.self_s": "s",
    "sampler.ns_per_coord": "ns",
    "sampler.bytes_computed": "bytes",
    "streams.keys": "count",
    "streams.keys_per_rep": "keys/rep",
    "streams.self_s": "s",
    "streams.us_per_key": "us",
    "simulate.calls": "count",
    "simulate.reps": "count",
    "simulate.self_s": "s",
    "simulate.self_us_per_rep": "us",
    "simulate.pool_starts": "count",
    "simulate.parallel_speedup": "x",
    "specfun.bessel_calls": "count",
    "specfun.gamma_calls": "count",
    "specfun.self_s": "s",
    "specfun.us_per_bessel": "us",
    "density.calls": "count",
    "density.self_s": "s",
    "density.ms_per_cond_mean": "ms",
    "quadrature.calls": "count",
    "quadrature.integrand_evals": "count",
    "quadrature.evals_per_call": "evals/call",
    "quadrature.self_s": "s",
    "quadrature.errors": "count",
    "analytic.calls": "count",
    "analytic.self_s": "s",
    "analytic.ms_per_d_ai_infinity": "ms",
    "analytic.numeric_errors": "count",
    "cli.calls": "count",
    "cli.self_s": "s",
    "cli.csv_bytes": "bytes",
    "trace.overhead_s": "s",
    "trace.wall_s": "s",
    "trace.unspanned_s": "s",
}


class StepRun(NamedTuple):
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int


class Pass(NamedTuple):
    wall_s: float
    cpu_s: float
    rss_mb: float
    ops: int
    se: list  # standard errors of the pass's Monte Carlo cells
    outputs: list  # bytes of each step's result file, None when the step failed
    step_ops: list
    reports: list  # each step's report, traced or counting passes only
    csv_bytes: int


def launch(args: list[str], env: dict, log: Path) -> StepRun:
    """Run one process to completion; its rusage covers the pool children it reaped."""
    start = time.perf_counter()
    with open(log, "wb") as out:
        proc = subprocess.Popen(args, stdout=out, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux
    return StepRun(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)


class Bench:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, scale: str) -> None:
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.steps = wl.steps(workload, scale)
        self.work = WORK / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.base_env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
        self.setup_data: dict = {}
        self.reference: Pass | None = None
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def setup(self) -> list[float]:
        """Run set-up in fresh processes; every repeat must produce the same bytes."""
        walls = []
        outputs = set()
        for i in range(SETUP_REPEATS):
            out = self.work / f"setup-{i}.json"
            args = [sys.executable, str(RUNNER), "plain", str(out), "setup", self.workload, str(self.seed), self.scale]
            run = launch(args, self.base_env, self.work / f"setup-{i}.log")
            if run.code != 0:
                raise SystemExit(f"set-up failed (exit {run.code}); see {self.work / f'setup-{i}.log'}")
            walls.append(run.wall_s)
            outputs.add(out.read_bytes())
        if len(outputs) != 1:
            self.problems.append("set-up output differs between repeats")
        self.setup_data = json.loads(outputs.pop())
        if self.setup_data["posterior_inputs"] is not None:
            (self.work / "posterior-inputs.json").write_text(json.dumps(self.setup_data["posterior_inputs"]))
        return walls

    def run_pass(self, mode: str, workers: int) -> Pass:
        """One pass of every step; checks its outputs and, after the first, their bytes."""
        tag = f"pass-{self.count}-{mode}-w{workers}"
        self.count += 1
        out_dir = self.work / tag
        out_dir.mkdir()
        env = dict(self.base_env, MIRRORMATCH_WORKERS=str(workers))
        refs = self.setup_data["refs"]
        wall = cpu = rss = 0.0
        ops = failed = csv_bytes = 0
        se: list[float] = []
        outputs: list = []
        step_ops: list[int] = []
        reports: list[dict] = []
        problems: list[str] = []
        for i, step in enumerate(self.steps):
            report = out_dir / f"{i}-{step.command}.report.json"
            args = [sys.executable, str(RUNNER), mode, str(report) if mode != "plain" else "-"]
            if step.command == "posterior":
                result = out_dir / "posterior.json"
                args += ["posterior", str(self.work / "posterior-inputs.json"), str(result)]
            else:
                args += ["cli", *step.argv, "--seed", str(self.seed), "--out", str(out_dir)]
            run = launch(args, env, out_dir / f"{i}-{step.command}.log")
            data = None
            if run.code == 0:
                if step.command == "posterior":
                    data = result.read_bytes()
                    verdict = wl.check_posterior(json.loads(data), refs["posterior"])
                else:
                    (csv_path,) = out_dir.glob(f"*/{step.command}.csv")
                    data = csv_path.read_bytes()
                    csv_bytes += len(data)
                    verdict = wl.check(step.command, wl.read_csv(data.decode()), refs[step.command])
                step_ops.append(verdict.ops)
                step_failed = verdict.failed
                se += verdict.se
                problems += verdict.problems
                if self.reference is not None and data != self.reference.outputs[i]:
                    step_failed = verdict.ops
                    problems.append(f"{step.command} output bytes differ from the first pass")
            else:
                # a step that exits non-zero fails every operation it owed
                step_ops.append(self.reference.step_ops[i] if self.reference else 1)
                step_failed = step_ops[-1]
                problems.append(f"{step.command} exited {run.code}; see {out_dir.name}/{i}-{step.command}.log")
            failed += step_failed
            ops += step_ops[-1]
            outputs.append(data)
            step_wall = run.wall_s
            if mode != "plain" and report.exists():
                reports.append(json.loads(report.read_text()))
                step_wall -= reports[-1]["report_s"]
            wall += step_wall
            cpu += run.cpu_s
            rss = max(rss, run.rss_mb)
        done = Pass(wall, cpu, rss, ops, se, outputs, step_ops, reports, csv_bytes)
        self.attempted += ops
        self.failed += failed
        self.problems += [f"{tag}: {p}" for p in problems]
        return done

    def negative_control(self) -> bool:
        """The checks must flag a result shifted by ten times its tolerance."""
        output = self.reference.outputs[0]
        refs = self.setup_data["refs"]
        first = self.steps[0].command
        if output is None:
            return False
        if first == "posterior":
            return wl.negative_control_posterior(json.loads(output), refs["posterior"])
        return wl.negative_control(first, wl.read_csv(output.decode()), refs[first])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def se_factor(p: Pass) -> float:
    """Mean over the pass's Monte Carlo cells of (se / 0.001)^2.

    Times wall_s it is the time, at the current speed, to reach a 0.001
    standard error. A pass without Monte Carlo cells is exact to quadrature
    tolerance in one pass, so its factor is 1.
    """
    if not p.se:
        return 1.0
    return statistics.fmean((s / wl.SE_TARGET) ** 2 for s in p.se)


def end_to_end(bench: Bench, setup_walls: list[float], passes: list[Pass]) -> tuple[dict, list[str]]:
    walls = [p.wall_s for p in passes]
    factor = se_factor(bench.reference)
    wall = statistics.median(walls)
    metrics = {
        "setup_s": statistics.median(setup_walls),
        "wall_s": wall,
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "ops_per_s": statistics.median(p.ops / p.wall_s for p in passes),
        "time_to_se_s": wall * factor,
        "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
    }
    q1, _, q3 = quartiles(walls)
    s1, _, s3 = quartiles(setup_walls)
    lines = [
        f"setup_s       {metrics['setup_s']:.4f} s    median of {len(setup_walls)} cold set-ups, q1 {s1:.4f} q3 {s3:.4f}",
        f"wall_s        {wall:.4f} s    median of {len(walls)} passes after a warm-up, q1 {q1:.4f} q3 {q3:.4f}",
        "               passes: " + " ".join(f"{w:.3f}" for w in walls),
        f"cpu_s         {metrics['cpu_s']:.4f} s    user+system per pass, pool children included",
        f"ops_per_s     {metrics['ops_per_s']:.1f} 1/s  {passes[0].ops} operations per pass",
        f"time_to_se_s  {metrics['time_to_se_s']:.4f} s    wall_s x {factor:.4f} (mean (se/0.001)^2 over "
        f"{len(bench.reference.se)} MC cells), q1 {q1 * factor:.4f} q3 {q3 * factor:.4f} over passes",
        f"peak_rss_mb   {metrics['peak_rss_mb']:.1f} MB   largest of step process and its children, median over passes",
    ]
    return metrics, lines


def per_layer(default: list[Pass], single: list[Pass], traced: list[Pass]) -> tuple[dict, list[str]]:
    """Per-layer metrics of the median traced pass, summed over its steps."""

    def pass_values(p: Pass) -> dict:
        layers = {name: {"self_s": 0.0, "calls": 0} for name in LAYERS}
        functions: dict = {}
        counts: dict = {}
        wall = unspanned = 0.0
        for report in p.reports:
            wall += report["wall_s"]
            unspanned += report["unspanned_s"]
            for name, layer in report["layers"].items():
                layers[name]["self_s"] += layer["self_s"]
                layers[name]["calls"] += layer["calls"]
            for name, fn in report["functions"].items():
                have = functions.setdefault(name, {"calls": 0, "total_s": 0.0})
                have["calls"] += fn["calls"]
                have["total_s"] += fn["total_s"]
            for name, value in report["counts"].items():
                counts[name] = counts.get(name, 0) + value

        def per(num: float, den: float, scale: float) -> float:
            return num / den * scale if den else 0.0

        def fn_time(name: str, scale: float) -> float:
            fn = functions.get(name, {"calls": 0, "total_s": 0.0})
            return per(fn["total_s"], fn["calls"], scale)

        def raised(layer: str, exc: str | None = None) -> int:
            prefix = f"{layer}.raised."
            return sum(v for k, v in counts.items() if k.startswith(prefix) and (exc is None or k == prefix + exc))

        self_s = {name: layer["self_s"] for name, layer in layers.items()}
        calls = {name: layer["calls"] for name, layer in layers.items()}
        coords = counts.get("sampler.coords", 0)
        keys = counts.get("streams.keys", 0)
        reps = counts.get("simulate.reps", 0)
        bessel = counts.get("specfun.bessel_calls", 0)
        evals = counts.get("quadrature.integrand_evals", 0)
        bessel_s = functions.get("specfun.log_bessel_i", {"total_s": 0.0})["total_s"]
        return {
            "sampler.calls": calls["sampler"],
            "sampler.coords": coords,
            "sampler.self_s": self_s["sampler"],
            "sampler.ns_per_coord": per(self_s["sampler"], coords, 1e9),
            "sampler.bytes_computed": counts.get("sampler.bytes_computed", 0),
            "streams.keys": keys,
            "streams.keys_per_rep": per(keys, reps, 1.0),
            "streams.self_s": self_s["streams"],
            "streams.us_per_key": per(self_s["streams"], keys, 1e6),
            "simulate.calls": calls["simulate"],
            "simulate.reps": reps,
            "simulate.self_s": self_s["simulate"],
            "simulate.self_us_per_rep": per(self_s["simulate"], reps, 1e6),
            "specfun.bessel_calls": bessel,
            "specfun.gamma_calls": counts.get("specfun.gamma_calls", 0),
            "specfun.self_s": self_s["specfun"],
            "specfun.us_per_bessel": per(bessel_s, bessel, 1e6),
            "density.calls": calls["density"],
            "density.self_s": self_s["density"],
            "density.ms_per_cond_mean": fn_time("density.conditional_mean_r_given_s", 1e3),
            "quadrature.calls": calls["quadrature"],
            "quadrature.integrand_evals": evals,
            "quadrature.evals_per_call": per(evals, calls["quadrature"], 1.0),
            "quadrature.self_s": self_s["quadrature"],
            "quadrature.errors": raised("quadrature"),
            "analytic.calls": calls["analytic"],
            "analytic.self_s": self_s["analytic"],
            "analytic.ms_per_d_ai_infinity": fn_time("analytic.d_ai_infinity", 1e3),
            "analytic.numeric_errors": raised("analytic", "NumericError"),
            "cli.calls": calls["cli"],
            "cli.self_s": self_s["cli"],
            "cli.csv_bytes": p.csv_bytes,
            "trace.wall_s": wall,
            "trace.unspanned_s": unspanned,
        }

    # one whole traced pass, the median by wall time, so its self times and
    # remainder still sum to its wall time
    middle = sorted(traced, key=lambda p: p.wall_s)[(len(traced) - 1) // 2]
    metrics = pass_values(middle)
    single_wall = statistics.median(p.wall_s for p in single)
    metrics["simulate.pool_starts"] = sum(r["counts"].get("simulate.pool_starts", 0) for r in default[0].reports)
    metrics["simulate.parallel_speedup"] = single_wall / statistics.median(p.wall_s for p in default)
    metrics["trace.overhead_s"] = statistics.median(p.wall_s for p in traced) - single_wall
    metrics = {name: metrics[name] for name in PER_LAYER}

    wall = metrics["trace.wall_s"]
    lines = [
        f"traced passes: {len(traced)}, 1 worker, so every span of a step lands in that step's process",
        "layer        self_s    share",
    ]
    for layer in LAYERS:
        share = metrics[f"{layer}.self_s"] / wall if wall else 0.0
        lines.append(f"{layer:<12} {metrics[f'{layer}.self_s']:8.4f}  {share:6.1%}")
    lines.append(f"{'unspanned':<12} {metrics['trace.unspanned_s']:8.4f}  {metrics['trace.unspanned_s'] / wall:6.1%}  (interpreter, imports, argument parsing)")
    lines.append(f"{'sum':<12} {wall:8.4f}  = trace.wall_s, the traced steps' in-process wall time")
    return metrics, lines


def machine(bench: Bench) -> dict:
    try:
        l3 = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        l3 = "unknown"
    return {
        "nproc": os.cpu_count(),
        "l3_bytes": l3,
        **bench.setup_data["versions"],
        "workers": {name: wl.workers(name) for name in wl.WORKLOADS},
        "blas_threads": 1,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=wl.SCALES, default="full")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mirrormatch" / "cli.py").is_file():
        print(f"no mirrormatch sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seed, args.scale)
    workers = wl.workers(args.workload)
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} scale={args.scale}")
    setup_walls = bench.setup()
    print("machine: " + json.dumps(machine(bench), sort_keys=True))

    bench.reference = bench.run_pass("plain", workers)  # warm-up; its outputs are the byte reference
    deadline = time.perf_counter() + args.seconds
    if args.trace == 0:
        passes: list[Pass] = []
        while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
            passes.append(bench.run_pass("plain", workers))
        metrics, lines = end_to_end(bench, setup_walls, passes)
    else:
        default: list[Pass] = []
        single: list[Pass] = []
        traced: list[Pass] = []
        while not traced or time.perf_counter() < deadline:
            default.append(bench.run_pass("count", workers))
            single.append(bench.run_pass("plain", 1))
            traced.append(bench.run_pass("trace", 1))
        metrics, lines = per_layer(default, single, traced)

    controls_ok = bench.negative_control()
    if not controls_ok:
        bench.problems.append("negative control: a result shifted by 10 tolerances was not flagged")
    error_rate = bench.failed / bench.attempted
    lines.append(f"error_rate    {error_rate:.6g}        {bench.failed} failed of {bench.attempted} operations attempted")
    lines.append(f"checks: {'all passed' if not bench.problems else '; '.join(bench.problems[:10])}")
    lines.append(f"negative control flagged: {controls_ok}")
    for line in lines:
        print(line)
    units = END_TO_END if args.trace == 0 else PER_LAYER
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
