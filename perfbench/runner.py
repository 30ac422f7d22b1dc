"""One benchmark step in its own process.

    python3 perfbench/runner.py MODE REPORT cli <mirrormatch argv...>
    python3 perfbench/runner.py MODE REPORT posterior INPUTS RESULTS
    python3 perfbench/runner.py plain REPORT setup WORKLOAD SEED SCALE

``cli`` runs ``mirrormatch <argv>`` exactly as the console script would;
the script is not installed in a bare checkout, so this file stands in for
it. ``posterior`` runs the analytic workload's public API calls on the
inputs that set-up drew. ``setup`` imports ``mirrormatch.cli``, builds the
workload's configs and draws its inputs.

MODE is ``plain`` (nothing wrapped), ``count`` (only pool constructions
counted) or ``trace`` (every layer boundary wrapped, see ``spans.py``).
REPORT receives a JSON report, or is ``-`` for none.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import spans as tracing  # noqa: E402
import workloads  # noqa: E402
from mirrormatch import analytic, cli, density, quadrature, sampler, simulate, specfun, streams  # noqa: E402

MODULES = {
    "cli": cli,
    "simulate": simulate,
    "sampler": sampler,
    "streams": streams,
    "analytic": analytic,
    "density": density,
    "quadrature": quadrature,
    "specfun": specfun,
}


def main(argv: list[str]) -> int:
    mode, report, kind, *rest = argv
    tracer = tracing.Tracer()
    if mode == "trace":
        tracing.install(tracer, MODULES)
    elif mode == "count":
        tracing.count_pool_starts(tracer.counts, simulate)
    elif mode != "plain":
        raise SystemExit(f"unknown mode {mode!r}")

    if kind == "cli":
        entry = tracer.wrap("cli", "main", cli.main) if mode == "trace" else cli.main
        code = entry(rest)
    elif kind == "posterior":
        inputs, results = rest
        mods = {"analytic": analytic, "density": density}
        if mode == "trace":
            mods = {name: tracer.proxy(name, MODULES[name]) for name in mods}
        data = workloads.run_posterior(mods["analytic"], mods["density"], json.loads(Path(inputs).read_text()))
        Path(results).write_text(json.dumps(data, sort_keys=True) + "\n")
        code = 0
    elif kind == "setup":
        name, seed, scale = rest
        Path(report).write_text(json.dumps(workloads.setup(name, int(seed), scale), sort_keys=True) + "\n")
        return 0
    else:
        raise SystemExit(f"unknown step kind {kind!r}")

    wall_s = time.perf_counter() - _T0
    if report != "-":
        post = time.perf_counter()
        data = tracer.summary(wall_s) if mode == "trace" else {"counts": dict(tracer.counts)}
        if mode == "trace":
            tracer.dump_spans(Path(report).with_suffix(".spans.tsv"))
        # time spent here is reporting, not the step; the caller subtracts it
        data["report_s"] = time.perf_counter() - post
        Path(report).write_text(json.dumps(data, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
