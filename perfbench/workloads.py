"""The benchmark's workloads: their steps, inputs and correctness checks.

Importing this file pulls in no third-party module, so the orchestrator
stays light; ``setup`` and ``run_posterior`` run inside step processes,
where ``mirrormatch`` and numpy are already imported.

Every check compares a program output with a closed form or with a
property the paper proves. A Monte Carlo gate allows 5 standard errors,
so a correct program fails one cell with probability below 1e-6.
"""

from __future__ import annotations

import csv
import io
import math
from typing import NamedTuple

WORKLOADS = ("platform-highdim", "small-pools", "posterior-analytic")
SCALES = ("full", "smoke")

# Sizes per scale. "full" keeps each pass at a few seconds on a 2-core
# machine, so a 20 s run measures several passes; "smoke" only proves that
# every step runs and every metric is emitted.
SIZES = {
    "full": {
        "highdim": {"k_grid": "100,300,1000", "n": 25, "reps": 800},
        "small": {"table1_reps": 3000, "seq_reps": 400, "seq_cap": 1000, "groups_reps": 400},
        "posterior": {"s_points": 16, "bound_k_max": 500},
    },
    "smoke": {
        "highdim": {"k_grid": "3,8", "n": 8, "reps": 16},
        "small": {"table1_reps": 40, "seq_reps": 20, "seq_cap": 64, "groups_reps": 20},
        "posterior": {"s_points": 2, "bound_k_max": 3},
    },
}
POSTERIOR_CELLS = tuple((k, nu) for k in (5, 50, 150) for nu in (0.005, 0.05))
BOUND_VARIANCES = (1e-4, 0.0025, 0.05, 1.0)  # criterion 5's matrix
SMALL_K_GRID = "1,2,5"
SMALL_N = 64
SEQ_K = 5

SE_SIGMAS = 5.0  # Monte Carlo gate width in standard errors
M0_REL_TOL = 1e-6  # m(0) against d_ai_infinity(k, nu/2)
MONOTONE_TOL = 1e-9  # m(s) may not fall by more than quadrature noise
MLRP_TOL = 1e-9
TIE_EPS = 1e-12  # the equivalent-sample-size boundary rule
CSV_REL_TOL = 1e-11  # CSV cells carry 12 significant digits
SE_TARGET = 1e-3  # standard error that time_to_se_s extrapolates to


class Step(NamedTuple):
    """One process of a pass: a ``mirrormatch`` command or the posterior job."""

    command: str
    argv: tuple[str, ...]


def _sets(**values) -> tuple[str, ...]:
    out: list[str] = []
    for key, value in values.items():
        out += ["--set", f"{key}={value}"]
    return tuple(out)


def steps(name: str, scale: str) -> list[Step]:
    """The steps of one pass, as a user would type them (without --seed/--out)."""
    size = SIZES[scale]
    if name == "platform-highdim":
        h = size["highdim"]
        grid = _sets(k_grid=h["k_grid"], n=h["n"], reps=h["reps"])
        return [
            Step("table1", ("table1",) + grid),
            Step("figure2", ("figure2",) + grid + _sets(clone_mode="fixed-subject-clone")),
        ]
    if name == "small-pools":
        s = size["small"]
        return [
            Step("table1", ("table1",) + _sets(k_grid=SMALL_K_GRID, n=SMALL_N, reps=s["table1_reps"])),
            Step("seqsearch", ("seqsearch",) + _sets(k=SEQ_K, reps=s["seq_reps"], seq_cap=s["seq_cap"])),
            Step("groups", ("groups",) + _sets(n=SMALL_N, k_grid=SMALL_K_GRID, reps=s["groups_reps"])),
        ]
    if name == "posterior-analytic":
        return [Step("posterior", ()), Step("mstar", ("mstar",))]
    raise ValueError(f"unknown workload {name!r}")


def workers(name: str) -> int:
    """Pool workers of the measured passes; only the high-dimensional workload fans out."""
    return 2 if name == "platform-highdim" else 1


def setup(name: str, seed: int, scale: str) -> dict:
    """Build the workload's configs and inputs and the closed forms its checks need.

    Runs in a fresh process that has imported ``mirrormatch.cli``; its time
    is the benchmark's ``setup_s``.
    """
    import platform

    import numpy as np
    import scipy

    from mirrormatch import analytic, cli

    refs: dict = {}
    for step in steps(name, scale):
        if step.command == "posterior":
            continue
        args = cli.build_arg_parser().parse_args(list(step.argv) + ["--seed", str(seed)])
        cfg = cli.parse_config(args.config, list(args.overrides) + [f"master_seed={args.seed}"])
        variance = cfg.noise_variance_per_clone()
        ref: dict = {"reps": cfg.reps}
        if step.command in ("table1", "figure2"):
            ref["d_ai_inf"] = {str(k): analytic.d_ai_infinity(k, variance) for k in cfg.k_grid}
            ref["per_interaction"] = cfg.clone_mode == "per-interaction"
        elif step.command == "seqsearch":
            ref["ip_stop2"] = -analytic.d_ip(cfg.k, 2) - 2 * cfg.seq_cost_ip_per_period
        elif step.command == "mstar":
            ref["rows"] = [
                [k, analytic.d_ai_infinity(k, noise**2 if cfg.noise_convention == cli.STD_DEV else noise)]
                for k in cfg.k_grid or cli.MSTAR_K_GRID
                for noise in cfg.sigma_grid or cli.MSTAR_SIGMA_GRID
            ]
        refs[step.command] = ref

    posterior = None
    if name == "posterior-analytic":
        size = SIZES[scale]["posterior"]
        rng = np.random.default_rng(seed)
        cells = []
        for k, nu in POSTERIOR_CELLS:
            s_hi = math.sqrt(k * nu) + 1.0
            points = np.sort(rng.uniform(0.0, s_hi, size["s_points"]))
            cells.append({"k": k, "nu": nu, "s": [float(s) for s in points]})
            refs.setdefault("posterior", {"m0": []})["m0"].append(analytic.d_ai_infinity(k, 0.5 * nu))
        posterior = {"cells": cells, "bound_k_max": size["bound_k_max"], "bound_variances": BOUND_VARIANCES}

    return {
        "refs": refs,
        "posterior_inputs": posterior,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }


def run_posterior(analytic, density, inputs: dict) -> dict:
    """The analytic workload: posterior means, MLRP grids and criterion 5's matrix.

    ``analytic`` and ``density`` are the modules, or traced stand-ins.
    """
    import numpy as np

    ops = 0
    cells = []
    for cell in inputs["cells"]:
        k, nu = cell["k"], cell["nu"]
        params = density.JointDensityParams(k, nu)
        m0 = density.conditional_mean_r_given_s(params, 0.0)
        m = [density.conditional_mean_r_given_s(params, s) for s in cell["s"]]
        # criterion 7's grids
        s_hi = math.sqrt(k * nu) + 1.0
        r_grid = np.linspace(0.05, 1.0, 20)
        s_grid = np.geomspace(0.02, s_hi, 20) if k >= 50 else np.linspace(0.02, s_hi, 20)
        violation = density.mlrp_grid_check(params, r_grid, s_grid).max_violation
        ops += 2 + len(m)
        cells.append({"k": k, "nu": nu, "m0": m0, "m": m, "mlrp_violation": violation})
    bound = [
        [k, v, analytic.d_ai_infinity(k, v)]
        for v in inputs["bound_variances"]
        for k in range(1, inputs["bound_k_max"] + 1)
    ]
    ops += len(bound)
    return {"cells": cells, "bound": bound, "ops": ops}


def read_csv(text: str) -> list[dict]:
    """Rows of a mirrormatch CSV keyed by column name (header cells are ``name: meaning``)."""
    reader = csv.reader(io.StringIO(text))
    header = [cell.split(":", 1)[0] for cell in next(reader)]
    return [dict(zip(header, row)) for row in reader]


class Verdict(NamedTuple):
    """Outcome of checking one step's output."""

    ops: int
    failed: int
    se: list  # standard errors of the step's Monte Carlo cells
    problems: list


def _near(value: float, target: float, se: float) -> bool:
    return abs(value - target) <= SE_SIGMAS * se


def d_ip(k: int, m: int) -> float:
    """Expected best-of-m in-person distance B(1/k, m+1)/k, as ``analytic.d_ip`` evaluates it."""
    inv = 1.0 / k
    return math.exp(math.lgamma(inv) + math.lgamma(m + 1.0) - math.lgamma(inv + m + 1.0)) / k


def check(command: str, rows: list[dict], ref: dict) -> Verdict:
    """Check a command's CSV rows against its set-up references ``ref``.

    A failing cell fails all its replications.
    """
    reps = ref["reps"]
    ops = failed = 0
    se: list[float] = []
    problems: list[str] = []

    def gate(ok: bool, weight: int, what: str) -> None:
        nonlocal ops, failed
        ops += weight
        if not ok:
            failed += weight
            problems.append(f"{command}: {what}")

    for index, row in enumerate(rows):
        f = {key: float(value) for key, value in row.items() if _is_number(value)}
        if command in ("table1", "figure2"):
            k = row["k"]
            se += [f["se_ip"], f["se_ai"]]
            gate(_near(f["d_ip2_mc"], f["d_ip2_closed"], f["se_ip"]), reps, f"k={k} d_ip2_mc off the closed form")
            ai_ok = True
            if command == "table1" and ref["per_interaction"]:
                ai_ok = f["d_ai_mc"] >= ref["d_ai_inf"][k] - SE_SIGMAS * f["se_ai"]
            if command == "figure2":
                ai_ok = abs(f["d_ai_inf"] - ref["d_ai_inf"][k]) <= CSV_REL_TOL * ref["d_ai_inf"][k]
            gate(ai_ok, reps, f"k={k} d_ai below the saturated bound or overlay wrong")
        elif command == "seqsearch":
            se.append(f["se"])
            ok = row["policy"] != "ip_stop2" or _near(f["mean_payoff"], ref["ip_stop2"], f["se"])
            gate(ok, reps, f"{row['policy']} payoff off -d_ip(k,2) - c_ip(2)")
        elif command == "groups":
            se.append(f["mc_se"])
            ok = row["equal_variance_control"] != "yes" or _near(f["mc_win"], 0.5, f["mc_se"])
            gate(ok, reps, f"{row['section']} k={row['k']} control win rate off 1/2")
        elif command == "mstar":
            k, bound = ref["rows"][index]
            m = int(row["m_star_bound"])
            ok = int(row["k"]) == k and d_ip(k, m) < bound and d_ip(k, m - 1) >= bound - TIE_EPS
            gate(ok, 1, f"k={row['k']} noise={row['noise_param']} m*={m} breaks its definition")
        else:
            raise ValueError(f"no check for {command!r}")
    return Verdict(ops, failed, se, problems)


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def check_posterior(result: dict, ref: dict) -> Verdict:
    """Check the analytic workload against d_ai_infinity, monotonicity and MLRP."""
    failed = 0
    problems: list[str] = []
    for cell, m0_ref in zip(result["cells"], ref["m0"]):
        where = f"k={cell['k']} nu={cell['nu']}"
        if abs(cell["m0"] - m0_ref) > M0_REL_TOL * abs(m0_ref):
            failed += 1
            problems.append(f"posterior {where}: m(0)={cell['m0']!r} != d_ai_infinity {m0_ref!r}")
        drops = sum(1 for a, b in zip(cell["m"], cell["m"][1:]) if b < a - MONOTONE_TOL)
        if drops:
            failed += drops
            problems.append(f"posterior {where}: m(s) decreases {drops} times")
        if not cell["mlrp_violation"] <= MLRP_TOL:
            failed += 1
            problems.append(f"posterior {where}: MLRP violation {cell['mlrp_violation']!r}")
    bad = [(k, v) for k, v, value in result["bound"] if not value < k / (k + 1.0)]
    if bad:
        failed += len(bad)
        problems.append(f"posterior: d_ai_infinity not below k/(k+1) at {bad[:3]}")
    return Verdict(result["ops"], failed, [], problems)


def negative_control(command: str, rows: list[dict], ref: dict) -> bool:
    """True when a copy of the first row shifted by 10 standard errors is flagged."""
    row = dict(rows[0])
    if command in ("table1", "figure2"):
        row["d_ip2_mc"] = repr(float(row["d_ip2_mc"]) + 10.0 * float(row["se_ip"]))
        return check(command, [row], ref).failed > 0
    raise ValueError(f"no negative control for {command!r}")


def negative_control_posterior(result: dict, ref: dict) -> bool:
    """True when m(0) moved by ten times its tolerance is flagged."""
    cell = dict(result["cells"][0])
    cell["m0"] *= 1.0 + 10.0 * M0_REL_TOL
    shifted = dict(result, cells=[cell], bound=[])
    return check_posterior(shifted, ref).failed > 0
