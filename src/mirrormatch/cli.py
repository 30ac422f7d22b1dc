"""Experiment harness: config parsing, named experiment commands, CSV/JSON output.

Config files are line-oriented ``key = value`` text with ``#`` comments.
Unknown keys are hard errors. Each run writes into a directory named by
the hash of the canonical config text: a config echo, one CSV per
command, and a JSON summary. CSV bytes are a pure function of
(config, seed): no timestamps, LF line endings, fixed float formatting,
so reruns are byte-identical under any worker count.

Exit codes: 0 success, 2 config error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import __version__, analytic, sampler, simulate
from .analytic import GroupSpec, NumericError
from .quadrature import QuadratureError
from .simulate import AffineCost, SeqSearchPolicy, StopAtFixedT, StopWhenBestBelow

STD_DEV = "std_dev"
VARIANCE = "variance"

TABLE_K_GRID = (1, 5, 10, 50, 100, 125, 150, 175, 200, 225, 250, 275, 300, 400, 500, 750, 1000)
FIGURE_K_GRID = (1, 2, 3, 4, 5, 7, 10, 15, 20, 30, 50, 75, 100, 125, 150, 200, 300, 500)
# default grid kept inside the exact-integer search range: mid-dimensional
# cells with very small noise have equivalent sample sizes beyond 10^15
MSTAR_K_GRID = (1, 2, 3, 5, 10, 20)
MSTAR_SIGMA_GRID = (0.05, 0.1, 0.2236, 0.5, 1.0)
GROUPS_K_GRID = (1, 2, 5, 10, 20, 50, 100, 200)
GROUPS_RATIO_GRID = (2.0, 4.0, 16.0, 64.0)

# Regression targets for the main comparison table (sigma = 0.05, pool
# 10^4, 1000 replications). The k=1 platform entry is the calibration
# anchor: it discriminates the std-dev reading of the noise parameter
# from the variance reading.
REFERENCE_D_IP2 = {
    1: 0.3346, 5: 0.7554, 10: 0.8675, 50: 0.9709, 100: 0.9849, 125: 0.9882,
    150: 0.9902, 175: 0.9919, 200: 0.9925, 225: 0.9933, 250: 0.9939,
    275: 0.9949, 300: 0.9951, 400: 0.9962, 500: 0.9970, 750: 0.9980, 1000: 0.9985,
}
REFERENCE_D_AI = {
    1: 0.0551, 5: 0.1743, 10: 0.3664, 50: 0.9126, 100: 0.9818, 125: 0.9871,
    150: 0.9903, 175: 0.9920, 200: 0.9931, 225: 0.9941, 250: 0.9950,
    275: 0.9957, 300: 0.9959, 400: 0.9972, 500: 0.9979, 750: 0.9986, 1000: 0.9990,
}
CALIBRATION_K_ROWS = (1, 5, 10)
CALIBRATION_TOL = 0.01

PAPER_SCALE_REPS = 1000
PAPER_SCALE_N = 10_000


class ConfigError(Exception):
    """A configuration file or override could not be interpreted."""


def _parse_int(raw: str) -> int:
    return int(raw, 0)


def _parse_float(raw: str) -> float:
    value = float(raw)
    if math.isnan(value):
        raise ValueError("nan is not a valid value")
    return value


def _parse_choice(*choices: str):
    def parse(raw: str) -> str:
        if raw not in choices:
            raise ValueError(f"expected one of {choices}")
        return raw

    return parse


def _parse_int_tuple(raw: str) -> tuple[int, ...]:
    return tuple(int(part.strip(), 0) for part in raw.split(",") if part.strip())


def _parse_float_tuple(raw: str) -> tuple[float, ...]:
    return tuple(float(part.strip()) for part in raw.split(",") if part.strip())


def _optional(parser):
    def parse(raw: str):
        if raw.lower() in ("none", ""):
            return None
        return parser(raw)

    return parse


_FIELD_PARSERS = {
    "k": ("positive integer", _parse_int),
    "noise_param": ("positive real", _parse_float),
    "noise_convention": (f"one of {STD_DEV}|{VARIANCE}", _parse_choice(STD_DEV, VARIANCE)),
    "n": ("positive integer", _parse_int),
    "m": ("positive integer", _parse_int),
    "reps": ("integer >= 2", _parse_int),
    "master_seed": ("unsigned 64-bit integer", _parse_int),
    "clone_mode": (
        f"one of {sampler.PER_INTERACTION}|{sampler.FIXED_SUBJECT_CLONE}",
        _parse_choice(sampler.PER_INTERACTION, sampler.FIXED_SUBJECT_CLONE),
    ),
    "group_sigma_r2": ("positive real", _parse_float),
    "group_sigma_p2": ("positive real", _parse_float),
    "k_grid": ("comma list of positive integers or none", _optional(_parse_int_tuple)),
    "sigma_grid": ("comma list of positive reals or none", _optional(_parse_float_tuple)),
    "seq_kappa": ("nonnegative real or none", _optional(_parse_float)),
    "seq_cost_ip_per_period": ("nonnegative real", _parse_float),
    "seq_cost_ai_per_period": ("nonnegative real", _parse_float),
    "seq_cap": ("positive integer", _parse_int),
}


@dataclass(frozen=True)
class ModelConfig:
    """Full deterministic identity of an experiment run."""

    k: int = 5
    noise_param: float = 0.05
    noise_convention: str = STD_DEV
    n: int = 2000
    m: int = 2
    reps: int = 200
    master_seed: int = 0
    clone_mode: str = sampler.PER_INTERACTION
    group_sigma_r2: float = 0.01
    group_sigma_p2: float = 0.04
    k_grid: tuple[int, ...] | None = None
    sigma_grid: tuple[float, ...] | None = None
    seq_kappa: float | None = None
    seq_cost_ip_per_period: float = 0.005
    seq_cost_ai_per_period: float = 0.0
    seq_cap: int = 10_000

    def __post_init__(self) -> None:
        for name in ("k", "n", "m", "seq_cap"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)!r}")
        if self.reps < 2:
            raise ConfigError(f"reps must be >= 2, got {self.reps!r}")
        if not self.noise_param > 0:
            raise ConfigError(f"noise_param must be positive, got {self.noise_param!r}")
        if self.master_seed < 0 or self.master_seed >= 2**64:
            raise ConfigError(f"master_seed must fit in 64 unsigned bits, got {self.master_seed!r}")
        if not (0 < self.group_sigma_r2 and 0 < self.group_sigma_p2):
            raise ConfigError("group variances must be positive")
        if self.k_grid is not None and any(k < 1 for k in self.k_grid):
            raise ConfigError("k_grid entries must be positive")
        if self.sigma_grid is not None and any(s <= 0 for s in self.sigma_grid):
            raise ConfigError("sigma_grid entries must be positive")
        if self.seq_kappa is not None and self.seq_kappa < 0:
            raise ConfigError("seq_kappa must be nonnegative")
        if self.seq_cost_ip_per_period < 0 or self.seq_cost_ai_per_period < 0:
            raise ConfigError("per-period costs must be nonnegative")

    def noise_variance_per_clone(self) -> float:
        if self.noise_convention == STD_DEV:
            return self.noise_param**2
        return self.noise_param

    def variance_for(self, convention: str) -> float:
        return self.noise_param**2 if convention == STD_DEV else self.noise_param

    def group(self) -> GroupSpec:
        return GroupSpec(self.group_sigma_r2, self.group_sigma_p2)

    def canonical_text(self) -> str:
        lines = []
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if value is None:
                rendered = "none"
            elif isinstance(value, tuple):
                rendered = ",".join(_fmt(v) for v in value)
            else:
                rendered = _fmt(value)
            lines.append(f"{field.name} = {rendered}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode("utf-8")).hexdigest()[:16]


@dataclass
class ExperimentResult:
    """Rows emitted by one command plus provenance for the JSON summary."""

    config: ModelConfig
    command: str
    rows: list[dict]
    metrics: dict
    files: list[Path]
    provenance: dict


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _apply_overrides(values: dict, overrides, where: str) -> None:
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"{where}: expected key=value, got {item!r}")
        key, raw = item.split("=", 1)
        key = key.strip()
        raw = raw.strip()
        if key not in _FIELD_PARSERS:
            raise ConfigError(f"{where}: unknown key {key!r}")
        expected, parser = _FIELD_PARSERS[key]
        try:
            values[key] = parser(raw)
        except ValueError as exc:
            raise ConfigError(f"{where}: key {key!r} expects {expected}: {exc}") from exc


def parse_config(path: str | Path | None = None, overrides=()) -> ModelConfig:
    """Build a ModelConfig from an optional file plus key=value overrides."""
    values: dict = {}
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            _apply_overrides(values, [text], f"{path}:{lineno}")
    _apply_overrides(values, overrides, "override")
    try:
        return ModelConfig(**values)
    except ConfigError:
        raise
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def _write_atomic(path: Path, data: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(data)
    os.replace(tmp, path)


def _write_csv(path: Path, columns: list[tuple[str, str]], rows: list[dict]) -> None:
    # header cells are "name: meaning"; comma-free by construction, LF endings
    header = ",".join(f"{name}: {meaning}" for name, meaning in columns)
    lines = [header]
    for row in rows:
        lines.append(",".join(_fmt(row[name]) for name, _ in columns))
    _write_atomic(path, "\n".join(lines) + "\n")


def _write_summary(out_dir: Path, result: ExperimentResult) -> Path:
    summary = {
        "command": result.command,
        "version": __version__,
        "config_hash": result.config.config_hash(),
        "generated_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config": json.loads(json.dumps(dataclasses.asdict(result.config))),
        "files": [p.name for p in result.files],
        "metrics": result.metrics,
        "provenance": result.provenance,
    }
    path = out_dir / "summary.json"
    _write_atomic(path, json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return path


def _run_dir(cfg: ModelConfig, out_root: Path) -> Path:
    run_dir = out_root / cfg.config_hash()
    run_dir.mkdir(parents=True, exist_ok=True)
    _write_atomic(run_dir / "config.txt", cfg.canonical_text())
    return run_dir


def _finish(
    cfg: ModelConfig,
    command: str,
    out_root: Path,
    columns: list[tuple[str, str]],
    rows: list[dict],
    metrics: dict,
    provenance: dict,
) -> ExperimentResult:
    run_dir = _run_dir(cfg, out_root)
    csv_path = run_dir / f"{command}.csv"
    _write_csv(csv_path, columns, rows)
    result = ExperimentResult(
        config=cfg,
        command=command,
        rows=rows,
        metrics=metrics,
        files=[csv_path],
        provenance=provenance,
    )
    summary_path = _write_summary(run_dir, result)
    result.files.append(summary_path)
    return result


def _provenance(cfg: ModelConfig, workers: int, extra: dict | None = None) -> dict:
    data = {
        "artifact_version": __version__,
        "workers": workers,
        "master_seed": cfg.master_seed,
        "noise_convention": cfg.noise_convention,
    }
    if extra:
        data.update(extra)
    return data


_TWO_DRAW_MEANING = "closed-form expected distance to the better of two draws"
_BENCH_MEANING = "expected distance to a single uniform draw k/(k+1)"


def cmd_table1(cfg: ModelConfig, out_root: Path, workers: int | None = None) -> ExperimentResult:
    """Main comparison table: two in-person draws versus the noisy platform."""
    worker_count = simulate.resolve_workers(workers)
    variance = cfg.noise_variance_per_clone()
    ks = cfg.k_grid or TABLE_K_GRID
    config_hash = cfg.config_hash()
    rows = []
    for k in ks:
        ip = simulate.estimate_d_ip(k, 2, cfg.reps, cfg.master_seed, workers=workers)
        ai = simulate.estimate_d_ai(
            k, cfg.n, variance, cfg.reps, cfg.clone_mode, cfg.master_seed, workers=workers
        )
        rows.append(
            {
                "k": k,
                "d_ip2_closed": analytic.d_ip2_identity(k),
                "d_ip2_mc": ip.mean,
                "se_ip": ip.std_error,
                "d_ai_mc": ai.mean,
                "se_ai": ai.std_error,
                "benchmark": analytic.benchmark_single_draw(k),
                "winner": "ai" if ai.mean < ip.mean else "ip",
                "config_hash": config_hash,
            }
        )
    columns = [
        ("k", "number of attribute dimensions"),
        ("d_ip2_closed", _TWO_DRAW_MEANING),
        ("d_ip2_mc", "Monte Carlo estimate of the two-draw in-person distance"),
        ("se_ip", "standard error of d_ip2_mc"),
        ("d_ai_mc", "Monte Carlo estimate of the platform match distance"),
        ("se_ai", "standard error of d_ai_mc"),
        ("benchmark", _BENCH_MEANING),
        ("winner", "regime with the smaller estimated distance"),
        ("config_hash", "hash of the canonical config"),
    ]
    first_ip = next((row["k"] for row in rows if row["winner"] == "ip"), None)
    metrics = {"first_in_person_win_k": first_ip}
    return _finish(
        cfg, "table1", out_root, columns, rows, metrics, _provenance(cfg, worker_count)
    )


def cmd_figure2(cfg: ModelConfig, out_root: Path, workers: int | None = None) -> ExperimentResult:
    """Dense-grid version of the comparison with analytic overlays."""
    worker_count = simulate.resolve_workers(workers)
    variance = cfg.noise_variance_per_clone()
    ks = cfg.k_grid or FIGURE_K_GRID
    config_hash = cfg.config_hash()
    rows = []
    for k in ks:
        ip = simulate.estimate_d_ip(k, 2, cfg.reps, cfg.master_seed, workers=workers)
        ai = simulate.estimate_d_ai(
            k, cfg.n, variance, cfg.reps, cfg.clone_mode, cfg.master_seed, workers=workers
        )
        rows.append(
            {
                "k": k,
                "d_ip2_closed": analytic.d_ip2_identity(k),
                "d_ai_inf": analytic.d_ai_infinity(k, variance),
                "d_ip2_mc": ip.mean,
                "se_ip": ip.std_error,
                "d_ai_mc": ai.mean,
                "se_ai": ai.std_error,
                "benchmark": analytic.benchmark_single_draw(k),
                "config_hash": config_hash,
            }
        )
    columns = [
        ("k", "number of attribute dimensions"),
        ("d_ip2_closed", _TWO_DRAW_MEANING),
        ("d_ai_inf", "saturated-platform lower bound on the match distance"),
        ("d_ip2_mc", "Monte Carlo estimate of the two-draw in-person distance"),
        ("se_ip", "standard error of d_ip2_mc"),
        ("d_ai_mc", "Monte Carlo estimate of the platform match distance"),
        ("se_ai", "standard error of d_ai_mc"),
        ("benchmark", _BENCH_MEANING),
        ("config_hash", "hash of the canonical config"),
    ]
    return _finish(cfg, "figure2", out_root, columns, rows, {}, _provenance(cfg, worker_count))


def cmd_mstar(cfg: ModelConfig, out_root: Path, workers: int | None = None) -> ExperimentResult:
    """Tabulate the bound-certified equivalent sample size over (k, noise) grids."""
    worker_count = simulate.resolve_workers(workers)
    ks = cfg.k_grid or MSTAR_K_GRID
    noises = cfg.sigma_grid or MSTAR_SIGMA_GRID
    config_hash = cfg.config_hash()
    rows = []
    for k in ks:
        for noise in noises:
            variance = noise**2 if cfg.noise_convention == STD_DEV else noise
            m_star = analytic.ai_equivalent_bound(k, variance)
            rows.append(
                {
                    "k": k,
                    "noise_param": noise,
                    "variance_per_clone": variance,
                    "m_star_bound": m_star,
                    "two_draw_regime": "yes" if m_star == 2 else "no",
                    "config_hash": config_hash,
                }
            )
    columns = [
        ("k", "number of attribute dimensions"),
        ("noise_param", f"noise parameter under the {cfg.noise_convention} convention"),
        ("variance_per_clone", "per-clone noise variance implied by the convention"),
        ("m_star_bound", "equivalent sample size certified against the infinite-pool bound"),
        ("two_draw_regime", "whether two in-person draws already dominate"),
        ("config_hash", "hash of the canonical config"),
    ]
    metrics = {"rows_in_two_draw_regime": sum(1 for r in rows if r["m_star_bound"] == 2)}
    return _finish(cfg, "mstar", out_root, columns, rows, metrics, _provenance(cfg, worker_count))


def cmd_groups(cfg: ModelConfig, out_root: Path, workers: int | None = None) -> ExperimentResult:
    """Data-rich versus data-poor selection rates: analytic, bound, and MC."""
    worker_count = simulate.resolve_workers(workers)
    config_hash = cfg.config_hash()
    rows = []

    def add_row(section: str, k: int, spec: GroupSpec) -> None:
        mc = simulate.estimate_group_win_rate(
            k, spec, cfg.n, cfg.reps, cfg.master_seed, workers=workers
        )
        equal = spec.sigma_r2 == spec.sigma_p2
        rows.append(
            {
                "section": section,
                "k": k,
                "sigma_r2": spec.sigma_r2,
                "sigma_p2": spec.sigma_p2,
                "analytic_win": analytic.rich_win_probability(k, spec),
                "win_lower_bound": analytic.rich_win_lower_bound(k, spec),
                "mc_win": mc.mean,
                "mc_se": mc.std_error,
                "equal_variance_control": "yes" if equal else "no",
                "config_hash": config_hash,
            }
        )

    add_row("control", cfg.k, GroupSpec.unchecked(cfg.group_sigma_r2, cfg.group_sigma_r2))
    for k in cfg.k_grid or GROUPS_K_GRID:
        add_row("dimension-sweep", k, cfg.group())
    for ratio in GROUPS_RATIO_GRID:
        add_row(
            "disparity-sweep",
            cfg.k,
            GroupSpec(cfg.group_sigma_r2, cfg.group_sigma_r2 * ratio),
        )
    columns = [
        ("section", "sweep the row belongs to"),
        ("k", "number of attribute dimensions"),
        ("sigma_r2", "data-rich per-clone noise variance"),
        ("sigma_p2", "data-poor per-clone noise variance"),
        ("analytic_win", "large-population probability the match is data-rich"),
        ("win_lower_bound", "closed-form lower bound on that probability"),
        ("mc_win", "Monte Carlo win rate of the data-rich pool"),
        ("mc_se", "standard error of mc_win"),
        ("equal_variance_control", "degenerate equal-noise control row"),
        ("config_hash", "hash of the canonical config"),
    ]
    return _finish(cfg, "groups", out_root, columns, rows, {}, _provenance(cfg, worker_count))


def _seq_policies(cfg: ModelConfig, variance: float) -> list[tuple[str, SeqSearchPolicy]]:
    cost_ip = AffineCost(per_period=cfg.seq_cost_ip_per_period)
    cost_ai = AffineCost(per_period=cfg.seq_cost_ai_per_period)
    kappa = cfg.seq_kappa if cfg.seq_kappa is not None else cost_ip(2) + 0.01
    k = cfg.k
    # typical clone-distance scale sqrt(E R^2 + k nu) anchors the threshold grid
    s_typ = math.sqrt(k / (k + 2.0) + 2.0 * k * variance)
    policies: list[tuple[str, SeqSearchPolicy]] = []
    for t in (1, 2, 4):
        policies.append(
            (
                f"ip_stop{t}",
                SeqSearchPolicy(simulate.IN_PERSON, StopAtFixedT(t), cost_ip, cost_ai, kappa),
            )
        )
    for factor in (0.85, 0.95, 1.0):
        policies.append(
            (
                f"ai_threshold_{factor:g}",
                SeqSearchPolicy(
                    simulate.AI_PLATFORM,
                    StopWhenBestBelow(factor * s_typ, cfg.seq_cap),
                    cost_ip,
                    cost_ai,
                    kappa,
                ),
            )
        )
    policies.append(
        (
            "ai_exhaust_cap",
            SeqSearchPolicy(
                simulate.AI_PLATFORM, StopWhenBestBelow(0.0, cfg.seq_cap), cost_ip, cost_ai, kappa
            ),
        )
    )
    return policies


def cmd_seqsearch(cfg: ModelConfig, out_root: Path, workers: int | None = None) -> ExperimentResult:
    """Expected payoffs of stopping policies in both regimes.

    The dominance summary compares the best platform policy on the grid
    with stopping in person after two draws; it is a necessary-condition
    check over this policy family, not a search over all stopping rules.
    """
    worker_count = simulate.resolve_workers(workers)
    variance = cfg.noise_variance_per_clone()
    config_hash = cfg.config_hash()
    rows = []
    reports = {}
    for name, policy in _seq_policies(cfg, variance):
        report = simulate.evaluate_seq_policy(
            cfg.k, variance, policy, cfg.reps, cfg.master_seed, workers=workers
        )
        reports[name] = report
        rule = policy.rule
        rows.append(
            {
                "policy": name,
                "regime": policy.regime,
                "rule": (
                    f"stop_at_t={rule.t}"
                    if isinstance(rule, StopAtFixedT)
                    else f"threshold={rule.threshold:.6g};cap={rule.cap}"
                ),
                "kappa": policy.kappa,
                "mean_payoff": report.payoff.mean,
                "se": report.payoff.std_error,
                "truncated_reps": report.truncated_reps,
                "config_hash": config_hash,
            }
        )
    ai_names = [n for n in reports if n.startswith("ai_")]
    best_ai = max(ai_names, key=lambda n: reports[n].payoff.mean)
    ip2 = reports["ip_stop2"]
    best = reports[best_ai]
    gap = ip2.payoff.mean - best.payoff.mean
    two_se = 2.0 * math.hypot(ip2.payoff.std_error, best.payoff.std_error)
    metrics = {
        "best_ai_policy": best_ai,
        "in_person_two_draw_payoff": ip2.payoff.mean,
        "best_ai_payoff": best.payoff.mean,
        "dominance_gap": gap,
        "dominance_within_two_se": bool(gap >= -two_se),
        "policy_grid_check": "necessary-condition over the listed policy family",
    }
    columns = [
        ("policy", "policy identifier"),
        ("regime", "search regime"),
        ("rule", "stopping rule"),
        ("kappa", "platform entry fee"),
        ("mean_payoff", "estimated expected payoff"),
        ("se", "standard error of the payoff estimate"),
        ("truncated_reps", "replications stopped by the cap instead of the rule"),
        ("config_hash", "hash of the canonical config"),
    ]
    return _finish(
        cfg, "seqsearch", out_root, columns, rows, metrics, _provenance(cfg, worker_count)
    )


def cmd_calibrate(cfg: ModelConfig, out_root: Path, workers: int | None = None) -> ExperimentResult:
    """Resolve the noise-parameter convention against the reference table.

    Runs the platform estimator under both readings of noise_param=0.05
    and compares each k in (1, 5, 10) with its reference value. The k=1
    row is the binding discriminator; per-row deviations are emitted so a
    convention that fails some rows is documented rather than hidden.
    """
    worker_count = simulate.resolve_workers(workers)
    config_hash = cfg.config_hash()
    rows = []
    k1_dev = {}
    for convention in (STD_DEV, VARIANCE):
        variance = cfg.variance_for(convention)
        for k in CALIBRATION_K_ROWS:
            est = simulate.estimate_d_ai(
                k, cfg.n, variance, cfg.reps, cfg.clone_mode, cfg.master_seed, workers=workers
            )
            reference = REFERENCE_D_AI[k]
            deviation = est.mean - reference
            if k == 1:
                k1_dev[convention] = abs(deviation)
            rows.append(
                {
                    "convention": convention,
                    "k": k,
                    "variance_per_clone": variance,
                    "analytic_lower_bound": analytic.d_ai_infinity(k, variance),
                    "mc_estimate": est.mean,
                    "se": est.std_error,
                    "reference": reference,
                    "deviation": deviation,
                    "within_tolerance": "yes" if abs(deviation) <= CALIBRATION_TOL else "no",
                    "config_hash": config_hash,
                }
            )
    resolved = min(k1_dev, key=k1_dev.get)
    reproduced = {
        conv: all(
            row["within_tolerance"] == "yes" for row in rows if row["convention"] == conv
        )
        for conv in (STD_DEV, VARIANCE)
    }
    metrics = {
        "resolved_convention": resolved,
        "k1_abs_deviation_std_dev": k1_dev[STD_DEV],
        "k1_abs_deviation_variance": k1_dev[VARIANCE],
        "all_rows_reproduced_std_dev": reproduced[STD_DEV],
        "all_rows_reproduced_variance": reproduced[VARIANCE],
    }
    columns = [
        ("convention", "reading of noise_param under test"),
        ("k", "number of attribute dimensions"),
        ("variance_per_clone", "per-clone noise variance implied by the convention"),
        ("analytic_lower_bound", "saturated-platform lower bound"),
        ("mc_estimate", "Monte Carlo platform distance"),
        ("se", "standard error of the estimate"),
        ("reference", "reference value for this row"),
        ("deviation", "estimate minus reference"),
        ("within_tolerance", f"|deviation| <= {CALIBRATION_TOL}"),
        ("config_hash", "hash of the canonical config"),
    ]
    provenance = _provenance(cfg, worker_count, {"noise_convention_resolved": resolved})
    return _finish(cfg, "calibrate", out_root, columns, rows, metrics, provenance)


COMMANDS = {
    "table1": cmd_table1,
    "figure2": cmd_figure2,
    "mstar": cmd_mstar,
    "groups": cmd_groups,
    "seqsearch": cmd_seqsearch,
    "calibrate": cmd_calibrate,
}


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mirrormatch",
        description="Experiment harness for match search under noisy machine representations.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", metavar="PATH", default=None)
    parser.add_argument(
        "--set",
        dest="overrides",
        metavar="KEY=VALUE",
        action="append",
        default=[],
        help="override one config key",
    )
    parser.add_argument("--out", metavar="DIR", default="runs")
    parser.add_argument("--seed", type=int, default=None, help="override master_seed")
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help=f"use reps={PAPER_SCALE_REPS}, n={PAPER_SCALE_N} (documented minutes of runtime)",
    )
    return parser


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        overrides = list(args.overrides)
        if args.seed is not None:
            overrides.append(f"master_seed={args.seed}")
        if args.paper_scale:
            overrides.append(f"reps={PAPER_SCALE_REPS}")
            overrides.append(f"n={PAPER_SCALE_N}")
        cfg = parse_config(args.config, overrides)
        result = COMMANDS[args.command](cfg, Path(args.out))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, QuadratureError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    for path in result.files:
        print(path)
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
