"""Experiment harness: config parsing, named experiment commands, CSV/JSON output.

Config files are line-oriented ``key = value`` text with ``#`` comments.
Unknown keys are hard errors. Each run writes into a directory named by
the hash of the canonical config text: a config echo, one CSV per
command, and a JSON summary. CSV bytes are a pure function of
(config, seed): no timestamps, LF line endings, fixed float formatting,
so reruns are byte-identical.

Each command is a :class:`Command` declaration: a row source and the
ordered CSV columns evaluated on its rows.

Exit codes: 0 success, 2 config error (including an unusable ``--out``),
3 numeric failure (including any other unexpected library error).
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

from . import __version__, analytic, simulate
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

# Platform entries of the reference comparison table (sigma = 0.05, pool
# 10^4, 1000 replications) at the calibration rows. The k=1 entry is the
# anchor: it discriminates the std-dev reading of the noise parameter
# from the variance reading.
REFERENCE_D_AI = {1: 0.0551, 5: 0.1743, 10: 0.3664}
CALIBRATION_TOL = 0.01

PAPER_SCALE_REPS = 1000
PAPER_SCALE_N = 10_000


class ConfigError(Exception):
    """A configuration file or override could not be interpreted."""


def _int(raw: str) -> int:
    return int(raw, 0)


def _tuple(item):
    return lambda raw: tuple(item(part.strip()) for part in raw.split(",") if part.strip())


def _optional(parse):
    return lambda raw: None if raw.lower() in ("none", "") else parse(raw)


def _grid(rule):
    # none, or a nonempty tuple whose every entry obeys the rule
    return lambda value: value is None or (value != () and all(map(rule, value)))


def noise_variance(noise: float, convention: str) -> float:
    """Per-clone noise variance that a noise value denotes under a convention."""
    return noise**2 if convention == STD_DEV else noise


# accepted variances: the derived scales 2v, 4v, 64v and 1/(4v) stay finite
# and nonzero, and a noise value squared neither overflows nor flushes to 0
_MIN_VARIANCE = 1e-300
_MAX_VARIANCE = 1e300
_VARIANCE_TEXT = f"a real in [{_MIN_VARIANCE:g}, {_MAX_VARIANCE:g}]"
_MAX_DIM = 2**53  # a dimension is exact as a double up to here
# one clone batch peaks at about 448 bytes a draw, so a batch of n draws stays
# under 0.5 GB; that is 100 times the paper's pool of 10^4
_MAX_POOL = 10**6
_CLONE_MODES = (simulate.PER_INTERACTION, simulate.FIXED_SUBJECT_CLONE)


def _is_dim(k: int) -> bool:
    return 1 <= k <= _MAX_DIM


def _is_variance(variance: float) -> bool:
    return _MIN_VARIANCE <= variance <= _MAX_VARIANCE


def _variance_in_range(noise: float, convention: str) -> bool:
    try:
        return _is_variance(noise_variance(noise, convention))
    except OverflowError:
        return False


def _key(default, parse, text: str, rule):
    # one config key: its default, the parser of its text, and the rule every
    # value obeys, with the rule's text for the error
    return dataclasses.field(default=default, metadata={"parse": parse, "text": text, "rule": rule})


@dataclass(frozen=True)
class ModelConfig:
    """Full deterministic identity of an experiment run."""

    k: int = _key(5, _int, "an integer in [1, 2**53]", _is_dim)
    noise_param: float = _key(0.05, float, "a positive real", lambda v: v > 0)
    noise_convention: str = _key(STD_DEV, str, f"one of {STD_DEV}|{VARIANCE}", (STD_DEV, VARIANCE).__contains__)
    n: int = _key(2000, _int, f"an integer in [1, {_MAX_POOL}]", lambda v: 1 <= v <= _MAX_POOL)
    reps: int = _key(200, _int, "an integer >= 2", lambda v: v >= 2)
    master_seed: int = _key(0, _int, "an unsigned 64-bit integer", lambda v: 0 <= v < 2**64)
    clone_mode: str = _key(
        simulate.PER_INTERACTION, str, f"one of {'|'.join(_CLONE_MODES)}", _CLONE_MODES.__contains__
    )
    group_sigma_r2: float = _key(0.01, float, _VARIANCE_TEXT, _is_variance)
    group_sigma_p2: float = _key(0.04, float, _VARIANCE_TEXT, _is_variance)
    k_grid: tuple[int, ...] | None = _key(
        None, _optional(_tuple(_int)), "a nonempty comma list of integers in [1, 2**53], or none",
        _grid(_is_dim),
    )
    sigma_grid: tuple[float, ...] | None = _key(
        None, _optional(_tuple(float)), "a nonempty comma list of positive reals, or none",
        _grid(lambda v: v > 0),
    )
    seq_kappa: float | None = _key(
        None, _optional(float), "a nonnegative real, or none", lambda v: v is None or v >= 0
    )
    seq_cost_ip_per_period: float = _key(0.005, float, "a nonnegative real", lambda v: v >= 0)
    seq_cost_ai_per_period: float = _key(0.0, float, "a nonnegative real", lambda v: v >= 0)
    seq_cap: int = _key(10_000, _int, "a positive integer", lambda v: v >= 1)

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            values = value if isinstance(value, tuple) else (value,)
            if any(isinstance(v, float) and not math.isfinite(v) for v in values):
                raise ConfigError(f"{field.name} must be finite, got {value!r}")
            if not field.metadata["rule"](value):
                raise ConfigError(f"{field.name} must be {field.metadata['text']}, got {value!r}")
        # calibrate reads noise_param both ways, so every noise value must
        # give a variance in range under either convention
        for noise in (self.noise_param, *(self.sigma_grid or ())):
            if not all(_variance_in_range(noise, c) for c in (STD_DEV, VARIANCE)):
                raise ConfigError(
                    f"noise value {noise!r} must give a per-clone variance in"
                    f" [{_MIN_VARIANCE:g}, {_MAX_VARIANCE:g}] under both conventions"
                )
        if not self.group_sigma_r2 < self.group_sigma_p2:
            raise ConfigError("group_sigma_r2 must be below group_sigma_p2")

    def noise_variance_per_clone(self) -> float:
        return noise_variance(self.noise_param, self.noise_convention)

    def group(self) -> GroupSpec:
        return GroupSpec(self.group_sigma_r2, self.group_sigma_p2)

    def canonical_text(self) -> str:
        lines = []
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, tuple):
                value = ",".join(_canonical(v) for v in value)
            lines.append(f"{field.name} = {'none' if value is None else _canonical(value)}")
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


def _canonical(value) -> str:
    # the CSV format where it reads back exactly; else repr, so that configs
    # differing past the 12th digit never share a hash or a run directory
    text = _fmt(value)
    return repr(value) if isinstance(value, float) and float(text) != value else text


def parse_config(path: str | Path | None = None, overrides=()) -> ModelConfig:
    """Build a ModelConfig from an optional file plus key=value overrides."""
    items = []
    if path is not None:
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        for lineno, line in enumerate(text.splitlines(), start=1):
            text = line.split("#", 1)[0].strip()
            if text:
                items.append((f"{path}:{lineno}", text))
    items += [("override", item) for item in overrides]
    fields = {field.name: field for field in dataclasses.fields(ModelConfig)}
    values: dict = {}
    for where, item in items:
        key, sep, raw = item.partition("=")
        key = key.strip()
        if not sep:
            raise ConfigError(f"{where}: expected key=value, got {item!r}")
        if key not in fields:
            raise ConfigError(f"{where}: unknown key {key!r}")
        spec = fields[key].metadata
        try:
            values[key] = spec["parse"](raw.strip())
        except ValueError as exc:
            raise ConfigError(f"{where}: key {key!r} expects {spec['text']}: {exc}") from exc
    return ModelConfig(**values)


def _write_atomic(path: Path, data: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(data)
    os.replace(tmp, path)


@dataclass(frozen=True)
class Command:
    """One experiment: a row source and the ordered CSV columns read from it.

    ``rows(cfg)`` yields one dict of fields per CSV row. Each
    column is ``(name, meaning, value)``: ``value(row)`` reads the fields
    and the columns to its left as attributes, and ``None`` keeps the
    field of that name. ``{cfg...}`` in a meaning is filled from the
    config. Every CSV ends with a ``config_hash`` column.
    """

    name: str
    rows: Callable
    columns: tuple
    metrics: Callable = lambda rows: {}
    provenance: Callable = lambda metrics: {}

    def __call__(self, cfg: ModelConfig, out_root: Path) -> ExperimentResult:
        config_hash = cfg.config_hash()
        # the run directory is made and written to before any compute, so an
        # unusable --out fails at once
        run_dir = out_root / config_hash
        try:
            run_dir.mkdir(parents=True, exist_ok=True)
            _write_atomic(run_dir / "config.txt", cfg.canonical_text())
        except OSError as exc:
            raise ConfigError(f"{self.name}: --out {str(out_root)!r} is not a usable directory: {exc}") from exc
        header = [(name, meaning.format(cfg=cfg)) for name, meaning, _ in self.columns]
        header.append(("config_hash", "hash of the canonical config"))
        rows = []
        for fields in self.rows(cfg):
            row = SimpleNamespace(**fields, config_hash=config_hash)
            for name, _, value in self.columns:
                if value is not None:
                    setattr(row, name, value(row))
            rows.append({name: getattr(row, name) for name, _ in header})
        metrics = self.metrics(rows)
        provenance = {
            "artifact_version": __version__,
            "master_seed": cfg.master_seed,
            "noise_convention": cfg.noise_convention,
            **self.provenance(metrics),
        }
        # header cells are "name: meaning"; comma-free by construction, LF endings
        lines = [",".join(f"{name}: {meaning}" for name, meaning in header)]
        lines += [",".join(_fmt(row[name]) for name, _ in header) for row in rows]
        csv_path = run_dir / f"{self.name}.csv"
        _write_atomic(csv_path, "\n".join(lines) + "\n")
        summary = {
            "command": self.name,
            "version": __version__,
            "config_hash": config_hash,
            "generated_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "config": json.loads(json.dumps(dataclasses.asdict(cfg))),
            "files": [csv_path.name],
            "metrics": metrics,
            "provenance": provenance,
        }
        summary_path = run_dir / "summary.json"
        _write_atomic(summary_path, json.dumps(summary, indent=2, sort_keys=True) + "\n")
        return ExperimentResult(cfg, self.name, rows, metrics, [csv_path, summary_path], provenance)


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _duel_rows(default_grid):
    # two in-person draws and the platform at each k, both by Monte Carlo
    def rows(cfg: ModelConfig):
        variance = cfg.noise_variance_per_clone()
        for k in cfg.k_grid or default_grid:
            ip = simulate.estimate_d_ip(k, 2, cfg.reps, cfg.master_seed)
            ai = simulate.estimate_d_ai(k, cfg.n, variance, cfg.reps, cfg.clone_mode, cfg.master_seed)
            yield dict(k=k, variance=variance, ip=ip, ai=ai)

    return rows


_DUEL_COLUMNS = {
    "k": ("number of attribute dimensions", None),
    "d_ip2_closed": ("closed-form expected distance to the better of two draws",
                     lambda r: analytic.d_ip2_identity(r.k)),
    "d_ai_inf": ("saturated-platform lower bound on the match distance",
                 lambda r: analytic.d_ai_infinity(r.k, r.variance)),
    "d_ip2_mc": ("Monte Carlo estimate of the two-draw in-person distance", lambda r: r.ip.mean),
    "se_ip": ("standard error of d_ip2_mc", lambda r: r.ip.std_error),
    "d_ai_mc": ("Monte Carlo estimate of the platform match distance", lambda r: r.ai.mean),
    "se_ai": ("standard error of d_ai_mc", lambda r: r.ai.std_error),
    "benchmark": ("expected distance to a single uniform draw k/(k+1)",
                  lambda r: analytic.benchmark_single_draw(r.k)),
    "winner": ("regime with the smaller estimated distance",
               lambda r: "ai" if r.d_ai_mc < r.d_ip2_mc else "ip"),
}


def _duel_columns(names: str) -> tuple:
    return tuple((name, *_DUEL_COLUMNS[name]) for name in names.split())


# Main comparison table: two in-person draws versus the noisy platform.
cmd_table1 = Command(
    "table1",
    _duel_rows(TABLE_K_GRID),
    _duel_columns("k d_ip2_closed d_ip2_mc se_ip d_ai_mc se_ai benchmark winner"),
    metrics=lambda rows: {
        "first_in_person_win_k": next((r["k"] for r in rows if r["winner"] == "ip"), None)
    },
)

# Dense-grid version of the comparison with analytic overlays.
cmd_figure2 = Command(
    "figure2",
    _duel_rows(FIGURE_K_GRID),
    _duel_columns("k d_ip2_closed d_ai_inf d_ip2_mc se_ip d_ai_mc se_ai benchmark"),
)


def _mstar_rows(cfg: ModelConfig):
    for k in cfg.k_grid or MSTAR_K_GRID:
        for noise in cfg.sigma_grid or MSTAR_SIGMA_GRID:
            variance = noise_variance(noise, cfg.noise_convention)
            yield dict(k=k, noise_param=noise, variance_per_clone=variance)


# The bound-certified equivalent sample size over (k, noise) grids.
cmd_mstar = Command(
    "mstar",
    _mstar_rows,
    (
        ("k", "number of attribute dimensions", None),
        ("noise_param", "noise parameter under the {cfg.noise_convention} convention", None),
        ("variance_per_clone", "per-clone noise variance implied by the convention", None),
        ("m_star_bound", "equivalent sample size certified against the infinite-pool bound",
         lambda r: analytic.ai_equivalent_bound(r.k, r.variance_per_clone)),
        ("two_draw_regime", "whether two in-person draws already dominate",
         lambda r: _yes(r.m_star_bound == 2)),
    ),
    metrics=lambda rows: {"rows_in_two_draw_regime": sum(r["m_star_bound"] == 2 for r in rows)},
)


def _group_rows(cfg: ModelConfig):
    r2 = cfg.group_sigma_r2
    cells = [("control", cfg.k, GroupSpec.unchecked(r2, r2))]
    cells += [("dimension-sweep", k, cfg.group()) for k in cfg.k_grid or GROUPS_K_GRID]
    cells += [("disparity-sweep", cfg.k, GroupSpec(r2, r2 * ratio)) for ratio in GROUPS_RATIO_GRID]
    for section, k, spec in cells:
        mc = simulate.estimate_group_win_rate(k, spec, cfg.n, cfg.reps, cfg.master_seed)
        yield dict(section=section, k=k, spec=spec, mc=mc)


# Data-rich versus data-poor selection rates: analytic, bound, and MC.
cmd_groups = Command(
    "groups",
    _group_rows,
    (
        ("section", "sweep the row belongs to", None),
        ("k", "number of attribute dimensions", None),
        ("sigma_r2", "data-rich per-clone noise variance", lambda r: r.spec.sigma_r2),
        ("sigma_p2", "data-poor per-clone noise variance", lambda r: r.spec.sigma_p2),
        ("analytic_win", "large-population probability the match is data-rich",
         lambda r: analytic.rich_win_probability(r.k, r.spec)),
        ("win_lower_bound", "closed-form lower bound on that probability",
         lambda r: analytic.rich_win_lower_bound(r.k, r.spec)),
        ("mc_win", "Monte Carlo win rate of the data-rich pool", lambda r: r.mc.mean),
        ("mc_se", "standard error of mc_win", lambda r: r.mc.std_error),
        ("equal_variance_control", "degenerate equal-noise control row",
         lambda r: _yes(r.sigma_r2 == r.sigma_p2)),
    ),
)


def _seq_rows(cfg: ModelConfig):
    variance = cfg.noise_variance_per_clone()
    cost_ip = AffineCost(per_period=cfg.seq_cost_ip_per_period)
    cost_ai = AffineCost(per_period=cfg.seq_cost_ai_per_period)
    kappa = cfg.seq_kappa if cfg.seq_kappa is not None else cost_ip(2) + 0.01
    # typical clone-distance scale sqrt(E R^2 + k nu) anchors the threshold grid
    s_typ = math.sqrt(cfg.k / (cfg.k + 2.0) + 2.0 * cfg.k * variance)
    rules = [(f"ip_stop{t}", simulate.IN_PERSON, StopAtFixedT(t)) for t in (1, 2, 4)]
    rules += [
        (f"ai_threshold_{f:g}", simulate.AI_PLATFORM, StopWhenBestBelow(f * s_typ, cfg.seq_cap))
        for f in (0.85, 0.95, 1.0)
    ]
    rules.append(("ai_exhaust_cap", simulate.AI_PLATFORM, StopWhenBestBelow(0.0, cfg.seq_cap)))
    for name, regime, rule in rules:
        policy = SeqSearchPolicy(regime, rule, cost_ip, cost_ai, kappa)
        report = simulate.evaluate_seq_policy(cfg.k, variance, policy, cfg.reps, cfg.master_seed)
        yield dict(policy=name, regime=regime, rule=rule, report=report)


def _seq_metrics(rows: list[dict]) -> dict:
    # a necessary-condition check over this policy family, not a search
    # over all stopping rules
    best = max((r for r in rows if r["policy"].startswith("ai_")), key=lambda r: r["mean_payoff"])
    ip2 = next(r for r in rows if r["policy"] == "ip_stop2")
    gap = ip2["mean_payoff"] - best["mean_payoff"]
    return {
        "best_ai_policy": best["policy"],
        "in_person_two_draw_payoff": ip2["mean_payoff"],
        "best_ai_payoff": best["mean_payoff"],
        "dominance_gap": gap,
        "dominance_within_two_se": bool(gap >= -2.0 * math.hypot(ip2["se"], best["se"])),
        "policy_grid_check": "necessary-condition over the listed policy family",
    }


# Expected payoffs of stopping policies in both regimes; the summary
# compares the best platform policy with stopping in person after two draws.
cmd_seqsearch = Command(
    "seqsearch",
    _seq_rows,
    (
        ("policy", "policy identifier", None),
        ("regime", "search regime", None),
        ("rule", "stopping rule",
         lambda r: f"stop_at_t={r.rule.t}" if isinstance(r.rule, StopAtFixedT)
         else f"threshold={r.rule.threshold:.6g};cap={r.rule.cap}"),
        ("kappa", "platform entry fee", lambda r: r.report.policy.kappa),
        ("mean_payoff", "estimated expected payoff", lambda r: r.report.payoff.mean),
        ("se", "standard error of the payoff estimate", lambda r: r.report.payoff.std_error),
        ("truncated_reps", "replications stopped by the cap instead of the rule",
         lambda r: r.report.truncated_reps),
    ),
    metrics=_seq_metrics,
)


def _calibration_rows(cfg: ModelConfig):
    for convention in (STD_DEV, VARIANCE):
        variance = noise_variance(cfg.noise_param, convention)
        for k in REFERENCE_D_AI:
            est = simulate.estimate_d_ai(k, cfg.n, variance, cfg.reps, cfg.clone_mode, cfg.master_seed)
            yield dict(convention=convention, k=k, variance_per_clone=variance, est=est)


def _calibration_metrics(rows: list[dict]) -> dict:
    k1_dev = {r["convention"]: abs(r["deviation"]) for r in rows if r["k"] == 1}
    metrics = {"resolved_convention": min(k1_dev, key=k1_dev.get)}
    for conv in (STD_DEV, VARIANCE):
        metrics[f"k1_abs_deviation_{conv}"] = k1_dev[conv]
        metrics[f"all_rows_reproduced_{conv}"] = all(
            r["within_tolerance"] == "yes" for r in rows if r["convention"] == conv
        )
    return metrics


# Resolve the noise-parameter convention against the reference table: the
# platform estimator under both readings of noise_param at k in (1, 5, 10).
# The k=1 row is the binding discriminator; per-row deviations are emitted
# so a convention that fails some rows is documented rather than hidden.
cmd_calibrate = Command(
    "calibrate",
    _calibration_rows,
    (
        ("convention", "reading of noise_param under test", None),
        ("k", "number of attribute dimensions", None),
        ("variance_per_clone", "per-clone noise variance implied by the convention", None),
        ("analytic_lower_bound", "saturated-platform lower bound",
         lambda r: analytic.d_ai_infinity(r.k, r.variance_per_clone)),
        ("mc_estimate", "Monte Carlo platform distance", lambda r: r.est.mean),
        ("se", "standard error of the estimate", lambda r: r.est.std_error),
        ("reference", "reference value for this row", lambda r: REFERENCE_D_AI[r.k]),
        ("deviation", "estimate minus reference", lambda r: r.mc_estimate - r.reference),
        ("within_tolerance", f"|deviation| <= {CALIBRATION_TOL}",
         lambda r: _yes(abs(r.deviation) <= CALIBRATION_TOL)),
    ),
    metrics=_calibration_metrics,
    provenance=lambda metrics: {"noise_convention_resolved": metrics["resolved_convention"]},
)

COMMANDS = {
    cmd.name: cmd
    for cmd in (cmd_table1, cmd_figure2, cmd_mstar, cmd_groups, cmd_seqsearch, cmd_calibrate)
}


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mirrormatch",
        description="Experiment harness for match search under noisy machine representations.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", metavar="PATH", default=None)
    parser.add_argument(
        "--set", dest="overrides", metavar="KEY=VALUE", action="append", default=[],
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
    # What exists now is import-time state that lives until exit. Frozen, it
    # is skipped by every later collection, so the full ones at interpreter
    # shutdown no longer walk it: exit after the imports took 17 ms, not 74.
    gc.freeze()
    args = build_arg_parser().parse_args(argv)
    try:
        overrides = list(args.overrides)
        if args.seed is not None:
            overrides.append(f"master_seed={args.seed}")
        if args.paper_scale:
            overrides += [f"reps={PAPER_SCALE_REPS}", f"n={PAPER_SCALE_N}"]
        cfg = parse_config(args.config, overrides)
        result = COMMANDS[args.command](cfg, Path(args.out))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, QuadratureError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a library failure no check anticipated
        print(f"{args.command}: unexpected {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    for path in result.files:
        print(path)
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
