"""Command-line interface.

Subcommands: pd, spd, delta, critical-n, sweep, table1, simulate, mu-scan.
Parameter precedence: explicit flags > --config JSON file > built-in
defaults.  Exit codes: 0 success, 2 usage or domain error (including
unwritable outputs), 3 numerical failure.  "No safe level" is a regular
in-band result printed as "none".
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any

import numpy as np

from .analysis import (
    EPSILON_SAFE,
    LeverageScenario,
    critical_diversification,
    critical_table,
    default_chi_grid,
    delta_phi2,
    mu_sensitivity,
    regime_sweep,
    systemic_pd,
)
from .errors import ConfigError, DomainError
from .gaussian import DEFAULT_GRID, GridSpec, binorm_cdf
from .merton import BankStrategy, MarketParams, individual_pd, random_overlap_joint_pd, z_score
from .simulate import (
    FixedOverlap,
    RandomSelection,
    SimConfig,
    estimate_default_probs,
)

TABLE1_MARKET_SIZES = (10, 20, 30, 40)
TABLE1_CHIS = (1.6, 5.1, 8.9)
TABLE1_SCENARIOS = ((0.10, 0.25), (0.25, 0.50))

# Reference critical-diversification levels reported for the same parameter
# box; the table1 command prints computed values next to these with a diff.
PUBLISHED_CRITICAL_N = {
    (0.10, 0.25): {1.6: (3, 4, 5, 5), 5.1: (5, 8, 10, 11), 8.9: (6, 10, 13, 15)},
    (0.25, 0.50): {1.6: (5, 8, 10, 12), 5.1: (6, 11, 15, 18), 8.9: (7, 12, 17, 22)},
}


def compute_table1(
    method: str = "oracle", epsilon_safe: float = EPSILON_SAFE
) -> dict[tuple[float, float], dict[float, list[int | None]]]:
    """Critical diversification on the fixed (N, chi, scenario) box."""
    scenarios = [LeverageScenario(fn, fa) for fn, fa in TABLE1_SCENARIOS]
    tables = critical_table(
        scenarios, TABLE1_MARKET_SIZES, TABLE1_CHIS, method=method, epsilon_safe=epsilon_safe
    )
    return {
        pair: {chi: [table[(size, chi)] for size in TABLE1_MARKET_SIZES] for chi in TABLE1_CHIS}
        for pair, table in zip(TABLE1_SCENARIOS, tables)
    }


def _fmt_n(n: int | None) -> str:
    return "none" if n is None else str(n)


def _load_config(path: str | None) -> dict[str, Any]:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ConfigError("config file must contain a JSON object")
    return cfg


def _resolve(args: argparse.Namespace, cfg: dict[str, Any], name: str, default: Any) -> Any:
    value = getattr(args, name, None)
    if value is not None:
        return value
    if name in cfg:
        return cfg[name]
    return default


def _market(args: argparse.Namespace, cfg: dict[str, Any]) -> MarketParams:
    size = _resolve(args, cfg, "N", None)
    if size is None:
        raise ConfigError("market size --N is required")
    mu = float(_resolve(args, cfg, "mu", 0.0))
    chi = _resolve(args, cfg, "chi", None)
    sigma = _resolve(args, cfg, "sigma", None)
    horizon = float(_resolve(args, cfg, "T", 1.0))
    if chi is not None and sigma is not None:
        raise ConfigError("give either --chi or --sigma/--T, not both")
    if chi is not None:
        if horizon != 1.0:
            raise ConfigError("--T only applies with --sigma; chi fixes T = 1")
        return MarketParams.from_chi(int(size), float(chi), drift=mu)
    if sigma is not None:
        return MarketParams(int(size), float(sigma), horizon=horizon, drift=mu)
    raise ConfigError("one of --chi or --sigma is required")


def _grid_spec(args: argparse.Namespace, cfg: dict[str, Any]) -> GridSpec:
    cells = _resolve(args, cfg, "grid_cells", None)
    rng = _resolve(args, cfg, "grid_range", None)
    if cells is None and rng is None:
        return DEFAULT_GRID
    z_min, z_max = DEFAULT_GRID.z_min, DEFAULT_GRID.z_max
    if rng is not None:
        try:
            lo, hi = (float(part) for part in str(rng).split(":"))
        except ValueError as exc:
            raise ConfigError(f"--grid-range must look like '-8:8', got {rng!r}") from exc
        z_min, z_max = lo, hi
    return GridSpec(
        z_min=z_min,
        z_max=z_max,
        cells_per_axis=int(cells) if cells is not None else DEFAULT_GRID.cells_per_axis,
    )


def _scenario(args: argparse.Namespace, cfg: dict[str, Any]) -> LeverageScenario:
    fn = _resolve(args, cfg, "f_normal", None)
    fa = _resolve(args, cfg, "f_abnormal", None)
    if fn is None or fa is None:
        raise ConfigError("--f-normal and --f-abnormal are required")
    return LeverageScenario(float(fn), float(fa))


def _overlap(spec: str, n1: int, n2: int):
    if spec == "random":
        return RandomSelection()
    if spec.startswith("fixed:"):
        try:
            k = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"--overlap fixed:K needs an integer K, got {spec!r}") from exc
        return FixedOverlap(k)
    raise ConfigError(f"--overlap must be 'random' or 'fixed:K', got {spec!r}")


def _emit(args: argparse.Namespace, text: str) -> None:
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _format_scalar(args: argparse.Namespace, fields: dict[str, Any]) -> str:
    mode = getattr(args, "output", None) or "pretty"
    if mode == "json":
        return json.dumps(fields, indent=2) + "\n"
    if mode == "csv":
        head = ",".join(fields)
        row = ",".join(repr(v) if isinstance(v, float) else str(v) for v in fields.values())
        return f"{head}\r\n{row}\r\n"
    width = max(len(k) for k in fields)
    lines = []
    for k, v in fields.items():
        rendered = repr(v) if isinstance(v, float) else v
        lines.append(f"{k.ljust(width)}  {rendered}\n")
    return "".join(lines)


# ----------------------------------------------------------------- commands


def _cmd_pd(args, cfg) -> int:
    market = _market(args, cfg)
    strat = BankStrategy(float(_require(args, cfg, "f")), int(_require(args, cfg, "n")))
    fields = {
        "f": strat.leverage,
        "n": strat.diversification,
        "N": market.market_size,
        "chi": market.chi,
        "mu": market.drift,
        "z": z_score(strat, market),
        "pd": individual_pd(strat, market),
    }
    _emit(args, _format_scalar(args, fields))
    return 0


def _cmd_spd(args, cfg) -> int:
    market = _market(args, cfg)
    strat = BankStrategy(float(_require(args, cfg, "f")), int(_require(args, cfg, "n")))
    method = _resolve(args, cfg, "method", "oracle")
    fields = {
        "f": strat.leverage,
        "n": strat.diversification,
        "N": market.market_size,
        "chi": market.chi,
        "mu": market.drift,
        "rho": strat.diversification / market.market_size,
        "method": method,
        "systemic_pd": systemic_pd(strat, market, method=method, grid_spec=_grid_spec(args, cfg)),
    }
    _emit(args, _format_scalar(args, fields))
    return 0


def _cmd_delta(args, cfg) -> int:
    market = _market(args, cfg)
    scenario = _scenario(args, cfg)
    n = int(_require(args, cfg, "n"))
    method = _resolve(args, cfg, "method", "oracle")
    fields = {
        "f_normal": scenario.f_normal,
        "f_abnormal": scenario.f_abnormal,
        "delta_f": scenario.delta_f,
        "n": n,
        "N": market.market_size,
        "chi": market.chi,
        "mu": market.drift,
        "method": method,
        "delta_phi2": delta_phi2(scenario, n, market, method=method, grid_spec=_grid_spec(args, cfg)),
    }
    _emit(args, _format_scalar(args, fields))
    return 0


def _cmd_critical_n(args, cfg) -> int:
    market = _market(args, cfg)
    scenario = _scenario(args, cfg)
    method = _resolve(args, cfg, "method", "oracle")
    eps = float(_resolve(args, cfg, "eps_safe", EPSILON_SAFE))
    n_star = critical_diversification(
        scenario, market, method=method, epsilon_safe=eps, grid_spec=_grid_spec(args, cfg)
    )
    fields = {
        "f_normal": scenario.f_normal,
        "f_abnormal": scenario.f_abnormal,
        "N": market.market_size,
        "chi": market.chi,
        "mu": market.drift,
        "epsilon_safe": eps,
        "method": method,
        "critical_n": _fmt_n(n_star),
    }
    _emit(args, _format_scalar(args, fields))
    return 0


def _cmd_sweep(args, cfg) -> int:
    scenario = _scenario(args, cfg)
    sizes = [int(v) for v in str(_resolve(args, cfg, "N_values", "10,20,30,40")).split(",")]
    chi_points = int(_resolve(args, cfg, "chi_points", 100))
    chis = default_chi_grid(points=chi_points)
    method = _resolve(args, cfg, "method", "oracle")
    eps = float(_resolve(args, cfg, "eps_safe", EPSILON_SAFE))
    mu = float(_resolve(args, cfg, "mu", 0.0))
    out = getattr(args, "out", None)
    if not out:
        raise ConfigError("sweep requires --out PATH")
    result = regime_sweep(
        scenario,
        sizes,
        chis,
        mu=mu,
        method=method,
        epsilon_safe=eps,
        grid_spec=_grid_spec(args, cfg),
    )
    mode = getattr(args, "output", None) or "csv"
    if mode == "pretty":
        mode = "csv"
    payload = result.to_csv() if mode == "csv" else result.to_json()
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write(payload)
    for size in result.market_sizes():
        print(f"N={size}: risky fraction {result.risky_fraction(size)!r}")
    print(f"wrote {out}")
    return 0


def _cmd_table1(args, cfg) -> int:
    method = _resolve(args, cfg, "method", "oracle")
    eps = float(_resolve(args, cfg, "eps_safe", EPSILON_SAFE))
    computed = compute_table1(method=method, epsilon_safe=eps)
    lines = []
    header = "scenario        chi    " + "".join(f"N={size:<8}" for size in TABLE1_MARKET_SIZES)
    lines.append(header)
    for (fn, fa), by_chi in computed.items():
        for chi, values in by_chi.items():
            ref = PUBLISHED_CRITICAL_N[(fn, fa)][chi]
            cells = []
            for got, want in zip(values, ref):
                diff = "n/a" if got is None else f"{got - want:+d}"
                cells.append(f"{_fmt_n(got)}({diff})")
            lines.append(
                f"{{{fn},{fa}}}".ljust(16)
                + f"{chi:<7}"
                + "".join(c.ljust(10) for c in cells)
            )
    lines.append("cell format: computed(diff vs reference); 'none' = no safe level")
    print("\n".join(lines))
    out = getattr(args, "out", None)
    if out:
        # wide layout mirroring the printed table: one row per N, one value
        # column and one diff column per (scenario, chi) pair
        cols = [
            (fn, fa, chi)
            for fn, fa in TABLE1_SCENARIOS
            for chi in TABLE1_CHIS
        ]
        head = ["N"]
        head += [f"fn{fn}_fa{fa}_chi{chi}" for fn, fa, chi in cols]
        head += [f"fn{fn}_fa{fa}_chi{chi}_diff" for fn, fa, chi in cols]
        rows = [head]
        for i, size in enumerate(TABLE1_MARKET_SIZES):
            got_cells = [computed[(fn, fa)][chi][i] for fn, fa, chi in cols]
            refs = [PUBLISHED_CRITICAL_N[(fn, fa)][chi][i] for fn, fa, chi in cols]
            row = [str(size)]
            row += [_fmt_n(g) for g in got_cells]
            row += ["n/a" if g is None else f"{g - w:+d}" for g, w in zip(got_cells, refs)]
            rows.append(row)
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write("\r\n".join(",".join(r) for r in rows) + "\r\n")
        print(f"wrote {out}")
    return 0


def _cmd_simulate(args, cfg) -> int:
    market = _market(args, cfg)
    f = _resolve(args, cfg, "f", None)
    n = _resolve(args, cfg, "n", None)
    if f is None or n is None:
        raise ConfigError("simulate requires --f and --n (homogeneous banks)")
    strat = BankStrategy(float(f), int(n))
    overlap = _overlap(str(_resolve(args, cfg, "overlap", "random")), int(n), int(n))
    config = SimConfig(
        market=market,
        strategies=(strat, strat),
        overlap=overlap,
        paths=int(_resolve(args, cfg, "paths", 100_000)),
        steps_per_horizon=int(_resolve(args, cfg, "steps", 250)),
        seed=int(_resolve(args, cfg, "seed", 0)),
    )
    collect = getattr(args, "dump_terminals", None) is not None
    result = estimate_default_probs(config, collect_terminals=collect)
    if collect:
        path = args.dump_terminals
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write("path,terminal_assets_bank1,terminal_assets_bank2\r\n")
            for i, (a1, a2) in enumerate(result.terminal_values):
                fh.write(f"{i},{float(a1)!r},{float(a2)!r}\r\n")
        print(f"wrote {path}")

    pd_target = individual_pd(strat, market)
    z = z_score(strat, market)
    if isinstance(overlap, FixedOverlap):
        rho_target = overlap.shared / strat.diversification
        joint_target = mixture_target = binorm_cdf(z, z, rho_target)
    else:
        # the paper's mean-correlation value, and the model's exact joint PD
        rho_target = strat.diversification / market.market_size
        joint_target = binorm_cdf(z, z, rho_target)
        mixture_target = random_overlap_joint_pd(strat, market)
    fields = {
        "pd1_hat": result.pd1_hat,
        "pd2_hat": result.pd2_hat,
        "joint_pd_hat": result.joint_pd_hat,
        "se_pd1": result.se_pd1,
        "se_pd2": result.se_pd2,
        "se_joint": result.se_joint,
        "realized_correlation": result.realized_correlation,
        "target_correlation": rho_target,
        "analytic_pd": pd_target,
        "analytic_joint_pd": joint_target,
        "analytic_joint_pd_mixture": mixture_target,
        "pd1_abs_dev": abs(result.pd1_hat - pd_target),
        "pd2_abs_dev": abs(result.pd2_hat - pd_target),
        "joint_abs_dev": abs(result.joint_pd_hat - joint_target),
        "pd1_se_multiple": _se_multiple(result.pd1_hat, pd_target, result.se_pd1),
        "pd2_se_multiple": _se_multiple(result.pd2_hat, pd_target, result.se_pd2),
        "joint_se_multiple": _se_multiple(result.joint_pd_hat, joint_target, result.se_joint),
        "joint_se_multiple_mixture": _se_multiple(result.joint_pd_hat, mixture_target, result.se_joint),
        "paths_used": result.paths_used,
        "seed_used": result.seed_used,
    }
    _emit(args, _format_scalar(args, fields))
    return 0


def _se_multiple(est: float, target: float, se: float) -> float:
    return abs(est - target) / se if se > 0 else math.inf


def _cmd_mu_scan(args, cfg) -> int:
    market = _market(args, cfg)
    scenario = _scenario(args, cfg)
    method = _resolve(args, cfg, "method", "oracle")
    eps = float(_resolve(args, cfg, "eps_safe", EPSILON_SAFE))
    mus = [float(v) for v in str(_resolve(args, cfg, "mu_values", "-0.05,0,0.05")).split(",")]
    scan = mu_sensitivity(scenario, market, mus, method=method, epsilon_safe=eps)
    fields = {f"critical_n[mu={mu!r}]": _fmt_n(n_star) for mu, n_star in scan.items()}
    fields.update(
        {
            "f_normal": scenario.f_normal,
            "f_abnormal": scenario.f_abnormal,
            "N": market.market_size,
            "chi": market.chi,
        }
    )
    _emit(args, _format_scalar(args, fields))
    return 0


def _require(args, cfg, name: str) -> Any:
    value = _resolve(args, cfg, name, None)
    if value is None:
        raise ConfigError(f"--{name.replace('_', '-')} is required")
    return value


# ------------------------------------------------------------------- parser


def _add_market_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--N", type=int, help="number of available projects")
    p.add_argument("--chi", type=float, help="market risk constant sigma^2 T / 2 (implies T = 1)")
    p.add_argument("--sigma", type=float, help="project volatility (alternative to --chi)")
    p.add_argument("--T", type=float, help="horizon, default 1.0 (with --sigma)")
    p.add_argument("--mu", type=float, help="drift, default 0")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--method", choices=("grid", "oracle"), help="Phi2 evaluation route")
    p.add_argument("--grid-cells", dest="grid_cells", type=int, help="grid cells per axis")
    p.add_argument(
        "--grid-range",
        dest="grid_range",
        help="grid range as zmin:zmax; use --grid-range=-8:8 for negatives",
    )
    p.add_argument("--output", choices=("csv", "json", "pretty"), help="output format")
    p.add_argument("--out", help="write primary output to this path")
    p.add_argument("--config", help="JSON file with default parameter values")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levdiv",
        description="Leverage, diversification and joint bank default probabilities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pd", help="individual default probability Phi1(z)")
    p.add_argument("--f", type=float, help="leverage in (0,1)")
    p.add_argument("--n", type=int, help="diversification count")
    _add_market_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_pd)

    p = sub.add_parser("spd", help="systemic (joint) default probability Phi2(z, z, n/N)")
    p.add_argument("--f", type=float)
    p.add_argument("--n", type=int)
    _add_market_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_spd)

    p = sub.add_parser("delta", help="systemic risk increase from excessive leverage")
    p.add_argument("--f-normal", dest="f_normal", type=float)
    p.add_argument("--f-abnormal", dest="f_abnormal", type=float)
    p.add_argument("--n", type=int)
    _add_market_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_delta)

    p = sub.add_parser("critical-n", help="minimum diversification with a safe suffix")
    p.add_argument("--f-normal", dest="f_normal", type=float)
    p.add_argument("--f-abnormal", dest="f_abnormal", type=float)
    p.add_argument("--eps-safe", dest="eps_safe", type=float)
    _add_market_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_critical_n)

    p = sub.add_parser("sweep", help="regime map over (N, n, chi)")
    p.add_argument("--f-normal", dest="f_normal", type=float)
    p.add_argument("--f-abnormal", dest="f_abnormal", type=float)
    p.add_argument("--N-values", dest="N_values", help="comma list, default 10,20,30,40")
    p.add_argument("--chi-points", dest="chi_points", type=int, help="log-spaced chi count, default 100")
    p.add_argument("--eps-safe", dest="eps_safe", type=float)
    p.add_argument("--mu", type=float)
    _add_common(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("table1", help="critical diversification on the reference box, with diffs")
    p.add_argument("--eps-safe", dest="eps_safe", type=float)
    _add_common(p)
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("simulate", help="Monte Carlo default frequencies vs analytic values")
    p.add_argument("--f", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--paths", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--overlap", help="'random' or 'fixed:K'")
    p.add_argument("--dump-terminals", dest="dump_terminals", help="CSV path for per-path terminal values")
    _add_market_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("mu-scan", help="critical diversification as a function of drift")
    p.add_argument("--f-normal", dest="f_normal", type=float)
    p.add_argument("--f-abnormal", dest="f_abnormal", type=float)
    p.add_argument(
        "--mu-values",
        dest="mu_values",
        help="comma list of drifts; use --mu-values=-0.05,0,0.05 for negatives",
    )
    p.add_argument("--eps-safe", dest="eps_safe", type=float)
    _add_market_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_mu_scan)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(getattr(args, "config", None))
        return args.func(args, cfg)
    except (DomainError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
