"""Command-line interface.

Subcommands: pd, spd, delta, critical-n, sweep, table1, simulate, mu-scan.
Two tables and one runner: ``FLAGS`` declares each flag once (type,
default, choices, help), and that type converts both command-line text and
``--config`` values.  ``COMMANDS`` gives each subcommand its function, help
and the flags it reads; other flags are usage errors, and only a command
named in argv gets them registered.  ``main`` resolves
each flag (explicit flag > --config JSON file > built-in default) into one
parameter dict for the command, formats the fields it returns (pretty, csv
or json) to stdout or --out (sweep and table1 write their own output), and
maps exceptions to exit codes: 0 success, 2 usage or domain error
(including malformed config and unwritable outputs), 3 numerical failure
(including a box too large for memory).
"No safe level" is a regular in-band result printed as "none".
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any, Callable, NamedTuple

from .analysis import (
    EPSILON_SAFE,
    LeverageScenario,
    critical_diversification,
    critical_table,
    default_chi_grid,
    delta_phi2,
    mu_sensitivity,
    regime_sweep,
)
from .errors import ConfigError, DomainError
from .merton import BankStrategy, FixedOverlap, MarketParams, RandomSelection, correlation_law, individual_pd
from .merton import systemic_pd, z_score
from .simulate import SimConfig, estimate_default_probs

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
    tables = critical_table(scenarios, TABLE1_MARKET_SIZES, TABLE1_CHIS, method, epsilon_safe)
    return {
        pair: {chi: [table[(size, chi)] for size in TABLE1_MARKET_SIZES] for chi in TABLE1_CHIS}
        for pair, table in zip(TABLE1_SCENARIOS, tables)
    }


def _number(kind: type) -> Callable[[Any], Any]:
    def parse(value: Any) -> Any:  # a flag's string, or any JSON value from --config
        if isinstance(value, bool) or (kind is int and isinstance(value, float) and not value.is_integer()):
            raise ValueError(repr(value))
        return kind(value)

    parse.__name__ = kind.__name__  # argparse names the type in usage errors
    return parse


_int, _float = _number(int), _number(float)


def _list_of(item: Callable[[Any], Any]) -> Callable[[Any], list]:
    def parse(value: Any) -> list:  # a comma list such as --N-values 10,20, or a JSON array
        return [item(part) for part in (value if isinstance(value, list) else str(value).split(","))]

    parse.__name__ = f"{item.__name__} list"
    return parse


class Flag(NamedTuple):
    type: Callable[[Any], Any]
    help: str
    default: Any = None
    choices: tuple[str, ...] | None = None


# One entry per flag, keyed by its dest, which is also its --config key: --f-normal is "f_normal".
FLAGS: dict[str, Flag] = {
    "f": Flag(_float, "leverage in (0,1)"),
    "n": Flag(_int, "diversification count"),
    "f_normal": Flag(_float, "leverage in normal times, in (0,1)"),
    "f_abnormal": Flag(_float, "excessive leverage, in (f_normal, 1)"),
    "N": Flag(_int, "number of available projects"),
    "chi": Flag(_float, "market risk constant sigma^2 T / 2 (implies T = 1)"),
    "sigma": Flag(_float, "project volatility (alternative to --chi)"),
    "T": Flag(_float, "horizon, default 1.0 (with --sigma)", 1.0),
    "mu": Flag(_float, "drift, default 0", 0.0),
    "eps_safe": Flag(_float, "safety threshold on delta_phi2", EPSILON_SAFE),
    "N_values": Flag(_list_of(_int), "comma list, default 10,20,30,40", (10, 20, 30, 40)),
    "chi_points": Flag(_int, "log-spaced chi count, default 100", 100),
    "mu_values": Flag(
        _list_of(_float), "comma list of drifts; use --mu-values=-0.05,0,0.05 for negatives", (-0.05, 0.0, 0.05)
    ),
    "method": Flag(str, "Phi2 evaluation route", "oracle", ("grid", "oracle")),
    "paths": Flag(_int, "Monte Carlo paths, default 100000", 100_000),
    "steps": Flag(_int, "rebalancing steps per unit horizon, default 250", 250),
    "seed": Flag(_int, "random seed, default 0", 0),
    "overlap": Flag(str, "'random' or 'fixed:K'", "random"),
    "dump_terminals": Flag(str, "CSV path for per-path terminal values"),
    "output": Flag(str, "output format", "pretty", ("csv", "json", "pretty")),
    "out": Flag(str, "write primary output to this path"),
    "config": Flag(str, "JSON file with default parameter values"),
}

MARKET = ("N", "chi", "sigma", "T", "mu")
SCENARIO = ("f_normal", "f_abnormal")
OUTPUT = ("output", "out")


def _coerce(name: str, value: Any) -> Any:
    """Convert a --config value with its flag's type and choices."""
    flag = FLAGS[name]
    try:
        converted = flag.type(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config value {name}={value!r} is not a valid {flag.type.__name__}") from exc
    if flag.choices is not None and converted not in flag.choices:
        raise ConfigError(f"config value {name}={value!r} is not one of {', '.join(flag.choices)}")
    return converted


def _fmt_n(n: int | None) -> str:
    return "none" if n is None else str(n)


def _require(p: dict[str, Any], name: str) -> Any:
    if p[name] is None:
        raise ConfigError(f"--{name.replace('_', '-')} is required")
    return p[name]


def _market(p: dict[str, Any]) -> MarketParams:
    if p["N"] is None:
        raise ConfigError("market size --N is required")
    if p["chi"] is not None and p["sigma"] is not None:
        raise ConfigError("give either --chi or --sigma/--T, not both")
    if p["chi"] is not None:
        if p["T"] != 1.0:
            raise ConfigError("--T only applies with --sigma; chi fixes T = 1")
        return MarketParams(p["N"], p["chi"], drift=p["mu"])
    if p["sigma"] is not None:
        return MarketParams.from_sigma(p["N"], p["sigma"], horizon=p["T"], drift=p["mu"])
    raise ConfigError("one of --chi or --sigma is required")


def _scenario(p: dict[str, Any]) -> LeverageScenario:
    if p["f_normal"] is None or p["f_abnormal"] is None:
        raise ConfigError("--f-normal and --f-abnormal are required")
    return LeverageScenario(p["f_normal"], p["f_abnormal"])


def _overlap(spec: str):
    if spec == "random":
        return RandomSelection()
    if spec.startswith("fixed:"):
        try:
            k = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"--overlap fixed:K needs an integer K, got {spec!r}") from exc
        return FixedOverlap(k)
    raise ConfigError(f"--overlap must be 'random' or 'fixed:K', got {spec!r}")


def _format(mode: str, fields: dict[str, Any]) -> str:
    if mode == "json":
        return json.dumps(fields, indent=2) + "\n"
    text = {k: repr(v) if isinstance(v, float) else str(v) for k, v in fields.items()}
    if mode == "csv":
        return f"{','.join(text)}\r\n{','.join(text.values())}\r\n"
    width = max(len(k) for k in text)
    return "".join(f"{k.ljust(width)}  {v}\n" for k, v in text.items())


# ----------------------------------------------------------------- commands


def _bank(p: dict[str, Any]) -> tuple[BankStrategy, MarketParams, dict[str, Any]]:
    """The bank and its market, and the fields that pd and spd print first."""
    market = _market(p)
    f, n = _require(p, "f"), _require(p, "n")
    return BankStrategy(f, n), market, dict(f=f, n=n, N=market.market_size, chi=market.chi, mu=market.drift)


def _pd(p: dict[str, Any]) -> dict[str, Any]:
    strat, market, cell = _bank(p)
    return {**cell, "z": z_score(strat, market), "pd": individual_pd(strat, market)}


def _spd(p: dict[str, Any]) -> dict[str, Any]:
    strat, market, cell = _bank(p)
    return {
        **cell,
        "rho": correlation_law(strat.diversification, market.market_size)[0],
        "method": p["method"],
        "systemic_pd": systemic_pd(strat, market, p["method"]),
    }


def _delta(p: dict[str, Any]) -> dict[str, Any]:
    market = _market(p)
    scenario = _scenario(p)
    n = _require(p, "n")
    return {
        "f_normal": scenario.f_normal,
        "f_abnormal": scenario.f_abnormal,
        "delta_f": scenario.delta_f,
        "n": n,
        "N": market.market_size,
        "chi": market.chi,
        "mu": market.drift,
        "method": p["method"],
        "delta_phi2": delta_phi2(scenario, n, market, p["method"]),
    }


def _critical_n(p: dict[str, Any]) -> dict[str, Any]:
    market = _market(p)
    scenario = _scenario(p)
    n_star = critical_diversification(scenario, market, p["method"], p["eps_safe"])
    return {
        "f_normal": scenario.f_normal,
        "f_abnormal": scenario.f_abnormal,
        "N": market.market_size,
        "chi": market.chi,
        "mu": market.drift,
        "epsilon_safe": p["eps_safe"],
        "method": p["method"],
        "critical_n": _fmt_n(n_star),
    }


def _sweep(p: dict[str, Any]) -> None:
    scenario = _scenario(p)
    chis = default_chi_grid(points=p["chi_points"])
    out = p["out"]
    if not out:
        raise ConfigError("sweep requires --out PATH")
    result = regime_sweep(
        scenario,
        p["N_values"],
        chis,
        mu=p["mu"],
        method=p["method"],
        epsilon_safe=p["eps_safe"],
    )
    payload = result.to_json() if p["output"] == "json" else result.to_csv()
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write(payload)
    for size in result.market_sizes():
        print(f"N={size}: risky fraction {result.risky_fraction(size)!r}")
    print(f"wrote {out}")


def _table1(p: dict[str, Any]) -> None:
    computed = compute_table1(p["method"], p["eps_safe"])
    # per (scenario, chi): one printed row, and a value and a diff column in
    # the --out CSV, which has one row per N
    cols = [(fn, fa, chi) for fn, fa in TABLE1_SCENARIOS for chi in TABLE1_CHIS]
    got = [computed[(fn, fa)][chi] for fn, fa, chi in cols]
    diffs = [
        ["n/a" if g is None else f"{g - w:+d}" for g, w in zip(values, PUBLISHED_CRITICAL_N[(fn, fa)][chi])]
        for values, (fn, fa, chi) in zip(got, cols)
    ]
    print("scenario        chi    " + "".join(f"N={size:<8}" for size in TABLE1_MARKET_SIZES))
    for (fn, fa, chi), values, diff in zip(cols, got, diffs):
        cells = "".join(f"{_fmt_n(g)}({d})".ljust(10) for g, d in zip(values, diff))
        print(f"{{{fn},{fa}}}".ljust(16) + f"{chi:<7}" + cells)
    print("cell format: computed(diff vs reference); 'none' = no safe level")
    if p["out"]:
        names = [f"fn{fn}_fa{fa}_chi{chi}" for fn, fa, chi in cols]
        rows = [["N", *names, *(f"{name}_diff" for name in names)]]
        for i, size in enumerate(TABLE1_MARKET_SIZES):
            rows.append([str(size)] + [_fmt_n(values[i]) for values in got] + [diff[i] for diff in diffs])
        with open(p["out"], "w", encoding="utf-8", newline="") as fh:
            fh.write("\r\n".join(",".join(r) for r in rows) + "\r\n")
        print(f"wrote {p['out']}")


def _simulate(p: dict[str, Any]) -> dict[str, Any]:
    strat, market, _ = _bank(p)  # both banks hold n projects
    overlap = _overlap(p["overlap"])
    config = SimConfig(
        market=market,
        strategies=(strat, strat),
        overlap=overlap,
        paths=p["paths"],
        steps_per_horizon=p["steps"],
        seed=p["seed"],
    )
    dump = p["dump_terminals"]
    result = estimate_default_probs(config, collect_terminals=dump is not None)
    if dump is not None:
        with open(dump, "w", encoding="ascii", newline="") as fh:
            fh.write("path,terminal_assets_bank1,terminal_assets_bank2\r\n")
            for i, (a1, a2) in enumerate(result.terminal_values):
                fh.write(f"{i},{float(a1)!r},{float(a2)!r}\r\n")
        print(f"wrote {dump}")
    pd_target = individual_pd(strat, market)
    # random selection's target is the paper's, at the mean n/N; the model's is the mixture over K
    paper = None if isinstance(overlap, RandomSelection) else overlap
    rho_target = correlation_law(strat.diversification, market.market_size, paper)[0]
    joint_target = systemic_pd(strat, market, overlap=paper)
    mixture_target = systemic_pd(strat, market, overlap=overlap)
    return {
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


def _se_multiple(est: float, target: float, se: float) -> float:
    return abs(est - target) / se if se > 0 else math.inf


def _mu_scan(p: dict[str, Any]) -> dict[str, Any]:
    market = _market(p)
    scenario = _scenario(p)
    scan = mu_sensitivity(scenario, market, p["mu_values"], p["method"], p["eps_safe"])
    return {
        **{f"critical_n[mu={mu!r}]": _fmt_n(n_star) for mu, n_star in scan.items()},
        "f_normal": scenario.f_normal,
        "f_abnormal": scenario.f_abnormal,
        "N": market.market_size,
        "chi": market.chi,
    }


# ------------------------------------------------------------------- runner


class Command(NamedTuple):
    run: Callable[[dict[str, Any]], dict[str, Any] | None]
    help: str
    flags: tuple[str, ...]  # every command also takes --config


COMMANDS: dict[str, Command] = {
    "pd": Command(_pd, "individual default probability Phi1(z)", ("f", "n", *MARKET, *OUTPUT)),
    "spd": Command(
        _spd, "systemic (joint) default probability Phi2(z, z, n/N)", ("f", "n", *MARKET, "method", *OUTPUT)
    ),
    "delta": Command(
        _delta, "systemic risk increase from excessive leverage", (*SCENARIO, "n", *MARKET, "method", *OUTPUT)
    ),
    "critical-n": Command(
        _critical_n,
        "minimum diversification with a safe suffix",
        (*SCENARIO, "eps_safe", *MARKET, "method", *OUTPUT),
    ),
    "sweep": Command(
        _sweep,
        "regime map over (N, n, chi)",
        (*SCENARIO, "N_values", "chi_points", "eps_safe", "mu", "method", *OUTPUT),
    ),
    "table1": Command(
        _table1, "critical diversification on the reference box, with diffs", ("eps_safe", "method", "out")
    ),
    "simulate": Command(
        _simulate,
        "Monte Carlo default frequencies vs analytic values",
        ("f", "n", "paths", "steps", "seed", "overlap", "dump_terminals", *MARKET, *OUTPUT),
    ),
    "mu-scan": Command(
        _mu_scan,
        "critical diversification as a function of drift",
        (*SCENARIO, "mu_values", "eps_safe", *MARKET, "method", *OUTPUT),
    ),
}


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """Every subcommand; given argv, flags only for those named in it."""
    parser = argparse.ArgumentParser(
        prog="levdiv",
        description="Leverage, diversification and joint bank default probabilities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        if argv is None or name in argv:
            for flag in (*command.flags, "config"):
                spec = FLAGS[flag]
                p.add_argument("--" + flag.replace("_", "-"), type=spec.type, choices=spec.choices, help=spec.help)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    command = COMMANDS[args.command]
    try:
        config = {}
        if args.config is not None:
            with open(args.config, "r", encoding="utf-8") as fh:
                try:
                    config = json.load(fh)
                except json.JSONDecodeError as exc:
                    raise ConfigError(f"config file {args.config} is not valid JSON: {exc}") from exc
            if not isinstance(config, dict):
                raise ConfigError("config file must contain a JSON object")
        params = {}
        for name in command.flags:
            value = getattr(args, name)
            if value is None and config.get(name) is not None:
                value = _coerce(name, config[name])
            params[name] = FLAGS[name].default if value is None else value
        fields = command.run(params)
        if fields is not None:
            text = _format(params["output"], fields)
            if params["out"]:
                with open(params["out"], "w", encoding="utf-8", newline="") as fh:
                    fh.write(text)
            else:
                sys.stdout.write(text)
        return 0
    except (DomainError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, MemoryError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
