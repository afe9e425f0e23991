"""Command-line interface: reproducible experiments with JSON or CSV output.

Subcommands:
    ground    calibrate a chain and report ground-state diagnostics
    teleport  run the full protocol and report the energy bookkeeping
    sweep     vary chain size and/or separation; simulated vs closed-form E_B
    analytic  tabulate the closed-form quantities and the asymptotic constant
    cool      minimize the residual energy over the sender's local channels

Every command is deterministic for a fixed (config, seed): rerunning writes
byte-identical output.  JSON (default) is a single object on stdout; CSV has
a fixed column order per command.  Flags override an optional key=value
config file passed with --config.  Exit code 0 means every computation
converged and all built-in invariant checks passed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import analytics, chain, cooling, eigensolver, protocol


class CliError(Exception):
    pass


def _parse_axis(text: str):
    if text in protocol.AXES:
        return protocol.AXES[text]
    if text == "best":
        return "best"
    parts = text.split(",")
    if len(parts) != 3:
        raise CliError(f"axis must be x, y, z, best, or three comma-separated components: {text!r}")
    vec = np.array([float(p) for p in parts])
    nrm = float(np.linalg.norm(vec))
    if not 0.0 < nrm < np.inf:
        raise CliError(f"axis vector must be nonzero and finite: {text!r}")
    return tuple(float(c) for c in vec / nrm)


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise CliError(f"expected comma-separated integers: {text!r}") from None
    if not values:
        raise CliError("empty list")
    return values


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sites", type=int, default=None, help="chain length N (default 10)")
    parser.add_argument("--j", type=float, default=None, help="coupling J > 0 (default 1.0)")
    parser.add_argument("--bc", choices=chain.BOUNDARIES, default=None,
                        help="boundary condition (default periodic)")
    parser.add_argument("--site-a", type=int, default=None, help="sender site (default 0)")
    parser.add_argument("--site-b", type=int, default=None, help="receiver site (default 1)")
    parser.add_argument("--axis-a", default=None,
                        help="measured Pauli component: x|y|z|best|ax,ay,az (default x)")
    parser.add_argument("--axis-b", default=None, help="feedback component, same forms (default x)")
    parser.add_argument("--seed", type=int, default=None, help="base RNG seed (default 0)")
    parser.add_argument("--tol", type=float, default=None,
                        help="eigensolver residual tolerance in units of J (default 1e-10)")
    parser.add_argument("--format", dest="fmt", choices=("json", "csv"), default=None,
                        help="output format (default json)")
    parser.add_argument("--out", default=None, help="write output to this path instead of stdout")
    parser.add_argument("--config", default=None, help="key=value file; flags take precedence")


DEFAULTS = {
    "sites": 10, "j": 1.0, "bc": "periodic", "site_a": 0, "site_b": 1,
    "axis_a": "x", "axis_b": "x", "seed": 0, "tol": 1e-10, "fmt": "json",
    "out": None, "theta": None,
    "sizes": None, "distances": None, "n_min": 1, "n_max": 50,
}

CONFIG_KEYS = {k: k for k in DEFAULTS}
CONFIG_KEYS.update({"format": "fmt"})


def _load_config(path: str) -> dict:
    overrides = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise CliError(f"{path}:{line_no}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in CONFIG_KEYS:
                raise CliError(f"{path}:{line_no}: unknown key {key!r}")
            overrides[CONFIG_KEYS[key]] = value
    return overrides


_CONVERTERS = {
    "sites": int, "site_a": int, "site_b": int, "seed": int,
    "n_min": int, "n_max": int, "j": float, "tol": float, "theta": float,
    "sizes": str, "distances": str,
}


def _effective(args: argparse.Namespace) -> dict:
    """Merge precedence: built-in defaults < config file < explicit flags."""
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        for key, raw in _load_config(args.config).items():
            cfg[key] = _CONVERTERS.get(key, str)(raw) if isinstance(raw, str) else raw
    for key in cfg:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _check_sites(cfg: dict) -> None:
    if cfg["sites"] > 20:
        raise CliError("sites > 20 is out of range for this tool")


def _build_chain(cfg: dict):
    _check_sites(cfg)
    return chain.calibrated_chain(cfg["sites"], cfg["j"], cfg["bc"],
                                  site_a=cfg["site_a"], site_b=cfg["site_b"],
                                  tol=cfg["tol"], seed=cfg["seed"])


def _resolve_setup(cfg: dict, spec, ground) -> tuple[protocol.MeasurementSetup, str]:
    axis_a = _parse_axis(cfg["axis_a"])
    axis_b = _parse_axis(cfg["axis_b"])
    if axis_a == "best" or axis_b == "best":
        return protocol.axis_sweep(spec, ground=ground).best, "axis sweep"
    return protocol.MeasurementSetup(axis_a, axis_b), "flags"


def _params_block(cfg: dict, command: str, extra: dict | None = None) -> dict:
    block = {
        "command": command, "sites": cfg["sites"], "j": cfg["j"], "bc": cfg["bc"],
        "site_a": cfg["site_a"], "site_b": cfg["site_b"], "axis_a": cfg["axis_a"],
        "axis_b": cfg["axis_b"], "seed": cfg["seed"], "tol": cfg["tol"],
        "format": cfg["fmt"],
    }
    if extra:
        block.update(extra)
    return block


def _emit(cfg: dict, document: str) -> None:
    if cfg["out"]:
        with open(cfg["out"], "w", encoding="utf-8", newline="") as fh:
            fh.write(document)
    else:
        sys.stdout.write(document)


def _json_doc(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _csv_doc(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def cmd_ground(args: argparse.Namespace) -> int:
    cfg = _effective(args)
    spec, res = _build_chain(cfg)
    t_expect = [float(t) for t in chain.energy_densities(spec, res.state)]
    eps_min = [chain.local_density_spectrum(spec, n).minimum for n in range(spec.n_sites)]
    ok = (abs(res.energy) < 1e-9 * cfg["j"]
          and max(abs(t) for t in t_expect) < 1e-10 * cfg["j"]
          and res.residual < 10 * cfg["tol"] * cfg["j"])
    if cfg["fmt"] == "csv":
        rows = [[n, repr(spec.epsilon[n]), repr(t_expect[n]), repr(eps_min[n])]
                for n in range(spec.n_sites)]
        doc = _csv_doc(["n", "epsilon_n", "T_n_expect", "eps_min"], rows)
    else:
        doc = _json_doc({
            "params": _params_block(cfg, "ground"),
            "energy": res.energy,
            "residual": res.residual,
            "iterations": res.iterations,
            "degenerate": res.degenerate,
            "epsilon": list(spec.epsilon),
            "t_expect": t_expect,
            "eps_min": eps_min,
            "checks": {"calibrated": ok},
        })
    _emit(cfg, doc)
    return 0 if ok else 1


def cmd_teleport(args: argparse.Namespace) -> int:
    cfg = _effective(args)
    spec, res = _build_chain(cfg)
    ground = protocol.PreparedGround(spec, res.state)
    setup, axis_origin = _resolve_setup(cfg, spec, ground)
    result = protocol.run_protocol(spec, setup, theta=cfg["theta"], ground=ground)
    profile_ok = all(
        abs(sum(result.profiles[stage]) - total) < 1e-10 * cfg["j"]
        for stage, total in (("ground", 0.0), ("post_measurement", result.e_a),
                             ("post_feedback", result.trace_energy)))
    ok = profile_ok and result.e_a >= result.e_b - 1e-10 * cfg["j"]
    if cfg["fmt"] == "csv":
        rows = [[n,
                 repr(result.profiles["ground"][n]),
                 repr(result.profiles["post_measurement"][n]),
                 repr(result.profiles["post_feedback"][n])]
                for n in range(spec.n_sites)]
        doc = _csv_doc(["n", "t_ground", "t_post_measurement", "t_post_feedback"], rows)
    else:
        doc = _json_doc({
            "params": _params_block(cfg, "teleport", {
                "theta": cfg["theta"], "axes_from": axis_origin,
                "axis_a_used": list(setup.axis_a), "axis_b_used": list(setup.axis_b)}),
            "e_a": result.e_a,
            "xi": result.xi,
            "eta": result.eta,
            "theta_star": result.theta_star,
            "theta_used": result.theta_used,
            "e_b": result.e_b,
            "trace_energy": result.trace_energy,
            "teleportable": result.teleportable,
            "profiles": {k: list(v) for k, v in result.profiles.items()},
            "checks": {"profiles_consistent": profile_ok},
        })
    _emit(cfg, doc)
    return 0 if ok else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _effective(args)
    sizes = _parse_int_list(cfg["sizes"]) if cfg["sizes"] else (cfg["sites"],)
    plan = []
    for n_sites in sizes:       # every (size, distance) is checked before any solve
        size_cfg = dict(cfg, sites=n_sites, site_a=0, site_b=1)
        _check_sites(size_cfg)
        chain.ChainSpec(n_sites, cfg["j"], cfg["bc"])      # N >= 3, J > 0, boundary
        distances = (_parse_int_list(cfg["distances"]) if cfg["distances"]
                     else tuple(range(1, n_sites // 2 + 1)))
        for dist in distances:
            if not 1 <= dist <= n_sites // 2:
                raise CliError(f"distance {dist} invalid for {n_sites} sites")
        plan.append((size_cfg, distances))
    rows = []
    ok = True
    for size_cfg, distances in plan:
        spec, res = _build_chain(size_cfg)
        ground = protocol.PreparedGround(spec, res.state)
        e_b = {}
        for dist in distances:
            dspec = spec.with_sites(0, dist)
            setup, note = _resolve_setup(cfg, dspec, ground)
            result = protocol.run_protocol(dspec, setup, ground=ground)
            closed = analytics.eb_closed_form(dist, cfg["j"])
            rows.append([spec.n_sites, dist, result.e_b, closed, analytics.delta(dist),
                         f"axes={note}"])
            e_b[dist] = result.e_b
        by_distance = [e_b[dist] for dist in sorted(e_b)]
        ok = ok and all(far <= near + 1e-12 * cfg["j"]
                        for near, far in zip(by_distance, by_distance[1:]))
    slope = analytics.power_law_slope()
    if cfg["fmt"] == "csv":
        doc = _csv_doc(["n", "distance", "eb_numeric", "eb_closed", "delta", "note"],
                       [[r[0], r[1], repr(r[2]), repr(r[3]), repr(r[4]), r[5]] for r in rows])
    else:
        doc = _json_doc({
            "params": _params_block(cfg, "sweep", {
                "sizes": list(sizes), "distances": cfg["distances"]}),
            "rows": [{"n": r[0], "distance": r[1], "eb_numeric": r[2],
                      "eb_closed": r[3], "delta": r[4], "note": r[5]} for r in rows],
            "closed_form_slope": slope,
            "checks": {"eb_decreasing_with_distance": ok},
        })
    _emit(cfg, doc)
    return 0 if ok else 1


def cmd_analytic(args: argparse.Namespace) -> int:
    cfg = _effective(args)
    n_min, n_max = cfg["n_min"], cfg["n_max"]
    if not 1 <= n_min <= n_max:
        raise CliError("need 1 <= n-min <= n-max")
    rows = []
    for n in range(n_min, n_max + 1):
        d = analytics.delta(n)
        rows.append([n, d, analytics.eb_closed_form(n, cfg["j"]),
                     d / analytics.delta_asymptotic(n)])
    e_r = analytics.residual_energy_analytic(cfg["j"])
    ok = all(rows[i][1] > rows[i + 1][1] for i in range(len(rows) - 1))
    if cfg["fmt"] == "csv":
        doc = _csv_doc(["n", "delta", "eb_closed", "asym_ratio"],
                       [[r[0], repr(r[1]), repr(r[2]), repr(r[3])] for r in rows])
    else:
        doc = _json_doc({
            "params": _params_block(cfg, "analytic", {"n_min": n_min, "n_max": n_max}),
            "rows": [{"n": r[0], "delta": r[1], "eb_closed": r[2], "asym_ratio": r[3]}
                     for r in rows],
            "glaisher_kinkelin": analytics.GLAISHER_KINKELIN,
            "residual_energy": e_r,
            "closed_form_slope": analytics.power_law_slope(),
            "checks": {"delta_decreasing": ok},
        })
    _emit(cfg, doc)
    return 0 if ok else 1


def cmd_cool(args: argparse.Namespace) -> int:
    cfg = _effective(args)
    spec, res = _build_chain(cfg)
    ground = protocol.PreparedGround(spec, res.state)
    setup, axis_origin = _resolve_setup(cfg, spec, ground)
    result = protocol.run_protocol(spec, setup, ground=ground)
    cool = cooling.minimize_residual(spec, setup, ground=ground)
    bound_ok = cool.e_r_numeric >= result.e_b - 1e-8 * cfg["j"]
    feasible_ok = cool.e_r_numeric <= cool.e_a + 1e-9 * cfg["j"]
    if cfg["fmt"] == "csv":
        doc = _csv_doc(["outcome", "minimum"],
                       [[mu, repr(v)] for mu, v in zip(cool.best_channel.kraus_sets,
                                                       cool.per_outcome)])
    else:
        doc = _json_doc({
            "params": _params_block(cfg, "cool", {
                "axes_from": axis_origin,
                "axis_a_used": list(setup.axis_a), "axis_b_used": list(setup.axis_b)}),
            "e_a": cool.e_a,
            "e_b": result.e_b,
            "e_r_numeric": cool.e_r_numeric,
            "e_r_analytic_infinite": analytics.residual_energy_analytic(cfg["j"]),
            "duality_gap": cool.duality_gap,
            "per_outcome": list(cool.per_outcome),
            "checks": {"e_r_above_e_b": bound_ok, "e_r_below_e_a": feasible_ok},
        })
    _emit(cfg, doc)
    return 0 if (bound_ok and feasible_ok) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qetsim",
        description="Energy teleportation on critical Ising chains: simulate and verify.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ground = sub.add_parser("ground", help="calibration and ground-state diagnostics")
    _add_common(p_ground)
    p_ground.set_defaults(func=cmd_ground)

    p_tel = sub.add_parser("teleport", help="run the full protocol")
    _add_common(p_tel)
    p_tel.add_argument("--theta", type=float, default=None,
                       help="override the feedback angle (radians)")
    p_tel.set_defaults(func=cmd_teleport)

    p_sweep = sub.add_parser("sweep", help="E_B versus separation and size")
    _add_common(p_sweep)
    p_sweep.add_argument("--sizes", default=None, help="comma-separated chain sizes")
    p_sweep.add_argument("--distances", default=None,
                         help="comma-separated separations (default all up to N/2)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_an = sub.add_parser("analytic", help="closed-form tables and the asymptotic constant")
    _add_common(p_an)
    p_an.add_argument("--n-min", dest="n_min", type=int, default=None)
    p_an.add_argument("--n-max", dest="n_max", type=int, default=None)
    p_an.set_defaults(func=cmd_analytic)

    p_cool = sub.add_parser("cool", help="minimize residual energy over local channels")
    _add_common(p_cool)
    p_cool.set_defaults(func=cmd_cool)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except eigensolver.EigensolverError as exc:
        print(f"error: solver did not converge: {exc}", file=sys.stderr)
        return 1
    except (CliError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
