"""Command-line interface: reproducible experiments with JSON or CSV output.

Subcommands:
    ground    calibrate a chain and report ground-state diagnostics
    teleport  run the full protocol and report the energy bookkeeping
    sweep     vary chain size and/or separation; simulated vs closed-form E_B
    analytic  tabulate the closed-form quantities and the asymptotic constant
    cool      minimize the residual energy over the sender's local channels

Every command is deterministic for a fixed config: rerunning writes
byte-identical output.  Each command computes its numbers and hands its table
and its document to one writer, which emits the CSV table (a fixed column
order per command) or the JSON document (the default, one object), to stdout
or --out, so both formats carry the same numbers.  Each command takes only
the flags it reads, and the JSON `params` echo them (but --out and --config)
and what the command computed from them.  argparse declares every option
once; one parser, built on the first call, serves every call in a process,
and every flag, --out, the axes and --theta too, is checked before any
solve.  A file passed with
--config holds `key = value` lines whose keys are the command's own long
flags (with `-` or `_`); each line is parsed as the flag `--key=value` ahead
of the command line, so it is checked as the flag is and an explicit flag
wins.  Exit code 0 means every computation converged and all built-in
invariant checks passed.  Errors and warnings go to stderr as one line each,
`error: <message>` and `warning: <message>`.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import warnings

from . import analytics, chain, cooling, protocol


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose error messages start with `origin`, such as `path:line: `."""

    def __init__(self, *args, origin: str = "", **kwargs):
        super().__init__(*args, **kwargs)
        self.origin = origin

    def error(self, message):
        super().error(self.origin + message)


def _parse_axis(text: str):
    if text in protocol.AXES:
        return protocol.AXES[text]
    if text == "best":
        return "best"
    parts = text.split(",")
    if len(parts) != 3:
        raise CliError(f"axis must be x, y, z, best, or three comma-separated components: {text!r}")
    vec = [float(p) for p in parts]
    nrm = math.hypot(*vec)
    if not 0.0 < nrm < math.inf:
        raise CliError(f"axis vector must be nonzero and finite: {text!r}")
    return tuple(c / nrm for c in vec)


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise CliError(f"expected comma-separated integers: {text!r}") from None


def _output_path(path: str) -> str:
    """An --out path in an existing directory, not one itself, so it fails before any solve."""
    if not path:
        raise argparse.ArgumentTypeError("empty path")
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise argparse.ArgumentTypeError(f"no such directory: {folder!r}")
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"is a directory: {path!r}")
    return path


# the flags of more than one command; each declares those it reads, in this order
_FLAGS = {
    "--sites": dict(type=int, default=10, help="chain length N (default %(default)s)"),
    "--j": dict(type=float, default=1.0, help="finite coupling J > 0 (default %(default)s)"),
    "--bc": dict(choices=chain.BOUNDARIES, default="periodic",
                 help="boundary condition (default %(default)s)"),
    "--site-a": dict(type=int, default=0, help="sender site (default %(default)s)"),
    "--site-b": dict(type=int, default=1, help="receiver site (default %(default)s)"),
    "--axis-a": dict(default="x", help="measured Pauli component: x|y|z|best|ax,ay,az; best on "
                                       "either axis flag picks both axes (default %(default)s)"),
    "--axis-b": dict(default="x", help="feedback component, same forms; best here too picks "
                                       "both axes (default %(default)s)"),
    "--seed": dict(type=int, default=0, help="accepted and echoed, but no number depends on it: "
                                             "the ground state is exact (default %(default)s)"),
    "--format": dict(dest="fmt", choices=("json", "csv"), default="json",
                     help="output format (default %(default)s)"),
    "--out": dict(type=_output_path, help="write output to this path instead of stdout"),
    "--config": dict(help="file of key = value lines, one per long flag; flags take precedence"),
}


def _config_flags(path: str) -> list[tuple[str, int, str]]:
    """Each `key = value` line of a config file as (`--key=value`, line number, key)."""
    flags = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise CliError(f"{path}:{line_no}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key in ("config", "help"):       # flags, but not settings
                raise CliError(f"{path}:{line_no}: unknown key {key!r}")
            # `--key=value` keeps a value such as -1,0,0 from reading as a flag
            flags.append((f"--{key.replace('_', '-')}={value}", line_no, key))
    return flags


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse argv; a --config file's lines go in as flags before argv's own, which win.

    The command-line parser is built on the first call and kept.  Each config
    line is first parsed alone, by a parser of its own whose errors start with
    `path:line: `, so an unknown key or a bad value names its line.
    """
    parser = _command_line_parser()
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    flags = _config_flags(args.config)
    for flag, line_no, key in flags:
        origin = f"{args.config}:{line_no}: "
        _, unknown = build_parser(origin).parse_known_args([argv[0], flag])
        if unknown:
            raise CliError(f"{origin}unknown key {key!r}")
    return parser.parse_args([argv[0], *(f for f, _, _ in flags), *argv[1:]])


@functools.cache
def _command_line_parser() -> argparse.ArgumentParser:
    return build_parser()


def _check_sites(n_sites: int) -> None:
    if n_sites > 20:
        raise CliError("sites > 20 is out of range for this tool")


def _build_chain(args: argparse.Namespace, n_sites: int, **sites):
    _check_sites(n_sites)
    return chain.calibrated_chain(n_sites, args.j, args.bc, seed=args.seed, **sites)


def _resolve_setup(axes: tuple, spec, ground) -> tuple[protocol.MeasurementSetup, str]:
    if "best" in axes:
        return protocol.axis_sweep(spec, ground=ground), "axis sweep"
    return protocol.MeasurementSetup(*axes), "flags"


def _prepare(args: argparse.Namespace):
    """Chain, prepared ground state and setup, with the params that say which axes were used."""
    axes = _parse_axis(args.axis_a), _parse_axis(args.axis_b)      # before the solve
    spec, res = _build_chain(args, args.sites, site_a=args.site_a, site_b=args.site_b)
    ground = protocol.PreparedGround(spec, res)
    setup, axis_origin = _resolve_setup(axes, spec, ground)
    return spec, ground, setup, {"axes_from": axis_origin, "axis_a_used": list(setup.axis_a),
                                 "axis_b_used": list(setup.axis_b)}


def _report(args: argparse.Namespace, ok: bool, header: list[str], rows: list[list],
            document: dict) -> int:
    """Write the CSV table or the JSON document to --out or stdout; return the exit code.

    The one reader of --format and --out.  The JSON `params` are the parsed
    flags but --out and --config, updated with `document["params"]`, what the
    command computed.
    """
    if args.fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        flags = {("format" if key == "fmt" else key): value for key, value in vars(args).items()
                 if key not in ("out", "config")}
        text = json.dumps({**document, "params": {**flags, **document["params"]}},
                          indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


def cmd_ground(args: argparse.Namespace) -> int:
    spec, res = _build_chain(args, args.sites)
    t_expect = [float(t) for t in chain.energy_densities(spec, res.covariance)]
    eps_min = [float(chain.local_density_spectrum(spec, n)[0]) for n in range(spec.n_sites)]
    ok = abs(res.energy) < 1e-9 * args.j and max(abs(t) for t in t_expect) < 1e-10 * args.j
    rows = [[n, spec.epsilon[n], t_expect[n], eps_min[n]] for n in range(spec.n_sites)]
    return _report(args, ok, ["n", "epsilon_n", "T_n_expect", "eps_min"], rows, {
        "params": {},
        "energy": res.energy,
        "residual": res.residual,
        "iterations": res.iterations,
        "degenerate": res.degenerate,
        "epsilon": list(spec.epsilon),
        "t_expect": t_expect,
        "eps_min": eps_min,
        "checks": {"calibrated": ok},
    })


def cmd_teleport(args: argparse.Namespace) -> int:
    if args.theta is not None and not math.isfinite(args.theta):
        raise CliError(f"theta must be finite, not {args.theta!r}")
    spec, ground, setup, axes = _prepare(args)
    result = protocol.run_protocol(spec, setup, theta=args.theta, ground=ground)
    profile_ok = all(
        abs(sum(result.profiles[stage]) - total) < 1e-10 * args.j
        for stage, total in (("ground", 0.0), ("post_measurement", result.e_a),
                             ("post_feedback", result.trace_energy)))
    ok = profile_ok and result.e_a >= result.e_b - 1e-10 * args.j
    rows = [[n, result.profiles["ground"][n], result.profiles["post_measurement"][n],
             result.profiles["post_feedback"][n]] for n in range(spec.n_sites)]
    return _report(args, ok, ["n", "t_ground", "t_post_measurement", "t_post_feedback"], rows, {
        "params": axes,
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


def cmd_sweep(args: argparse.Namespace) -> int:
    sizes = _parse_int_list(args.sizes)
    axes = _parse_axis(args.axis_a), _parse_axis(args.axis_b)
    plan = []
    for n_sites in sizes:       # every (size, distance) is checked before any solve
        _check_sites(n_sites)
        chain.ChainSpec(n_sites, args.j, args.bc)      # N >= 3, J > 0, boundary
        distances = (_parse_int_list(args.distances) if args.distances
                     else tuple(range(1, n_sites // 2 + 1)))
        for dist in distances:
            if not 1 <= dist <= n_sites // 2:
                raise CliError(f"distance {dist} invalid for {n_sites} sites")
        plan.append((n_sites, distances))
    rows = []
    ok = True
    for n_sites, distances in plan:
        spec, res = _build_chain(args, n_sites)
        ground = protocol.PreparedGround(spec, res)
        e_b = {}
        for dist in distances:
            dspec = spec.with_sites(0, dist)
            setup, note = _resolve_setup(axes, dspec, ground)
            result = protocol.run_protocol(dspec, setup, ground=ground)
            closed = analytics.eb_closed_form(dist, args.j)
            rows.append([spec.n_sites, dist, result.e_b, closed, analytics.delta(dist),
                         f"axes={note}"])
            e_b[dist] = result.e_b
        by_distance = [e_b[dist] for dist in sorted(e_b)]
        ok = ok and all(far <= near + 1e-12 * args.j
                        for near, far in zip(by_distance, by_distance[1:]))
    header = ["n", "distance", "eb_numeric", "eb_closed", "delta", "note"]
    return _report(args, ok, header, rows, {
        "params": {"sizes": list(sizes)},
        "rows": [dict(zip(header, row)) for row in rows],
        "closed_form_slope": analytics.CLOSED_FORM_SLOPE,
        "checks": {"eb_decreasing_with_distance": ok},
    })


def cmd_analytic(args: argparse.Namespace) -> int:
    if not 1 <= args.n_min <= args.n_max:
        raise CliError("need 1 <= n-min <= n-max")
    rows = []
    for n in range(args.n_min, args.n_max + 1):
        d = analytics.delta(n)
        rows.append([n, d, analytics.eb_closed_form(n, args.j),
                     d / analytics.delta_asymptotic(n)])
    e_r = analytics.residual_energy_analytic(args.j)
    ok = all(rows[i][1] > rows[i + 1][1] for i in range(len(rows) - 1))
    header = ["n", "delta", "eb_closed", "asym_ratio"]
    return _report(args, ok, header, rows, {
        "params": {},
        "rows": [dict(zip(header, row)) for row in rows],
        "glaisher_kinkelin": analytics.GLAISHER_KINKELIN,
        "residual_energy": e_r,
        "closed_form_slope": analytics.CLOSED_FORM_SLOPE,
        "checks": {"delta_decreasing": ok},
    })


def cmd_cool(args: argparse.Namespace) -> int:
    spec, ground, setup, axes = _prepare(args)
    result = protocol.run_protocol(spec, setup, ground=ground)
    cool = cooling.minimize_residual(spec, setup, ground=ground)
    bound_ok = cool.e_r_numeric >= result.e_b - 1e-8 * args.j
    feasible_ok = cool.e_r_numeric <= cool.e_a + 1e-9 * args.j
    rows = [[mu, v] for mu, v in zip(cool.best_channel.kraus_sets, cool.per_outcome)]
    return _report(args, bound_ok and feasible_ok, ["outcome", "minimum"], rows, {
        "params": axes,
        "e_a": cool.e_a,
        "e_b": result.e_b,
        "e_r_numeric": cool.e_r_numeric,
        "e_r_analytic_infinite": analytics.residual_energy_analytic(args.j),
        "duality_gap": cool.duality_gap,
        "per_outcome": list(cool.per_outcome),
        "checks": {"e_r_above_e_b": bound_ok, "e_r_below_e_a": feasible_ok},
    })


def build_parser(origin: str = "") -> argparse.ArgumentParser:
    """One parser for flags and --config keys alike; no command's flag may be abbreviated.

    Every error message it prints starts with `origin`.  It holds no command
    function, only the command's name, so one parser can serve every call.
    """
    parser = _Parser(
        prog="qetsim", origin=origin,
        description="Energy teleportation on critical Ising chains: simulate and verify.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, flags: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary, allow_abbrev=False, origin=origin)
        for flag in (*flags.split(), "--format", "--out", "--config"):
            p.add_argument(flag, **_FLAGS[flag])
        return p

    protocol_flags = "--sites --j --bc --site-a --site-b --axis-a --axis-b --seed"
    command("ground", "calibration and ground-state diagnostics", "--sites --j --bc --seed")
    p_tel = command("teleport", "run the full protocol", protocol_flags)
    p_tel.add_argument("--theta", type=float, help="override the feedback angle (radians)")
    p_sweep = command("sweep", "E_B versus separation and size",
                      "--j --bc --axis-a --axis-b --seed")
    p_sweep.add_argument("--sizes", default="10",
                         help="comma-separated chain sizes (default %(default)s)")
    p_sweep.add_argument("--distances", help="comma-separated separations (default all up to N/2)")
    p_an = command("analytic", "closed-form tables and the asymptotic constant", "--j")
    p_an.add_argument("--n-min", type=int, default=1, help="first separation (default %(default)s)")
    p_an.add_argument("--n-max", type=int, default=50, help="last separation (default %(default)s)")
    command("cool", "minimize residual energy over local channels", protocol_flags)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    with warnings.catch_warnings():     # restores Python's warning display on return
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            args = _parse(argv)
            # looked up on each call, so a cmd_* replaced after the first call is the one run
            commands = {"ground": cmd_ground, "teleport": cmd_teleport, "sweep": cmd_sweep,
                        "analytic": cmd_analytic, "cool": cmd_cool}
            return commands[args.command](args)
        except (CliError, ValueError, RuntimeError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
