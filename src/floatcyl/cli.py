"""Command line front end: scriptable equilibrium, curve and map computations.

Subcommands
-----------
equilibria   force-balance angles with stability and validity
curves       force, energy and height sampled over the wetting angle
profile      meniscus shape at a given wetting angle
region-map   (A, C) plane labeled by equilibrium count and validity
astar        critical mass ratio, numeric and series approximations
verify       run the full oracle suite

Parameters come either dimensionless (--A --C --gamma) or physical
(--m --rho --sigma --g --a --gamma); physical input is reduced internally
and the derived A and C are echoed in the output header.  Output is CSV
(default) or JSON, deterministic for fixed flags.

Exit codes: 0 ok, 2 usage, 3 no valid equilibrium, 4 domain/regime error
(every domain error the library raises is a ValueError).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict, astuple, fields
from datetime import datetime, timezone

# every subcommand builds its parameters here; each imports the rest of
# the library it runs, so a process loads only what its command needs
from .model import (DimensionlessParams, PhysicalParams, center_height,
                    interface_profile, to_dimensionless, total_energy,
                    total_force)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_VALID_EQUILIBRIUM = 3
EXIT_DOMAIN = 4

_PHYSICAL_FLAGS = ("m", "rho", "sigma", "g", "a")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _write(args, text: str) -> None:
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        fh = open(args.out, "w", newline="")
    except OSError as exc:
        print(f"error: --out {args.out}: {exc.strerror}", file=sys.stderr)
        sys.exit(EXIT_USAGE)
    with fh:
        fh.write(text)


def _write_json(args, payload: dict) -> None:
    import json
    _write(args, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _emit_table(args, command: str, meta: dict, columns: list[str],
                rows: list[list]) -> None:
    meta = dict(meta)
    if args.timestamp:
        meta["generated_at"] = datetime.now(timezone.utc).isoformat()
    if args.format == "json":
        payload = {"schema": 1, "command": command, "meta": meta,
                   "columns": columns,
                   "rows": [[v for v in row] for row in rows]}
        _write_json(args, payload)
    else:
        lines = ["# schema: 1", f"# command: {command}"]
        lines += [f"# {k}: {_fmt(v)}" for k, v in meta.items()]
        lines.append(",".join(columns))
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        _write(args, "\n".join(lines) + "\n")


def _count(minimum: int):
    """argparse type: an integer no smaller than ``minimum``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--timestamp", action="store_true",
                   help="include a generation timestamp in the metadata header")


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gamma", type=float, required=True,
                   help="contact angle (radians unless --degrees)")
    p.add_argument("--A", type=float, help="mass ratio m/(a^2 rho)")
    p.add_argument("--C", type=float, help="capillary ratio a sqrt(rho g/sigma)")
    p.add_argument("--m", type=float, help="mass per unit length")
    p.add_argument("--rho", type=float, help="liquid/gas density difference")
    p.add_argument("--sigma", type=float, help="surface tension")
    p.add_argument("--g", type=float, help="gravitational acceleration")
    p.add_argument("--a", type=float, help="cylinder radius")
    p.add_argument("--degrees", action="store_true",
                   help="interpret input angles in degrees")
    p.add_argument("--exploratory", action="store_true",
                   help="allow a non-positive mass ratio")


def _gamma(args) -> float:
    return math.radians(args.gamma) if args.degrees else args.gamma


def _params(args, parser: argparse.ArgumentParser):
    """Resolve the input mode; returns (DimensionlessParams, meta)."""
    gamma = _gamma(args)
    physical = [f for f in _PHYSICAL_FLAGS
                if getattr(args, f, None) is not None]
    dimensionless = [f for f in ("A", "C") if getattr(args, f) is not None]
    if physical and dimensionless:
        parser.error("give either --A/--C or the physical set "
                     "--m/--rho/--sigma/--g/--a, not both")
    if physical:
        missing = [f for f in _PHYSICAL_FLAGS if f not in physical]
        if missing:
            parser.error("physical mode needs all of --m --rho --sigma --g "
                         f"--a (missing: {', '.join('--' + f for f in missing)})")
        phys = PhysicalParams(mass_per_length=args.m, density_diff=args.rho,
                              surface_tension=args.sigma, gravity=args.g,
                              radius=args.a, contact_angle=gamma)
        params = to_dimensionless(phys)
        meta = {"input_mode": "physical",
                "mass_ratio": params.mass_ratio,
                "capillary_ratio": params.capillary_ratio,
                "contact_angle": gamma}
        return params, meta
    if len(dimensionless) != 2:
        parser.error("dimensionless mode needs both --A and --C")
    params = DimensionlessParams(mass_ratio=args.A, capillary_ratio=args.C,
                                 contact_angle=gamma,
                                 exploratory=args.exploratory)
    meta = {"input_mode": "dimensionless", "mass_ratio": args.A,
            "capillary_ratio": args.C, "contact_angle": gamma}
    return params, meta


def _cmd_equilibria(args, parser) -> int:
    from .equilibria import find_equilibria
    from .intersection import validity
    params, meta = _params(args, parser)
    rows = []
    n_valid = 0
    for eq in find_equilibria(params):
        rep = validity(eq.phi0, params)
        ok = not rep.intersecting
        n_valid += ok
        rows.append([eq.phi0, eq.height, eq.stability.value,
                     "true" if ok else "false",
                     rep.margin if rep.margin is not None else "",
                     rep.regime.value])
    _emit_table(args, "equilibria", meta,
                ["phi0_rad", "height_over_a", "stability", "valid",
                 "intersection_margin", "overhang_regime"], rows)
    return EXIT_OK if n_valid >= 1 else EXIT_NO_VALID_EQUILIBRIUM


def _cmd_curves(args, parser) -> int:
    params, meta = _params(args, parser)
    # np.linspace(0, pi, n) on floats: i times its step, the end set to pi
    n = args.resolution
    grid = ([i * (math.pi / (n - 1)) for i in range(n - 1)] + [math.pi]
            if n > 1 else [0.0])
    rows = [[p, total_force(p, params), total_energy(p, params).total,
             center_height(p, params)] for p in grid]
    _emit_table(args, "curves", meta,
                ["phi0_rad", "force_over_sigma", "energy_over_sigma_a",
                 "height_over_a"], rows)
    return EXIT_OK


def _cmd_profile(args, parser) -> int:
    params, meta = _params(args, parser)
    phi0 = math.radians(args.phi0) if args.degrees else args.phi0
    prof = interface_profile(phi0, params, n=args.resolution,
                             psi_cutoff=args.psi_cutoff)
    meta = dict(meta)
    meta.update({"phi0": phi0, "psi0": prof.psi0, "flat": str(prof.flat).lower(),
                 "contact_x_over_a": prof.contact[0],
                 "contact_u_over_a": prof.contact[1]})
    rows = [[float(p), float(x), float(u)] for p, x, u in prof.samples]
    _emit_table(args, "profile", meta, ["psi_rad", "x_over_a", "u_over_a"], rows)
    return EXIT_OK


def _cmd_region_map(args, parser) -> int:
    from .regions import region_map, region_map_csv, region_map_json
    gamma = _gamma(args)
    rm = region_map(gamma, a_range=(args.a_min, args.a_max),
                    c_range=(args.c_min, args.c_max),
                    resolution=(args.resolution, args.resolution))
    if args.format == "json":
        payload = region_map_json(rm)
        if args.timestamp:
            payload["generated_at"] = datetime.now(timezone.utc).isoformat()
        _write_json(args, payload)
    else:
        header = ["# schema: 1", "# command: region-map",
                  f"# contact_angle: {_fmt(gamma)}"]
        if args.timestamp:
            header.append(
                f"# generated_at: {datetime.now(timezone.utc).isoformat()}")
        _write(args, "\n".join(header) + "\n" + region_map_csv(rm))
    return EXIT_OK


def _cmd_astar(args, parser) -> int:
    from .equilibria import asymptotic_critical_mass, critical_mass_ratio
    gamma = _gamma(args)
    a_star, phi0_star = critical_mass_ratio(args.C, gamma)
    meta = {"contact_angle": gamma, "capillary_ratio": args.C}
    columns = ["capillary_ratio", "critical_mass_ratio", "phi0_star_rad",
               "small_c_mass_ratio", "small_c_phi0_rad",
               "large_c_mass_ratio", "large_c_phi0_rad"]
    row = [args.C, a_star, phi0_star]
    # series approximations exist for the neutral contact angle only; accept
    # a rounded pi/2 on input
    if math.isclose(gamma, math.pi / 2.0, rel_tol=0.0, abs_tol=1e-6):
        small = asymptotic_critical_mass(args.C, math.pi / 2.0, "small")
        large = asymptotic_critical_mass(args.C, math.pi / 2.0, "large")
        row += [small[0], small[1], large[0], large[1]]
    else:
        row += ["", "", "", ""]
    _emit_table(args, "astar", meta, columns, [row])
    return EXIT_OK


def _cmd_verify(args, parser) -> int:
    from .oracles import OracleReport, run_all
    reports = run_all(n_sets=args.samples, seed=args.seed)
    if args.format == "json":
        payload = {"schema": 1, "command": "verify",
                   "reports": [asdict(r) for r in reports]}
        if args.timestamp:
            payload["generated_at"] = datetime.now(timezone.utc).isoformat()
        _write_json(args, payload)
    else:
        rows = [[*astuple(r)[:-1], "true" if r.passed else "false"]
                for r in reports]
        _emit_table(args, "verify", {"samples": args.samples, "seed": args.seed},
                    [f.name for f in fields(OracleReport)], rows)
    return EXIT_OK if all(r.passed for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floatcyl",
        description="Floating-cylinder capillary statics: equilibria, "
                    "stability, validity, region maps")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("equilibria", help="force-balance angles with "
                                          "stability and validity")
    _add_param_flags(p)
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_equilibria)

    p = sub.add_parser("curves", help="force, energy, height over the "
                                      "wetting angle")
    _add_param_flags(p)
    p.add_argument("--resolution", type=_count(1), default=200,
                   help="number of grid points on [0, pi]")
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_curves)

    p = sub.add_parser("profile", help="meniscus shape at one wetting angle")
    _add_param_flags(p)
    p.add_argument("--phi0", type=float, required=True,
                   help="wetting angle (radians unless --degrees)")
    p.add_argument("--resolution", type=_count(2), default=1000,
                   help="number of interface samples")
    p.add_argument("--psi-cutoff", type=float, default=1e-6,
                   help="inclination cutoff near the far field (rad)")
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser("region-map", help="label the (A, C) plane by "
                                          "equilibrium count and validity")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--degrees", action="store_true")
    p.add_argument("--a-min", type=float, default=0.0)
    p.add_argument("--a-max", type=float, default=12.0)
    p.add_argument("--c-min", type=float, default=0.0)
    p.add_argument("--c-max", type=float, default=5.0)
    p.add_argument("--resolution", type=_count(2), default=200,
                   help="grid cells per axis")
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_region_map)

    p = sub.add_parser("astar", help="critical mass ratio at given C")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--C", type=float, required=True)
    p.add_argument("--degrees", action="store_true")
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_astar)

    p = sub.add_parser("verify", help="run the oracle suite")
    p.add_argument("--samples", type=_count(1), default=100,
                   help="randomized parameter sets per check")
    p.add_argument("--seed", type=_count(0), default=20240801)
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args, parser)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
