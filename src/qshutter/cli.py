"""Command-line interface.

Subcommands:

    poles         print the pole table CSV for a configured structure
    transmission  sweep T(E) over an energy window (meV)
    evolve        run one scenario config, write one trace CSV per method
    figure        run a named figure preset into an output directory
    selftest      run the acceptance suite and print its pass/fail table

`--config` takes either a filesystem path or the bare name of a shipped
configuration (see `qshutter poles --config triple_barrier`).  Exit status
is non-zero on any error, failed manifest check, or failed selftest
criterion.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from .acceptance import run_acceptance
from .config import ScenarioConfig, parse_config, run_scenario
from .errors import ConfigError, QShutterError
from .output import (
    poles_csv_text,
    transmission_csv_text,
    write_poles_csv,
    write_transmission_csv,
)
from .poles import find_poles
from .presets import PRESETS, run_figure
from .scattering import transmission

__all__ = ["main"]


def _shipped_configs() -> list[str]:
    root = resources.files("qshutter") / "configs"
    return sorted(p.name[: -len(".cfg")] for p in root.iterdir() if p.name.endswith(".cfg"))


def _load_config(spec: str) -> ScenarioConfig:
    p = Path(spec)
    if p.is_file():
        text = p.read_text()
    else:
        name = spec if spec.endswith(".cfg") else f"{spec}.cfg"
        res = resources.files("qshutter") / "configs" / name
        if not res.is_file():
            raise ConfigError(
                f"'{spec}' is neither a file nor a shipped config "
                f"(shipped: {', '.join(_shipped_configs())})",
                field="config",
            )
        text = res.read_text()
    return parse_config(text)


def _out_dir(path_str: str) -> Path:
    out = Path(path_str)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_poles(args) -> int:
    cfg = _load_config(args.config)
    n = args.n if args.n is not None else cfg.n_poles
    if n < 1:
        raise ConfigError(f"--n must be >= 1, got {n}", field="n")
    poles = find_poles(cfg.profile(), n)
    sys.stdout.write(poles_csv_text(poles))
    if args.out is not None:
        path = write_poles_csv(_out_dir(args.out) / "poles.csv", poles)
        print(f"wrote {path}", file=sys.stderr)
    return 0


def _cmd_transmission(args) -> int:
    cfg = _load_config(args.config)
    if not (0.0 < args.e_from < args.e_to):
        raise ConfigError(
            f"window must satisfy 0 < from < to, got {args.e_from}..{args.e_to} meV",
            field="from/to",
        )
    points = args.points if args.points is not None else 400
    if points < 2:
        raise ConfigError(f"--points must be >= 2, got {points}", field="points")
    profile = cfg.profile()
    energies = np.linspace(args.e_from, args.e_to, points)
    T = transmission(profile, energies * 1e-3)[1]
    sys.stdout.write(transmission_csv_text(energies, T))
    if args.out is not None:
        path = write_transmission_csv(_out_dir(args.out) / "transmission.csv", energies, T)
        print(f"wrote {path}", file=sys.stderr)
    return 0


def _cmd_evolve(args) -> int:
    cfg = _load_config(args.config)
    overrides = {"n_poles": args.n, "points": args.points, "x_nm": args.x}
    cfg = dataclasses.replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    rs, files, _ = run_scenario(cfg, args.out)
    print(f"E = {rs.E_meV:.6f} meV, tau1 = {rs.tau_1:.6f} ps, x = {rs.x:g} nm")
    for path in files:
        print(f"wrote {path}")
    return 0


def _cmd_figure(args) -> int:
    result = run_figure(args.preset, args.out)
    sys.stdout.write(result.manifest.render())
    for f in result.files:
        print(f"wrote {f}", file=sys.stderr)
    print(f"wrote {result.manifest_path}", file=sys.stderr)
    return 0 if result.ok else 3


def _cmd_selftest(args) -> int:
    results = run_acceptance()
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qshutter",
        description=(
            "Transient tunneling through layered 1-D potentials after a "
            "shutter opening: resonance poles, transmission, and "
            "time-dependent densities."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poles", help="print the pole table CSV")
    p.add_argument("--config", required=True, help="config path or shipped name")
    p.add_argument("--n", type=int, default=None, help="number of poles (default: config n_poles)")
    p.add_argument("--out", default=None, metavar="DIR", help="also write poles.csv here")
    p.set_defaults(func=_cmd_poles)

    p = sub.add_parser("transmission", help="sweep T(E) over an energy window")
    p.add_argument("--config", required=True, help="config path or shipped name")
    p.add_argument("--from", dest="e_from", type=float, required=True, metavar="MEV")
    p.add_argument("--to", dest="e_to", type=float, required=True, metavar="MEV")
    p.add_argument("--points", type=int, default=None, help="grid points (default 400)")
    p.add_argument("--out", default=None, metavar="DIR", help="also write transmission.csv here")
    p.set_defaults(func=_cmd_transmission)

    p = sub.add_parser("evolve", help="run one scenario, write trace CSVs")
    p.add_argument("--config", required=True, help="config path or shipped name")
    p.add_argument("--n", type=int, default=None, help="override pole count")
    p.add_argument("--points", type=int, default=None, help="override time-grid points")
    p.add_argument("--x", type=float, default=None, metavar="NM", help="override position (default L)")
    p.add_argument("--out", default=".", metavar="DIR", help="output directory")
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("figure", help="run a figure preset")
    p.add_argument("preset", choices=sorted(PRESETS), help="preset identifier")
    p.add_argument("--out", default=".", metavar="DIR", help="output directory")
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except QShutterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
