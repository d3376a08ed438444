"""Command-line front end: walk runs, circuit reports, schedule compilation.

Exit codes: 0 success, 1 usage error, 2 domain/validation error,
3 numeric failure.  All emitted CSV/JSON files are byte-deterministic
(floats at 17 significant digits).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import warnings
from pathlib import Path

from ._format import dumps_17g, fmt17
from .circuit import (
    DEFAULT_PARAMS,
    CircuitParams,
    chi_from_params,
    couplings,
    josephson_coefficient,
    max_chi_l,
    pulse_duration,
    solve_mode,
    solve_operating_point,
)
from .errors import NumericError, UnreachableFluxError, ValidationError
from .graph import (
    generate_lattice_tessellations,
    generate_path_tessellations,
    graph_from_json,
    greedy_tessellate,
)
from .schedule import SWITCHING_BUDGET_SECONDS, compile_schedule, emit_schedule, feasibility_notes, validate_schedule
from .svgplot import distribution_svg
from .walk import WalkConfig, evolve, initial_basis_state, probability_distribution

__all__ = ["main", "parse_theta"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def parse_theta(text: str) -> float:
    """Angle parser: plain decimals or exact fractions of pi (pi/3, 2pi/5, -pi, 3*pi/4)."""
    compact = text.strip().lower().replace(" ", "").replace("*", "")
    m = re.fullmatch(r"(-?\d*\.?\d*)pi(?:/(\d+\.?\d*))?", compact)
    if m:
        head, denom = m.group(1), m.group(2)
        if head in ("", "-"):
            coefficient = -1.0 if head == "-" else 1.0
        else:
            coefficient = float(head)
        value = coefficient * math.pi
        if denom:
            if float(denom) == 0.0:
                raise argparse.ArgumentTypeError(f"zero denominator in angle {text!r}")
            value /= float(denom)
        return value
    try:
        return float(compact)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"cannot parse angle {text!r}; use a number or a fraction of pi such as pi/3"
        ) from None


def _parse_dims(text: str) -> list[int]:
    try:
        dims = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse lattice dimensions {text!r}; expected e.g. 3,3") from None
    if not dims:
        raise argparse.ArgumentTypeError(f"cannot parse lattice dimensions {text!r}; expected e.g. 3,3")
    return dims


def _resolve_graph(args):
    """Graph + tessellations from --path/--lattice/--graph, with the source tag for metadata."""
    if args.path_nodes is not None:
        g, ts = generate_path_tessellations(args.path_nodes)
        return g, ts, f"path:{args.path_nodes}"
    if args.lattice is not None:
        g, ts = generate_lattice_tessellations(args.lattice)
        return g, ts, "lattice:" + ",".join(str(d) for d in args.lattice)
    text = Path(args.graph).read_text()
    g, ts = graph_from_json(text)
    if ts is not None:
        return g, ts, f"file:{args.graph}"
    return g, greedy_tessellate(g), f"file+greedy:{args.graph}"


def _load_params(path: str | None) -> CircuitParams:
    if path is None:
        return DEFAULT_PARAMS
    try:
        obj = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed parameter JSON in {path} at byte offset {exc.pos}: {exc.msg}") from None
    if not isinstance(obj, dict):
        raise ValidationError(f"parameter file {path} must hold a JSON object")
    try:
        return CircuitParams(**obj)
    except TypeError as exc:
        raise ValidationError(f"parameter file {path}: {exc}") from None


def _ensure_writable(paths, force: bool) -> None:
    for path in paths:
        if path.exists() and not force:
            raise ValidationError(f"{path} already exists; pass --force to overwrite")


def _guarded_write(path: Path, text: str, force: bool) -> None:
    _ensure_writable([path], force)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    print(f"wrote {path}")


def cmd_walk(args) -> int:
    g, ts, source = _resolve_graph(args)
    out = Path(args.out)
    targets = [out / "distribution.csv", out / "run.json"]
    if args.svg:
        targets.append(out / "distribution.svg")
    _ensure_writable(targets, args.force)

    start = args.start if args.start is not None else (g.node_count - 1) // 2
    state = initial_basis_state(g.node_count, start)
    cfg = WalkConfig(theta=args.theta, steps=args.steps, convention=args.convention)
    _, history = evolve(state, ts, cfg, graph=g, keep_history=True)
    distributions = [probability_distribution(s) for s in history]

    lines = ["step,node,probability"]
    for step, dist in enumerate(distributions):
        for node, p in enumerate(dist):
            lines.append(f"{step},{node},{fmt17(p)}")
    _guarded_write(out / "distribution.csv", "\n".join(lines) + "\n", args.force)

    metadata = {
        "n": g.node_count,
        "theta": float(args.theta),
        "steps": args.steps,
        "convention": args.convention,
        "tessellation_source": source,
    }
    _guarded_write(out / "run.json", dumps_17g(metadata) + "\n", args.force)

    if args.svg:
        title = f"final distribution after {args.steps} steps (start {start})"
        _guarded_write(out / "distribution.svg", distribution_svg(distributions[-1], title), args.force)
    return 0


def cmd_circuit(args) -> int:
    if args.sweep < 0:
        raise _UsageError(f"--sweep must be non-negative, got {args.sweep}")
    out = Path(args.out)
    targets = [out / "report.json"] + ([out / "sweep.csv"] if args.sweep > 0 else [])
    _ensure_writable(targets, args.force)

    params = _load_params(args.params)
    try:
        operating = solve_operating_point(params)
    except UnreachableFluxError as exc:
        required = params.josephson_energy * (exc.required_energy_scale or math.inf)
        raise UnreachableFluxError(
            f"{exc} (required E_J >= {required:.6g} J)",
            required_energy_scale=exc.required_energy_scale,
        ) from None
    all_on = couplings(operating.mode_all_on, operating.mode_all_on, operating.chi_c, -operating.chi_l_max)
    report = {
        "kL": operating.mode_all_on.kl,
        "omega_rad_s": operating.mode_all_on.omega,
        "A": operating.mode_all_on.amplitude,
        "kappa_cap": all_on.kappa_cap,
        "kappa_ind": all_on.kappa_ind,
        "kappa_total": all_on.kappa_total,
        "flux_on": operating.flux_on,
        "flux_off": operating.flux_off,
    }
    _guarded_write(out / "report.json", dumps_17g(report) + "\n", args.force)

    if args.sweep > 0:
        rows = ["flux_ratio,chi_l,kL,omega_rad_s,A,kappa_cap,kappa_ind,kappa_total"]
        chi_lm = max_chi_l(params)
        for k in range(args.sweep + 1):
            flux_ratio = k / args.sweep
            chi = chi_from_params(params, josephson_coefficient(flux_ratio, params))
            # swept link between two resonators whose other neighbor stays driven on
            mode = solve_mode(chi.chi_c, -chi_lm, chi.chi_l, 1, params)
            link = couplings(mode, mode, chi.chi_c, chi.chi_l)
            rows.append(
                ",".join(
                    fmt17(v)
                    for v in (
                        flux_ratio,
                        chi.chi_l,
                        mode.kl,
                        mode.omega,
                        mode.amplitude,
                        link.kappa_cap,
                        link.kappa_ind,
                        link.kappa_total,
                    )
                )
            )
        _guarded_write(out / "sweep.csv", "\n".join(rows) + "\n", args.force)

    tau = pulse_duration(args.theta, operating.coupling_on.kappa_total, reduce_period=True)
    budget_note = (
        "WARNING: flux pulses cannot settle within one interval"
        if tau < SWITCHING_BUDGET_SECONDS
        else "interval fits the switching budget"
    )
    print(
        f"feasibility: driven coupling {operating.coupling_on.kappa_total:.6g} rad/s; "
        f"interval tau = {tau:.6g} s at theta = {args.theta:.6g} vs 0.1 us switching budget -- {budget_note}"
    )
    return 0


def cmd_schedule(args) -> int:
    g, ts, _ = _resolve_graph(args)
    params = _load_params(args.params)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        run = compile_schedule(g, ts, args.theta, params, args.steps)

    out = Path(args.out)
    _guarded_write(out / "schedule.json", emit_schedule(run.schedule), args.force)

    violations = validate_schedule(run.schedule, g)
    if violations:
        for message in violations:
            print(f"validation: {message}", file=sys.stderr)
        raise ValidationError("compiled schedule failed validation")
    print(f"validation: ok ({len(run.schedule.intervals)} intervals, tau = {run.schedule.tau_seconds:.6g} s)")
    notes = feasibility_notes(run.schedule)
    if notes:
        for note in notes:
            print(f"feasibility: {note}")
    else:
        print("feasibility: interval fits the 0.1 us switching budget")
    return 0


def _add_graph_options(parser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--path", type=int, dest="path_nodes", metavar="N", help="open path with N nodes")
    group.add_argument("--lattice", type=_parse_dims, metavar="D1,D2[,D3]", help="open lattice with the given extents")
    group.add_argument("--graph", metavar="FILE", help="graph JSON file (tessellations optional)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sqwbench", description="Staggered-quantum-walk workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    walk = sub.add_parser("walk", help="evolve a single-photon state and emit its distribution")
    _add_graph_options(walk)
    walk.add_argument("--theta", type=parse_theta, default=math.pi / 3, help="rotation angle (default pi/3)")
    walk.add_argument("--steps", type=int, default=1, help="number of full walk steps")
    walk.add_argument("--start", type=int, default=None, help="start node (default: middle node)")
    walk.add_argument("--convention", choices=("physical", "abstract"), default="physical")
    walk.add_argument("--out", default=".", metavar="DIR")
    walk.add_argument("--svg", action="store_true", help="also emit an SVG bar plot")
    walk.add_argument("--force", action="store_true", help="overwrite existing outputs")
    walk.set_defaults(func=cmd_walk)

    circuit = sub.add_parser("circuit", help="solve resonator modes, couplings, and switch fluxes")
    circuit.add_argument("--params", metavar="FILE", default=None, help="circuit parameter JSON (default: built-in)")
    circuit.add_argument("--theta", type=parse_theta, default=math.pi / 3, help="angle for the feasibility check")
    circuit.add_argument("--sweep", type=int, default=0, metavar="K", help="emit a K+1-point flux sweep CSV")
    circuit.add_argument("--out", default=".", metavar="DIR")
    circuit.add_argument("--force", action="store_true")
    circuit.set_defaults(func=cmd_circuit)

    sched = sub.add_parser("schedule", help="compile a walk into a flux pulse schedule")
    _add_graph_options(sched)
    sched.add_argument("--theta", type=parse_theta, default=math.pi / 3)
    sched.add_argument("--steps", type=int, default=1)
    sched.add_argument("--params", metavar="FILE", default=None)
    sched.add_argument("--out", default=".", metavar="DIR")
    sched.add_argument("--force", action="store_true")
    sched.set_defaults(func=cmd_schedule)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
