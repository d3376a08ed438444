"""Command-line front end: walk runs, circuit reports, schedule compilation.

Exit codes: 0 success, 1 usage error, 2 domain/validation error or out
of memory, 3 numeric failure, 143 ended by SIGTERM (which leaves no
partial file).  All emitted CSV/JSON files are byte-deterministic
(floats at 17 significant digits).
"""

from __future__ import annotations

import argparse
import math
import re
import signal
import sys
import threading
import warnings
from collections.abc import Iterable
from itertools import chain
from pathlib import Path

import numpy as np

from ._format import distribution_rows, dumps_17g, fmt17
from .circuit import (
    DEFAULT_PARAMS,
    CircuitParams,
    chi_from_params,
    couplings,
    josephson_coefficient,
    solve_mode,
    solve_operating_point,
)
from .errors import NumericError, ValidationError, _collector_paused, _load_json
from .graph import (
    generate_lattice_tessellations,
    generate_path_tessellations,
    graph_from_json,
    greedy_tessellate,
)
from .schedule import (
    PulseSchedule,
    _budget_text,
    _interval_length,
    compile_schedule,
    emit_schedule,
    feasibility_notes,
    validate_schedule,
)
from .svgplot import distribution_svg
from .walk import (
    CONVENTION_ABSTRACT,
    CONVENTION_PHYSICAL,
    WalkConfig,
    evolve,
    initial_basis_state,
    probability_distribution,
)

__all__ = ["main", "parse_theta"]

_WRITE_SLICE = 1 << 20  # characters per write, so no encoded copy of a whole file is held


class _UsageError(Exception):
    pass


class _Terminated(BaseException):
    """SIGTERM arrived while a command ran; raised where the program stands, so a partial file is removed."""


def _on_sigterm(signum, frame):
    raise _Terminated


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def parse_theta(text: str) -> float:
    """Angle parser: plain decimals or exact fractions of pi (pi/3, 2pi/5, -pi, 3*pi/4)."""
    compact = text.strip().lower().replace(" ", "").replace("*", "")
    m = re.fullmatch(r"(-?(?:\d+\.?\d*|\.\d+)?)pi(?:/(\d+\.?\d*))?", compact)
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
    g, ts = graph_from_json(_read_utf8(args.graph, "graph file"))
    if ts is not None:
        return g, ts, f"file:{args.graph}"
    with warnings.catch_warnings(record=True) as caught:  # printed as one line each, not Python's warning display
        warnings.simplefilter("always")
        ts = greedy_tessellate(g)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    return g, ts, f"file+greedy:{args.graph}"


def _read_utf8(path: str, what: str) -> str:
    """The text of the file at ``path``; bytes that are not UTF-8 are a one-line ValidationError naming ``what``."""
    data = Path(path).read_bytes()
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{what} {path} is not UTF-8: {exc.reason} at byte offset {exc.start}") from None


@_collector_paused
def _load_params(path: str | None) -> CircuitParams:
    if path is None:
        return DEFAULT_PARAMS
    obj = _load_json(_read_utf8(path, "parameter file"), f"parameter JSON in {path}")
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


def _guarded_write(path: Path, texts: Iterable[str], force: bool) -> None:
    """Write the concatenation of ``texts`` to ``path``, each text in ``_WRITE_SLICE`` slices, never joined.

    The texts may be made as they are read, so making one can fail midway; the partial file is then removed.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    f = path.open("w" if force else "x")  # each command checks first; "x" refuses a file made since that check
    try:
        with f:
            for text in texts:
                for start in range(0, len(text), _WRITE_SLICE):
                    f.write(text[start : start + _WRITE_SLICE])
    except BaseException:
        path.unlink()
        raise
    print(f"wrote {path}")


def cmd_walk(args) -> int:
    """Evolve the start node's photon and write distribution.csv, run.json and, with --svg, distribution.svg.

    The walk keeps each step's |psi|^2 as a copy of its live window only (see
    :func:`~sqwbench._format.distribution_rows`), not as text; each step's rows are
    formatted as ``_guarded_write`` reaches them, so no text of the whole file is held.
    """
    g, ts, source = _resolve_graph(args)
    out = Path(args.out)
    targets = [out / "distribution.csv", out / "run.json"]
    if args.svg:
        targets.append(out / "distribution.svg")
    _ensure_writable(targets, args.force)

    start = args.start if args.start is not None else (g.node_count - 1) // 2
    state = initial_basis_state(g.node_count, start)
    cfg = WalkConfig(theta=args.theta, steps=args.steps, convention=args.convention)
    rows = distribution_rows(g.node_count)
    final = evolve(state, ts, cfg, graph=g, on_step=lambda k, psi: rows.keep(np.abs(psi) ** 2))  # checked on exit
    _guarded_write(out / "distribution.csv", rows, args.force)  # each step's text is formatted as it is written

    metadata = {
        "n": g.node_count,
        "theta": float(args.theta),
        "steps": args.steps,
        "convention": args.convention,
        "tessellation_source": source,
    }
    _guarded_write(out / "run.json", [dumps_17g(metadata) + "\n"], args.force)

    if args.svg:
        title = f"final distribution after {args.steps} steps (start {start})"
        _guarded_write(out / "distribution.svg", [distribution_svg(probability_distribution(final), title)], args.force)
    return 0


def _mode_columns(mode, chi_c: float, chi_l: float) -> dict[str, float]:
    """Columns report.json and sweep.csv share, in file order: ``mode``, then its link's couplings at chi_c, chi_l."""
    link = couplings(mode, mode, chi_c, chi_l)
    names = ("kL", "omega_rad_s", "A", "kappa_cap", "kappa_ind", "kappa_total")
    return dict(zip(names, (mode.kl, mode.omega, mode.amplitude, link.kappa_cap, link.kappa_ind, link.kappa_total)))


def cmd_circuit(args) -> int:
    if args.sweep < 0:
        raise _UsageError(f"--sweep must be non-negative, got {args.sweep}")
    out = Path(args.out)
    targets = [out / "report.json"] + ([out / "sweep.csv"] if args.sweep > 0 else [])
    _ensure_writable(targets, args.force)

    params = _load_params(args.params)
    operating = solve_operating_point(params)
    # an unusable --theta must fail before any file is written
    tau = _interval_length(args.theta, operating)
    columns = _mode_columns(operating.mode_all_on, operating.chi_c, -operating.chi_l_max)
    report = {**columns, "flux_on": operating.flux_on, "flux_off": operating.flux_off}
    _guarded_write(out / "report.json", [dumps_17g(report) + "\n"], args.force)

    def sweep_row(flux_ratio: float) -> str:
        chi = chi_from_params(params, josephson_coefficient(flux_ratio, params))
        # swept link between two resonators whose other neighbor stays driven on
        mode = solve_mode(chi.chi_c, -operating.chi_l_max, chi.chi_l, 1, params)
        return ",".join(map(fmt17, (flux_ratio, chi.chi_l, *_mode_columns(mode, chi.chi_c, chi.chi_l).values()))) + "\n"

    if args.sweep > 0:  # each row is solved as it is written, so no text of the whole file is held
        rows = (sweep_row(k / args.sweep) for k in range(args.sweep + 1))
        _guarded_write(out / "sweep.csv", chain([",".join(["flux_ratio", "chi_l", *columns]) + "\n"], rows), args.force)

    print(
        f"feasibility: driven coupling {operating.coupling_on.kappa_total:.6g} rad/s; "
        f"interval tau = {tau:.6g} s at theta = {args.theta:.6g} vs {_budget_text()}"
    )
    _print_feasibility(PulseSchedule(tau, operating.flux_on, operating.flux_off, 0, ()))
    return 0


def cmd_schedule(args) -> int:
    _ensure_writable([Path(args.out) / "schedule.json"], args.force)
    g, ts, _ = _resolve_graph(args)
    params = _load_params(args.params)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        run = compile_schedule(g, ts, args.theta, params, args.steps)

    violations = validate_schedule(run.schedule, g)  # before the write, so a failed run leaves no file
    if violations:
        for message in violations:
            print(f"validation: {message}", file=sys.stderr)
        raise ValidationError("compiled schedule failed validation")
    _guarded_write(Path(args.out) / "schedule.json", [emit_schedule(run.schedule)], args.force)
    print(f"validation: ok ({len(run.schedule.intervals)} intervals, tau = {run.schedule.tau_seconds:.6g} s)")
    _print_feasibility(run.schedule)
    return 0


def _print_feasibility(schedule: PulseSchedule) -> None:
    """The schedule's hardware-budget verdict, one ``feasibility:`` line per note."""
    for note in feasibility_notes(schedule) or [f"interval fits the {_budget_text()}"]:
        print(f"feasibility: {note}")


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
    walk.add_argument(
        "--convention", choices=(CONVENTION_PHYSICAL, CONVENTION_ABSTRACT), default=CONVENTION_PHYSICAL
    )
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
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(1, len(argv))):  # argparse would take a negative angle such as -pi/2 for a flag
        if argv[i - 1] == "--theta" and re.match(r"-[^-]", argv[i]):
            argv[i - 1 : i + 1] = [f"--theta={argv[i]}"]
    # SIGTERM becomes an exception while a command runs, so _guarded_write's cleanup sees it as it sees SIGINT;
    # only the main thread may set a handler, and the previous one is back on every exit
    in_main = threading.current_thread() is threading.main_thread()
    previous = signal.signal(signal.SIGTERM, _on_sigterm) if in_main else None
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _Terminated:
        print("error: terminated", file=sys.stderr)
        return 128 + signal.SIGTERM
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (ValidationError, OSError, MemoryError) as exc:
        message = "out of memory; reduce the graph size or --steps" if isinstance(exc, MemoryError) else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    finally:
        if in_main:  # None: a handler set outside Python, which cannot be put back; the default stands in for it
            signal.signal(signal.SIGTERM, signal.SIG_DFL if previous is None else previous)


if __name__ == "__main__":
    sys.exit(main())
