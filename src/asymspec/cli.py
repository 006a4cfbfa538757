"""Command-line interface.

Subcommands:
  analyze   spectral equivalent of a matrix series (or GKF form) from JSON
  kernel    flat-limit spectral equivalent of a kernel matrix on a node set
  verify    run a pipeline, then check it against the numerical oracle
  sweep     eigenvalue curves over an eps grid as CSV (flat-limit figure data)

Each subcommand takes only the flags it reads.  Exit codes: 0 complete / all
verifiable groups pass, 2 truncated expansion, 1 malformed input (a usage
error included) or invalid configuration.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .ase import Ase
from .gkf import ase_from_gkf
from .kernels import KERNEL_RANK_TOL, NodeSet, generate_nodes, kernel_ase, kernel_model
from .oracle import eigen_sweep, eps_star_indices, match_ase
from .pipeline import analyze_series
from .series import SERIES_RANK_TOL
from . import serialize
from .serialize import InputError

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_TRUNCATED = 2


def _parse_eps_grid(spec: str) -> np.ndarray:
    """'start:stop:points' -> decreasing log-spaced grid, e.g. '1e-4:1e-1:37'."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise InputError("--eps-grid must look like start:stop:points")
    try:
        start, stop, points = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise InputError("--eps-grid fields must be numeric") from exc
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise InputError("--eps-grid endpoints must be finite")
    if start <= 0 or stop <= 0 or points < 4:
        raise InputError("--eps-grid needs positive endpoints and at least 4 points")
    lo, hi = min(start, stop), max(start, stop)
    return np.geomspace(lo, hi, points)[::-1]


def _emit(text: str, output):
    """Write ``text`` and a final newline (unless it ends with one) without
    copying the document to append it."""
    end = "" if text.endswith("\n") else "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write(end)
    else:
        sys.stdout.write(text)
        sys.stdout.write(end)


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def _load_nodes(args) -> NodeSet:
    if not args.nodes:
        raise InputError("this command needs --nodes")
    if ":" in args.nodes:
        return generate_nodes(args.nodes, d=args.dim, seed=args.seed or 0)
    import os

    if not os.path.exists(args.nodes):
        raise InputError(f"node file {args.nodes} does not exist")
    nodes = serialize.read_nodes_csv(args.nodes)
    if args.dim is not None and args.dim != nodes.d:
        raise InputError(f"--dim {args.dim} does not match the {nodes.d} coordinates "
                         f"per node in {args.nodes}")
    return nodes


def _load_kernel(args):
    if not args.kernel:
        raise InputError("this command needs --kernel")
    psi = None
    if args.psi is not None:
        try:
            psi = json.loads(args.psi)
        except json.JSONDecodeError as exc:
            raise InputError(f"--psi: {exc.msg}") from exc
        # bool is a subclass of int, so the types are compared exactly
        ok = isinstance(psi, list) and psi and all(type(c) in (int, float) for c in psi)
        try:
            ok = ok and np.isfinite(np.array(psi, dtype=float)).all()
        except OverflowError:  # an integer beyond the float range
            ok = False
        if not ok:
            raise InputError(f"--psi must be a non-empty JSON list of finite numbers, "
                             f"got {args.psi!r}")
    try:
        return kernel_model(args.kernel, psi_coefficients=psi)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _check_tolerances(args):
    """Tolerance flags must be finite and nonnegative: against NaN, inf or a
    negative value every rank decision or verify check comes out one way."""
    for name in ("rank_tol", "tol_coeff", "tol_angle"):
        value = getattr(args, name, None)
        if value is not None and not 0.0 <= value < math.inf:
            raise InputError(f"--{name.replace('_', '-')} must be a finite number >= 0, "
                             f"got {value!r}")


def _rank_tol(args, default: float) -> float:
    return args.rank_tol if args.rank_tol is not None else default


def _series_ase_and_source(args, predict=True):
    """The ASE of --input (None unless ``predict``) and its form: a GKF evaluator or a series."""
    if not args.input:
        raise InputError("this command needs --input")
    obj = _load_json(args.input)
    tol = _rank_tol(args, SERIES_RANK_TOL)
    if args.mode == "gkf":
        form = serialize.gkf_from_json(obj)
        return ase_from_gkf(form, tol) if predict else None, form.evaluate
    series = serialize.matrix_series_from_json(obj)
    if not series.symmetric:
        raise InputError("field 'symmetric': analysis requires a symmetric series")
    return analyze_series(series, args.mode, tol) if predict else None, series


def _pipeline_ase_and_source(args, predict=True):
    """The (prediction, sweep source) pair for verify/sweep; a kernel ASE
    carries the readout ``kernel_ase`` computed.  Without ``predict`` only
    the source is built, and the prediction is None."""
    if args.input:
        other = next((f"--{name}" for name in ("kernel", "psi", "nodes", "dim", "seed")
                      if getattr(args, name) is not None), None)
        if other:
            raise InputError(f"--input and {other} name two sources; give one")
        return _series_ase_and_source(args, predict)
    kernel = _load_kernel(args)
    nodes = _load_nodes(args)
    if not predict:
        return None, (kernel, nodes)
    ase, _ = kernel_ase(kernel, nodes, _rank_tol(args, KERNEL_RANK_TOL))
    return ase, (kernel, nodes)


def cmd_analyze(args) -> int:
    ase, _ = _series_ase_and_source(args)
    _emit(serialize.dumps(serialize.ase_to_json(ase)), args.output)
    return EXIT_OK if ase.complete else EXIT_TRUNCATED


def cmd_kernel(args) -> int:
    kernel = _load_kernel(args)
    nodes = _load_nodes(args)
    ase, readout = kernel_ase(kernel, nodes, _rank_tol(args, KERNEL_RANK_TOL))
    table = ["valuation,count,lambda_leading"]
    for group in readout:
        lead = ";".join(f"{x:.12g}" for x in group.leading_values)
        table.append(f"{group.valuation},{group.count},{lead}")
    sys.stdout.write("\n".join(table) + "\n")
    _emit(serialize.dumps(serialize.ase_to_json(ase, readout)), args.output)
    return EXIT_OK if ase.complete else EXIT_TRUNCATED


def cmd_verify(args) -> int:
    ase, source = _pipeline_ase_and_source(args)
    if args.perturb_lambda is not None:
        ase = Ase(
            ase.n,
            [(alpha, q, args.perturb_lambda * s) for alpha, q, s in ase.factors],
            ase.truncated_at,
        )
    grid = _parse_eps_grid(args.eps_grid)
    # eigenvectors only at the eps* points that match_ase reads them at
    stars = eps_star_indices(grid, ase.readout)
    sweep = eigen_sweep(source, grid, vectors_at=[i for i in stars if i is not None])
    report = match_ase(ase, sweep, args.tol_coeff, args.tol_angle)
    _emit(serialize.dumps(serialize.match_report_to_json(report)), args.output)
    return EXIT_OK if report.passed else EXIT_TRUNCATED


def cmd_sweep(args) -> int:
    # the pipeline runs only to predict the tracked vector
    track = args.track_vector is not None
    ase, source = _pipeline_ase_and_source(args, predict=track)
    grid = _parse_eps_grid(args.eps_grid)
    predicted = _predicted_vector(ase, args.track_vector) if track else None
    # with a tracked vector, only its column is kept at each grid point
    sweep = (eigen_sweep(source, grid, columns=[args.track_vector - 1]) if track
             else eigen_sweep(source, grid, vectors_at=()))
    lines = serialize.sweep_csv_lines(sweep, args.track_vector, predicted)
    _emit("\n".join(lines), args.output)
    return EXIT_OK


def _predicted_vector(ase: Ase, k: int) -> np.ndarray:
    """Predicted limiting eigenvector for the k-th largest eigenvalue (1-based)."""
    if not 1 <= k <= ase.n:
        raise InputError(f"--track-vector index {k} out of range 1..{ase.n}")
    position = k - 1
    for group in ase.readout:
        if position < group.count:
            if group.ambiguous:
                raise InputError(
                    f"eigenvector {k} is not identified: its group at valuation "
                    f"{group.valuation} has coinciding leading coefficients"
                )
            return group.vectors[:, position]
        position -= group.count
    raise InputError(
        f"eigenvector {k} is beyond the resolved groups "
        f"(expansion truncated at {ase.truncated_at})"
    )


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is malformed input: exit 1 through main, not 2
        raise InputError(f"{self.prog}: {message}")


_FLAGS = {  # every flag once; each subcommand takes exactly the flags its handler reads
    "--input": dict(help="matrix-series (or GKF) JSON file"),
    "--kernel": dict(choices=("gaussian", "exponential", "matern2", "custom")),
    "--psi": dict(help="JSON list of psi coefficients for --kernel custom"),
    "--nodes": dict(help="node CSV path, or generator spec like 'uniform:10'"),
    "--dim": dict(type=int, help="dimension of 'uniform' nodes (default 2); for any other "
                  "node source it must match the nodes' own dimension"),
    "--seed": dict(type=int, help="seed of generated nodes (default 0)"),
    "--mode": dict(choices=("scaled", "gkf", "iterative", "auto"), default="auto"),
    "--rank-tol": dict(type=float),
    "--eps-grid": dict(default="1e-4:1e-1:37"),  # 12 points per decade over [1e-4, 1e-1]
    "--output": dict(help="write the main result here instead of stdout"),
    "--tol-coeff": dict(type=float, default=1e-2),
    "--tol-angle": dict(type=float, default=1e-2),
    "--perturb-lambda": dict(type=float, help="test hook: scale predicted leading "
                             "coefficients before checking"),
    "--format": dict(choices=("csv",)),  # sweep writes only CSV; the benchmark's sweeps pass it
    "--track-vector": dict(type=int, metavar="K"),
}
_KERNEL = ("--kernel", "--psi", "--nodes", "--dim", "--seed")
_SOURCE = ("--input", *_KERNEL, "--mode", "--rank-tol", "--eps-grid", "--output")
_COMMANDS = (  # name, help, handler, flags
    ("analyze", "spectral equivalent of a matrix series from JSON", cmd_analyze,
     ("--input", "--mode", "--rank-tol", "--output")),
    ("kernel", "flat-limit spectral equivalent of a kernel matrix", cmd_kernel,
     (*_KERNEL, "--rank-tol", "--output")),
    ("verify", "pipeline result checked against a numerical eigen-sweep", cmd_verify,
     (*_SOURCE, "--tol-coeff", "--tol-angle", "--perturb-lambda")),
    ("sweep", "eigenvalue curves over an eps grid as CSV", cmd_sweep,
     (*_SOURCE, "--format", "--track-vector")),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing fills a fresh
    namespace each call, so no value carries over between calls)."""
    parser = _Parser(
        prog="asymspec",
        description="Limiting eigenvalues and eigenvectors of symmetric "
        "analytic matrix perturbations and kernel matrices in the flat limit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc, handler, flags in _COMMANDS:
        p = sub.add_parser(name, help=doc)
        p.set_defaults(handler=handler)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    try:  # an InputError is a ValueError
        args = build_parser().parse_args(argv)
        _check_tolerances(args)
        return args.handler(args)
    except (ValueError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
