"""File formats: matrix-series / GKF / scaling / ASE JSON, node CSV, sweep CSV.

All emitters are deterministic (fixed key order, repr-exact floats in JSON,
17-significant-digit floats in CSV) so repeated runs produce byte-identical
output.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .series import Exponent, MatrixSeries
from .scaling import DiagonalScaling
from .ase import Ase, fix_column_signs
from .gkf import GkfForm
from .kernels import NodeSet

__all__ = [
    "InputError",
    "exponent_to_json",
    "exponent_from_json",
    "matrix_series_to_json",
    "matrix_series_from_json",
    "scaling_to_json",
    "scaling_from_json",
    "gkf_from_json",
    "ase_to_json",
    "ase_from_json",
    "read_nodes_csv",
    "write_nodes_csv",
    "sweep_csv_lines",
    "match_report_to_json",
]


class InputError(ValueError):
    """Malformed input file; the message names the offending field."""


def exponent_to_json(e: Exponent):
    if e.is_infinite:
        return None
    return {"num": e.num, "den": e.den}


def exponent_from_json(obj, where: str) -> Exponent:
    if isinstance(obj, bool):
        raise InputError(f"{where}: expected an exponent, got a boolean")
    if isinstance(obj, int):
        return Exponent(obj)
    if isinstance(obj, dict):
        try:
            num = obj["num"]
            den = obj.get("den", 1)
        except KeyError as exc:
            raise InputError(f"{where}: exponent object needs 'num'") from exc
        if not isinstance(num, int) or not isinstance(den, int) or den < 1:
            raise InputError(f"{where}: exponent num/den must be integers with den >= 1")
        return Exponent(num, den)
    raise InputError(f"{where}: expected an integer or {{'num','den'}} object")


def _matrix_from_json(obj, n: int, where: str) -> np.ndarray:
    try:
        mat = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{where}: matrix must be an array of arrays of numbers") from exc
    if mat.shape != (n, n):
        raise InputError(f"{where}: matrix shape {mat.shape} != ({n}, {n})")
    if not np.all(np.isfinite(mat)):
        raise InputError(f"{where}: matrix entries must be finite")
    return mat


def matrix_series_to_json(k: MatrixSeries) -> dict:
    return {
        "n": k.shape[0],
        "symmetric": bool(k.symmetric),
        "trunc_order": exponent_to_json(k.trunc_order),
        "terms": [
            {"exponent": exponent_to_json(e), "matrix": m.tolist()} for e, m in k.terms
        ],
    }


def matrix_series_from_json(obj) -> MatrixSeries:
    if not isinstance(obj, dict):
        raise InputError("top level: expected a JSON object")
    try:
        n = obj["n"]
    except KeyError as exc:
        raise InputError("top level: missing field 'n'") from exc
    if not isinstance(n, int) or n < 1:
        raise InputError("field 'n': must be a positive integer")
    symmetric = obj.get("symmetric", True)
    if not isinstance(symmetric, bool):
        raise InputError("field 'symmetric': must be a boolean")
    trunc_raw = obj.get("trunc_order")
    trunc = (
        None if trunc_raw is None else exponent_from_json(trunc_raw, "field 'trunc_order'")
    )
    terms_raw = obj.get("terms")
    if not isinstance(terms_raw, list):
        raise InputError("field 'terms': must be a list")
    terms = []
    for idx, t in enumerate(terms_raw):
        where = f"terms[{idx}]"
        if not isinstance(t, dict):
            raise InputError(f"{where}: expected an object")
        if "exponent" not in t or "matrix" not in t:
            raise InputError(f"{where}: needs 'exponent' and 'matrix'")
        e = exponent_from_json(t["exponent"], f"{where}.exponent")
        m = _matrix_from_json(t["matrix"], n, f"{where}.matrix")
        if symmetric and not np.allclose(m, m.T, atol=0.0):
            raise InputError(f"{where}.matrix: declared symmetric but is not")
        terms.append((e, m))
    return MatrixSeries(n, terms, trunc, symmetric=symmetric)


def scaling_to_json(scaling: DiagonalScaling) -> dict:
    return {
        "valuations": [
            {"nu": exponent_to_json(nu), "mult": mult} for nu, mult in scaling.valuations
        ]
    }


def scaling_from_json(obj, where: str = "scaling") -> DiagonalScaling:
    if isinstance(obj, dict):
        obj = obj.get("valuations")
    if not isinstance(obj, list):
        raise InputError(f"{where}: expected a list of {{'nu','mult'}} blocks")
    blocks = []
    for idx, b in enumerate(obj):
        if not isinstance(b, dict) or "nu" not in b:
            raise InputError(f"{where}[{idx}]: needs 'nu' (and optional 'mult')")
        nu = exponent_from_json(b["nu"], f"{where}[{idx}].nu")
        mult = b.get("mult", 1)
        if not isinstance(mult, int) or mult < 1:
            raise InputError(f"{where}[{idx}].mult: must be a positive integer")
        blocks.append((nu, mult))
    return DiagonalScaling(tuple(blocks))


def gkf_from_json(obj) -> GkfForm:
    if not isinstance(obj, dict):
        raise InputError("top level: expected a JSON object")
    for key in ("V", "W", "valuations"):
        if key not in obj:
            raise InputError(f"top level: missing field '{key}'")
    try:
        v = np.asarray(obj["V"], dtype=float)
        w = np.asarray(obj["W"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError("fields 'V'/'W': must be numeric arrays") from exc
    if v.ndim != 2 or w.ndim != 2:
        raise InputError("fields 'V'/'W': must be two-dimensional")
    scaling = scaling_from_json(obj["valuations"], "field 'valuations'")
    return GkfForm(v, scaling, w)


def ase_to_json(ase: Ase, readout=None) -> dict:
    """ASE JSON; ``readout`` defaults to ``ase.readout``."""
    groups = []
    for g in ase.readout if readout is None else readout:
        groups.append(
            {
                "valuation": exponent_to_json(g.valuation),
                "lambda": [float(x) for x in g.leading_values],
                "ambiguous": bool(g.ambiguous),
                "vectors": [g.vectors[:, k].tolist() for k in range(g.vectors.shape[1])],
            }
        )
    return {
        "n": ase.n,
        "truncated_at": None if ase.truncated_at is None else exponent_to_json(ase.truncated_at),
        "groups": groups,
    }


def ase_from_json(obj) -> Ase:
    """Rebuild an Ase from its JSON form (terms from lambda + vectors)."""
    if not isinstance(obj, dict) or "n" not in obj or "groups" not in obj:
        raise InputError("ASE JSON needs 'n' and 'groups'")
    n = obj["n"]
    groups = []
    for idx, g in enumerate(obj["groups"]):
        where = f"groups[{idx}]"
        alpha = exponent_from_json(g["valuation"], f"{where}.valuation")
        lams = g.get("lambda")
        vecs = g.get("vectors")
        if not isinstance(lams, list) or vecs is None:
            raise InputError(f"{where}: needs 'lambda' and 'vectors'")
        u = np.asarray(vecs, dtype=float).T  # columns are vectors
        if u.shape != (n, len(lams)):
            raise InputError(f"{where}.vectors: shape mismatch")
        term = (u * np.asarray(lams)) @ u.T
        groups.append((alpha, 0.5 * (term + term.T)))
    trunc_raw = obj.get("truncated_at")
    trunc = None if trunc_raw is None else exponent_from_json(trunc_raw, "truncated_at")
    return Ase(n, groups, trunc)


def match_report_to_json(report) -> dict:
    return {
        "passed": bool(report.passed),
        "precision_ceiling": report.precision_ceiling,
        "note": report.note,
        "groups": [
            {
                "valuation": g.valuation,
                "count": g.count,
                "verifiable": bool(g.verifiable),
                "eps_star": g.eps_star,
                "slopes": [None if not math.isfinite(s) else s for s in g.slopes],
                "slope_ok": g.slope_ok,
                "coeff_rel_errors": list(g.coeff_rel_errors),
                "coeff_ok": g.coeff_ok,
                "angle": g.angle,
                "angle_ok": g.angle_ok,
                "passed": g.passed,
            }
            for g in report.groups
        ],
    }


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def read_nodes_csv(path) -> NodeSet:
    """One node per line, comma-separated doubles; optional '# d=<int>' header."""
    d = None
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("d="):
                    try:
                        d = int(body[2:])
                    except ValueError as exc:
                        raise InputError(f"line {lineno}: bad dimension header") from exc
                continue
            try:
                vals = [float(x) for x in line.split(",")]
            except ValueError as exc:
                raise InputError(f"line {lineno}: non-numeric coordinate") from exc
            rows.append(vals)
    if not rows:
        raise InputError("node file contains no nodes")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise InputError("node rows have inconsistent lengths")
    width = widths.pop()
    if d is not None and d != width:
        raise InputError(f"header says d={d} but rows have {width} coordinates")
    try:
        return NodeSet(np.asarray(rows, dtype=float))
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def write_nodes_csv(path, nodes: NodeSet):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# d={nodes.d}\n")
        for line in _csv_rows(nodes.points):
            fh.write(line + "\n")


def _csv_rows(table) -> list:
    """Rows of a 2-D float array as comma-joined ``%.17g`` fields.

    One format call per row: ``%`` on a row's Python floats gives the same
    text as ``format(x, ".17g")`` per field, nan, inf and -0 included.
    """
    table = np.asarray(table, dtype=float)
    fmt = ",".join(["%.17g"] * table.shape[1])
    return [fmt % tuple(row) for row in table.tolist()]


def sweep_csv_lines(sweep, track_vector=None, predicted_limit=None):
    """Eigenvalue-curve CSV: header eps,lambda_1..lambda_n, one row per grid point.

    With ``track_vector`` = k (1-based) a second block follows after a blank
    line: per-eps components of the k-th eigenvector (signs pinned) and a
    final 'limit' row holding the predicted limiting vector.
    """
    n = sweep.n
    eps = sweep.eps_grid[:, None]
    lines = ["eps," + ",".join(f"lambda_{k}" for k in range(1, n + 1))]
    lines += _csv_rows(np.hstack([eps, sweep.eigenvalues]))
    if track_vector is not None:
        k = int(track_vector)
        if not 1 <= k <= n:
            raise InputError(f"--track-vector index {k} out of range 1..{n}")
        lines.append("")
        lines.append("eps," + ",".join(f"u{k}_{i}" for i in range(1, n + 1)))
        vecs = np.hstack([sweep.vectors(i, [k - 1]) for i in range(len(eps))])
        lines += _csv_rows(np.hstack([eps, fix_column_signs(vecs).T]))
        if predicted_limit is not None:
            limit = fix_column_signs(np.asarray(predicted_limit)[:, None])
            lines.append("limit," + _csv_rows(limit.T)[0])
    return lines


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2)``, with lists of floats joined in one step.

    The standard library encodes indented JSON in pure Python; ASE vectors
    are long float lists, so they are emitted through ``float.__repr__``
    directly.  Anything else (non-string keys, types outside JSON) falls
    back to the library encoder, which converts or rejects it as usual.
    """
    parts = []
    try:
        _encode(obj, "\n", parts)
    except (_Unsupported, RecursionError):
        return json.dumps(obj, indent=2)
    return "".join(parts)


class _Unsupported(Exception):
    """A value the fast encoder leaves to the standard library."""


_FLOAT_REPR = float.__repr__


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return _FLOAT_REPR(x)


def _scalar_text(o):
    if isinstance(o, str):
        return json.encoder.encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float_text(o)
    return None


def _encode(o, newline: str, parts: list):
    """Append the indent=2 text of ``o``; ``newline`` is a line break plus o's indent."""
    text = _scalar_text(o)
    if text is not None:
        parts.append(text)
    elif isinstance(o, (list, tuple)):
        if not o:
            parts.append("[]")
            return
        inner = newline + "  "
        if set(map(type, o)) == {float}:
            body = ("," + inner).join(map(_FLOAT_REPR, o))
            if "n" in body:  # nan or inf: no finite float's repr has an 'n'
                body = ("," + inner).join(map(_float_text, o))
            parts += ("[", inner, body, newline, "]")
            return
        parts.append("[")
        for k, item in enumerate(o):
            parts.append(inner if k == 0 else "," + inner)
            _encode(item, inner, parts)
        parts += (newline, "]")
    elif isinstance(o, dict):
        if not o:
            parts.append("{}")
            return
        inner = newline + "  "
        parts.append("{")
        for k, (key, value) in enumerate(o.items()):
            if not isinstance(key, str):
                raise _Unsupported()
            parts += (inner if k == 0 else "," + inner,
                      json.encoder.encode_basestring_ascii(key), ": ")
            _encode(value, inner, parts)
        parts += (newline, "}")
    else:
        raise _Unsupported()

