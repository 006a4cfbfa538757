"""File formats: matrix-series / GKF / ASE JSON, node CSV, sweep CSV.

All emitters are deterministic (fixed key order, repr-exact floats in JSON,
17-significant-digit floats in CSV) so repeated runs produce byte-identical
output.

``dumps`` writes the text of ``json.dumps(obj, indent=2)``.  The standard
library lays out the document; only the bodies of its all-float lists are
written here, all together: a document with at least ``_BATCH_MIN_DIGITS``
(1000) nonzero finite floats gets them from one chunked numpy pass
(``floattext``: Schubfach's shortest round-trip digits on uint64 arrays, the
digits ``float.__repr__`` picks, laid out by repr's rules as bytes).  Below
that count, where the pass's fixed cost does not pay, and for documents of
mostly zeros, each float goes through ``float.__repr__``.
"""

from __future__ import annotations

import dataclasses
import json
import math
from fractions import Fraction
from itertools import chain

import numpy as np

from .series import INFINITY, MatrixSeries
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


def exponent_to_json(e: Fraction):
    if e == INFINITY:
        return None
    return {"num": e.numerator, "den": e.denominator}


def exponent_from_json(obj, where: str) -> Fraction:
    if isinstance(obj, bool):
        raise InputError(f"{where}: expected an exponent, got a boolean")
    if isinstance(obj, int):
        return Fraction(obj)
    if isinstance(obj, dict):
        try:
            num = obj["num"]
            den = obj.get("den", 1)
        except KeyError as exc:
            raise InputError(f"{where}: exponent object needs 'num'") from exc
        message = f"{where}: exponent num/den must be integers with den >= 1"
        return Fraction(_int_at_least(num, -math.inf, message), _int_at_least(den, 1, message))
    raise InputError(f"{where}: expected an integer or {{'num','den'}} object")


def _int_at_least(value, least, message: str) -> int:
    """``value`` if it is an int (not a bool) of at least ``least``, else InputError(message)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise InputError(message)
    return value


def _finite_floats(obj, where: str, what: str, form: str) -> np.ndarray:
    """``obj`` as a float array of finite numbers; ``form`` names its expected nesting."""
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{where}: {what} must be {form} of numbers") from exc
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{where}: {what} entries must be finite")
    return arr


def _matrix_from_json(obj, n: int, where: str) -> np.ndarray:
    mat = _finite_floats(obj, where, "matrix", "an array of arrays")
    if mat.shape != (n, n):
        raise InputError(f"{where}: matrix shape {mat.shape} != ({n}, {n})")
    return mat


def matrix_series_to_json(k: MatrixSeries) -> dict:
    return {
        "n": k.shape[0],
        "symmetric": bool(k.symmetric),
        "trunc_order": exponent_to_json(k.trunc_order),
        "terms": [
            {"exponent": exponent_to_json(e), "matrix": m.tolist()} for e, m in k.terms
        ] or [{"exponent": 0, "matrix": np.zeros(k.shape).tolist()}],  # a matrix fixes n
    }


def matrix_series_from_json(obj) -> MatrixSeries:
    if not isinstance(obj, dict):
        raise InputError("top level: expected a JSON object")
    try:
        n = _int_at_least(obj["n"], 1, "field 'n': must be a positive integer")
    except KeyError as exc:
        raise InputError("top level: missing field 'n'") from exc
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
    if not terms_raw:
        raise InputError("field 'terms': needs at least one term, whose matrix fixes n")
    terms = []
    for idx, t in enumerate(terms_raw):
        where = f"terms[{idx}]"
        if not isinstance(t, dict):
            raise InputError(f"{where}: expected an object")
        if "exponent" not in t or "matrix" not in t:
            raise InputError(f"{where}: needs 'exponent' and 'matrix'")
        e = exponent_from_json(t["exponent"], f"{where}.exponent")
        m = _matrix_from_json(t["matrix"], n, f"{where}.matrix")
        if np.abs(m).max() > np.finfo(float).max / 2:  # symmetrizing would overflow
            raise InputError(f"{where}.matrix: an entry above {np.finfo(float).max / 2:.4g} "
                             "in magnitude overflows")
        if symmetric and not np.array_equal(m, m.T):
            raise InputError(f"{where}.matrix: declared symmetric but is not")
        terms.append((e, m))
    if trunc is None and not any(m.any() for _, m in terms):
        raise InputError("field 'trunc_order': required when no term is nonzero")
    return MatrixSeries(n, terms, trunc, symmetric=symmetric)


def scaling_from_json(obj, where: str = "scaling") -> DiagonalScaling:
    if not isinstance(obj, list):
        raise InputError(f"{where}: expected a list of {{'nu','mult'}} blocks")
    blocks = []
    for idx, b in enumerate(obj):
        if not isinstance(b, dict) or "nu" not in b:
            raise InputError(f"{where}[{idx}]: needs 'nu' (and optional 'mult')")
        nu = exponent_from_json(b["nu"], f"{where}[{idx}].nu")
        mult = _int_at_least(b.get("mult", 1), 1,
                             f"{where}[{idx}].mult: must be a positive integer")
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
    v = _finite_floats(v, "field 'V'", "matrix", "an array of arrays")
    w = _finite_floats(w, "field 'W'", "matrix", "an array of arrays")
    if w.shape[0] == w.shape[1] and not np.array_equal(w, w.T):
        raise InputError("field 'W': must be exactly symmetric")
    scaling = scaling_from_json(obj["valuations"], "field 'valuations'")
    return GkfForm(v, scaling, w)


def ase_to_json(ase: Ase) -> dict:
    """ASE JSON: each group of ``ase.readout``, its values and vectors."""
    if ase.truncated_at == INFINITY:
        raise ValueError("truncated_at is infinite; ASE JSON writes null for a complete ASE")
    groups = [{"valuation": exponent_to_json(g.valuation),
               "lambda": [float(x) for x in g.leading_values],
               "ambiguous": bool(g.ambiguous),
               "vectors": g.vectors.T.tolist()} for g in ase.readout]
    return {
        "n": ase.n,
        "truncated_at": None if ase.truncated_at is None else exponent_to_json(ase.truncated_at),
        "groups": groups,
    }


def ase_from_json(obj) -> Ase:
    """Rebuild an Ase from its JSON form: each group is the factor (vectors, diag(lambda))."""
    if not isinstance(obj, dict) or "n" not in obj or "groups" not in obj:
        raise InputError("ASE JSON needs 'n' and 'groups'")
    n = _int_at_least(obj["n"], 1, "field 'n': must be a positive integer")
    if not isinstance(obj["groups"], list):
        raise InputError("field 'groups': must be a list")
    groups = []
    for idx, g in enumerate(obj["groups"]):
        where = f"groups[{idx}]"
        if not isinstance(g, dict) or "valuation" not in g:
            raise InputError(f"{where}: expected an object with 'valuation'")
        alpha = exponent_from_json(g["valuation"], f"{where}.valuation")
        lams = g.get("lambda")
        vecs = g.get("vectors")
        if not isinstance(lams, list) or vecs is None:
            raise InputError(f"{where}: needs 'lambda' and 'vectors'")
        lam = _finite_floats(lams, where, "lambda", "a list")
        if lam.ndim != 1:
            raise InputError(f"{where}: lambda must be a list of numbers")
        u = _finite_floats(vecs, where, "vectors", "a list of lists").T  # columns are vectors
        if u.shape != (n, len(lam)):
            raise InputError(f"{where}.vectors: shape mismatch")
        groups.append((alpha, u, np.diag(lam)))
    trunc_raw = obj.get("truncated_at")
    trunc = None if trunc_raw is None else exponent_from_json(trunc_raw, "truncated_at")
    return Ase(n, groups, trunc)


def match_report_to_json(report) -> dict:
    """Each ``GroupMatch`` as its fields in order (a non-finite slope as null), then ``passed``."""
    return {
        "passed": bool(report.passed),
        "precision_ceiling": report.precision_ceiling,
        "note": report.note,
        "groups": [{**dataclasses.asdict(g),
                    "slopes": [s if math.isfinite(s) else None for s in g.slopes],
                    "passed": g.passed} for g in report.groups],
    }


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def read_nodes_csv(path) -> NodeSet:
    """One node per line, comma-separated finite doubles; optional '# d=<int>' header."""
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
            if not all(map(math.isfinite, vals)):
                raise InputError(f"line {lineno}: non-finite coordinate")
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
    """``json.dumps(obj, indent=2)``, with lists of floats formatted together.

    The library lays out a copy with each all-float list a placeholder; their
    bodies (``_float_list_bodies``), joined by the comma, line break and indent
    before each placeholder, replace its text.  A document the copy cannot take
    is left whole to the library.
    """
    lists = []
    try:
        pieces = json.dumps(_skeleton(obj, lists), indent=2).split(_MARK_TEXT)
    except RecursionError:  # a cycle, or nesting past the recursion limit
        return json.dumps(obj, indent=2)
    if len(pieces) != len(lists) + 1:  # the document's own strings hold _MARK_TEXT
        return json.dumps(obj, indent=2)
    bodies = _float_list_bodies(lists, ["," + p[p.rindex("\n"):] for p in pieces[:-1]])
    return "".join(chain.from_iterable(zip(pieces, bodies + [""])))


_MARK = ["\x00"]
_MARK_TEXT = json.dumps(_MARK[0])


def _skeleton(o, lists: list):
    """``o`` with ``_MARK`` for each nonempty all-float list or tuple, moved to ``lists``."""
    if isinstance(o, dict):
        return {key: _skeleton(value, lists) for key, value in o.items()}
    if isinstance(o, (list, tuple)) and o:
        if set(map(type, o)) == {float}:
            lists.append(o)
            return _MARK
        return [_skeleton(item, lists) for item in o]
    return o


_FLOAT_REPR = float.__repr__


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return _FLOAT_REPR(x)


# Nonzero finite floats a document needs for the batch (see _float_list_bodies).
# Measured against the float.__repr__ join on the benchmark's ASE documents
# (2-vCPU host, interleaved runs): the batch took 1.05-1.15x repr's time at
# 420-459 such floats, 0.85-0.87x at 765-909 and 0.5-0.65x at 10,100-40,200;
# series ASEs of 65-80 % exact zeros were level (0.99-1.04x) up to 8,200.
_BATCH_MIN_DIGITS = 1000


def _float_list_bodies(lists, seps) -> list:
    """The JSON body of each float list: its values' text joined by its separator.

    Lists holding at least ``_BATCH_MIN_DIGITS`` nonzero finite values in
    all are formatted by ``floattext.list_bodies`` in one numpy pass; the
    module is imported on first use, so calls that never reach it do not
    load it.  Fewer such values (zeros need no digits, and
    ``float.__repr__`` writes them quickly) are joined through
    ``float.__repr__``.
    """
    total = sum(map(len, lists))
    if total >= _BATCH_MIN_DIGITS:
        values = np.fromiter(chain.from_iterable(lists), np.float64, total)
        if np.count_nonzero(np.isfinite(values) & (values != 0)) >= _BATCH_MIN_DIGITS:
            from . import floattext

            return floattext.list_bodies(values, [len(lst) for lst in lists], seps)
    bodies = []
    for lst, sep in zip(lists, seps):
        body = sep.join(map(_FLOAT_REPR, lst))
        if "n" in body:  # nan or inf: no finite float's repr has an 'n'
            body = sep.join(map(_float_text, lst))
        bodies.append(body)
    return bodies
