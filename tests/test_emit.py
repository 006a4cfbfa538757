"""JSON emit, sign pinning and input parsing on the CLI's output paths.

``dumps`` must produce exactly the text of ``json.dumps(obj, indent=2)``;
it is checked byte for byte on a fuzzed corpus and on documents large
enough for the batch float formatter, whose text is also compared with
``float.__repr__`` value by value.  ``fix_column_signs`` is checked against
a per-column loop with the same pivots and flips.

The library lays out ``dumps``' text around a placeholder string standing in
for each float list; documents that hold that string themselves, float
tuples, a float list as the whole document and documents too deep to encode
must still come out (or fail) as ``json.dumps`` does.
"""

import gc
import json
import math
import sys

import numpy as np
import pytest

from asymspec import cli, floattext, serialize
from asymspec.ase import fix_column_signs
from asymspec.serialize import dumps, matrix_series_to_json

SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-320, 5e-324, 1.7976931348623157e308,
           0.1, -2.5e-17, 1e16, 123456789.0]


def _random_value(rng, depth):
    kind = rng.integers(0, 10 if depth < 4 else 6)
    if kind == 0:
        return float(rng.choice(SPECIAL))
    if kind == 1:
        return float(rng.standard_normal() * 10.0 ** rng.integers(-30, 30))
    if kind == 2:
        return int(rng.integers(-10**6, 10**6)) * (10 ** int(rng.integers(0, 25)))
    if kind == 3:
        return [None, True, False][rng.integers(0, 3)]
    if kind == 4:
        return rng.choice(["", "abc", "ünïcode ☃", 'quote " and \\ slash', "tab\tnew\nline",
                           "\x00\x1f", "emoji 😀"])
    if kind == 5:
        return np.float64(rng.standard_normal())  # a float subclass
    if kind in (6, 7):  # float lists, the fast path
        size = int(rng.integers(0, 6))
        vals = [float(x) for x in rng.standard_normal(size)]
        if size and rng.random() < 0.3:
            vals[rng.integers(0, size)] = float(rng.choice(SPECIAL))
        return vals if rng.random() < 0.8 else tuple(vals)
    if kind == 8:
        return [_random_value(rng, depth + 1) for _ in range(rng.integers(0, 5))]
    keys = ["a", "lambda", "ü", "", "n", 'k"q']
    return {
        str(rng.choice(keys)) + str(j): _random_value(rng, depth + 1)
        for j in range(rng.integers(0, 5))
    }


def test_dumps_matches_indented_json_on_fuzzed_corpus():
    rng = np.random.default_rng(2024)
    for _ in range(400):
        obj = _random_value(rng, 0)
        assert dumps(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [
    [], {}, [[]], [{}], {"a": []}, {"a": {}}, [1.0], [1], [1.0, 2], [True, 1.0],
    {1: "int key", 2.5: "float key", True: "t", None: "n"}, {"x": [math.nan, math.inf]},
    "ünï", -0.0, 10**30, [[1.0, -2.0], [3.5, math.nan]], ({"a": (1.0, 2.0)},),
])
def test_dumps_edge_cases(obj):
    assert dumps(obj) == json.dumps(obj, indent=2)


def test_dumps_rejects_what_json_rejects():
    with pytest.raises(TypeError):
        dumps({"a": np.float32(1.0)})
    with pytest.raises(TypeError):
        dumps({(1, 2): 1.0})
    loop = []
    loop.append(loop)
    with pytest.raises(ValueError):
        dumps(loop)


def test_dumps_series_document(ex_5x5):
    obj = matrix_series_to_json(ex_5x5)
    assert dumps(obj) == json.dumps(obj, indent=2, sort_keys=False)


MIN_DIGITS = serialize._BATCH_MIN_DIGITS


def _batch_document(rng, zero_share, specials):
    """An ASE-like document of float lists at two indents, one longer than a
    batch step; ``zero_share`` of the values exact zeros, and with
    ``specials`` some NaN, +-inf, +-0.0 or subnormal."""
    sizes = [1, 7, MIN_DIGITS // 2, floattext._CHUNK + 3, MIN_DIGITS]  # one spans two steps
    values = rng.standard_normal(sum(sizes)) * 10.0 ** rng.integers(-8, 8, sum(sizes))
    values[rng.random(values.size) < zero_share] = 0.0
    if specials:
        pool = np.array([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -1e-320,
                         2.2250738585072009e-308, 2.2250738585072014e-308])
        hit = rng.random(values.size) < 0.05
        values[hit] = rng.choice(pool, hit.sum())
    lists = [v.tolist() for v in np.split(values, np.cumsum(sizes)[:-1])]
    return {"n": 3, "groups": [{"lambda": lists[0], "ambiguous": False, "vectors": lists[1:3]},
                               {"lambda": lists[3], "vectors": [[1, 2.0], lists[4]]}]}


@pytest.mark.parametrize("zero_share, specials", [(0.0, False), (0.7, False), (0.5, True)])
def test_dumps_matches_indented_json_above_batch_cutover(zero_share, specials):
    rng = np.random.default_rng(7)
    for _ in range(3):
        obj = _batch_document(rng, zero_share, specials)
        floats = [x for g in obj["groups"] for lst in (g["lambda"], *g["vectors"])
                  for x in lst if isinstance(x, float)]
        assert sum(x != 0 and math.isfinite(x) for x in floats) >= MIN_DIGITS
        assert dumps(obj) == json.dumps(obj, indent=2)


def _boundary_doubles():
    """Doubles where shortest digits and repr's layout change."""
    powers2 = [2.0 ** e for e in range(-1074, 1024)]  # significand 2^52: uneven neighbours
    powers10 = [float(f"1e{e}") for e in range(-323, 309)]
    near = [math.nextafter(x, t) for x in powers10 for t in (0.0, math.inf)]
    edges = [t for x in (1e-4, 1e16, 1.0, 1e15, 1e17, 0.001, 1e-5)
             for t in (x, math.nextafter(x, 0.0), math.nextafter(x, math.inf))]
    integers = [float(2 ** 53 + k) for k in range(-3000, 3000)]
    small = [float(k) for k in range(1, 3000)]
    return np.array(powers2 + powers10 + near + edges + integers + small)


def test_batch_float_text_equals_repr(monkeypatch):
    """The batch text of each double equals float.__repr__: random bit
    patterns, powers of two and of ten, integers around 2^53 and the 1e-4
    and 1e16 notation switches +-1 ulp, both signs."""
    monkeypatch.setattr(serialize, "_BATCH_MIN_DIGITS", 1)
    rng = np.random.default_rng(2024)
    patterns = rng.integers(0, 2 ** 64, 60000, dtype=np.uint64, endpoint=False).view(np.float64)
    values = np.concatenate([patterns, _boundary_doubles()])
    values = np.concatenate([values, -values])
    values = values[np.isfinite(values)].tolist()
    (body,) = serialize._float_list_bodies([values], [","])
    assert body.split(",") == [float.__repr__(x) for x in values]


def fix_column_signs_reference(mat, rel_tol=1e-12):
    mat = np.array(mat, dtype=float)
    for k in range(mat.shape[1]):
        col = mat[:, k]
        big = np.abs(col).max()
        if big == 0.0:
            continue
        idx = np.argmax(np.abs(col) > rel_tol * big)
        if col[idx] < 0:
            mat[:, k] = -col
    return mat


def test_fix_column_signs_matches_column_loop():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n, k = int(rng.integers(1, 8)), int(rng.integers(0, 6))
        m = rng.standard_normal((n, k))
        m[rng.random((n, k)) < 0.3] = 0.0
        m[rng.random((n, k)) < 0.1] *= 1e-14  # below the pivot threshold
        if k and rng.random() < 0.2:
            m[:, rng.integers(0, k)] = 0.0
        if k and rng.random() < 0.1:
            m[rng.integers(0, n), rng.integers(0, k)] = -0.0
        got = fix_column_signs(m)
        assert got.tobytes() == fix_column_signs_reference(m).tobytes()
    vec = np.array([-1e-20, 0.0, -3.0, 2.0])
    assert fix_column_signs(vec[:, None])[:, 0].tolist() == [1e-20, -0.0, 3.0, -2.0]


def test_pipeline_reads_input_once(tmp_path, ex_5x5, monkeypatch):
    path = tmp_path / "k5.json"
    path.write_text(dumps(matrix_series_to_json(ex_5x5)))
    calls = []
    original = cli._load_json
    monkeypatch.setattr(cli, "_load_json", lambda p: calls.append(p) or original(p))
    args = cli.build_parser().parse_args(["verify", "--input", str(path)])
    ase, source = cli._pipeline_ase_and_source(args)
    assert len(calls) == 1
    assert source.shape == (5, 5) and ase.n == 5


@pytest.mark.parametrize("obj", [
    "\x00", ["\x00"], {"\x00": 1.0}, {"\x00": [1.0, 2.0]}, {"a": "\x00", "b": [1.0, 2.5]},
    [[0.5, -1.0], "\x00", [3.0]], ['"\x00', [1.0]], ["\x00\x00", [2.0], {"k": [0.5]}],
    {"big": [0.1 * k + 0.05 for k in range(2 * MIN_DIGITS)], "mark": "\x00"},
    [1.0, 2.0], [math.nan, -0.0, 1e300, -math.inf], [0.1 * k + 0.05 for k in range(2 * MIN_DIGITS)],
    (1.0, 2.0), ((1.0, 2.0), (), (3.0,)), {"t": (0.5,), "u": [(1.0, -2.0), [3.0, 4]]},
])
def test_dumps_placeholder_text_float_list_documents_and_tuples(obj):
    assert dumps(obj) == json.dumps(obj, indent=2)


def test_dumps_too_deep_fails_as_json_does():
    deep = [1.0]
    for _ in range(2 * sys.getrecursionlimit()):
        deep = [deep]
    with pytest.raises(Exception) as expected:
        json.dumps(deep, indent=2)
    with pytest.raises(Exception) as got:
        dumps(deep)
    assert expected.type is RecursionError and got.type is expected.type


@pytest.mark.parametrize("size", [2, 2 * MIN_DIGITS])
def test_dumps_keeps_no_reference_to_the_document(size):
    """A reference cycle in the walk would hold the float lists until the
    cyclic collector runs; with it off, their reference counts must be back
    where they were once ``dumps`` returns."""
    vec = [0.5 + k for k in range(size)]
    doc = {"groups": [{"lambda": vec, "vectors": [vec, [2.0], [[vec]]]}]}
    gc.disable()
    try:
        before = sys.getrefcount(vec)
        dumps(doc)
        after = sys.getrefcount(vec)
    finally:
        gc.enable()
    assert after == before
