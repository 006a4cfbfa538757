"""Classified errors for malformed flags and numerically unusable inputs."""

import json
import re
import warnings

import numpy as np
import pytest

from asymspec import eigen_sweep, generate_nodes
from asymspec.cli import main
from asymspec.serialize import InputError, ase_from_json


@pytest.mark.parametrize(
    "psi", ["3", "[[1]]", "true", "[1,null]", "[1e400]", "[]", "[1,true]", '"1"', "NaN"]
)
def test_bad_psi_values(capsys, psi):
    code = main(["kernel", "--nodes", "uniform:4", "--kernel", "custom", "--psi", psi])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: --psi")
    assert "Traceback" not in err


@pytest.fixture
def overflowing_gkf(tmp_path):
    # eps^-100 overflows the evaluated matrix on most of the grid
    gkf = {
        "V": [[1, 0, 0], [0, 1, -1], [0, 1, 1]],
        "W": [[1, 1, 0], [1, 0, 0], [0, 0, 1]],
        "valuations": [
            {"nu": -100, "mult": 1},
            {"nu": 1, "mult": 1},
            {"nu": {"num": 3, "den": 2}, "mult": 1},
        ],
    }
    path = tmp_path / "gkf.json"
    path.write_text(json.dumps(gkf))
    return str(path)


@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_overflow_is_named(capsys, overflowing_gkf, command):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning reaches the user
        code = main([command, "--input", overflowing_gkf, "--mode", "gkf",
                     "--output", "/dev/null"])
    err = capsys.readouterr().err
    assert code == 1
    assert "non-finite entries" in err and "eps =" in err
    assert "did not converge" not in err


def test_eigen_sweep_rejects_infinite_entries():
    grid = np.geomspace(1e-3, 1e-1, 6)[::-1]
    with pytest.raises(np.linalg.LinAlgError, match=r"eps = 0\.001 has non-finite"):
        eigen_sweep(lambda eps: np.diag([1.0, 1.0 if eps > 1e-3 else np.inf]), grid)


@pytest.mark.parametrize("spec, d", [("uniform:0", 2), ("circle:0", 2), ("uniform:5", 0)])
def test_node_generator_rejects_empty_specs(spec, d):
    with pytest.raises(ValueError, match=f"node spec '{spec}'"):
        generate_nodes(spec, d=d)


def test_node_generator_message_reaches_cli(capsys):
    assert main(["kernel", "--kernel", "gaussian", "--nodes", "uniform:0"]) == 1
    assert "node spec 'uniform:0'" in capsys.readouterr().err


@pytest.mark.parametrize("spec, dim, fixed", [
    ("circle:6", "3", 2), ("cubic:6", "1", 2), ("equispaced:6", "2", 1)])
def test_dim_of_a_fixed_family_is_checked(capsys, spec, dim, fixed):
    code = main(["kernel", "--kernel", "gaussian", "--nodes", spec, "--dim", dim,
                 "--output", "/dev/null"])
    err = capsys.readouterr().err
    assert code == 1
    assert f"'{spec.split(':')[0]}' makes points in dimension {fixed}, not {dim}" in err


@pytest.mark.parametrize("spec, dim, d", [
    ("circle:6", None, 2), ("circle:6", 2, 2), ("equispaced:6", None, 1),
    ("uniform:6", None, 2)])
def test_dim_defaults(spec, dim, d):
    assert generate_nodes(spec, d=dim).points.shape == (6, d)


def test_dim_of_a_node_file_is_checked(tmp_path, capsys):
    path = tmp_path / "nodes.csv"
    path.write_text("# d=2\n0,0\n1,0\n0,1\n")
    argv = ["kernel", "--kernel", "gaussian", "--nodes", str(path), "--output", "/dev/null"]
    assert main(argv + ["--dim", "3"]) == 1
    assert "--dim 3 does not match the 2 coordinates per node" in capsys.readouterr().err
    assert main(argv + ["--dim", "2"]) in (0, 2)


@pytest.mark.parametrize("flag", ["--rank-tol", "--tol-coeff", "--tol-angle"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "-1e-12"])
def test_tolerance_flags_reject_non_finite_and_negative(capsys, flag, value):
    # NaN once truncated every kernel ASE (exit 2) and failed every verify check
    command = "kernel" if flag == "--rank-tol" else "verify"
    code = main([command, "--kernel", "gaussian", "--nodes", "uniform:6", f"{flag}={value}",
                 "--output", "/dev/null"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {flag} must be a finite number >= 0")


@pytest.mark.parametrize("argv", [
    ["kernel", "--rank-tol", "nan"], ["verify", "--rank-tol", "-1"],
    ["sweep", "--rank-tol", "inf"], ["verify", "--tol-coeff", "nan"],
    ["verify", "--tol-angle", "-1"]])
def test_tolerance_checks_reach_every_command(capsys, argv):
    code = main(argv[:1] + ["--kernel", "gaussian", "--nodes", "uniform:6",
                            "--output", "/dev/null"] + argv[1:])
    assert code == 1
    assert f"error: {argv[1]} must be" in capsys.readouterr().err


def test_tolerance_flags_accept_finite_values(capsys):
    argv = ["verify", "--kernel", "gaussian", "--nodes", "uniform:6", "--rank-tol", "0",
            "--tol-coeff", "0.5", "--tol-angle", "1e300", "--output", "/dev/null"]
    assert main(argv) in (0, 2)
    assert "error" not in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_node_file_rejects_non_finite_coordinates(tmp_path, capsys, value):
    # a NaN node once reached the SVD, which printed a RuntimeWarning and
    # failed with "SVD did not converge"
    path = tmp_path / "nodes.csv"
    path.write_text(f"# d=2\n0,0\n\n1,{value}\n0,1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["kernel", "--kernel", "gaussian", "--nodes", str(path),
                     "--output", "/dev/null"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: line 4: non-finite coordinate")


@pytest.mark.parametrize("command", ["verify", "sweep"])
@pytest.mark.parametrize("grid", ["1e-4:inf:8", "1e-4:nan:8", "inf:1e-1:8", "nan:1e-1:8",
                                  "-inf:1e-1:8", "1e-4:Infinity:8"])
def test_eps_grid_rejects_non_finite_endpoints(capsys, command, grid):
    # inf once warned and failed at "matrix at eps = inf"; nan failed with
    # "eps grid must be positive and strictly decreasing"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--kernel", "gaussian", "--nodes", "uniform:5",
                     f"--eps-grid={grid}", "--output", "/dev/null"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: --eps-grid endpoints must be finite")


_TERM = {"exponent": 0, "matrix": [[1, 0], [0, 1]]}


def _series(**fields):
    return {"n": 2, "symmetric": True, "terms": [_TERM], **fields}


def _gkf(**fields):
    return {"V": [[1, 0], [0, 1]], "W": [[1, 0], [0, 1]], "valuations": [{"nu": 0, "mult": 2}],
            **fields}


# (analyze --mode, file text or JSON document, text the error must hold); mode
# None is a node file read by `kernel --nodes`
_READER_ERRORS = [
    ("auto", _series(trunc_order=True), "field 'trunc_order': expected an exponent, got a boolean"),
    ("auto", _series(trunc_order={"den": 2}), "field 'trunc_order': exponent object needs 'num'"),
    ("auto", _series(trunc_order={"num": 1, "den": 0}),
     "field 'trunc_order': exponent num/den must be integers with den >= 1"),
    ("auto", _series(trunc_order=1.5), "field 'trunc_order': expected an integer or"),
    ("auto", _series(terms=[{"exponent": "0", "matrix": [[1, 0], [0, 1]]}]),
     "terms[0].exponent: expected an integer or"),
    ("auto", _series(terms=[{"exponent": 0, "matrix": [["a", 0], [0, 1]]}]),
     "terms[0].matrix: matrix must be an array of arrays of numbers"),
    ("auto", _series(terms=[{"exponent": 0, "matrix": [[1, 0], [0]]}]),
     "terms[0].matrix: matrix must be an array of arrays of numbers"),
    ("auto", _series(terms=[{"exponent": 0, "matrix": [[1, 0, 0], [0, 1, 0]]}]),
     "terms[0].matrix: matrix shape (2, 3) != (2, 2)"),
    ("auto", '{"n": 2, "terms": [{"exponent": 0, "matrix": [[1, 0], [0, NaN]]}]}',
     "terms[0].matrix: matrix entries must be finite"),
    ("auto", '{"n": 2, "terms": [{"exponent": 0, "matrix": [[1, 0], [0, 1e400]]}]}',
     "terms[0].matrix: matrix entries must be finite"),
    ("auto", [_TERM], "top level: expected a JSON object"),
    ("auto", {"terms": [_TERM]}, "top level: missing field 'n'"),
    ("auto", _series(n=0), "field 'n': must be a positive integer"),
    ("auto", _series(n="2"), "field 'n': must be a positive integer"),
    ("auto", _series(symmetric="yes"), "field 'symmetric': must be a boolean"),
    ("auto", _series(symmetric=False), "field 'symmetric': analysis requires a symmetric series"),
    ("auto", _series(terms=None), "field 'terms': must be a list"),
    ("auto", _series(terms=[[1, 0]]), "terms[0]: expected an object"),
    ("auto", _series(terms=[{"exponent": 0}]), "terms[0]: needs 'exponent' and 'matrix'"),
    ("auto", _series(terms=[_TERM, {"exponent": 1, "matrix": [[0, 1], [2, 0]]}]),
     "terms[1].matrix: declared symmetric but is not"),
    ("gkf", [1], "top level: expected a JSON object"),
    ("gkf", {"V": [[1]], "W": [[1]]}, "top level: missing field 'valuations'"),
    ("gkf", _gkf(V=[["a"]]), "fields 'V'/'W': must be numeric arrays"),
    ("gkf", _gkf(W=[1, 0]), "fields 'V'/'W': must be two-dimensional"),
    ("gkf", _gkf(valuations={"nu": 0}), "field 'valuations': expected a list of"),
    ("gkf", _gkf(valuations=[{"mult": 2}]), "field 'valuations'[0]: needs 'nu'"),
    ("gkf", _gkf(valuations=[{"nu": 0, "mult": 0}]),
     "field 'valuations'[0].mult: must be a positive integer"),
    ("gkf", _gkf(valuations=[{"nu": False}]),
     "field 'valuations'[0].nu: expected an exponent, got a boolean"),
    (None, "# d=two\n0,0\n1,0\n", "line 1: bad dimension header"),
    (None, "0,0\n1,x\n", "line 2: non-numeric coordinate"),
    (None, "# d=2\n\n", "node file contains no nodes"),
    (None, "0,0\n1,0,0\n", "node rows have inconsistent lengths"),
    (None, "# d=3\n0,0\n1,0\n", "header says d=3 but rows have 2 coordinates"),
    (None, "0,0\n1,0\n0,0\n", "duplicate node (0.0, 0.0)"),
    # a boolean where an integer belongs: True is an int to Python, and an
    # otherwise valid input once read it as 1
    ("auto", {"n": True, "terms": [{"exponent": 0, "matrix": [[1.0]]}]},
     "field 'n': must be a positive integer"),
    ("auto", _series(trunc_order={"num": True, "den": True}),
     "field 'trunc_order': exponent num/den must be integers with den >= 1"),
    ("auto", _series(trunc_order={"num": 4, "den": True}),
     "field 'trunc_order': exponent num/den must be integers with den >= 1"),
    ("auto", _series(terms=[{"exponent": {"num": False}, "matrix": [[1, 0], [0, 1]]}]),
     "terms[0].exponent: exponent num/den must be integers with den >= 1"),
    ("gkf", _gkf(valuations=[{"nu": 0, "mult": True}, {"nu": 1, "mult": 1}]),
     "field 'valuations'[0].mult: must be a positive integer"),
    # non-finite GKF entries: once a truncated expansion (exit 2) or an SVD failure
    ("gkf", '{"V": [[1, 0], [0, 1]], "W": [[Infinity, 0], [0, 1]], '
            '"valuations": [{"nu": 0, "mult": 2}]}', "field 'W': matrix entries must be finite"),
    ("gkf", '{"V": [[NaN, 0], [0, 1]], "W": [[1, 0], [0, 1]], '
            '"valuations": [{"nu": 0, "mult": 2}]}', "field 'V': matrix entries must be finite"),
]


@pytest.mark.parametrize("mode, content, message", _READER_ERRORS)
def test_input_reader_errors_name_the_field(tmp_path, capsys, mode, content, message):
    path = tmp_path / ("input.json" if mode else "nodes.csv")
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    argv = (["analyze", "--input", str(path), "--mode", mode] if mode else
            ["kernel", "--kernel", "gaussian", "--nodes", str(path)])
    code = main([*argv, "--output", "/dev/null"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("doc, message", [
    ({"n": 2}, "ASE JSON needs 'n' and 'groups'"),
    ({"n": 2, "groups": [{"valuation": 0, "lambda": [1.0]}]},
     "groups[0]: needs 'lambda' and 'vectors'"),
    ({"n": 2, "groups": [{"valuation": 0, "lambda": [1.0], "vectors": [[1.0, 0.0, 0.0]]}]},
     "groups[0].vectors: shape mismatch"),
    ({"n": 2, "groups": [{"valuation": True, "lambda": [1.0], "vectors": [[1.0, 0.0]]}]},
     "groups[0].valuation: expected an exponent, got a boolean"),
    ({"n": 1, "groups": [], "truncated_at": "2"}, "truncated_at: expected an integer or"),
    ({"n": "x", "groups": []}, "field 'n': must be a positive integer"),
    ({"n": -3, "groups": []}, "field 'n': must be a positive integer"),
    ({"n": True, "groups": []}, "field 'n': must be a positive integer"),
    ({"n": 2, "groups": {}}, "field 'groups': must be a list"),
    ({"n": 2, "groups": [[0, [1.0]]]}, "groups[0]: expected an object with 'valuation'"),
    ({"n": 2, "groups": [{"lambda": [1.0], "vectors": [[1.0, 0.0]]}]},
     "groups[0]: expected an object with 'valuation'"),
    ({"n": 2, "groups": [{"valuation": 0, "lambda": ["a"], "vectors": [[1.0, 0.0]]}]},
     "groups[0]: lambda must be a list of numbers"),
    ({"n": 2, "groups": [{"valuation": 0, "lambda": [[1.0]], "vectors": [[1.0, 0.0]]}]},
     "groups[0]: lambda must be a list of numbers"),
    ({"n": 2, "groups": [{"valuation": 0, "lambda": [float("nan")], "vectors": [[1.0, 0.0]]}]},
     "groups[0]: lambda entries must be finite"),
    ({"n": 2, "groups": [{"valuation": 0, "lambda": [1.0], "vectors": [["a", 0.0]]}]},
     "groups[0]: vectors must be a list of lists of numbers"),
    ({"n": 2, "groups": [{"valuation": 0, "lambda": [1.0], "vectors": [[float("inf"), 0.0]]}]},
     "groups[0]: vectors entries must be finite"),
])
def test_ase_json_reader_errors_name_the_field(doc, message):
    # no command reads ASE JSON, so its reader is called directly
    with pytest.raises(InputError, match=re.escape(message)):
        ase_from_json(doc)
