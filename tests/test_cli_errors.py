"""Classified errors for malformed flags and numerically unusable inputs."""

import json
import warnings

import numpy as np
import pytest

from asymspec import cli, eigen_sweep, generate_nodes
from asymspec.cli import main


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


def test_negative_seed_is_named(capsys):
    # numpy's own message, "expected non-negative integer", named no flag
    code = main(["kernel", "--kernel", "gaussian", "--nodes", "uniform:5", "--seed", "-1",
                 "--output", "/dev/null"])
    assert code == 1
    assert capsys.readouterr().err == "error: --seed must be a nonnegative integer, got -1\n"


@pytest.mark.parametrize("command", ["kernel", "verify", "sweep"])
def test_seed_with_a_node_file_is_rejected(tmp_path, capsys, command):
    # the seed draws generated nodes only: beside a node file it once did nothing
    path = tmp_path / "nodes.csv"
    path.write_text("0,0\n1,0\n0,1\n")
    code = main([command, "--kernel", "gaussian", "--nodes", str(path), "--seed", "5",
                 "--output", "/dev/null"])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: --seed applies to generated nodes, not to the node file {path}\n")


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
    # "symmetric": true is checked exactly: a pair within numpy's allclose
    # rtol would be averaged silently
    ("auto", _series(terms=[{"exponent": 0, "matrix": [[1, 0.5], [0.500001, 1]]}]),
     "terms[0].matrix: declared symmetric but is not"),
    # W is checked exactly, as a series is: averaged, the first once gave the
    # ASE of [[2, 0.5], [0.5, 2]] (exit 0), the second "W is singular"
    ("gkf", _gkf(W=[[2, 1], [0, 2]], valuations=[{"nu": 0, "mult": 1}, {"nu": 1, "mult": 1}]),
     "field 'W': must be exactly symmetric"),
    ("gkf", _gkf(W=[[1, 2], [0, 1]], valuations=[{"nu": 0, "mult": 1}, {"nu": 1, "mult": 1}]),
     "field 'W': must be exactly symmetric"),
    # no term states n with a matrix: n = 10^9 once died in np.eye(n) with an
    # uncaught MemoryError (the request fails at once), n = 2 exited 2
    ("auto", {"n": 10**9, "trunc_order": 1, "terms": []},
     "field 'terms': needs at least one term, whose matrix fixes n"),
    ("auto", {"n": 2, "trunc_order": 1, "terms": []},
     "field 'terms': needs at least one term, whose matrix fixes n"),
    # an integer beyond the float range: once an OverflowError traceback
    ("auto", _series(terms=[{"exponent": 0, "matrix": [[1, 0], [0, 10**400]]}]),
     "terms[0].matrix: matrix must be an array of arrays of numbers"),
    ("gkf", _gkf(V=[[10**400, 0], [0, 1]]), "fields 'V'/'W': must be numeric arrays"),
    ("gkf", _gkf(W=[[1, 0], [0, -10**400]]), "fields 'V'/'W': must be numeric arrays"),
    # GKF shapes and valuations checked by the form itself
    ("gkf", _gkf(valuations=[{"nu": 1}, {"nu": 0}]),
     "scaling valuations must be strictly increasing"),
    ("gkf", _gkf(V=[[1, 0, 0], [0, 1, 0]]), "V column count does not match the scaling size"),
    ("gkf", _gkf(W=[[1, 0, 0], [0, 1, 0], [0, 0, 1]], valuations=[{"nu": 0}, {"nu": 1}]),
     "W shape does not match the scaling size"),
    # a missing field, a boolean exponent, a string where a number belongs and
    # a matrix of the wrong nesting, each named by its field
    ("gkf", {"W": [[1]], "valuations": [{"nu": 0}]}, "top level: missing field 'V'"),
    ("gkf", {"V": [[1]], "valuations": [{"nu": 0}]}, "top level: missing field 'W'"),
    ("gkf", _gkf(valuations=[0]), "field 'valuations'[0]: needs 'nu'"),
    ("auto", _series(n=-3), "field 'n': must be a positive integer"),
    ("auto", _series(terms={}), "field 'terms': must be a list"),
    ("auto", _series(terms=[{"matrix": [[1, 0], [0, 1]]}]),
     "terms[0]: needs 'exponent' and 'matrix'"),
    ("auto", _series(terms=[{"exponent": True, "matrix": [[1, 0], [0, 1]]}]),
     "terms[0].exponent: expected an exponent, got a boolean"),
    ("auto", _series(trunc_order="2"), "field 'trunc_order': expected an integer or"),
    ("auto", _series(terms=[{"exponent": 0, "matrix": [1, 0]}]),
     "terms[0].matrix: matrix shape (2,) != (2, 2)"),
    ("auto", _series(terms=[{"exponent": 0, "matrix": [[[1], [0]], [[0], [1]]]}]),
     "terms[0].matrix: matrix shape (2, 2, 1) != (2, 2)"),
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


@pytest.mark.parametrize("kernel, command, exit_code", [
    ("matern2", "sweep", 1), ("matern2", "verify", 1),
    ("gaussian", "sweep", 0), ("gaussian", "verify", 2),
    ("exponential", "sweep", 0), ("exponential", "verify", 2),
])
def test_far_nodes_overflow_no_warning(tmp_path, capsys, kernel, command, exit_code):
    # squared distances of about 1e400 overflow to inf: matern2's
    # (1 + r) exp(-r) is then NaN (exit 1), the others read exp(-inf) = 0
    path = tmp_path / "far.csv"
    path.write_text("# d=2\n0,0\n1e200,0\n0,1e200\n1e200,1e200\n5e199,3e199\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main([command, "--kernel", kernel, "--nodes", str(path),
                     "--eps-grid", "1e-3:1e-1:8", "--output", "/dev/null"])
    err = capsys.readouterr().err
    assert code == exit_code
    if exit_code == 1:
        assert err.startswith("error: matrix at eps = 0.1 has non-finite entries")


@pytest.mark.parametrize("argv, message", [
    # psi's product with V's R blocks overflows in build_H: once an empty ASE, exit 2
    (["kernel", "--kernel", "custom", "--psi", "[1e308, 1e308]", "--nodes", "uniform:4"],
     "error: H has non-finite entries (overflow"),
    # the Wronskian itself overflows: once "SVD did not converge"
    (["kernel", "--kernel", "custom", "--psi", "[1e308, 0, 1e308]", "--nodes", "uniform:4"],
     "error: H has non-finite entries (overflow"),
    # symmetrizing overflowed: once no groups, truncated at eps^2 (exit 2)
    (["analyze", "--input", "{series}"],
     "error: terms[0].matrix: an entry above 8.988e+307 in magnitude overflows"),
    # the Schur step's solve against 1e-300 overflows with no warning: once a
    # complete ASE with an empty group (analyze), "min() arg is an empty sequence"
    (["analyze", "--input", "{schur}"],
     "error: Schur complement has non-finite entries (overflow"),
    (["verify", "--input", "{schur}"],
     "error: Schur complement has non-finite entries (overflow"),
])
def test_finite_inputs_that_overflow_are_named(tmp_path, capsys, argv, message):
    series = tmp_path / "s.json"
    series.write_text(json.dumps({"n": 2, "terms": [
        {"exponent": 0, "matrix": [[1e308, 1e308], [1e308, 1e308]]},
        {"exponent": 1, "matrix": [[1e308, -1e308], [-1e308, 1e308]]}]}))
    schur = tmp_path / "schur.json"
    schur.write_text(json.dumps({"n": 2, "trunc_order": 4, "terms": [
        {"exponent": 0, "matrix": [[1e-300, 0], [0, 0]]},
        {"exponent": 1, "matrix": [[0, 1e300], [1e300, 0]]},
        {"exponent": 2, "matrix": [[0, 0], [0, 1]]}]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main([a.format(series=series, schur=schur) for a in argv]
                    + ["--output", "/dev/null"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(message)
    assert "Traceback" not in err


_GAUSSIAN = ["--kernel", "gaussian", "--nodes", "uniform:5"]


@pytest.mark.parametrize("argv, message", [
    pytest.param(["verify", *_GAUSSIAN, "--eps-grid", "1e-4:1e-1"],
                 "--eps-grid must look like start:stop:points", id="grid-two-fields"),
    pytest.param(["verify", *_GAUSSIAN, "--eps-grid", "1e-4:x:8"],
                 "--eps-grid fields must be numeric", id="grid-non-numeric"),
    pytest.param(["sweep", *_GAUSSIAN, "--eps-grid", "0:1e-1:8"],
                 "--eps-grid needs positive endpoints and at least 4 points",
                 id="grid-zero-endpoint"),
    pytest.param(["sweep", *_GAUSSIAN, "--eps-grid", "1e-4:1e-1:3"],
                 "--eps-grid needs positive endpoints and at least 4 points",
                 id="grid-three-points"),
    # once rejected only by the sweep: "eps grid must be positive and strictly decreasing"
    pytest.param(["verify", *_GAUSSIAN, "--eps-grid", "1:1:5"],
                 "--eps-grid endpoints must differ", id="grid-equal-endpoints"),
    pytest.param(["kernel", "--kernel", "custom", "--nodes", "uniform:4",
                  "--psi", "[1" + "0" * 400 + "]"],
                 "--psi must be a non-empty JSON list of finite numbers, got '[1000",
                 id="psi-integer-beyond-float"),
    pytest.param(["kernel", "--kernel", "gaussian"], "this command needs --nodes",
                 id="no-nodes"),
    pytest.param(["kernel", "--nodes", "uniform:4"], "this command needs --kernel",
                 id="no-kernel"),
    pytest.param(["kernel", "--kernel", "gaussian", "--nodes", "{missing}"],
                 "node file {missing} does not exist", id="missing-node-file"),
    # a spec without its count reads as a file name: once only "does not exist"
    pytest.param(["kernel", "--kernel", "gaussian", "--nodes", "uniform"],
                 "node file uniform does not exist (generated nodes are written "
                 "family:count, e.g. uniform:10)", id="spec-without-count"),
    pytest.param(["kernel", "--kernel", "custom", "--nodes", "uniform:4"],
                 "custom kernels require psi coefficients", id="custom-without-psi"),
    # once "this command needs --kernel", though --input would do as well
    pytest.param(["verify", "--eps-grid", "1e-2:1e-1:8"],
                 "this command needs --input, or --kernel with --nodes", id="verify-no-source"),
    pytest.param(["sweep"], "this command needs --input, or --kernel with --nodes",
                 id="sweep-no-source"),
    pytest.param(["analyze"], "this command needs --input", id="analyze-no-input"),
    pytest.param(["kernel", "--kernel", "gaussian", "--psi", "[1]", "--nodes", "uniform:4"],
                 "psi coefficients are only accepted for custom kernels",
                 id="psi-for-a-named-kernel"),
    pytest.param(["kernel", "--kernel", "gaussian", "--nodes", "blob:5"],
                 "unknown node generator 'blob'", id="unknown-node-generator"),
])
def test_flag_checks_exit_1(tmp_path, capsys, argv, message):
    missing = tmp_path / "missing.csv"
    code = main([a.format(missing=missing) for a in argv] + ["--output", "/dev/null"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {message.format(missing=missing)}")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_node_path_that_is_a_directory(tmp_path, capsys):
    # once an IsADirectoryError traceback from the CSV reader
    code = main(["kernel", "--kernel", "gaussian", "--nodes", str(tmp_path),
                 "--output", "/dev/null"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: cannot read {tmp_path}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["analyze", "--input"], ["kernel", "--kernel", "gaussian", "--nodes"]], ids=["input", "nodes"])
def test_input_that_is_not_utf8(tmp_path, capsys, argv):
    # once "error: 'utf-8' codec can't decode byte 0xff ...", naming no path
    path = tmp_path / "input.bin"
    path.write_bytes(b"\xff\xfe")
    code = main([*argv, str(path), "--output", "/dev/null"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["analyze", "--input", "{series}"],
    ["kernel", "--kernel", "gaussian", "--nodes", "uniform:5"],
    ["verify", "--input", "{series}", "--eps-grid", "1e-2:1e-1:8"],
    ["sweep", "--input", "{series}", "--eps-grid", "1e-2:1e-1:8"],
], ids=["analyze", "kernel", "verify", "sweep"])
def test_output_into_a_missing_directory(tmp_path, capsys, argv):
    # once a FileNotFoundError traceback from writing the result
    series = tmp_path / "k.json"
    series.write_text(json.dumps(_series(trunc_order=2)))
    output = tmp_path / "missing" / "out"
    code = main([a.format(series=series) for a in argv] + ["--output", str(output)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: cannot write {output}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["verify", "sweep"])
@pytest.mark.parametrize("output", ["{tmp}/missing/x.json", "{tmp}"], ids=["missing-dir", "a-dir"])
def test_unwritable_output_exits_before_the_sweep(tmp_path, capsys, monkeypatch, command, output):
    # once the whole eigen sweep ran before the write failed
    monkeypatch.setattr(cli, "eigen_sweep", lambda *a: pytest.fail("the sweep ran"))
    output = output.format(tmp=tmp_path)
    code = main([command, "--kernel", "matern2", "--nodes", "uniform:200", "--output", output])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: cannot write {output}: ")
    assert err.count("\n") == 1


def test_verify_where_eps_power_overflows(capsys):
    # eps*^alpha past the double range: once an OverflowError traceback from match_ase
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["verify", "--kernel", "gaussian", "--nodes", "uniform:4",
                     "--eps-grid", "1e100:1e101:4"])
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    groups = json.loads(captured.out)["groups"]
    assert groups and all(g["verifiable"] and g["coeff_ok"] is False for g in groups)
