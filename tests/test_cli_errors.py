"""Classified errors for malformed flags and numerically unusable inputs."""

import json
import warnings

import numpy as np
import pytest

from asymspec import eigen_sweep, generate_nodes
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
