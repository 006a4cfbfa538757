"""CLI flows: exit codes, JSON/CSV contracts and reproducibility."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from asymspec import cli
from asymspec.ase import Ase
from asymspec.cli import main
from asymspec.serialize import dumps, exponent_to_json, read_nodes_csv
from asymspec.kernels import generate_nodes
from reference import matrix_series_to_json


@pytest.fixture
def series_files(tmp_path, ex_2x2, ex_3x3, ex_5x5):
    paths = {}
    for name, series in (("k2", ex_2x2), ("k3", ex_3x3), ("k5", ex_5x5)):
        p = tmp_path / f"{name}.json"
        p.write_text(dumps(matrix_series_to_json(series)))
        paths[name] = str(p)
    gkf = {
        "V": [[1, 0, 0], [0, 1, -1], [0, 1, 1]],
        "W": [[1, 1, 0], [1, 0, 0], [0, 0, 1]],
        "valuations": [
            {"nu": 0, "mult": 1},
            {"nu": 1, "mult": 1},
            {"nu": {"num": 3, "den": 2}, "mult": 1},
        ],
    }
    p = tmp_path / "gkf3.json"
    p.write_text(json.dumps(gkf))
    paths["gkf3"] = str(p)
    return paths


class TestAnalyze:
    def test_5x5_complete(self, series_files, capsys):
        assert main(["analyze", "--input", series_files["k5"]]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["truncated_at"] is None
        assert len(out["groups"]) == 3
        assert [g["valuation"]["num"] for g in out["groups"]] == [0, 2, 4]

    def test_3x3_scaled_truncates(self, series_files, capsys):
        assert main(["analyze", "--input", series_files["k3"], "--mode", "scaled"]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["truncated_at"] == {"num": 2, "den": 1}

    def test_3x3_auto_completes(self, series_files, capsys):
        assert main(["analyze", "--input", series_files["k3"], "--mode", "auto"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert [g["valuation"]["num"] for g in out["groups"]] == [0, 2, 3]

    def test_3x3_gkf_mode(self, series_files, capsys):
        assert main(["analyze", "--input", series_files["gkf3"], "--mode", "gkf"]) == 0
        out = json.loads(capsys.readouterr().out)
        lam = [g["lambda"] for g in out["groups"]]
        assert lam == [pytest.approx([1.0]), pytest.approx([-2.0]), pytest.approx([2.0])]

    def test_malformed_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 2, "terms": [{"exponent": 0}]}')
        assert main(["analyze", "--input", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "terms[0]" in err

    def test_json_syntax_error_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 2,\n  "terms": oops}')
        assert main(["analyze", "--input", str(bad)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_round_trip_is_match_compatible(self, series_files, tmp_path, capsys, ex_5x5):
        out_path = tmp_path / "ase.json"
        assert main(["analyze", "--input", series_files["k5"], "--output", str(out_path)]) == 0
        from asymspec import analyze_series, eigen_sweep, match_ase

        # the file is the readout of the in-process ASE, repr-exact
        obj = json.loads(out_path.read_text())
        ase = analyze_series(ex_5x5)
        assert obj["truncated_at"] is None and ase.truncated_at is None
        assert len(obj["groups"]) == len(ase.readout)
        for g, group in zip(obj["groups"], ase.readout):
            assert g["valuation"] == exponent_to_json(group.valuation)
            assert g["lambda"] == group.leading_values
            assert np.array_equal(np.asarray(g["vectors"]).T, group.vectors)
        sweep = eigen_sweep(ex_5x5.evaluate, np.geomspace(1e-4, 1e-1, 37)[::-1])
        assert match_ase(ase, sweep, 1e-2, 1e-2).passed

    def test_byte_identical_reruns(self, series_files, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["analyze", "--input", series_files["k5"], "--output", str(a)])
        main(["analyze", "--input", series_files["k5"], "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestKernelCommand:
    def test_uniform_square_counts(self, capsys):
        assert main(["kernel", "--nodes", "uniform:10", "--kernel", "gaussian"]) == 0
        out = capsys.readouterr().out
        table = [ln for ln in out.splitlines() if "," in ln and not ln.startswith("{")]
        rows = [ln.split(",") for ln in table[1:5]]
        assert [(r[0], r[1]) for r in rows] == [("0", "1"), ("2", "2"), ("4", "3"), ("6", "4")]

    def test_circle_counts(self, capsys):
        assert main(["kernel", "--nodes", "circle:10", "--kernel", "gaussian"]) == 0
        out = capsys.readouterr().out
        counts = [ln.split(",")[1] for ln in out.splitlines()[1:4]]
        assert counts == ["1", "2", "2"]

    def test_exponential_counts(self, capsys):
        assert main(["kernel", "--nodes", "uniform:6", "--kernel", "exponential"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].split(",")[:2] == ["0", "1"]
        assert lines[2].split(",")[:2] == ["1", "5"]

    def test_duplicate_nodes_exit_1(self, tmp_path, capsys):
        p = tmp_path / "nodes.csv"
        p.write_text("# d=2\n0.0,0.0\n0.0,0.0\n")
        assert main(["kernel", "--nodes", str(p), "--kernel", "gaussian"]) == 1
        assert "duplicate" in capsys.readouterr().err


class TestVerifyCommand:
    def test_2x2_passes(self, series_files, capsys):
        assert main(["verify", "--input", series_files["k2"]]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["passed"] is True

    def test_degenerate_example_iterative(self, tmp_path, capsys, ex_degenerate):
        p = tmp_path / "kdeg.json"
        p.write_text(dumps(matrix_series_to_json(ex_degenerate)))
        assert main(["verify", "--input", str(p), "--mode", "auto"]) == 0

    def test_perturbed_fails(self, series_files, capsys, monkeypatch):
        route = cli.analyze_series

        def doubled(*args):  # a wrong prediction: the route's ASE with each S doubled
            ase = route(*args)
            return Ase(ase.n, [(alpha, q, 2.0 * s) for alpha, q, s in ase.factors],
                       ase.truncated_at)

        monkeypatch.setattr(cli, "analyze_series", doubled)
        code = main(["verify", "--input", series_files["k2"]])
        assert code == 2
        out = json.loads(capsys.readouterr().out)
        assert out["passed"] is False

    def test_kernel_pipeline_path(self, capsys):
        code = main(["verify", "--nodes", "uniform:6", "--kernel", "exponential",
                     "--seed", "1"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True

    def test_defaults_do_not_leak_between_calls(self, series_files, monkeypatch):
        # the parser is built once per process; each call starts from defaults
        tols = []
        original = cli.match_ase
        monkeypatch.setattr(
            cli, "match_ase", lambda ase, sweep, tc, ta: tols.append(tc) or original(ase, sweep, tc, ta)
        )
        assert main(["verify", "--input", series_files["k2"], "--tol-coeff", "0.5"]) == 0
        assert main(["verify", "--input", series_files["k2"]]) == 0
        assert tols == [0.5, 1e-2]
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("grid", ["1:4:5", "2:8:5"])
    def test_grid_from_eps_one_up_has_no_ceiling(self, capsys, grid):
        # from eps = 1 up no valuation is too large to show: the ceiling is
        # null, not -Infinity (not JSON) after a division by log(1) = 0, nor
        # the negative log(1e-12) / log(2) = -39.9
        def reject(name):
            raise ValueError(f"{name} is not JSON")

        code = main(["verify", "--kernel", "gaussian", "--nodes", "equispaced:5",
                     "--eps-grid", grid])
        assert code == 2  # far from the flat limit the predictions do not match
        report = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert report["precision_ceiling"] is None


class TestSweepCommand:
    def test_curve_csv_shape(self, tmp_path):
        out = tmp_path / "curves.csv"
        code = main(
            [
                "sweep",
                "--nodes",
                "equispaced:20",
                "--kernel",
                "gaussian",
                "--eps-grid",
                "1e-2:1e-1:24",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].split(",") == ["eps"] + [f"lambda_{k}" for k in range(1, 21)]
        assert len(lines) == 25

    def test_track_vector_block(self, tmp_path):
        out = tmp_path / "tracked.csv"
        main(
            [
                "sweep",
                "--nodes",
                "equispaced:20",
                "--kernel",
                "gaussian",
                "--eps-grid",
                "1e-2:1e-1:24",
                "--track-vector",
                "3",
                "--output",
                str(out),
            ]
        )
        lines = out.read_text().splitlines()
        blank = lines.index("")
        vec_rows = lines[blank + 2 :]
        assert vec_rows[-1].startswith("limit,")
        limit = np.array([float(x) for x in vec_rows[-1].split(",")[1:]])
        last = np.array([float(x) for x in vec_rows[-2].split(",")[1:]])
        # the eps = 1e-2 row sits close to the predicted limit
        assert np.abs(limit - last).max() < 1e-3

    def test_n2_toy_matches_closed_form(self, series_files, tmp_path, ex_2x2):
        out = tmp_path / "toy.csv"
        main(["sweep", "--input", series_files["k2"], "--output", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0] == "eps,lambda_1,lambda_2"
        for row in lines[1:4]:
            eps, l1, l2 = (float(x) for x in row.split(","))
            k = np.array([[1, eps], [eps, 2 * eps**2 + eps**3]])
            lam = np.linalg.eigvalsh(k)
            lam = lam[np.argsort(-np.abs(lam))]
            assert l1 == pytest.approx(lam[0], abs=1e-12)
            assert l2 == pytest.approx(lam[1], abs=1e-12)

    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "sweep",
            "--nodes",
            "uniform:6",
            "--kernel",
            "gaussian",
            "--eps-grid",
            "1e-3:1e-1:12",
        ]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(args + ["--output", str(a)])
        main(args + ["--output", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_track_vector_in_ambiguous_group(self, tmp_path, capsys):
        # two coinciding leading coefficients: the individual eigenvector is
        # not identified and the request must fail loudly
        series = {
            "n": 2,
            "symmetric": True,
            "trunc_order": 2,
            "terms": [{"exponent": 0, "matrix": [[1.0, 0.0], [0.0, 1.0]]}],
        }
        p = tmp_path / "tie.json"
        p.write_text(json.dumps(series))
        assert main(["sweep", "--input", str(p), "--track-vector", "1"]) == 1
        assert "not identified" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["0", "25"])
    def test_track_vector_checked_before_sweep(self, monkeypatch, capsys, k):
        def no_sweep(*_):
            raise AssertionError("the sweep ran before --track-vector was checked")

        monkeypatch.setattr(cli, "eigen_sweep", no_sweep)
        code = main(["sweep", "--kernel", "exponential", "--nodes", "equispaced:20",
                     "--dim", "1", "--track-vector", k])
        assert code == 1
        assert f"--track-vector index {k} out of range 1..20" in capsys.readouterr().err

    def test_track_vector_beyond_truncation(self, series_files, capsys):
        code = main(["sweep", "--input", series_files["k3"], "--mode", "scaled",
                     "--track-vector", "3"])
        assert code == 1
        assert "truncated" in capsys.readouterr().err


class TestNodeCsv:
    def test_round_trip(self, tmp_path):
        nodes = generate_nodes("uniform:7", d=3, seed=2)
        p = tmp_path / "nodes.csv"
        p.write_text("# d=3\n" + "".join(",".join("%.17g" % x for x in row) + "\n"
                                         for row in nodes.points))
        back = read_nodes_csv(p)
        assert back.d == 3
        np.testing.assert_array_equal(back.points, nodes.points)

    def test_header_mismatch(self, tmp_path):
        p = tmp_path / "nodes.csv"
        p.write_text("# d=3\n1.0,2.0\n")
        with pytest.raises(Exception, match="d=3"):
            read_nodes_csv(p)


class TestCustomKernel:
    def test_psi_flag_matches_named_kernel(self, capsys):
        # an even psi list reproduces the gaussian pipeline on the same nodes
        coeffs = "[1, 0, -1, 0, 0.5, 0, " + str(-1 / 6) + ", 0, " + str(1 / 24) + "]"
        code = main(
            ["kernel", "--nodes", "uniform:4", "--kernel", "custom", "--psi", coeffs]
        )
        assert code == 0
        custom_out = capsys.readouterr().out
        code = main(["kernel", "--nodes", "uniform:4", "--kernel", "gaussian"])
        assert code == 0
        named_out = capsys.readouterr().out
        assert custom_out.splitlines()[:4] == named_out.splitlines()[:4]

    def test_bad_psi_json(self, capsys):
        assert main(["kernel", "--nodes", "uniform:4", "--kernel", "custom",
                     "--psi", "[1,"]) == 1
        assert "psi" in capsys.readouterr().err


def test_commands_run_without_scipy(series_files, tmp_path):
    """numpy is the only runtime dependency: every command runs with scipy
    made unimportable, and importing the CLI loads none of it."""
    script = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from asymspec import cli\n"
        "assert not [m for m, mod in sys.modules.items() if mod and m.startswith('scipy')]\n"
        "print(json.dumps([cli.main(argv) for argv in json.loads(sys.argv[2])]))\n"
    )
    out = str(tmp_path / "out")
    runs = [
        ["kernel", "--kernel", "gaussian", "--nodes", "uniform:10", "--output", out],
        ["analyze", "--input", series_files["k5"], "--output", out],
        ["verify", "--input", series_files["k2"], "--output", out],
        ["verify", "--kernel", "exponential", "--nodes", "uniform:6", "--seed", "1",
         "--output", out],
        ["sweep", "--kernel", "gaussian", "--nodes", "equispaced:8",
         "--eps-grid", "1e-2:1e-1:6", "--track-vector", "3", "--output", out],
    ]
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script, src, json.dumps(runs)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0] * len(runs)


class TestEigenWork:
    """Eigenvectors only where they are read, one readout per verify op."""

    @staticmethod
    def _count_sweep_eighs(monkeypatch):
        """Record, per eigen_sweep call, its grid, the np.linalg.eigh calls it makes and
        the eigenvectors it keeps."""
        runs = []
        original = cli.eigen_sweep
        eigh = np.linalg.eigh

        def counted(source, grid, vectors=None):
            calls = []
            with monkeypatch.context() as m:
                m.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
                sweep = original(source, grid, vectors)
            runs.append((sweep.eps_grid, len(calls), sweep.eigenvectors))
            return sweep

        monkeypatch.setattr(cli, "eigen_sweep", counted)
        return runs

    def test_sweep_without_track_vector_is_values_only(self, monkeypatch, tmp_path):
        runs = self._count_sweep_eighs(monkeypatch)
        out = str(tmp_path / "c.csv")
        assert main(["sweep", "--nodes", "uniform:50", "--kernel", "matern2",
                     "--eps-grid", "1e-2:1e-1:24", "--output", out]) == 0
        assert [n for _, n, _ in runs] == [0]
        assert main(["sweep", "--nodes", "equispaced:20", "--kernel", "gaussian",
                     "--eps-grid", "1e-2:1e-1:24", "--track-vector", "3", "--output", out]) == 0
        assert [n for _, n, _ in runs] == [0, 24]

    @pytest.mark.parametrize("argv", [
        ["--nodes", "uniform:20", "--kernel", "matern2"],
        ["--nodes", "equispaced:10", "--kernel", "gaussian", "--dim", "1"],
        ["--input", "k5"],
    ])
    def test_verify_keeps_eigenvectors_only_at_eps_star(self, monkeypatch, capsys, series_files,
                                                        argv):
        argv = [series_files.get(a, a) for a in argv]
        runs = self._count_sweep_eighs(monkeypatch)
        assert main(["verify", *argv]) == 0
        report = json.loads(capsys.readouterr().out)
        (grid, n_eigh, kept), = runs
        # each verifiable group's curves, at that group's eps*
        want, start = {}, 0
        for g in report["groups"]:
            if g["verifiable"]:
                at = int(np.argmin(np.abs(grid - g["eps_star"])))
                want.setdefault(at, set()).update(range(start, start + g["count"]))
            start += g["count"]
        assert n_eigh == len(want) >= 1
        assert {i: set(curves) for i, (curves, _) in kept.items()} == want

    def test_one_readout_per_verify(self, monkeypatch, series_files, capsys):
        from asymspec import ase as ase_module
        from asymspec import kernels

        calls, reads = [], []
        original = ase_module.eigen_readout
        monkeypatch.setattr(ase_module, "eigen_readout", lambda a: calls.append(a) or original(a))
        read_group = kernels._read_group
        monkeypatch.setattr(kernels, "_read_group",
                            lambda *g: reads.append(g[0]) or read_group(*g))
        # kernel_ase reads each group once, as it keeps it, and never the whole ASE
        assert main(["verify", "--nodes", "uniform:20", "--kernel", "matern2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert calls == []
        assert [float(alpha) for alpha in reads] == [g["valuation"] for g in report["groups"]]
        assert len(set(reads)) == len(reads) >= 2
        assert main(["verify", "--input", series_files["k5"]]) == 0
        assert len(calls) == 1
        assert len(reads) == len(report["groups"])

    def test_eps_power_overflow_is_an_input_error(self, tmp_path, capsys):
        # eps^-100 leaves the double range below eps ~ 8.3e-4; the default
        # grid reaches 1e-4
        p = tmp_path / "steep.json"
        p.write_text(json.dumps({
            "n": 2, "symmetric": True, "trunc_order": 2,
            "terms": [{"exponent": -100, "matrix": [[1.0, 0.0], [0.0, 0.0]]},
                      {"exponent": 0, "matrix": [[0.0, 0.0], [0.0, 1.0]]}],
        }))
        assert main(["analyze", "--input", str(p)]) == 0
        capsys.readouterr()
        for command in ("verify", "sweep"):
            assert main([command, "--input", str(p)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: eps^-100 overflows a double at eps = "), err


class TestSweepSource:
    """``sweep`` runs the pipeline only to predict a tracked vector."""

    def test_kernel_sweep_matches_eigen_sweep(self, tmp_path, capsys):
        from asymspec import eigen_sweep, kernel_matrix, kernel_model
        from asymspec.serialize import sweep_csv_lines

        argv = ["sweep", "--kernel", "matern2", "--nodes", "cubic:100", "--seed", "3",
                "--eps-grid", "1e-2:1e-1:8", "--format", "csv"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        kernel, nodes = kernel_model("matern2"), generate_nodes("cubic:100", seed=3)
        sweep = eigen_sweep(lambda eps: kernel_matrix(kernel, nodes, eps),
                            cli._parse_eps_grid("1e-2:1e-1:8"), {})
        assert out == "\n".join(sweep_csv_lines(sweep)) + "\n"

    @pytest.mark.parametrize("argv", [
        ["--nodes", "uniform:20", "--kernel", "matern2"],
        ["--input", "k5"],
        ["--input", "gkf3", "--mode", "gkf"],
    ])
    def test_no_ase_without_track_vector(self, monkeypatch, series_files, argv):
        def no_pipeline(*_args, **_kwargs):
            raise AssertionError("sweep built an ASE it does not read")

        for name in ("kernel_ase", "analyze_series", "ase_from_gkf"):
            monkeypatch.setattr(cli, name, no_pipeline)
        argv = [series_files.get(a, a) for a in argv]
        assert main(["sweep", *argv, "--eps-grid", "1e-2:1e-1:8"]) == 0
        with pytest.raises(AssertionError, match="does not read"):
            main(["sweep", *argv, "--eps-grid", "1e-2:1e-1:8", "--track-vector", "1"])

    @pytest.mark.parametrize("source", [
        ["--kernel", "gaussian", "--nodes", "uniform:200"],
        ["--input", "k5"],
    ], ids=["kernel", "input"])
    @pytest.mark.parametrize("command", [["verify"], ["sweep", "--track-vector", "1"]],
                             ids=["verify", "sweep-track"])
    def test_eps_grid_parsed_before_the_pipeline(self, monkeypatch, capsys, series_files,
                                                 command, source):
        def no_pipeline(*_args, **_kwargs):
            raise AssertionError("the pipeline ran before --eps-grid was parsed")

        for name in ("kernel_ase", "analyze_series"):
            monkeypatch.setattr(cli, name, no_pipeline)
        argv = [*command, *(series_files.get(a, a) for a in source), "--eps-grid", "1e-3:1e-1:3"]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: --eps-grid needs positive endpoints and at least 4 points\n")


def test_cli_smoke_script(tmp_path):
    """tests/cli_smoke.sh, every command once with its exit code, on this source tree."""
    sh = shutil.which("sh")
    if sh is None:
        pytest.skip("tests/cli_smoke.sh needs sh")
    root = Path(__file__).resolve().parents[1]
    # the script calls `python -c` too: this interpreter, first on PATH
    shim = tmp_path / "bin"
    shim.mkdir()
    (shim / "python").write_text(f'#!/bin/sh\nexec "{sys.executable}" "$@"\n')
    (shim / "python").chmod(0o755)
    env = dict(os.environ, ASYMSPEC=f"{sys.executable} -m asymspec.cli", TMPDIR=str(tmp_path),
               PATH=os.pathsep.join([str(shim), os.environ.get("PATH", "")]),
               PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sh, str(root / "tests" / "cli_smoke.sh")], env=env,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr[-4000:]
