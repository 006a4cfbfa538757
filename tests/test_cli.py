"""CLI flows: exit codes, JSON/CSV contracts and reproducibility."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from asymspec import cli
from asymspec.cli import main
from asymspec.serialize import (
    ase_from_json,
    dumps,
    matrix_series_to_json,
    read_nodes_csv,
    write_nodes_csv,
)
from asymspec.kernels import generate_nodes


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
        from asymspec import eigen_sweep, match_ase

        ase = ase_from_json(json.loads(out_path.read_text()))
        sweep = eigen_sweep(ex_5x5, np.geomspace(1e-4, 1e-1, 37)[::-1])
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
        assert main(["verify", "--input", str(p), "--mode", "iterative"]) == 0

    def test_perturbed_fails(self, series_files, capsys):
        code = main(["verify", "--input", series_files["k2"], "--perturb-lambda", "2.0"])
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
        write_nodes_csv(p, nodes)
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
        """Record, per eigen_sweep call, its grid and the np.linalg.eigh calls it makes."""
        runs = []
        original = cli.eigen_sweep
        eigh = np.linalg.eigh

        def counted(source, grid, **kwargs):
            calls = []
            with monkeypatch.context() as m:
                m.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
                sweep = original(source, grid, **kwargs)
            runs.append((sweep.eps_grid, len(calls)))
            return sweep

        monkeypatch.setattr(cli, "eigen_sweep", counted)
        return runs

    def test_sweep_without_track_vector_is_values_only(self, monkeypatch, tmp_path):
        runs = self._count_sweep_eighs(monkeypatch)
        out = str(tmp_path / "c.csv")
        assert main(["sweep", "--nodes", "uniform:50", "--kernel", "matern2",
                     "--eps-grid", "1e-2:1e-1:24", "--output", out]) == 0
        assert [n for _, n in runs] == [0]
        assert main(["sweep", "--nodes", "equispaced:20", "--kernel", "gaussian",
                     "--eps-grid", "1e-2:1e-1:24", "--track-vector", "3", "--output", out]) == 0
        assert [n for _, n in runs] == [0, 24]

    @pytest.mark.parametrize("argv", [
        ["--nodes", "uniform:20", "--kernel", "matern2"],
        ["--nodes", "equispaced:10", "--kernel", "gaussian", "--dim", "1"],
        ["--input", "k5"],
    ])
    def test_verify_takes_vectors_at_eps_star_only(self, monkeypatch, capsys, series_files, argv):
        argv = [series_files.get(a, a) for a in argv]
        runs = self._count_sweep_eighs(monkeypatch)
        assert main(["verify", *argv]) == 0
        report = json.loads(capsys.readouterr().out)
        (grid, n_eigh), = runs
        stars = {int(np.argmin(np.abs(grid - g["eps_star"])))
                 for g in report["groups"] if g["verifiable"]}
        assert n_eigh == len(stars) >= 1

    def test_one_readout_per_verify(self, monkeypatch, series_files):
        from asymspec import ase as ase_module

        calls = []
        original = ase_module.eigen_readout
        monkeypatch.setattr(ase_module, "eigen_readout", lambda a: calls.append(a) or original(a))
        kernel = ["verify", "--nodes", "uniform:20", "--kernel", "matern2"]
        assert main(kernel) == 0
        assert len(calls) == 1
        assert main(["verify", "--input", series_files["k5"]]) == 0
        assert len(calls) == 2
        # --perturb-lambda reads out the perturbed ASE, since eps* depends on it
        assert main(["verify", "--input", series_files["k5"], "--perturb-lambda", "2"]) == 2
        assert len(calls) == 3
        assert main([*kernel, "--perturb-lambda", "2"]) == 2
        assert len(calls) == 5
        assert calls[3] is not calls[4]

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
        from asymspec import eigen_sweep, kernel_model
        from asymspec.serialize import sweep_csv_lines

        argv = ["sweep", "--kernel", "matern2", "--nodes", "cubic:100", "--seed", "3",
                "--eps-grid", "1e-2:1e-1:8", "--format", "csv"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        source = (kernel_model("matern2"), generate_nodes("cubic:100", seed=3))
        sweep = eigen_sweep(source, cli._parse_eps_grid("1e-2:1e-1:8"), vectors_at=())
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
