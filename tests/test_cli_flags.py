"""Each subcommand takes exactly the flags it reads; usage errors exit 1."""

import argparse
import json
import os
import subprocess
import sys

import pytest

from asymspec import cli
from asymspec.cli import main

FLAGS = {
    "analyze": {"--input", "--mode", "--rank-tol", "--output"},
    "kernel": {"--kernel", "--psi", "--nodes", "--dim", "--seed", "--rank-tol", "--output"},
    "verify": {"--input", "--kernel", "--psi", "--nodes", "--dim", "--seed", "--mode",
               "--rank-tol", "--eps-grid", "--output", "--tol-coeff", "--tol-angle"},
    "sweep": {"--input", "--kernel", "--psi", "--nodes", "--dim", "--seed", "--mode",
              "--rank-tol", "--eps-grid", "--output", "--format", "--track-vector"},
}


def accepted_flags():
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
            for name, p in sub.choices.items()}


def test_each_command_takes_the_flags_it_reads():
    flags = accepted_flags()
    assert flags == FLAGS
    assert sum(len(f) for f in flags.values()) == 35


@pytest.fixture
def series_file(tmp_path):
    path = tmp_path / "k.json"
    path.write_text(json.dumps({
        "n": 2, "symmetric": True, "trunc_order": 4,
        "terms": [{"exponent": 0, "matrix": [[1.0, 0.0], [0.0, 0.0]]},
                  {"exponent": 1, "matrix": [[0.0, 1.0], [1.0, 0.0]]},
                  {"exponent": 2, "matrix": [[0.0, 0.0], [0.0, 2.0]]},
                  {"exponent": 3, "matrix": [[0.0, 0.0], [0.0, 1.0]]}]}))
    return str(path)


@pytest.mark.parametrize("argv, names", [
    (["kernel", "--kernel", "nosuch", "--nodes", "uniform:5"], "invalid choice: 'nosuch'"),
    # a value that starts with '-' reads as a flag unless written --eps-grid=-1e-4:...
    (["sweep", "--kernel", "gaussian", "--nodes", "uniform:5", "--eps-grid", "-1e-4:1e-1:8"],
     "--eps-grid: expected one argument"),
    (["sweep", "--kernel", "gaussian", "--nodes", "uniform:5", "--format", "json"],
     "invalid choice: 'json'"),
    (["analyze", "--input", "{input}", "--mode", "iterative"], "invalid choice: 'iterative'"),
    (["analyze", "--input", "{input}", "--seed", "0"], "unrecognized arguments: --seed 0"),
    (["kernel", "--kernel", "gaussian", "--nodes", "uniform:5", "--eps-grid", "1e-3:1e-1:8"],
     "unrecognized arguments: --eps-grid"),
    (["verify", "--input", "{input}", "--format", "csv"], "unrecognized arguments: --format"),
    (["kernel", "--kernel", "gaussian", "--nodes", "uniform:5", "--dim", "two"],
     "--dim: invalid int value"),
    ([], "required: command"),
])
def test_usage_errors_exit_1(capsys, series_file, argv, names):
    code = main([a.replace("{input}", series_file) for a in argv])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: asymspec") and names in err
    assert "Traceback" not in err and "usage:" not in err


def test_usage_error_exit_code_of_the_module(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"), os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-m", "asymspec.cli", "kernel", "--kernel", "nosuch",
                          "--nodes", "uniform:5"], capture_output=True, text=True, env=env,
                         cwd=tmp_path, timeout=60)
    assert run.returncode == 1
    assert run.stderr.startswith("error: asymspec kernel: argument --kernel")


@pytest.mark.parametrize("argv", [["--help"], ["kernel", "--help"], ["sweep", "-h"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: asymspec" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["verify", "sweep"])
@pytest.mark.parametrize("source, other", [
    (["--kernel", "gaussian", "--nodes", "uniform:5"], "--kernel"),
    (["--kernel", "gaussian"], "--kernel"),
    (["--nodes", "uniform:5"], "--nodes"),
])
def test_two_sources_are_rejected(capsys, series_file, command, source, other):
    code = main([command, "--input", series_file, *source, "--output", os.devnull])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: --input and {other} name two sources")


def test_source_dependent_flags_are_kept(capsys):
    # --mode applies to an --input source only, and sweep reads --rank-tol only
    # with --track-vector; both stay accepted with the other source
    kernel = ["--kernel", "gaussian", "--nodes", "uniform:6", "--output", os.devnull]
    assert main(["verify", *kernel, "--mode", "scaled"]) == 0
    assert main(["sweep", *kernel, "--rank-tol", "1e-9", "--eps-grid", "1e-2:1e-1:8"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["verify", "sweep"])
@pytest.mark.parametrize("flag, value", [("--psi", "[1,2]"), ("--dim", "3"), ("--seed", "5"),
                                         ("--seed", "0")])
def test_kernel_source_flags_are_rejected_with_input(capsys, series_file, command, flag, value):
    # each was once parsed beside --input and never read
    code = main([command, "--input", series_file, flag, value, "--output", os.devnull])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: --input and {flag} name two sources")


def test_generated_nodes_default_to_seed_0(tmp_path):
    outputs = []
    for seed in ([], ["--seed", "0"]):
        out = tmp_path / f"ase{len(seed)}.json"
        assert main(["kernel", "--kernel", "gaussian", "--nodes", "uniform:8", *seed,
                     "--output", str(out)]) in (0, 2)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
