"""Self-tests of the benchmark: its checker, its latency limit and its inputs.

    python3 -m pytest -q benchmark/test_benchmark.py
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from ops import COMPLETE, FAILED, run_op  # noqa: E402


def _cli_main():
    from asymspec import cli

    return cli.main


@pytest.fixture(scope="module")
def planted_output(tmp_path_factory):
    """A real `analyze` run on a planted scaled series, and its checker."""
    load = workloads.build("series-analyze", 3, str(tmp_path_factory.mktemp("series")))
    op = next(op for op in load.ops if op.id == "analyze/scaled/10")
    outcome = run_op(_cli_main(), op, 10.0)
    assert outcome.status == COMPLETE, outcome.reason
    with open(op.output, encoding="utf-8") as fh:
        return op, json.load(fh)


def _rewrite(op, obj, tmp_path):
    path = tmp_path / "corrupted.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def test_checker_accepts_the_program_output(planted_output, tmp_path):
    op, obj = planted_output
    assert op.expect.check(0, _rewrite(op, obj, tmp_path)) is True


def test_checker_rejects_a_term_scaled_by_1_01(planted_output, tmp_path):
    op, obj = planted_output
    obj = json.loads(json.dumps(obj))
    obj["groups"][1]["lambda"] = [1.01 * x for x in obj["groups"][1]["lambda"]]
    with pytest.raises(checks.Mismatch):
        op.expect.check(0, _rewrite(op, obj, tmp_path))


def test_checker_rejects_a_valuation_shifted_by_half(planted_output, tmp_path):
    op, obj = planted_output
    obj = json.loads(json.dumps(obj))
    v = obj["groups"][2]["valuation"]
    obj["groups"][2]["valuation"] = {"num": 2 * v["num"] + v["den"], "den": 2 * v["den"]}
    with pytest.raises(checks.Mismatch):
        op.expect.check(0, _rewrite(op, obj, tmp_path))


def test_kernel_checker_rejects_a_shifted_valuation(tmp_path):
    load = workloads.build("kernel-flat", 0, str(tmp_path))
    op = next(op for op in load.ops if op.id == "kernel/exponential/uniform-d2/20")
    assert run_op(_cli_main(), op, 10.0).status == COMPLETE
    with open(op.output, encoding="utf-8") as fh:
        obj = json.load(fh)
    obj["groups"][1]["valuation"] = {"num": 3, "den": 2}
    with pytest.raises(checks.Mismatch):
        op.expect.check(0, _rewrite(op, obj, tmp_path))


def test_truncated_result_must_be_a_prefix():
    from fractions import Fraction as F

    want = [(F(0), 1), (F(2), 3), (F(4), 6)]
    checks._match_groups([(F(0), 1), (F(2), 2)], want, F(2))  # partial edge group
    with pytest.raises(checks.Mismatch):
        checks._match_groups([(F(0), 1), (F(2), 2)], want, F(4))
    with pytest.raises(checks.Mismatch):
        checks._match_groups([(F(0), 1), (F(4), 3)], want, F(4))


def test_an_op_over_the_limit_fails_and_the_run_goes_on(tmp_path):
    def spin(argv):
        end = time.perf_counter() + 5.0
        while time.perf_counter() < end:
            pass
        return 0

    load = workloads.build("kernel-flat", 0, str(tmp_path))
    start = time.perf_counter()
    slow = run_op(spin, load.ops[0], 0.05)
    assert time.perf_counter() - start < 2.0
    assert slow.status == FAILED and slow.reason.startswith("over the limit")
    assert slow.seconds == 0.05
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert run_op(_cli_main(), load.ops[0], 10.0).status != FAILED


def _inputs(seed, directory):
    load = workloads.build("oracle-check", seed, str(directory))
    files = {}
    for name in sorted(os.listdir(directory)):
        path = directory / name
        if path.is_file():
            files[name] = path.read_bytes()
    argv = [[a.replace(str(directory), "<dir>") for a in op.argv] for op in load.ops]
    return files, argv


def test_same_seed_gives_identical_inputs_and_another_seed_does_not(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    (tmp_path / "c").mkdir()
    first = _inputs(7, tmp_path / "a")
    again = _inputs(7, tmp_path / "b")
    other = _inputs(8, tmp_path / "c")
    assert first[0] and first == again
    assert first[0] != other[0] and first[1] != other[1]
