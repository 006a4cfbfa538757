"""One reduction loop behind every series mode of ``analyze_series``."""

import json

import numpy as np
import pytest

from asymspec import INFINITY, Exponent, MatrixSeries, analyze_series, iterative_ase
from asymspec import degenerate
from asymspec.cli import main
from asymspec.serialize import dumps
from reference import matrix_series_to_json


def _same_ase(a, b):
    assert a.truncated_at == b.truncated_at
    assert a.valuations == b.valuations
    for (_, ta), (_, tb) in zip(a.groups, b.groups):
        np.testing.assert_array_equal(ta, tb)


def _rotated(n):
    """Q diag(c_i eps^a_i) Q^T with Q dense orthogonal: no scaling helps."""
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    c = rng.uniform(1.0, 2.0, size=n)
    a = np.arange(n) % 4
    terms = {p: (q[:, a == p] * c[a == p]) @ q[:, a == p].T for p in range(4)}
    return MatrixSeries(n, terms, trunc_order=4, symmetric=True)


def _padded(k, extra=1):
    """K with ``extra`` identically zero rows and columns appended."""
    n = k.n + extra
    terms = {}
    for e, m in k.terms:
        big = np.zeros((n, n))
        big[: k.n, : k.n] = m
        terms[e] = big
    return MatrixSeries(n, terms, trunc_order=k.trunc_order, symmetric=True)


def test_auto_runs_no_extra_scaling_round(monkeypatch):
    k = _rotated(20)
    calls = []
    real = degenerate.auto_scale_with_permutation

    def counting(omega):
        calls.append(omega.shape)
        return real(omega)

    monkeypatch.setattr(degenerate, "auto_scale_with_permutation", counting)
    iterative_ase(k)
    rounds = len(calls)
    assert rounds > 1  # the rotated series needs the reduction past round one
    calls.clear()
    analyze_series(k, "auto")
    assert len(calls) == rounds


@pytest.mark.parametrize("name, complete", [("ex_3x3", False), ("ex_5x5", True)])
def test_scaled_is_the_first_round(request, name, complete):
    k = request.getfixturevalue(name)
    scaled = analyze_series(k, "scaled")
    assert scaled.complete == complete
    _same_ase(scaled, iterative_ase(k, max_depth=0))


def test_scaled_keeps_the_cleaned_stall_group(ex_3x3):
    ase = analyze_series(ex_3x3, "scaled")
    assert ase.truncated_at == Exponent(2)
    assert ase.valuations == [Exponent(0), Exponent(2)]
    ase.validate()


@pytest.mark.parametrize("mode", ["scaled", "auto"])
def test_zero_row_pads_the_groups(ex_5x5, mode):
    base = analyze_series(ex_5x5, mode)
    ase = analyze_series(_padded(ex_5x5), mode)
    assert base.complete
    assert ase.truncated_at == ex_5x5.trunc_order
    assert ase.valuations == base.valuations
    for (_, t), (_, t0) in zip(ase.groups, base.groups):
        np.testing.assert_array_equal(t[:5, :5], t0)
        assert not np.any(t[5]) and not np.any(t[:, 5])


def test_infinite_horizon_resolved_in_one_round(ex_5x5):
    k = MatrixSeries(5, dict(ex_5x5.terms), trunc_order=INFINITY, symmetric=True)
    ase = analyze_series(k, "auto")
    assert ase.complete
    _same_ase(ase, analyze_series(ex_5x5, "scaled"))


def test_infinite_horizon_needed_for_a_series_schur_step(ex_3x3):
    k = MatrixSeries(3, dict(ex_3x3.terms), trunc_order=INFINITY, symmetric=True)
    with pytest.raises(ValueError, match="finite truncation horizon"):
        analyze_series(k, "auto")
    assert analyze_series(k, "scaled").truncated_at == Exponent(2)


def test_iterative_is_not_a_mode(ex_5x5):
    # it was a second name for auto, which runs the same route
    with pytest.raises(ValueError, match="unknown mode 'iterative'"):
        analyze_series(ex_5x5, "iterative")


@pytest.mark.parametrize("mode", ["scaled", "auto"])
def test_unflagged_series_rejected(ex_5x5, mode):
    k = MatrixSeries(5, dict(ex_5x5.terms), trunc_order=5, symmetric=False)
    with pytest.raises(ValueError, match="symmetric"):
        analyze_series(k, mode)


@pytest.mark.parametrize("mode", ["scaled", "auto"])
def test_cli_zero_row_series_truncates(tmp_path, capsys, mode):
    # [[1, e], [e, 2 e^2]] (+) 0: lambda = 1 at e^0 and at e^2, then the horizon
    k = MatrixSeries(
        3,
        {0: [[1, 0, 0], [0, 0, 0], [0, 0, 0]],
         1: [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
         2: [[0, 0, 0], [0, 2, 0], [0, 0, 0]]},
        trunc_order=4,
        symmetric=True,
    )
    path = tmp_path / "k.json"
    path.write_text(dumps(matrix_series_to_json(k)))
    assert main(["analyze", "--input", str(path), "--mode", mode]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["truncated_at"] == {"num": 4, "den": 1}
    assert [g["valuation"]["num"] for g in out["groups"]] == [0, 2]
    ase = analyze_series(k, mode)
    for group in ase.readout:
        np.testing.assert_allclose(group.leading_values, [1.0], rtol=1e-12)


def _fractional_series():
    """n = 3 at half-integer exponents: the coupled series Schur step runs on it."""
    e3 = np.diag([0.0, 0.0, 1.0])
    terms = {Exponent(0): np.diag([1.0, 0.0, 0.0]),
             Exponent(1, 2): [[1, 1, 1], [1, 0, 0], [1, 0, 0]],
             Exponent(3, 2): [[0, 0, 0], [0, 2, 1], [0, 1, 1]],
             Exponent(5, 2): e3}
    return MatrixSeries(3, terms, trunc_order=Exponent(7, 2), symmetric=True)


@pytest.mark.parametrize("mode, code", [("auto", 0), ("scaled", 2)])
def test_cli_fractional_series_through_the_schur_step(tmp_path, capsys, monkeypatch, mode, code):
    # the series Schur step forms series products and runs the inverse's recurrence,
    # on exponent keys over the common denominator 2
    steps = []
    schur = degenerate._series_schur
    monkeypatch.setattr(degenerate, "_series_schur", lambda *a: steps.append(a) or schur(*a))
    path = tmp_path / "k.json"
    path.write_text(dumps(matrix_series_to_json(_fractional_series())))
    assert main(["analyze", "--input", str(path), "--mode", mode]) == code
    out = json.loads(capsys.readouterr().out)
    if code:
        assert not steps and out["truncated_at"] == {"num": 1, "den": 1}
        return
    assert len(steps) == 1 and out["truncated_at"] is None
    assert [g["valuation"] for g in out["groups"]] == [
        {"num": 0, "den": 1}, {"num": 1, "den": 1}, {"num": 3, "den": 2}]
    lam = [g["lambda"] for g in out["groups"]]
    assert lam == [pytest.approx([1.0]), pytest.approx([-2.0]), pytest.approx([0.5])]


def test_cli_fractional_series_verifies(tmp_path, capsys):
    path = tmp_path / "k.json"
    path.write_text(dumps(matrix_series_to_json(_fractional_series())))
    assert main(["verify", "--input", str(path), "--eps-grid", "1e-8:1e-5:37"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True
