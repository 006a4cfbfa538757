"""The stops of ``iterative_ase`` that end a run without an exception."""

import json

import pytest

from asymspec import INFINITY, Exponent, MatrixSeries, iterative_ase
from asymspec.cli import main
from reference import matrix_series_to_json


def zero_series():
    return MatrixSeries(2, [], trunc_order=3, symmetric=True)


def exhausted_horizon():
    # the first round (nu = 0, 1, 1) stalls on the zero trailing block, and
    # unscaling that block by eps^-1 leaves the series Schur step horizon 0
    return MatrixSeries(
        3,
        {0: [[1, 0, 0], [0, 0, 0], [0, 0, 0]], 1: [[0, 1, 1], [1, 0, 0], [1, 0, 0]]},
        trunc_order=2,
        symmetric=True,
    )


def rank_one(trunc_order):
    # v v^T with v = (1, eps): the Schur complement of the top entry is zero
    return MatrixSeries(
        2,
        {0: [[1, 0], [0, 0]], 1: [[0, 1], [1, 0]], 2: [[0, 0], [0, 1]]},
        trunc_order=trunc_order,
        symmetric=True,
    )


@pytest.mark.parametrize("series, groups, truncated_at", [
    (zero_series(), [], 3),
    (exhausted_horizon(), [(0, 1)], 2),
    (rank_one(4), [(0, 1)], 4),
], ids=["zero-series", "horizon-exhausted", "trailing-prunes-to-zero"])
def test_stop_truncates(series, groups, truncated_at):
    ase = iterative_ase(series)
    assert [(alpha, s.shape[0]) for alpha, _, s in ase.factors] == groups
    assert ase.truncated_at == Exponent(truncated_at)
    ase.validate()


def test_infinite_horizon_is_rejected():
    with pytest.raises(ValueError, match="needs a finite truncation horizon"):
        iterative_ase(rank_one(INFINITY))


@pytest.mark.parametrize("series", [zero_series(), exhausted_horizon(), rank_one(4)],
                         ids=["zero-series", "horizon-exhausted", "trailing-prunes-to-zero"])
def test_stop_exits_2_through_the_cli(tmp_path, series):
    path = tmp_path / "k.json"
    path.write_text(json.dumps(matrix_series_to_json(series)))
    out = tmp_path / "ase.json"
    assert main(["analyze", "--input", str(path), "--output", str(out)]) == 2
    assert json.loads(out.read_text())["truncated_at"] is not None
