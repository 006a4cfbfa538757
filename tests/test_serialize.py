"""Serialization contracts not covered by the CLI flow tests."""

import json
import tracemalloc

import numpy as np
import pytest

from asymspec import INFINITY, Ase, DiagonalScaling, Exponent, analyze_series
from asymspec import cli
from asymspec.cli import main
from asymspec.serialize import (
    InputError,
    ase_to_json,
    exponent_from_json,
    exponent_to_json,
    matrix_arrays,
    matrix_series_from_json,
    scaling_from_json,
)
from reference import matrix_series_to_json
from test_covariance import planted_scaled


class TestExponentJson:
    def test_round_trip(self):
        for e in (Exponent(0), Exponent(3, 2), Exponent(-1, 4)):
            assert exponent_from_json(exponent_to_json(e), "x") == e

    def test_rejects_bad_shapes(self):
        with pytest.raises(InputError):
            exponent_from_json({"den": 2}, "x")
        with pytest.raises(InputError):
            exponent_from_json(1.5, "x")
        with pytest.raises(InputError):
            exponent_from_json({"num": 1, "den": 0}, "x")


class TestScalingJson:
    def test_default_multiplicity(self):
        sc = scaling_from_json([{"nu": 0}, {"nu": 2}])
        assert sc.block_sizes == (1, 1)


class TestAseJson:
    def test_truncated_round_trip(self, ex_3x3):
        ase = analyze_series(ex_3x3, "scaled")
        assert not ase.complete
        obj = ase_to_json(ase)
        assert exponent_from_json(obj["truncated_at"], "truncated_at") == ase.truncated_at
        assert len(obj["groups"]) == len(ase.groups) == len(ase.readout)
        for g, group, (alpha, term) in zip(obj["groups"], ase.readout, ase.groups):
            assert exponent_from_json(g["valuation"], "valuation") == group.valuation == alpha
            assert g["lambda"] == group.leading_values
            u = np.asarray(g["vectors"]).T
            assert np.array_equal(u, group.vectors)
            np.testing.assert_allclose((u * g["lambda"]) @ u.T, term, atol=1e-12)

    def test_text_round_trips_byte_for_byte(self, request):
        # every float is written so that it parses back to the text it came from
        from asymspec import generate_nodes, kernel_ase, kernel_model
        from asymspec.serialize import dumps

        ases = [kernel_ase(kernel_model(name), generate_nodes(spec, seed=0))
                for name, spec in (("gaussian", "uniform:50"), ("exponential", "uniform:200"),
                                   ("matern2", "equispaced:200"), ("matern2", "circle:100"))]
        for fixture in ("ex_5x5", "ex_degenerate"):
            k = request.getfixturevalue(fixture)
            ases += [analyze_series(k, mode) for mode in ("auto", "scaled")]
        for ase in ases:
            text = dumps(ase_to_json(ase))
            assert dumps(json.loads(text)) == text

    def test_vectors_sign_convention(self, ex_3x3):
        obj = ase_to_json(analyze_series(ex_3x3, "auto"))
        for group in obj["groups"]:
            for vec in group["vectors"]:
                first = next(x for x in vec if abs(x) > 1e-9)
                assert first > 0


class TestCsvRows:
    """One ``%``-format per row gives the text of one ``.17g`` format per field."""

    @staticmethod
    def _field_by_field(table):
        return [",".join(f"{x:.17g}" for x in row) for row in np.asarray(table, dtype=float)]

    def test_special_values(self):
        from asymspec.serialize import _csv_rows

        row = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-5, 1.0 / 3, 1e308]
        table = np.array([row, row[::-1]])
        assert _csv_rows(table) == self._field_by_field(table)
        assert _csv_rows(table)[0].split(",")[:6] == ["nan", "inf", "-inf", "-0", "0",
                                                       "4.9406564584124654e-324"]

    def test_random_rows(self):
        from asymspec.serialize import _csv_rows

        rng = np.random.default_rng(4)
        for shape in ((1, 1), (7, 3), (120, 201)):
            table = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
            assert _csv_rows(table) == self._field_by_field(table)


class TestZeroSeries:
    """An all-zero series has no default horizon; ASE JSON has no infinite one."""

    def write(self, tmp_path, **extra):
        path = tmp_path / "z.json"
        path.write_text(json.dumps({"n": 2, "symmetric": True, **extra, "terms": [
            {"exponent": 0, "matrix": [[0, 0], [0, 0]]}]}))
        return str(path)

    @pytest.mark.parametrize("mode", ["auto", "scaled"])
    def test_trunc_order_is_required(self, tmp_path, capsys, mode):
        # without it the series was reported complete ("truncated_at": null) but exited 2
        assert main(["analyze", "--input", self.write(tmp_path), "--mode", mode]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: field 'trunc_order': required when no term is nonzero")

    @pytest.mark.parametrize("mode", ["auto", "scaled"])
    def test_with_a_horizon_it_truncates(self, tmp_path, capsys, mode):
        path = self.write(tmp_path, trunc_order=4)
        assert main(["analyze", "--input", path, "--mode", mode]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["truncated_at"] == {"num": 4, "den": 1} and doc["groups"] == []

    def test_infinite_truncation_is_not_written(self):
        with pytest.raises(ValueError, match="truncated_at is infinite"):
            ase_to_json(Ase(2, [], INFINITY))


class TestSeriesReader:
    """``cli._load_json`` turns each term matrix into a float64 array as it is parsed."""

    def test_parse_holds_one_term_of_floats(self, tmp_path):
        # n = 120 in the benchmark's scaled shape: 11 terms, 1.45 MB of text and
        # 1.21 MB of float64 matrices.  Nested lists of every term (32 bytes a
        # float) peaked at 7.5 MB; arrays as the terms close peak at 3.1 MB.
        series = planted_scaled(np.random.default_rng(0), 120)
        path = tmp_path / "k.json"
        path.write_text(json.dumps(matrix_series_to_json(series)))
        matrix_bytes = sum(m.nbytes for _, m in series.terms)
        tracemalloc.start()
        try:
            back = matrix_series_from_json(cli._load_json(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(series.terms) == 11
        assert peak < path.stat().st_size + 2 * matrix_bytes
        assert [e for e, _ in back.terms] == [e for e, _ in series.terms]
        assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(back.terms, series.terms))

    def test_hook_converts_only_matrix_lists(self):
        term = matrix_arrays({"exponent": 0, "matrix": [[1, 2], [2, 1.5]]})
        assert term["matrix"].dtype == np.float64
        assert term["matrix"].tolist() == [[1.0, 2.0], [2.0, 1.5]]
        assert matrix_arrays({"num": 1, "den": 2}) == {"num": 1, "den": 2}
        assert matrix_arrays({"matrix": "1"}) == {"matrix": "1"}

    @pytest.mark.parametrize("matrix", [
        "[[1, 0], [0]]",  # ragged
        '[[1, 0], [0, "a"]]',  # non-numeric
        "[[1, 0], [0, 1" + "0" * 400 + "]]",  # an integer beyond the float range
    ], ids=["ragged", "non-numeric", "out-of-range"])
    def test_unconvertible_matrix_keeps_its_message(self, tmp_path, matrix):
        path = tmp_path / "k.json"
        path.write_text('{"n": 2, "terms": [{"exponent": 0, "matrix": %s}]}' % matrix)
        obj = cli._load_json(path)
        assert isinstance(obj["terms"][0]["matrix"], list)  # left for the reader to name
        with pytest.raises(InputError, match=r"^terms\[0\]\.matrix: matrix must be an array "
                                             r"of arrays of numbers$"):
            matrix_series_from_json(obj)
