"""Serialization contracts not covered by the CLI flow tests."""

import json

import numpy as np
import pytest

from asymspec import INFINITY, Ase, DiagonalScaling, Exponent, analyze_series
from asymspec.cli import main
from asymspec.serialize import (
    InputError,
    ase_from_json,
    ase_to_json,
    exponent_from_json,
    exponent_to_json,
    scaling_from_json,
)


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
        back = ase_from_json(ase_to_json(ase))
        assert back.truncated_at == ase.truncated_at
        assert len(back.groups) == len(ase.groups)
        for (v1, t1), (v2, t2) in zip(back.groups, ase.groups):
            assert v1 == v2
            np.testing.assert_allclose(t1, t2, atol=1e-12)

    @staticmethod
    def _documents(request):
        from asymspec import generate_nodes, kernel_ase, kernel_model
        from asymspec.serialize import dumps

        ases = [kernel_ase(kernel_model(name), generate_nodes(spec, seed=0))
                for name, spec in (("gaussian", "uniform:50"), ("exponential", "uniform:200"),
                                   ("matern2", "equispaced:200"), ("matern2", "circle:100"))]
        for fixture in ("ex_5x5", "ex_degenerate"):
            k = request.getfixturevalue(fixture)
            ases += [analyze_series(k, mode) for mode in ("auto", "scaled")]
        return [dumps(ase_to_json(ase)) for ase in ases]

    def test_text_round_trips_byte_for_byte(self, request):
        # each group is read back as its eigenpairs, so the readout returns them as stored
        from asymspec.serialize import dumps

        for text in self._documents(request):
            assert dumps(ase_to_json(ase_from_json(json.loads(text)))) == text

    def test_groups_are_the_eigenpair_lift_bit_for_bit(self, request):
        for text in self._documents(request):
            obj = json.loads(text)
            back = ase_from_json(obj)
            for g, (alpha, term) in zip(obj["groups"], back.groups):
                u = np.asarray(g["vectors"], dtype=float).T
                want = (u * np.asarray(g["lambda"])) @ u.T
                want = 0.5 * (want + want.T)
                assert alpha == exponent_from_json(g["valuation"], "valuation")
                assert term.tobytes() == want.tobytes()

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

    @pytest.mark.parametrize("mode", ["auto", "scaled", "iterative"])
    def test_trunc_order_is_required(self, tmp_path, capsys, mode):
        # without it the series was reported complete ("truncated_at": null) but exited 2
        assert main(["analyze", "--input", self.write(tmp_path), "--mode", mode]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: field 'trunc_order': required when no term is nonzero")

    @pytest.mark.parametrize("mode", ["auto", "scaled", "iterative"])
    def test_with_a_horizon_it_truncates(self, tmp_path, capsys, mode):
        path = self.write(tmp_path, trunc_order=4)
        assert main(["analyze", "--input", path, "--mode", mode]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["truncated_at"] == {"num": 4, "den": 1} and doc["groups"] == []

    def test_infinite_truncation_is_not_written(self):
        with pytest.raises(ValueError, match="truncated_at is infinite"):
            ase_to_json(Ase(2, [], INFINITY))
