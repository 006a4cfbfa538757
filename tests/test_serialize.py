"""Serialization contracts not covered by the CLI flow tests."""

import numpy as np
import pytest

from asymspec import Ase, DiagonalScaling, Exponent, analyze_series
from asymspec.serialize import (
    InputError,
    ase_from_json,
    ase_to_json,
    exponent_from_json,
    exponent_to_json,
    scaling_from_json,
    scaling_to_json,
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
    def test_round_trip(self):
        sc = DiagonalScaling(((Exponent(0), 1), (Exponent(1, 2), 2), (Exponent(3), 1)))
        obj = scaling_to_json(sc)
        assert obj == {
            "valuations": [
                {"nu": {"num": 0, "den": 1}, "mult": 1},
                {"nu": {"num": 1, "den": 2}, "mult": 2},
                {"nu": {"num": 3, "den": 1}, "mult": 1},
            ]
        }
        assert scaling_from_json(obj) == sc

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
