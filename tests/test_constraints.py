import numpy as np
import pytest

import baresim as bs


class TestSimplexFace:
    def test_membership(self):
        pts = np.array([[0.2, 0.8], [0.5, 0.5], [0.7, 0.3]])
        assert bs.simplex_face(0, 0.5, ">=").contains(pts).tolist() == [False, True, True]
        assert bs.simplex_face(1, 0.5, "<=").contains(pts).tolist() == [False, True, True]

    def test_bad_op_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown comparison"):
            bs.simplex_face(0, 0.5, "=>")

    @pytest.mark.parametrize("index", [-1, -3, 0.5, 1.0, True, "0"])
    def test_index_must_be_a_nonnegative_integer(self, index):
        with pytest.raises(ValueError, match="index must be an integer >= 0"):
            bs.simplex_face(index, 0.5)

    def test_numpy_integer_index(self):
        pts = np.array([[0.2, 0.8], [0.7, 0.3]])
        assert bs.simplex_face(np.int64(1), 0.5).contains(pts).tolist() == [True, False]


class TestAffineEquality:
    @pytest.mark.parametrize("tol", [0.0, -1.0])
    def test_tolerance_must_be_positive(self, tol):
        with pytest.raises(ValueError, match="tol must be > 0"):
            bs.affine_equality([1.0, 1.0], 1.0, tol=tol)


class TestConstraintFromDict:
    def test_errors_name_the_json_path(self):
        spec = {"type": "any", "parts": [{"type": "coordinate", "index": 0, "bound": 0.5},
                                         {"type": "box", "lower": [0, "x"], "upper": [1, 1]}]}
        with pytest.raises(ValueError, match="side/parts/1/lower/1: must be a number"):
            bs.constraint_from_dict(spec, "side")

    def test_integral_float_index(self):
        omega = bs.constraint_from_dict({"type": "coordinate", "index": 1.0, "bound": 0.5})
        assert omega.description == "x[1] >= 0.5"

    @pytest.mark.parametrize("spec, path", [
        ({"type": "halfspace", "coeffs": [1, 0, 0], "rhs": 0.5, "opp": "<="}, "constraint/opp"),
        ({"type": "coordinate", "index": 0, "bound": 0.5, "coeffs": [1, 0]},
         "constraint/coeffs"),
        ({"type": "box", "lower": [0], "upper": [1], "op": ">="}, "constraint/op"),
        ({"type": "affine_eq", "coeffs": [1, 1], "rhs": 1, "index": 0}, "constraint/index"),
        ({"type": "all", "parts": [{"type": "coordinate", "index": 0, "bound": 0.5}],
          "rhs": 1}, "constraint/rhs"),
        ({"type": "any", "parts": [{"type": "coordinate", "index": 0, "bound": 0.5,
                                    "tol": 1e-9}]}, "constraint/parts/0/tol"),
    ])
    def test_a_key_the_type_does_not_read_is_refused(self, spec, path):
        # a misspelt optional key would otherwise silently take its default
        with pytest.raises(ValueError, match=f"^{path}: "):
            bs.constraint_from_dict(spec)

    @pytest.mark.parametrize("spec", [
        {"type": "halfspace", "coeffs": [1, 0], "rhs": 0.5, "op": "<="},
        {"type": "box", "lower": [0, 0], "upper": [1, 1]},
        {"type": "affine_eq", "coeffs": [1, 1], "rhs": 1, "tol": 1e-6},
        {"type": "coordinate", "index": 0, "bound": 0.5, "op": "<="},
        {"type": "all", "parts": [{"type": "coordinate", "index": 0, "bound": 0.5}]},
        {"type": "any", "parts": [{"type": "coordinate", "index": 1, "bound": 0.5}]},
    ])
    def test_every_key_a_type_reads_is_accepted(self, spec):
        common = {"scale": 1.0, "regularity_asserted": True, "description": "d"}
        assert bs.constraint_from_dict({**spec, **common}).description == "d"
