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
