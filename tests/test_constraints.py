import numpy as np
import pytest

import baresim as bs
from baresim import constraints


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


class TestColumnSum:
    """Halfspace and affine-equality leaves sum <c, x> over the nonzero
    coefficients, in column order, so a row tests alike in a call of any
    size."""

    def test_sparse_coefficients_sum_their_columns_only(self):
        pts = np.random.default_rng(3).random((500, 100))
        c = np.zeros(100)
        c[[7, 40, 41, 99]] = [1.5, -2.0, 1.0, 0.25]
        dot = ((pts[:, 7] * 1.5 + pts[:, 40] * -2.0) + pts[:, 41]) + pts[:, 99] * 0.25
        for rhs in (-0.5, 0.0, 0.5):
            assert np.array_equal(bs.halfspace(c, rhs).contains(pts), dot >= rhs)
            assert np.array_equal(bs.affine_equality(c, rhs, tol=0.3).contains(pts),
                                  np.abs(dot - rhs) <= 0.3)

    def test_zero_coefficients_test_against_zero(self):
        pts = np.random.default_rng(4).random((20, 3))
        assert bs.halfspace([0.0, 0.0, 0.0], 0.0, ">=").contains(pts).all()
        assert not bs.halfspace([0.0, 0.0, 0.0], 0.0, ">").contains(pts).any()

    @pytest.mark.parametrize("K", [3, 20])
    def test_a_row_sums_alike_in_a_call_of_any_size(self, K):
        # BLAS's pts @ c rounds some of these rows differently in one call
        pts = np.random.default_rng(5).random((4_000, K)) * 3.0
        c = np.linspace(-0.9, 1.7, K)
        full = constraints._dot_rows(pts, c)
        ones = [constraints._dot_rows(pts[i:i + 1], c)[0] for i in range(300)]
        assert [v.hex() for v in full[:300]] == [v.hex() for v in ones]

    def test_coefficients_of_another_width_are_refused(self):
        with pytest.raises(ValueError, match="3 coefficients for points of width 4"):
            bs.halfspace([1.0, 1.0, 1.0], 1.0).contains(np.ones((2, 4)))


class TestCombinators:
    def test_intersection_and_union_fold_their_members(self):
        pts = np.array([[0.2, 0.8], [0.5, 0.5], [0.7, 0.3]])
        a, b = bs.simplex_face(0, 0.4), bs.simplex_face(1, 0.4)
        both = bs.intersection(a, b)
        either = bs.union(a, b)
        assert both.contains(pts).tolist() == [False, True, False]
        assert either.contains(pts).tolist() == [True, True, True]
        assert both.description == "x[0] >= 0.4 and x[1] >= 0.4"
        assert either.description == "x[0] >= 0.4 or x[1] >= 0.4"

    @pytest.mark.parametrize("combine", [bs.intersection, bs.union])
    def test_no_members_is_refused(self, combine):
        with pytest.raises(ValueError, match="need at least one set"):
            combine()


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
