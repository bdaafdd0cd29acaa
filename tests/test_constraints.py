import math

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


class TestNonFiniteInput:
    """A NaN or infinite coefficient, rhs or bound is refused when the set
    is built, before any draw; a box keeps its infinite bounds."""

    @pytest.mark.parametrize("build, name", [
        (lambda: bs.halfspace([1.0, math.nan], 0.5), "coeffs"),
        (lambda: bs.halfspace([1.0, math.inf], 0.5), "coeffs"),
        (lambda: bs.halfspace([1.0, 1.0], math.nan), "rhs"),
        (lambda: bs.affine_equality([math.nan, 1.0], 0.5), "coeffs"),
        (lambda: bs.affine_equality([1.0, 1.0], -math.inf), "rhs"),
        (lambda: bs.simplex_face(0, math.nan), "bound"),
    ], ids=["halfspace-nan-coeff", "halfspace-inf-coeff", "halfspace-nan-rhs",
            "affine-nan-coeff", "affine-inf-rhs", "face-nan-bound"])
    def test_non_finite_is_refused(self, build, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            build()

    @pytest.mark.parametrize("lower, upper", [([math.nan, 0.0], [1.0, 1.0]),
                                              ([0.0, 0.0], [1.0, math.nan])])
    def test_box_refuses_nan(self, lower, upper):
        with pytest.raises(ValueError, match="box bounds must not be NaN"):
            bs.box(lower, upper)

    def test_box_keeps_infinite_bounds(self):
        omega = bs.box([-math.inf, 0.0], [math.inf, 1.0])
        assert omega.contains(np.array([[5.0, 0.5], [5.0, 1.5]])).tolist() == [True, False]


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


class TestRow:
    """Only ``halfspace`` and ``simplex_face`` record their row, so that it
    always describes the membership the engine's dual tilts toward."""

    def test_the_leaves_record_their_row(self):
        assert bs.halfspace([1, 0, 2], 0.5, "<=").row == ((1.0, 0.0, 2.0), 0.5, "<=")
        assert bs.simplex_face(1, 0.25).row == (1, 0.25, ">=")
        assert bs.intersection(bs.simplex_face(1, 0.25)).row is None

    @pytest.mark.parametrize("build", [
        lambda: bs.from_predicate(lambda x: x[0] >= 0.5, row=((1.0,), 0.5, ">=")),
        lambda: bs.box([0.0], [1.0], row=((1.0,), 0.5, ">=")),
        lambda: bs.halfspace([1.0], 0.5, row=((2.0,), 0.5, ">=")),
    ], ids=["predicate", "box", "halfspace"])
    def test_no_builder_takes_a_row(self, build):
        with pytest.raises(TypeError, match="row"):
            build()

    def test_a_described_config_leaf_keeps_its_row(self):
        spec = {"type": "halfspace", "coeffs": [1, 1], "rhs": 0.5, "description": "d"}
        omega = bs.constraint_from_dict(spec)
        assert (omega.description, omega.row) == ("d", ((1.0, 1.0), 0.5, ">="))


class TestScaled:
    """``scaled(omega, d)`` is {x : d * x in Omega}: a one-inequality leaf
    keeps its row, any other set tests Omega at d * x."""

    D = np.array([2.0, -0.5, 1.5])  # mixed signs

    @pytest.mark.parametrize("omega", [
        *(bs.halfspace([1.0, 2.0, -1.0], 0.25, op) for op in (">=", "<=", ">", "<")),
        bs.simplex_face(1, -0.2, "<="),
        bs.box([-0.5, -0.4, -np.inf], [1.0, 0.3, 0.9]),
        bs.union(bs.simplex_face(0, 0.6), bs.box([-1.0, -1.0, -1.0], [0.0, 0.0, 0.5])),
        bs.from_predicate(lambda x: x[0] * x[1] >= -0.1),
    ], ids=["ge", "le", "gt", "lt", "coordinate", "box", "union", "predicate"])
    def test_membership_is_omega_at_d_x(self, omega):
        pts = np.random.default_rng(6).uniform(-1.0, 1.0, size=(400, 3))
        mapped = constraints.scaled(omega, self.D)
        inside = mapped.contains(pts)
        assert np.array_equal(inside, omega.contains(pts * self.D))
        assert 0 < inside.sum() < len(pts)
        assert (mapped.scale, mapped.description) == (omega.scale, omega.description)

    def test_a_leaf_keeps_its_row(self):
        face = constraints.scaled(bs.simplex_face(1, 0.25, "<="), self.D)
        assert face.row == ((0.0, -0.5, 0.0), 0.25, "<=")
        half = constraints.scaled(bs.halfspace([1.0, 2.0, -1.0], 0.5, ">"), self.D)
        assert half.row == ((2.0, -1.0, -1.5), 0.5, ">")

    @pytest.mark.parametrize("omega", [
        bs.intersection(bs.simplex_face(0, 0.5)), bs.box([0.0] * 3, [1.0] * 3),
        bs.from_predicate(lambda x: x.sum() >= 1.0),
    ], ids=["intersection", "box", "predicate"])
    def test_a_set_without_a_row_stays_without(self, omega):
        assert constraints.scaled(omega, self.D).row is None

    @pytest.mark.parametrize("omega", [bs.halfspace([1.0], 0.5), bs.simplex_face(3, 0.5)],
                             ids=["halfspace", "coordinate"])
    def test_a_row_of_another_width_is_refused(self, omega):
        # not broadcast to a row of width 3: it fails its first test
        mapped = constraints.scaled(omega, self.D)
        assert mapped.row is None
        with pytest.raises(ValueError, match="cannot test points of width K=3"):
            mapped.contains(np.ones((2, 3)))


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
        common = {"scale": 1.0, "description": "d"}
        assert bs.constraint_from_dict({**spec, **common}).description == "d"
