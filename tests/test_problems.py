import itertools

import numpy as np
import pytest

import baresim as bs
from baresim import problems
from baresim.divergence import divergence
from baresim.entropy import shannon


class TestQuadraticReduction:
    def test_l2_identity(self, rng):
        # c1 = v^2, c2 = -2v, c3 = 1 encodes ||x - v||^2
        for _ in range(10):
            v = rng.uniform(0.5, 2.0, 4)
            inst = problems.SeparableQuadratic(
                c1=v**2, c2=-2 * v, c3=np.ones(4), omega=bs.full_space()
            )
            red = problems.reduce_quadratic(inst)
            assert red.offset == pytest.approx(0.0, abs=1e-12)
            for _ in range(10):
                x = rng.uniform(0.1, 3.0, 4)
                direct = inst.objective(x)
                q = red.to_reduced(x)
                assert direct == pytest.approx(
                    red.offset + divergence(red.gen, q, red.P), rel=1e-12
                )

    def test_perfect_square(self):
        inst = problems.SeparableQuadratic(
            c1=[1.0], c2=[-2.0], c3=[1.0], omega=bs.full_space()
        )
        red = problems.reduce_quadratic(inst)
        q = red.to_reduced([1.0])
        assert red.offset + divergence(red.gen, q, red.P) == pytest.approx(0.0)

    def test_pointwise_identity_random(self, rng):
        for _ in range(100):
            k = int(rng.integers(2, 6))
            c1 = rng.normal(0, 1, k)
            c2 = rng.choice([-1, 1], k) * rng.uniform(0.5, 2.0, k)
            c3 = rng.uniform(0.2, 3.0, k)
            inst = problems.SeparableQuadratic(c1=c1, c2=c2, c3=c3, omega=bs.full_space())
            red = problems.reduce_quadratic(inst)
            x = rng.normal(0, 2, k)
            assert inst.objective(x) == pytest.approx(
                red.offset + divergence(red.gen, red.to_reduced(x), red.P),
                rel=1e-12, abs=1e-12,
            )

    def test_membership_preserved(self, rng):
        omega = bs.box([0.0, 0.0], [1.0, 1.0])
        inst = problems.SeparableQuadratic(
            c1=[0, 0], c2=[-1.0, -2.0], c3=[1.0, 1.0], omega=omega
        )
        red = problems.reduce_quadratic(inst)
        for _ in range(100):
            x = rng.uniform(-0.5, 1.5, 2)
            assert omega.contains_point(x) == red.omega.contains_point(
                red.to_reduced(x)
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            problems.SeparableQuadratic(c1=[0], c2=[0.0], c3=[1.0], omega=bs.full_space())
        with pytest.raises(ValueError):
            problems.SeparableQuadratic(c1=[0], c2=[1.0], c3=[-1.0], omega=bs.full_space())


class TestLinearReduction:
    def test_norm_prefactor_example(self):
        inst = problems.LinearObjective(cost=[1.0, 1.0], gamma=2.0,
                                        omega=bs.full_space())
        red = problems.reduce_linear(inst)
        assert red.prefactor == pytest.approx(0.5)
        assert red.direction == "min"

    def test_binary_fixed_point(self):
        # on 0/1 vectors the power transform is the identity
        x = np.array([1.0, 0.0, 1.0])
        inst = problems.LinearObjective(cost=[2.0, 3.0, 4.0], gamma=2.0,
                                        omega=bs.full_space())
        red = problems.reduce_linear(inst)
        assert np.allclose(red.to_reduced(x), x)

    def test_scalar_product_identity(self, rng):
        for gamma in (2.0, 3.0, 0.5, -1.0):
            for _ in range(25):
                k = int(rng.integers(2, 6))
                cost = rng.uniform(0.5, 2.0, k)
                x = rng.uniform(0.1, 2.0, k)
                inst = problems.LinearObjective(cost=cost, gamma=gamma,
                                                omega=bs.full_space())
                red = problems.reduce_linear(inst)
                direct = float(x @ cost)
                assert direct == pytest.approx(
                    red.prefactor * red.hellinger_value(x), rel=1e-12
                )

    def test_direction_by_gamma(self):
        for g, d in ((2.0, "min"), (-1.0, "min"), (0.5, "max")):
            inst = problems.LinearObjective(cost=[1.0, 2.0], gamma=g,
                                            omega=bs.full_space())
            assert problems.reduce_linear(inst).direction == d


def assignment_discrete_optimum(costs: np.ndarray) -> float:
    K = costs.shape[0]
    return min(
        sum(costs[i, perm[i]] for i in range(K))
        for perm in itertools.permutations(range(K))
    )


class TestAssignmentReduction:
    def test_enumeration_oracle(self):
        costs = np.array([[1.0, 10.0], [10.0, 1.0]])
        assert assignment_discrete_optimum(costs) == 2.0

    def test_constraints_on_permutation_matrices(self):
        inst = problems.Assignment(costs=[[1.0, 10.0], [10.0, 1.0]], eps1=0.05, eps2=0.05)
        red = problems.reduce_assignment(inst)
        ident = np.array([1.0, 0.0, 0.0, 1.0])
        swap = np.array([0.0, 1.0, 1.0, 0.0])
        assert red.omega.contains_point(ident)
        assert red.omega.contains_point(swap)
        assert not red.omega.contains_point(np.array([0.5, 0.5, 0.5, 0.5]))

    def test_row_col_sums_enforced(self, rng):
        inst = problems.Assignment(costs=np.ones((2, 2)) + rng.uniform(0, 1, (2, 2)),
                                   eps1=0.1, eps2=0.1)
        red = problems.reduce_assignment(inst)
        hits = 0
        for _ in range(2000):
            q = rng.uniform(0, 1, 4)
            if red.omega.contains_point(q):
                hits += 1
                m = q.reshape(2, 2)
                assert np.allclose(m.sum(axis=0), 1.0, atol=1e-9)
                assert np.allclose(m.sum(axis=1), 1.0, atol=1e-9)
        # near-permutation points only; random uniforms almost never qualify
        assert hits <= 5

    def test_value_at_permutation_matches_cost(self):
        costs = np.array([[1.0, 10.0], [10.0, 1.0]])
        inst = problems.Assignment(costs=costs, eps1=0.01, eps2=0.01)
        red = problems.reduce_assignment(inst)
        ident = np.array([1.0, 0.0, 0.0, 1.0])
        assert red.prefactor * red.hellinger_value(ident) == pytest.approx(2.0)

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            problems.Assignment(costs=np.ones((2, 2)), eps1=0.6, eps2=0.5)

    def test_degenerate_epsilons_give_discrete_set(self):
        inst = problems.Assignment(costs=np.ones((2, 2)), eps1=1e-12, eps2=1e-12)
        red = problems.reduce_assignment(inst)
        assert red.omega.contains_point(np.array([1.0, 0.0, 0.0, 1.0]))
        assert not red.omega.contains_point(np.array([0.9, 0.1, 0.1, 0.9]))


class TestTransportReduction:
    def test_trivial_coupling_is_zero(self):
        inst = problems.Transport(mu=[0.5, 0.5], nu=[0.5, 0.5])
        red = problems.reduce_transport(inst)
        uniform = np.full(4, 0.25)
        assert divergence(red.gen, uniform, red.P) == pytest.approx(0.0)
        assert red.omega.contains_point(uniform)

    def test_objective_identity_random(self, rng):
        inst = problems.Transport(mu=[0.6, 0.4], nu=[0.3, 0.7])
        red = problems.reduce_transport(inst)
        for _ in range(100):
            pi = rng.uniform(0.01, 1.0, (2, 2))
            direct = inst.objective(pi)
            assert direct == pytest.approx(
                divergence(red.gen, pi.reshape(-1), red.P), rel=1e-12
            )
            # the power-sum form needs couplings of total mass A
            pi_a = pi / pi.sum()
            assert inst.objective(pi_a) == pytest.approx(
                red.objective_identity(pi_a), rel=1e-12
            )

    def test_forced_coupling_value(self):
        # mu = (1, 0) forces the top row; objective is 1
        inst = problems.Transport(mu=[1.0, 0.0], nu=[0.5, 0.5])
        forced = np.array([[0.5, 0.5], [0.0, 0.0]])
        assert inst.objective(forced) == pytest.approx(1.0)
        red = problems.reduce_transport(inst)
        assert divergence(red.gen, forced.reshape(-1), red.P) == pytest.approx(1.0)

    def test_unequal_mass_rejected(self):
        with pytest.raises(ValueError):
            problems.Transport(mu=[1.0, 0.0], nu=[0.3, 0.3])


class TestTransportBand:
    @pytest.mark.parametrize("band", [0.0, -0.1])
    def test_band_must_be_positive(self, band):
        with pytest.raises(ValueError, match="band must be > 0"):
            problems.Transport(mu=[0.5, 0.5], nu=[0.5, 0.5], band=band)


class TestSolve:
    def test_transport_trivial_estimate(self):
        inst = problems.Transport(mu=[0.5, 0.5], nu=[0.5, 0.5])
        rep = problems.solve(inst, bs.EstimatorConfig(n=600, L=15_000, seed=4))
        assert abs(rep.value) < 0.02

    def test_quadratic_box_containing_optimum(self):
        v = np.array([0.8, 1.4])
        inst = problems.SeparableQuadratic(
            c1=v**2, c2=-2 * v, c3=np.ones(2),
            omega=bs.box([0.0, 0.0], [2.0, 2.0]),
        )
        rep = problems.solve(inst, bs.EstimatorConfig(n=500, L=10_000, seed=3))
        assert abs(rep.value) < 0.02

    def test_entropy_max(self):
        inst = problems.EntropyMax(spec=shannon(), K=3,
                                   omega=bs.simplex_face(0, 0.5, ">="))
        rep = problems.solve(inst, bs.EstimatorConfig(n=900, L=20_000, seed=5))
        assert rep.value == pytest.approx(1.039721, abs=0.03)

    def test_entropy_max_scaled_slice(self):
        # Shannon over vectors of total mass 2 with q_1 >= 1.2: by symmetry
        # the maximizer is (1.2, 0.4, 0.4)
        import numpy as np

        omega = bs.simplex_face(0, 1.2, ">=", scale=2.0)
        inst = problems.EntropyMax(spec=shannon(), K=3, omega=omega)
        rep = problems.solve(inst, bs.EstimatorConfig(n=1200, L=30_000, seed=7))
        q = np.array([1.2, 0.4, 0.4])
        ref = -float(np.sum(q * np.log(q)))
        assert rep.value == pytest.approx(ref, abs=0.03)

    def test_power_entropy_extremum(self):
        # Havrda-Charvat gamma=2 max over {q_1 >= 0.5}: maximizer is the
        # Euclidean projection (0.5, 0.25, 0.25)
        import numpy as np
        from baresim.entropy import entropy, havrda_charvat

        spec = havrda_charvat(2.0)
        omega = bs.simplex_face(0, 0.5, ">=")
        inst = problems.EntropyMax(spec=spec, K=3, omega=omega)
        rep = problems.solve(inst, bs.EstimatorConfig(n=1200, L=30_000, seed=8))
        ref = entropy(spec, np.array([0.5, 0.25, 0.25]))
        assert rep.value == pytest.approx(ref, abs=0.03)

    def test_unknown_problem_type(self):
        with pytest.raises(TypeError):
            problems.solve(object(), bs.EstimatorConfig(n=10))
