import math

import numpy as np
import pytest

import baresim.entropy as ent


class TestPresets:
    def test_shannon_uniform(self):
        q = np.full(4, 0.25)
        assert ent.entropy(ent.shannon(), q) == pytest.approx(math.log(4))

    def test_havrda_charvat_degenerate(self):
        assert ent.entropy(ent.havrda_charvat(2.0), [1.0, 0.0]) == pytest.approx(0.0)

    def test_two_norm_pythagorean(self):
        assert ent.entropy(ent.gamma_norm(2.0), [0.6, 0.8]) == pytest.approx(1.0)

    def test_renyi_uniform(self):
        q = np.full(5, 0.2)
        assert ent.entropy(ent.renyi_entropy(2.0), q) == pytest.approx(math.log(5))

    def test_renyi_limits_to_shannon_shape(self):
        q = np.array([0.1, 0.2, 0.7])
        near = ent.entropy(ent.renyi_entropy(1.0 + 1e-7), q)
        assert near == pytest.approx(ent.entropy(ent.shannon(), q), abs=1e-5)

    def test_hill_number_displayed_convention(self):
        # exponent 1/(gamma-1), so the uniform value is 1/K, not K
        q = np.full(3, 1.0 / 3.0)
        assert ent.entropy(ent.hill_number(2.0), q) == pytest.approx(1.0 / 3.0)

    def test_arimoto_vs_direct(self):
        q = np.array([0.2, 0.8])
        gt = 2.0
        direct = ((q ** (1 / gt)).sum() ** gt - 1) / (gt - 1)
        assert ent.entropy(ent.arimoto(gt), q) == pytest.approx(direct)

    def test_sharma_mittal_vs_direct(self):
        q = np.array([0.3, 0.7])
        g, s = 2.0, 0.5
        direct = (((q**g).sum()) ** ((1 - s) / (1 - g)) - 1) / (1 - s)
        assert ent.entropy(ent.sharma_mittal1(g, s), q) == pytest.approx(direct)

    def test_patil_taillie_gini_simpson(self):
        q = np.array([0.3, 0.7])
        assert ent.entropy(ent.patil_taillie(1.0), q) == pytest.approx(
            1.0 - (q**2).sum()
        )

    def test_sm2_vs_direct(self):
        q = np.array([0.25, 0.75])
        s = 2.0
        y = float(np.sum(q * np.log(q)))
        assert ent.entropy(ent.sharma_mittal2(s), q) == pytest.approx(
            (math.exp((s - 1) * y) - 1) / (1 - s)
        )

    def test_nonprobability_mass_allowed(self):
        q = np.array([0.4, 0.6]) * 2.0
        val = ent.entropy(ent.shannon(), q)
        assert val == pytest.approx(-float(np.sum(q * np.log(q))))


class TestValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError):
            ent.EntropySpec("nope")

    def test_power_needs_nonzero_params(self):
        with pytest.raises(ValueError):
            ent.EntropySpec("power", gamma=2.0, c1=0.0)
        with pytest.raises(ValueError):
            ent.EntropySpec("power", gamma=1.0)

    def test_sm2_degree(self):
        with pytest.raises(ValueError):
            ent.sharma_mittal2(1.0)

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            ent.entropy(ent.shannon(), [-0.1, 1.1])

    def test_negative_gamma_needs_positive(self):
        with pytest.raises(ValueError):
            ent.entropy(ent.EntropySpec("power", gamma=-1.0), [0.0, 1.0])
