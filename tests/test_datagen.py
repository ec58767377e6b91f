"""Synthetic instance generation and noised replication."""
from __future__ import annotations

import numpy as np
import pytest

from divrank import datagen
from divrank.datagen import (GenConfig, RegenExhaustedError, ZeroScoresError,
                             gen_synthetic, noise_replicate, seed_key)
from divrank.model import default_weights, validate_instance
from divrank.solver import precheck_feasibility, reduce_two_sided
from divrank.rank import unconstrained_extremes


class TestSeedKey:
    def test_int_becomes_tuple(self):
        assert seed_key(7) == (7,)

    def test_tuple_extension(self):
        assert seed_key((7, 3), 100, 10, 4) == (7, 3, 100, 10, 4)

    def test_numpy_ints_coerced(self):
        key = seed_key(np.int64(7), np.int32(2))
        assert key == (7, 2)
        assert all(type(k) is int for k in key)


class TestGenConfig:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            GenConfig(m=3, n=4)

    def test_rejects_alpha_outside_open_interval(self):
        for alpha in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                GenConfig(m=5, n=2, alpha=alpha)


class TestGenSynthetic:
    def test_deterministic_bit_identical(self):
        one = gen_synthetic(GenConfig(m=50, n=5, seed=3))
        two = gen_synthetic(GenConfig(m=50, n=5, seed=3))
        np.testing.assert_array_equal(one.c, two.c)
        np.testing.assert_array_equal(one.a, two.a)
        assert (one.b1, one.b2) == (two.b1, two.b2)

    def test_seeds_differ(self):
        one = gen_synthetic(GenConfig(m=50, n=5, seed=3))
        two = gen_synthetic(GenConfig(m=50, n=5, seed=4))
        assert not np.array_equal(one.c, two.c)

    def test_uses_default_weights(self):
        inst = gen_synthetic(GenConfig(m=30, n=4, seed=1))
        np.testing.assert_array_equal(inst.w, default_weights(4))

    def test_symmetric_binding_bounds(self):
        for rep in range(30):
            inst = gen_synthetic(GenConfig(m=40, n=5, seed=(701, rep)))
            assert inst.b2 > 0.0 and inst.b1 == -inst.b2
            top_div = unconstrained_extremes(inst.c, inst.a, inst.w).min_div
            assert inst.b2 == pytest.approx(0.8 * top_div, rel=1e-15)
            assert precheck_feasibility(inst).feasible
            # The unconstrained optimum violates the upper bound, so the
            # constraint is active at the optimum.
            assert reduce_two_sided(inst).one_sided is not None

    def test_covariance_near_alpha(self):
        inst = gen_synthetic(GenConfig(m=10 ** 5, n=10, alpha=0.5, seed=11))
        cov = float(np.cov(inst.a, inst.c)[0, 1])
        assert 0.46 <= cov <= 0.54

    def test_rejection_rare_at_m_100(self):
        # Fraction of seeds whose first draw is rejected stays under 50%.
        rejected = 0
        for rep in range(60):
            key = seed_key((702, rep))
            rng = np.random.default_rng(key + (0,))
            pairs = rng.standard_normal((100, 2))
            a = pairs[:, 0]
            c = 0.5 * pairs[:, 0] + np.sqrt(0.75) * pairs[:, 1]
            un = unconstrained_extremes(c, a, default_weights(10))
            if un.min_div <= 0.0:
                rejected += 1
        assert rejected / 60 < 0.5

    def test_regen_exhausted_raises(self):
        # With one candidate the sole assignment always sits above the
        # shrunken upper bound, so no number of retries can help at m=1;
        # the error must mention the seed.
        with pytest.raises(RegenExhaustedError, match=r"\(4,\)"):
            gen_synthetic(GenConfig(m=1, n=1, seed=4))

    def test_exhaustion_names_both_causes(self):
        # At m=1 a draw with a negative diversity score is refused for its
        # top diversity, one with a positive score as infeasible.
        with pytest.raises(RegenExhaustedError,
                           match=r"\(0,\): 61 had a nonpositive top diversity, "
                                 r"39 were infeasible"):
            gen_synthetic(GenConfig(m=1, n=1, seed=0))

    def test_regen_moves_to_next_substream(self, monkeypatch):
        # Seed 5 at m=2 rejects attempts 0..4 and first succeeds at attempt 5,
        # so capping retries below that raises while the default succeeds with
        # the attempt-5 draw bit for bit.
        with monkeypatch.context() as mp:
            mp.setattr(datagen, "MAX_REGEN", 5)
            with pytest.raises(RegenExhaustedError):
                gen_synthetic(GenConfig(m=2, n=1, seed=5))
        inst = gen_synthetic(GenConfig(m=2, n=1, seed=5))
        rng = np.random.default_rng(seed_key(5) + (5,))
        pairs = rng.standard_normal((2, 2))
        assert np.array_equal(inst.a, pairs[:, 0])
        expect_c = 0.5 * pairs[:, 0] + np.sqrt(1 - 0.25) * pairs[:, 1]
        assert np.array_equal(inst.c, expect_c)
        assert precheck_feasibility(inst).feasible


class TestNoiseReplicate:
    def base(self):
        return gen_synthetic(GenConfig(m=200, n=8, seed=9))

    def test_exact_relative_norm(self):
        inst = self.base()
        for rep in range(10):
            noised = noise_replicate(inst, level=0.2, seed=(703, rep))
            ratio = np.linalg.norm(noised.c - inst.c) / np.linalg.norm(inst.c)
            assert abs(ratio - 0.2) <= 1e-12

    def test_everything_else_unchanged(self):
        inst = self.base()
        noised = noise_replicate(inst, seed=5)
        np.testing.assert_array_equal(noised.a, inst.a)
        np.testing.assert_array_equal(noised.w, inst.w)
        assert (noised.b1, noised.b2) == (inst.b1, inst.b2)

    def test_seeds_differ(self):
        inst = self.base()
        one = noise_replicate(inst, seed=1)
        two = noise_replicate(inst, seed=2)
        assert not np.array_equal(one.c, two.c)
        np.testing.assert_array_equal(one.a, two.a)

    def test_level_zero_rejected(self):
        with pytest.raises(ValueError):
            noise_replicate(self.base(), level=0.0)

    @pytest.mark.parametrize("level", [float("nan"), float("inf")])
    def test_non_finite_level_rejected(self, level):
        with pytest.raises(ValueError, match="level must be a finite number > 0"):
            noise_replicate(self.base(), level=level)

    def test_zero_scores_rejected(self):
        inst = validate_instance(2, 1, [0.0, 0.0], [1.0, -1.0], [1.0], -1.0, 1.0)
        with pytest.raises(ZeroScoresError):
            noise_replicate(inst)
