import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalar_oracles import amps, state_at

import kirchlab
from kirchlab._pcg64 import uniforms
from kirchlab.spectral import (
    FrequencyGrid,
    SpectralState,
    build_random_decay,
    build_two_mode,
    pair_norm,
    rescale_to,
    sobolev_norm_sq,
    stack_states,
    truncate,
)


def random_state(M=100, seed=0, lam_max=50.0):
    rng = np.random.default_rng(seed)
    lam = np.sort(rng.uniform(0.5, lam_max, M))
    w = rng.uniform(0.1, 2.0, M)
    u = rng.normal(size=M) + 1j * rng.normal(size=M)
    v = rng.normal(size=M) + 1j * rng.normal(size=M)
    return SpectralState(FrequencyGrid(lam, w), u, v)


def combined(state, s):
    """The pair norm of one state, |(u, u')| at regularity s."""
    return np.hypot(*pair_norm(*amps(state), s))


class TestGrid:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            FrequencyGrid([2.0, 1.0], [1.0, 1.0])

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            FrequencyGrid([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            FrequencyGrid([-1.0, 1.0], [1.0, 1.0])

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            FrequencyGrid([1.0, 2.0], [1.0, 0.0])

    def test_from_unsorted_merges_duplicates(self):
        g = FrequencyGrid.from_unsorted([2.0, 1.0, 2.0], [0.5, 1.0, 0.25])
        assert np.allclose(g.lambdas, [1.0, 2.0])
        assert np.allclose(g.weights, [1.0, 0.75])

    def test_state_length_mismatch(self):
        g = FrequencyGrid([1.0, 2.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            SpectralState(g, np.zeros(3, complex), np.zeros(3, complex))

    def test_state_rejects_nonfinite(self):
        g = FrequencyGrid([1.0], [1.0])
        with pytest.raises(ValueError):
            SpectralState(g, np.array([np.nan + 0j]), np.zeros(1, complex))

    def test_nonfinite_names_array_and_first_mode(self):
        g = FrequencyGrid([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
        z = np.zeros(3, complex)
        bad = np.array([0.0, np.inf, np.nan], complex)
        with pytest.raises(ValueError, match=r"^amplitudes must be finite: v_hat\[1\] = "):
            SpectralState(g, z, bad)
        with pytest.raises(ValueError, match=r"^amplitudes must be finite: u_hat\[1\] = "):
            SpectralState(g, bad, bad[::-1])

    def test_caller_arrays_stay_writable(self):
        lam, w = np.array([1.0, 2.0]), np.array([1.0, 0.5])
        u, v = np.array([1.0 + 1j, 2.0]), np.array([0.5j, 1.0])
        st = SpectralState(FrequencyGrid(lam, w), u, v)
        for a in (lam, w, u, v):
            assert a.flags.writeable
        lam[0], w[0], u[0], v[0] = 0.5, 9.0, 7.0, 7.0
        assert st.grid.lambdas[0] == 1.0 and st.grid.weights[0] == 1.0
        assert st.u_hat[0] == 1.0 + 1j and st.v_hat[0] == 0.5j
        assert not (st.u_hat.flags.writeable or st.grid.lambdas.flags.writeable)


class TestNorms:
    def test_single_mode(self):
        g = FrequencyGrid([2.0], [1.0])
        st_ = SpectralState(g, np.array([1.0 + 0j]), np.zeros(1, complex))
        assert sobolev_norm_sq(g, st_.u_hat, 1.0) == 4.0

    def test_zero_state(self):
        g = FrequencyGrid([1.0, 3.0], [1.0, 2.0])
        z = np.zeros(2, complex)
        assert sobolev_norm_sq(g, z, 2.0) == 0.0

    def test_reverse_order_oracle(self):
        st_ = random_state(M=100, seed=3)
        fwd = sobolev_norm_sq(st_.grid, st_.u_hat, 0.75)
        lam, w, u = st_.grid.lambdas, st_.grid.weights, st_.u_hat
        rev = float(np.add.reduce((w * lam**1.5 * np.abs(u) ** 2)[::-1]))
        assert abs(fwd - rev) <= 1e-13 * abs(rev)

    def test_pair_norm_single_mode(self):
        g = FrequencyGrid([1.0], [1.0])
        st_ = SpectralState(g, np.array([3.0 + 0j]), np.array([4.0 + 0j]))
        pos, vel = pair_norm(*amps(st_), 0.0)
        assert pos == 3.0 and vel == 4.0
        assert combined(st_, 0.0) == 5.0

    @given(st.floats(min_value=-5.0, max_value=5.0).filter(lambda c: c != 0))
    @settings(max_examples=30, deadline=None)
    def test_homogeneity(self, c):
        base = random_state(M=20, seed=8)
        scaled = base.replace_amplitudes(c * base.u_hat, c * base.v_hat)
        n0, n1 = pair_norm(*amps(base), 0.5), pair_norm(*amps(scaled), 0.5)
        assert np.isclose(n1[0], abs(c) * n0[0], rtol=1e-12)
        assert np.isclose(n1[1], abs(c) * n0[1], rtol=1e-12)

    def test_overflow_raises_per_state_and_in_stack(self):
        g = FrequencyGrid([1.0, 1e100], [1.0, 1.0])
        ok = SpectralState(g, np.ones(2, complex), np.ones(2, complex))
        big = SpectralState(g, np.array([1.0, 1e10 + 0j]), np.ones(2, complex))
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="overflowed at sigma=1.5$"):
                pair_norm(*amps(big), 0.5)
            with pytest.raises(ValueError, match="overflowed at sigma=1.5 in sample 1"):
                pair_norm(*stack_states([ok, big, ok]), 0.5)

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_non_finite_regularity_named(self, s):
        with pytest.raises(ValueError, match="^s must be finite, got "):
            pair_norm(*amps(random_state(M=10, seed=1)), s)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
    def test_non_finite_sigma_named(self, sigma):
        # NaN used to raise "Sobolev norm overflowed at sigma=nan"
        st_ = random_state(M=10, seed=1)
        with pytest.raises(ValueError, match="^sigma must be finite, got "):
            sobolev_norm_sq(st_.grid, st_.u_hat, sigma)

    def test_interpolation_monotone_above_one(self):
        rng = np.random.default_rng(5)
        lam = np.sort(rng.uniform(1.0, 40.0, 50))
        g = FrequencyGrid(lam, np.ones(50))
        u = rng.normal(size=50) + 1j * rng.normal(size=50)
        sigmas = np.linspace(0.0, 3.0, 12)
        vals = [sobolev_norm_sq(g, u, s) for s in sigmas]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestRescale:
    def test_doubles(self):
        st_ = random_state(M=10, seed=1)
        cur = combined(st_, 0.25)
        out = rescale_to(st_, 2 * cur, 0.25)
        assert np.allclose(out.u_hat, 2 * st_.u_hat)

    def test_round_trip(self):
        st_ = random_state(M=40, seed=2)
        out = rescale_to(st_, 0.125, 0.5)
        assert abs(combined(out, 0.5) - 0.125) <= 1e-14 * 0.125

    def test_identity_at_current_norm(self):
        st_ = random_state(M=10, seed=4)
        cur = combined(st_, 0.0)
        out = rescale_to(st_, cur, 0.0)
        assert np.allclose(out.u_hat, st_.u_hat, rtol=1e-14)

    def test_zero_state_errors(self):
        g = FrequencyGrid([1.0], [1.0])
        z = np.zeros(1, complex)
        with pytest.raises(ValueError, match="cannot rescale zero state"):
            rescale_to(SpectralState(g, z, z), 1.0, 0.0)

    @pytest.mark.parametrize("target", [0.0, -1.0, np.nan])
    def test_non_positive_target_rejected(self, target):
        with pytest.raises(ValueError, match="^target must be positive$"):
            rescale_to(random_state(M=10, seed=1), target, 0.25)

    def test_infinite_target_named(self):
        # it used to fail later, naming an infinite amplitude
        with pytest.raises(ValueError, match="^target must be finite, got inf$"):
            rescale_to(random_state(M=10, seed=1), math.inf, 0.0)

    @pytest.mark.parametrize("space_exponent", [math.nan, math.inf, -math.inf])
    def test_non_finite_space_exponent_named(self, space_exponent):
        with pytest.raises(ValueError, match="^space_exponent must be finite, got "):
            rescale_to(random_state(M=10, seed=1), 1.0, space_exponent)


class TestTwoMode:
    def test_free_oscillator_quarter_period(self):
        # c- = 0, c+ = 1 on the lambda=1 mode: u(t) = e^{it}
        st_ = build_two_mode(1.0, 2.0, [1.0, 0.0], [0.0, 0.0])
        from kirchlab.dynamics import evolve
        from kirchlab.nonlinearity import polynomial_nonlinearity

        N0 = polynomial_nonlinearity([0.0])
        end = state_at(evolve(st_, N0, np.pi / 2, 1e-3), -1)
        assert abs(end.u_hat[0] - 1j) < 1e-12

    def test_plus_equals_minus(self):
        st_ = build_two_mode(1.0, 2.0, [0.5, 0.0], [0.5, 0.0])
        assert st_.u_hat[0] == 1.0
        assert st_.v_hat[0] == 0.0

    def test_free_amplitude_closed_form(self):
        cp, cm = 0.3 + 0.4j, -0.2 + 0.1j
        st_ = build_two_mode(1.0, 3.0, [cp, 0.0], [cm, 0.0])
        from kirchlab.dynamics import evolve
        from kirchlab.nonlinearity import polynomial_nonlinearity

        N0 = polynomial_nonlinearity([0.0])
        for t in np.linspace(0.1, 3.0, 10):
            end = state_at(evolve(st_, N0, float(t), 1e-3), -1)
            expect = abs(cp) ** 2 + abs(cm) ** 2 + 2 * (cp * np.conj(cm) * np.exp(2j * t)).real
            assert abs(abs(end.u_hat[0]) ** 2 - expect) < 1e-9

    def test_rejects_equal_or_bad_frequencies(self):
        with pytest.raises(ValueError):
            build_two_mode(1.0, 1.0, [1.0, 0.0], [0.0, 0.0])
        with pytest.raises(ValueError):
            build_two_mode(-1.0, 1.0, [1.0, 0.0], [0.0, 0.0])


    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("which", ["lambda1", "lambda2"])
    def test_non_finite_frequency_named(self, bad, which):
        lams = {"lambda1": 1.0, "lambda2": 2.0, which: bad}
        with pytest.raises(ValueError, match=f"^{which} must be positive and finite, got "):
            build_two_mode(lams["lambda1"], lams["lambda2"], [1.0, 0.0], [0.0, 0.0])


class TestRandomDecay:
    def test_deterministic(self):
        a = build_random_decay(64, 1.0, 32.0, 0.25, 0.5, seed=9)
        b = build_random_decay(64, 1.0, 32.0, 0.25, 0.5, seed=9)
        assert np.array_equal(a.u_hat, b.u_hat)
        assert np.array_equal(a.v_hat, b.v_hat)

    def test_refinement_converges_with_margin(self):
        n512 = combined(build_random_decay(512, 1.0, 256.0, 0.25, 0.55, seed=0), 0.25)
        n1024 = combined(build_random_decay(1024, 1.0, 256.0, 0.25, 0.55, seed=0), 0.25)
        assert abs(n1024 - n512) / n512 < 0.05

    def test_zero_margin_log_divergence(self):
        # without margin the H^{1+s} mass grows like log(lambda_max)
        norms = [
            pair_norm(*amps(build_random_decay(256, 1.0, lmax, 0.25, 0.0, seed=0)), 0.25)[0] ** 2
            for lmax in (1e2, 1e4, 1e6)
        ]
        growth = np.diff(norms)
        assert np.all(growth > 0)
        # increments per fixed log factor are roughly constant (log growth)
        assert 0.5 < growth[1] / growth[0] < 2.0

    def test_invalid_ranges(self):
        with pytest.raises(ValueError):
            build_random_decay(1, 1.0, 2.0, 0.25, 0.1, seed=0)
        with pytest.raises(ValueError):
            build_random_decay(8, 2.0, 1.0, 0.25, 0.1, seed=0)

    @pytest.mark.parametrize("M", [2.5, 8.0, True])
    def test_non_integer_mode_count_named(self, M):
        with pytest.raises(ValueError, match="^M must be an integer of at least 2, got "):
            build_random_decay(M, 1.0, 4.0, 0.25, 0.1, seed=0)

    @pytest.mark.parametrize("margin", [-0.1, float("nan"), float("inf")])
    def test_negative_or_nan_margin_rejected(self, margin):
        with pytest.raises(ValueError, match="^margin must be finite and non-negative, got "):
            build_random_decay(8, 1.0, 4.0, 0.25, margin, seed=0)

    @pytest.mark.parametrize("regularity", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_regularity_rejected(self, regularity):
        with pytest.raises(ValueError, match="^regularity must be finite, got "):
            build_random_decay(8, 1.0, 4.0, regularity, 0.1, seed=0)


    def test_infinite_lambda_max_named(self):
        # was "frequencies must be strictly increasing"
        with pytest.raises(ValueError, match="^lambda_max must be finite, got inf$"):
            build_random_decay(8, 1.0, float("inf"), 0.25, 0.1, seed=0)

    @pytest.mark.parametrize("seed", [1.5, -1, True])
    def test_fractional_or_negative_seed_named(self, seed):
        # 1.5 and -1 were numpy's TypeError and ValueError
        with pytest.raises(ValueError, match="^seed must be an integer of at least 0, got "):
            build_random_decay(8, 1.0, 4.0, 0.25, 0.1, seed=seed)

    def test_numpy_integer_seed_kept(self):
        a = build_random_decay(8, 1.0, 4.0, 0.25, 0.1, seed=np.int64(3))
        b = build_random_decay(8, 1.0, 4.0, 0.25, 0.1, seed=3)
        assert np.array_equal(a.u_hat, b.u_hat) and np.array_equal(a.v_hat, b.v_hat)


# seeds of every 32-bit word count the seeding handles differently: one
# word, two, three, four, and more than the pool's four
WIDE_SEEDS = [2**32 - 1, 2**32, 2**64 + 3, 10**30, 2**200 + 12345,
              np.int64(2**62 + 1), np.uint64(2**64 - 1)]


class TestUniformStream:
    """The in-house stream is numpy's default_rng(seed).random, bit for bit;
    numpy's generator is the oracle."""

    def test_seeds_zero_to_300(self):
        for seed in range(301):
            assert np.array_equal(uniforms(seed, 65), np.random.default_rng(seed).random(65))

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 1000, 8193, 131072])
    def test_sizes(self, n):
        for seed in [0, 7, *WIDE_SEEDS]:
            assert np.array_equal(uniforms(seed, n), np.random.default_rng(seed).random(n))

    @pytest.mark.parametrize("seed", [0, 300, *WIDE_SEEDS])
    def test_consecutive_draws_continue_the_stream(self, seed):
        rng = np.random.default_rng(seed)
        draws = np.concatenate([rng.random(n) for n in (1, 63, 2, 64, 1000, 65, 8193)])
        assert np.array_equal(uniforms(seed, draws.size), draws)

    def test_uniform_is_affine_in_the_stream(self):
        # numpy's uniform(lo, hi) is lo + (hi - lo) * random(), row by row
        rng = np.random.default_rng(11)
        lo, hi = np.log(1e-6), np.log(1e6)
        pairs, s = rng.uniform(lo, hi, size=(500, 2)), rng.uniform(-2.0, 0.0, size=500)
        r = uniforms(11, 1500)
        assert np.array_equal(lo + (hi - lo) * r[:1000].reshape(500, 2), pairs)
        assert np.array_equal(-2.0 + 2.0 * r[1000:], s)
        rng = np.random.default_rng(12)
        draws = [(*rng.uniform(-3, 3, size=2), rng.uniform(0.0, 1.0)) for _ in range(50)]
        r = uniforms(12, 150).reshape(50, 3)
        assert np.array_equal(np.column_stack([-3.0 + 6.0 * r[:, :2], r[:, 2]]), draws)

    def test_random_decay_matches_numpy_build(self):
        M, lam_min, lam_max, reg, margin, seed = 65536, 1.0, 1e3, 0.25, 0.1, 21
        rng = np.random.default_rng(seed)
        span = np.log(lam_max / lam_min)
        lam = lam_min * np.exp(span * ((np.arange(M) + 0.5) / M))
        u = lam ** (-(1.0 + reg) - margin) * np.exp(2j * np.pi * rng.random(M))
        v = lam ** (-reg - margin) * np.exp(2j * np.pi * rng.random(M))
        st_ = build_random_decay(M, lam_min, lam_max, reg, margin, seed)
        assert np.array_equal(st_.grid.lambdas, lam)
        assert np.array_equal(st_.u_hat, u) and np.array_equal(st_.v_hat, v)

    def test_runs_import_no_numpy_random_nor_hashlib(self, tmp_path):
        # a fresh process: the test session itself has imported numpy.random
        script = (
            "import sys\n"
            "from kirchlab import cli\n"
            "configs, out = sys.argv[1:]\n"
            "for name in ('simulate', 'verify'):\n"
            "    cfg = f'{configs}/{name}.json'\n"
            "    assert cli.main(['--config', cfg, '--out', f'{out}/{name}']) == 0\n"
            "print(sorted(m for m in ('numpy.random', 'hashlib') if m in sys.modules))\n"
        )
        configs = Path(__file__).resolve().parent.parent / "configs"
        src = str(Path(kirchlab.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", script, str(configs), str(tmp_path)],
                              env=env, capture_output=True, text=True, check=True)
        assert done.stdout.splitlines()[-1] == "[]"


class TestTruncate:
    def test_identity_above_lambda_max(self):
        st_ = random_state(M=20, seed=6)
        out = truncate(st_, 1e9)
        assert out is st_

    def test_empty_below_lambda_min(self):
        st_ = random_state(M=20, seed=6)
        out = truncate(st_, st_.grid.lambdas[0] / 2)
        assert combined(out, 0.0) == 0.0
        assert sobolev_norm_sq(out.grid, out.u_hat, 1.0) == 0.0

    @pytest.mark.parametrize("cutoff", [0.0, -1.0, np.nan])
    def test_non_positive_cutoff_rejected(self, cutoff):
        with pytest.raises(ValueError, match="^cutoff must be positive$"):
            truncate(random_state(M=10, seed=1), cutoff)

    def test_norm_monotone_in_cutoff(self):
        st_ = random_state(M=60, seed=7)
        cuts = np.linspace(st_.grid.lambdas[0], st_.grid.lambdas[-1], 10)
        outs = [truncate(st_, float(c)) for c in cuts]
        vals = [sobolev_norm_sq(out.grid, out.u_hat, 1.0) for out in outs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_composition_is_min(self):
        st_ = random_state(M=30, seed=11)
        a, b = 20.0, 35.0
        lhs = truncate(truncate(st_, b), a)
        rhs = truncate(st_, min(a, b))
        assert np.array_equal(lhs.grid.lambdas, rhs.grid.lambdas)
        assert np.array_equal(lhs.u_hat, rhs.u_hat)
