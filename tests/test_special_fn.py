"""Digamma/trigamma closed forms, the entropy summand, and kappa(alpha)."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

import idmbounds.special_fn as special_fn
from idmbounds import (
    EULER_GAMMA,
    EntropyKernel,
    digamma,
    h,
    h_fraction,
    h_prime,
    kappa_from_alpha,
    trigamma,
)
from _helpers import erf_by_quadrature, harmonic_exact, inverse_squares_exact


def _mp_digamma(x):
    return float(mpmath.digamma(mpmath.mpf(x)))


def _mp_trigamma(x):
    return float(mpmath.polygamma(1, mpmath.mpf(x)))


def _assert_close_to(got, expected, tol=2e-15):
    assert abs(got - expected) <= tol * max(1.0, abs(expected))


class TestDigamma:
    def test_at_one(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-15)

    def test_at_four_harmonic_closed_form(self):
        assert harmonic_exact(3) == Fraction(11, 6)
        assert digamma(4.0) == pytest.approx(-EULER_GAMMA + 11 / 6, abs=1e-14)

    def test_telescoped_difference(self):
        # Oracle first: the harmonic tail 1/4 + ... + 1/10 as an exact Fraction.
        tail = harmonic_exact(10) - harmonic_exact(3)
        assert tail == Fraction(2761, 2520)
        assert digamma(11.0) - digamma(4.0) == pytest.approx(float(tail), abs=1e-13)

    def test_integer_arguments_match_rational_closed_forms(self):
        for k in range(1, 120):
            expected = float(harmonic_exact(k - 1)) - EULER_GAMMA
            assert digamma(float(k)) == pytest.approx(expected, abs=1e-13)

    def test_noninteger_accuracy_against_mpmath(self):
        rng = np.random.default_rng(3)
        xs = np.concatenate(
            [rng.uniform(0.01, 2.0, 40), rng.uniform(2.0, 60.0, 40), rng.uniform(60, 500, 20)]
        )
        xs += 0.123456e-3
        got = digamma(xs)
        expected = np.array([float(mpmath.digamma(x)) for x in xs])
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_near_integer_snap(self):
        # Float round-trips like 0.3 * 10 land an ulp away from the integer.
        assert digamma(10 * 0.3 + 1.0) == pytest.approx(digamma(4.0), abs=1e-15)

    @pytest.mark.parametrize("x", [1.0 + 5e-10, 1.0 - 9e-10, 4.0 + 1e-9, 7.0 - 3e-10])
    def test_near_integer_against_mpmath(self, x):
        _assert_close_to(digamma(x), _mp_digamma(x))

    @pytest.mark.parametrize("x", [1e-300, 1e-10, 1e12, 1e15, 1e300])
    def test_extreme_argument_against_mpmath(self, x):
        _assert_close_to(digamma(x), _mp_digamma(x))

    def test_recurrence_reconstruction_of_psi_one(self):
        # psi(1) = psi(6) - sum_{x=1..5} 1/x, both sides from the package.
        reconstructed = digamma(6.0) - sum(1.0 / x for x in range(1, 6))
        assert reconstructed == pytest.approx(-EULER_GAMMA, abs=1e-15)
        assert digamma(1.0 + 1e-7) == pytest.approx(-EULER_GAMMA, abs=1e-6)

    def test_leading_term_dominates(self):
        for z in (1e4, 1e6, 1e8):
            assert abs(digamma(z + 1.0) - math.log(z)) <= 1.0 / z

    def test_rejects_poles(self):
        with pytest.raises(ValueError):
            digamma(0.0)
        with pytest.raises(ValueError):
            digamma(-2.5)
        with pytest.raises(ValueError):
            digamma(np.array([1.0, -1.0]))

    def test_vectorized_shape(self):
        out = digamma(np.array([[1.0, 2.0], [3.0, 4.5]]))
        assert out.shape == (2, 2)
        assert out[0, 0] == pytest.approx(-EULER_GAMMA, abs=1e-15)


@pytest.mark.parametrize("fn", [digamma, trigamma])
def test_elementwise_independence(fn):
    # Each array element equals the scalar call bit for bit, whatever its
    # neighbours; h(1) = 0 exactly relies on it.
    xs = np.random.default_rng(11).uniform(0.01, 60.0, 2000)
    got = fn(xs)
    assert all(got[i] == fn(float(x)) for i, x in enumerate(xs))


@pytest.mark.parametrize("fn", [digamma, trigamma])
def test_shift_grid_blocks(fn, monkeypatch):
    # Arrays longer than one row block give the same values as one block.
    xs = np.random.default_rng(12).uniform(1e-3, 12.0, 500)
    whole = fn(xs)
    monkeypatch.setattr(special_fn, "_BLOCK_ROWS", 7)
    np.testing.assert_array_equal(fn(xs), whole)


class TestTrigamma:
    def test_at_one(self):
        assert trigamma(1.0) == pytest.approx(math.pi**2 / 6, abs=1e-15)

    def test_at_four(self):
        assert inverse_squares_exact(3) == Fraction(49, 36)
        assert trigamma(4.0) == pytest.approx(math.pi**2 / 6 - 49 / 36, abs=1e-14)

    def test_at_eight_partial_sum_oracle(self):
        partial = inverse_squares_exact(7)
        assert partial == Fraction(266681, 176400)
        assert trigamma(8.0) == pytest.approx(math.pi**2 / 6 - float(partial), abs=1e-14)

    def test_integer_arguments_match_rational_closed_forms(self):
        for k in range(1, 120):
            expected = math.pi**2 / 6 - float(inverse_squares_exact(k - 1))
            assert trigamma(float(k)) == pytest.approx(expected, abs=1e-13)

    def test_noninteger_accuracy_against_mpmath(self):
        rng = np.random.default_rng(4)
        xs = rng.uniform(0.05, 120.0, 80) + 0.7654321e-3
        got = trigamma(xs)
        expected = np.array([float(mpmath.polygamma(1, x)) for x in xs])
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_rejects_poles(self):
        with pytest.raises(ValueError):
            trigamma(0.0)

    @pytest.mark.parametrize("x", [1.0 + 5e-10, 1.0 - 9e-10, 5.0 + 2e-10])
    def test_near_integer_against_mpmath(self, x):
        _assert_close_to(trigamma(x), _mp_trigamma(x))

    @pytest.mark.parametrize("x", [1e-5, 1e12, 1e15])
    def test_extreme_argument_against_mpmath(self, x):
        _assert_close_to(trigamma(x), _mp_trigamma(x))


class TestEntropySummand:
    def test_worked_example_values(self):
        k = EntropyKernel(10.0)
        for numer, expected in (
            (3, Fraction(2761, 8400)),
            (4, Fraction(2131, 6300)),
            (6, Fraction(1207, 4200)),
            (7, Fraction(847, 3600)),
        ):
            assert h_fraction(numer, 10) == expected
            assert h(numer / 10, k) == pytest.approx(float(expected), abs=1e-13)

    def test_endpoints_vanish_exactly(self):
        for total in (2.0, 10.0, 97.5):
            k = EntropyKernel(total)
            assert h(0.0, k) == 0.0
            assert h(1.0, k) == 0.0

    def test_rejects_out_of_range(self):
        k = EntropyKernel(10.0)
        with pytest.raises(ValueError):
            h(-0.1, k)
        with pytest.raises(ValueError):
            h(1.1, k)

    def test_derivative_worked_examples(self):
        k = EntropyKernel(10.0)
        assert h_prime(0.3, k) == pytest.approx(
            float(Fraction(13051, 2520)) - math.pi**2 / 2, abs=1e-12
        )
        assert h_prime(0.7, k) == pytest.approx(
            float(Fraction(91717, 8400)) - 7 * math.pi**2 / 6, abs=1e-12
        )

    def test_derivative_against_central_differences(self):
        k = EntropyKernel(10.0)
        eps = 1e-4
        fd = (h(0.5 + eps, k) - h(0.5 - eps, k)) / (2 * eps)
        assert h_prime(0.5, k) == pytest.approx(fd, abs=1e-6)

    def test_strict_concavity_by_second_differences(self):
        rng = np.random.default_rng(5)
        eps = 1e-4
        for _ in range(1000):
            total = float(rng.integers(2, 101))
            u = float(rng.uniform(0.01, 0.99))
            k = EntropyKernel(total)
            second = h(u + eps, k) - 2 * h(u, k) + h(u - eps, k)
            assert second < 0

    def test_kernel_caches_psi_of_total(self):
        k = EntropyKernel(12.5)
        assert k.psi_total == digamma(13.5)
        assert h(1.0, k) == 0.0
        assert h(np.array([0.2, 1.0]), k)[1] == 0.0

    def test_large_sample_limit_is_plugin_entropy(self):
        for total in (1e3, 1e4):
            k = EntropyKernel(total)
            u = np.linspace(0.1, 0.9, 17)
            gap = np.abs(h(u, k) + u * np.log(u))
            assert np.all(gap <= 1.0 / total)


class TestKappa:
    def test_two_sigma_level(self):
        assert kappa_from_alpha(0.9545) == pytest.approx(2.000, abs=1e-3)

    def test_small_alpha_limit(self):
        assert kappa_from_alpha(1e-8) < 1e-6

    def test_one_sigma_level_against_quadrature_oracle(self):
        # Oracle: standard-normal central mass from numeric integration.
        density = lambda x: math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
        alpha_at_one, err = quad(density, -1.0, 1.0, epsabs=1e-13)
        assert err < 1e-12
        assert alpha_at_one == pytest.approx(0.6827, abs=2e-5)
        assert kappa_from_alpha(0.6827) == pytest.approx(1.000, abs=1e-3)

    def test_monotone_in_alpha(self):
        alphas = np.linspace(0.05, 0.99, 20)
        kappas = [kappa_from_alpha(a) for a in alphas]
        assert np.all(np.diff(kappas) > 0)

    def test_rejects_out_of_range(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                kappa_from_alpha(bad)

    def test_inverts_quadrature_erf(self):
        # Oracle: the package's kappa pushed back through an independent erf.
        for alpha in np.linspace(0.05, 0.999, 20):
            kappa = kappa_from_alpha(float(alpha))
            assert erf_by_quadrature(kappa / math.sqrt(2.0)) == pytest.approx(alpha, abs=1e-12)

    def test_erf_against_stdlib(self):
        for y in np.linspace(0.0, 5.5, 23):
            assert erf_by_quadrature(float(y)) == pytest.approx(math.erf(y), abs=1e-12)
        assert erf_by_quadrature(-1.0) == pytest.approx(math.erf(-1.0), abs=1e-12)
