import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad, simpson

from qbm.bath import (
    BathSpec,
    classical_correlation,
    memory_kernel,
    noise_psd,
    quantum_correlation,
    spectral_density,
    thermal_spectrum,
)
from qbm.errors import DomainError

FIG1 = BathSpec(gamma=np.pi / 2, eps=0.5, mass=1.0, hbar=1.0, kT=0.0)


def zero_t_correlation(spec, lag):
    """Closed form of the zero-point correlation for the ohmic-exponential bath."""
    e2, l2 = spec.eps**2, lag**2
    return spec.mass * spec.gamma * spec.hbar / np.pi * (e2 - l2) / (e2 + l2) ** 2


def quad_correlation(spec, lag):
    """Oracle: (1/pi) int_0^omega_max noise_psd(w) cos(w lag) dw by adaptive quad.

    The range is split at 40 kT/hbar so the thermal low-frequency feature
    (width kT/hbar, possibly far below the cutoff) is resolved, and the
    absolute tolerance is relative to the zero-temperature scale
    m gamma hbar / (pi eps^2) <= C(0).  Returns (value, error estimate).
    """
    scale = spec.mass * spec.gamma * spec.hbar / (np.pi * spec.eps**2)
    edges = [0.0, spec.omega_max]
    if 0.0 < 40.0 * spec.kT / spec.hbar < spec.omega_max:
        edges.insert(1, 40.0 * spec.kT / spec.hbar)
    oscillation = {} if lag == 0.0 else {"weight": "cos", "wvar": abs(lag)}
    value = error = 0.0
    for lo, hi in zip(edges, edges[1:]):
        v, e = quad(lambda w: noise_psd(spec, w), lo, hi, epsabs=1e-12 * np.pi * scale,
                    epsrel=1e-12, limit=400, **oscillation)
        value, error = value + v, error + e
    return value / np.pi, error / np.pi


class TestBathSpec:
    def test_invariants(self):
        with pytest.raises(DomainError):
            BathSpec(gamma=-1.0, eps=0.5)
        with pytest.raises(DomainError):
            BathSpec(gamma=1.0, eps=0.0)
        with pytest.raises(DomainError):
            BathSpec(gamma=1.0, eps=0.5, kT=-0.1)

    def test_gamma_zero_is_degenerate_but_allowed(self):
        spec = BathSpec(gamma=0.0, eps=0.5)
        assert spectral_density(spec, 3.0) == 0.0


class TestSpectralDensity:
    def test_zero_frequency(self):
        assert spectral_density(FIG1, 0.0) == 0.0

    def test_closed_form_point(self):
        assert spectral_density(FIG1, 2.0) == pytest.approx(np.pi * np.exp(-1.0), rel=1e-12)

    def test_small_omega_slope(self):
        h = 1e-7
        slope = spectral_density(FIG1, h) / h
        assert slope == pytest.approx(FIG1.gamma * FIG1.mass, rel=1e-6)

    def test_negative_omega_rejected(self):
        with pytest.raises(DomainError):
            spectral_density(FIG1, -0.1)

    @given(st.floats(0.0, 200.0))
    @settings(max_examples=50, deadline=None)
    def test_nonnegative(self, omega):
        assert spectral_density(FIG1, omega) >= 0.0


class TestMemoryKernel:
    def test_peak_and_halfwidth(self):
        assert memory_kernel(FIG1, 0.0) == pytest.approx(2.0)
        assert memory_kernel(FIG1, FIG1.eps) == pytest.approx(1.0)

    def test_matches_cosine_transform_of_spectral_density(self):
        # quadrature oracle: M(t) = (2/pi) int J(w)/w cos(wt) dw
        for t in np.linspace(0.0, 20 * FIG1.eps, 9):
            val, _ = quad(lambda w: spectral_density(FIG1, w) / w,
                          1e-12, FIG1.omega_max, weight="cos", wvar=t,
                          epsabs=1e-12, limit=400)
            assert 2.0 / np.pi * val == pytest.approx(memory_kernel(FIG1, t), abs=1e-8)

    def test_total_mass(self):
        mass, _ = quad(lambda t: memory_kernel(FIG1, t), 0.0, np.inf, epsabs=0.0,
                       epsrel=1e-12)
        assert mass == pytest.approx(FIG1.mass * FIG1.gamma, rel=1e-12)

    @given(st.floats(-40.0, 40.0))
    @settings(max_examples=100, deadline=None)
    def test_even(self, t):
        assert memory_kernel(FIG1, t) == memory_kernel(FIG1, -t)

    @given(st.floats(0.0, 40.0), st.floats(0.01, 5.0))
    @settings(max_examples=100, deadline=None)
    def test_monotone_decreasing_in_abs_t(self, t, dt):
        assert memory_kernel(FIG1, t + dt) < memory_kernel(FIG1, t) + 1e-300


class TestThermalSpectrum:
    def test_zero_temperature_limit(self):
        assert thermal_spectrum(FIG1, 0.3) == 1.0
        assert thermal_spectrum(FIG1, 200.0) == 1.0

    def test_coth_at_unit_argument(self):
        spec = BathSpec(gamma=1.0, eps=1.0, kT=0.5)  # hbar w/(2kT) = w
        assert thermal_spectrum(spec, 1.0) == pytest.approx(1.0 / np.tanh(1.0), rel=1e-12)

    def test_classical_weight_recovered_at_high_temperature(self):
        spec = BathSpec(gamma=1.0, eps=1.0, kT=50.0)
        w = 1e-3
        assert thermal_spectrum(spec, w) * spec.hbar * w == pytest.approx(
            2.0 * spec.kT, rel=1e-6)

    def test_series_branch_matches_direct_form_at_threshold(self):
        spec = BathSpec(gamma=1.0, eps=1.0, kT=1.0)
        x_thr = 1e-4  # series threshold in the coth argument
        for f in (0.999, 1.001):  # straddle the branch switch
            x = x_thr * f
            w = 2.0 * spec.kT / spec.hbar * x
            assert thermal_spectrum(spec, w) == pytest.approx(
                1.0 / np.tanh(x), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            thermal_spectrum(FIG1, 0.0)


class TestNoisePsd:
    def test_zero_frequency_zero_temperature(self):
        assert noise_psd(FIG1, 0.0) == 0.0

    def test_zero_frequency_finite_temperature(self):
        # analytic omega -> 0 limit: the classical white-noise strength
        spec = BathSpec(gamma=np.pi / 2, eps=0.5, kT=1.0)
        assert noise_psd(spec, 0.0) == pytest.approx(2.0 * spec.kT * spec.gamma * spec.mass)
        assert noise_psd(spec, 1e-9) == pytest.approx(noise_psd(spec, 0.0), rel=1e-6)

    def test_zero_temperature_form(self):
        # J * hbar at kT=0: gamma m hbar w e^{-eps w}
        w = 1.7
        assert noise_psd(FIG1, w) == pytest.approx(
            FIG1.gamma * FIG1.mass * FIG1.hbar * w * np.exp(-FIG1.eps * w), rel=1e-12)

    def test_integral_equals_lag_zero_correlation(self):
        val, _ = quad(lambda w: noise_psd(FIG1, w), 0.0, FIG1.omega_max,
                      epsabs=1e-12, limit=400)
        assert val / np.pi == pytest.approx(2.0, rel=1e-9)
        assert quantum_correlation(FIG1, 0.0) == pytest.approx(2.0, rel=1e-9)

    @given(st.floats(0.0, 100.0), st.floats(0.0, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_nonnegative(self, omega, kT):
        spec = BathSpec(gamma=np.pi / 2, eps=0.5, kT=kT)
        assert noise_psd(spec, omega) >= 0.0


class TestQuantumCorrelation:
    def test_zero_temperature_closed_form(self):
        for lag in [0.0, 0.1, FIG1.eps, 1.0, 3.0]:
            assert quantum_correlation(FIG1, lag) == pytest.approx(
                zero_t_correlation(FIG1, lag), abs=1e-9)

    def test_lag_zero_value(self):
        assert quantum_correlation(FIG1, 0.0) == pytest.approx(
            FIG1.mass * FIG1.gamma * FIG1.hbar / (np.pi * FIG1.eps**2), rel=1e-9)

    def test_zero_crossing_at_eps(self):
        assert abs(quantum_correlation(FIG1, FIG1.eps)) < 1e-10

    def test_finite_temperature_against_simpson_oracle(self):
        # independent fixed-grid quadrature at two resolutions
        spec = BathSpec(gamma=np.pi / 2, eps=0.5, kT=1.0)
        for lag in [0.0, 0.2, 0.5, 1.5]:
            for n in (20001, 80001):
                w = np.linspace(1e-9, spec.omega_max, n)
                ref = simpson(noise_psd(spec, w) * np.cos(w * lag), x=w) / np.pi
                if n == 80001:
                    assert quantum_correlation(spec, lag) == pytest.approx(
                        ref, rel=1e-6, abs=1e-10)

    def test_even_in_lag(self):
        spec = BathSpec(gamma=np.pi / 2, eps=0.5, kT=0.7)
        for lag in [0.3, 1.1]:
            assert quantum_correlation(spec, lag) == pytest.approx(
                quantum_correlation(spec, -lag), rel=1e-12)

    @pytest.mark.parametrize("eps", [0.01, 0.5])
    @pytest.mark.parametrize("kT", [1e-3, 0.2, 1.0, 100.0])
    def test_matsubara_series_matches_quadrature_oracle(self, kT, eps):
        # a-priori bound of the series: 1.5e-14 |C(0)|; stated bound 1e-12 |C(0)|
        spec = BathSpec(gamma=np.pi / 2, eps=eps, kT=kT)
        lags = eps * np.linspace(0.0, 20.0, 41)
        series = quantum_correlation(spec, lags)
        c0 = abs(series[0])
        for lag, value in zip(lags, series):
            ref, err = quad_correlation(spec, lag)
            assert abs(value - ref) <= 1e-12 * c0 + err
            assert quantum_correlation(spec, lag) == value

    @given(st.one_of(st.floats(5e-324, 1e-250), st.floats(1e3, 1e300)),
           st.floats(0.0, 50.0))
    @settings(max_examples=100, deadline=None)
    def test_finite_at_float_range_temperatures(self, kT, lag_in_eps):
        spec = BathSpec(gamma=np.pi / 2, eps=0.01, kT=kT)
        lag = lag_in_eps * spec.eps
        value = quantum_correlation(spec, lag)
        assert np.isfinite(value)
        if kT < 1.0:
            # the thermal terms are below 1e-500 of C(0): the zero-point form
            c0 = zero_t_correlation(spec, 0.0)
            assert abs(value - zero_t_correlation(spec, lag)) <= 1e-12 * c0
        else:
            # hbar / (kT eps) <= 0.1: within (hbar/kT eps)^2/6 of kT M(lag)
            c0 = classical_correlation(spec, 0.0)
            assert abs(value - classical_correlation(spec, lag)) <= 2e-3 * c0

    def test_high_temperature_consistency(self):
        # hbar/(2 kT eps) <= 0.01: quantum and classical correlations agree
        spec = BathSpec(gamma=np.pi / 2, eps=0.5, kT=100.0)
        c0 = classical_correlation(spec, 0.0)
        for lag in np.linspace(0.0, 5 * spec.eps, 6):
            dq = quantum_correlation(spec, lag) - classical_correlation(spec, lag)
            assert abs(dq) / c0 <= 0.02


class TestClassicalCorrelation:
    def test_zero_temperature_vanishes(self):
        assert classical_correlation(FIG1, 0.0) == 0.0
        assert classical_correlation(FIG1, 1.0) == 0.0

    def test_lag_zero(self):
        spec = BathSpec(gamma=np.pi / 2, eps=0.5, kT=1.0)
        assert classical_correlation(spec, 0.0) == pytest.approx(2.0)

    def test_total_lag_integral_is_white_noise_strength(self):
        spec = BathSpec(gamma=np.pi / 2, eps=0.5, kT=1.3)
        val, _ = quad(lambda u: classical_correlation(spec, u), -np.inf, np.inf,
                      limit=400)
        assert val == pytest.approx(2.0 * spec.mass * spec.gamma * spec.kT, rel=1e-7)
