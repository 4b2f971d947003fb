import tracemalloc
from importlib import resources

import numpy as np
import pytest
import scipy.integrate
from numpy.fft import irfft
from scipy.integrate import simpson
from scipy.signal import fftconvolve

from qbm import dynamics as qdyn
from qbm.bath import BathSpec
from qbm.cli import parse_config, preset_path, run
from qbm.dynamics import (
    Intervention,
    Potential,
    Schedule,
    _build_plan,
    _integrate_batch,
    _noise_buffer,
    integrate_deterministic,
    run_ensemble,
)
from qbm.noise import FrequencyGrid, linear_variance, mode_amplitudes
from qbm.errors import ConfigurationError
from qbm.observables import ObservableSeries, WeylObservable, estimate
from qbm.preparation import CatProject, GaussianLocalize, MomentumReset
from qbm.reference import (
    coherence_length,
    equilibrium_p2,
    exact_series,
    p2_quadrature,
    response,
    sigma_analytical,
    small_parameter,
)

FIG1 = BathSpec(gamma=np.pi / 2, eps=0.5, mass=1.0, hbar=1.0, kT=0.0)
FIG3 = BathSpec(gamma=np.pi / 2, eps=0.01, mass=1.0, hbar=1.0, kT=0.0)
NO_BATH = BathSpec(gamma=0.0, eps=0.5)


class TestResponse:
    def test_free_particle_without_bath(self):
        t = np.linspace(0.0, 10.0, 101)
        r = response(NO_BATH, Potential.free(), t, dt=0.01)
        assert np.abs(np.abs(r.amplitude()) - t / 2.0).max() < 1e-10

    def test_oscillator_without_bath(self):
        t = np.linspace(0.0, 10.0, 101)
        r = response(NO_BATH, Potential.harmonic(1.0), t, dt=0.002)
        assert np.abs(np.abs(r.amplitude()) - np.abs(np.sin(t)) / 2.0).max() < 1e-5

    def test_initial_data(self):
        dt = 0.01
        _, g, p = integrate_deterministic(FIG1, Potential.free(), dt, 10)
        assert g[0] == 0.0
        assert p[0] == 1.0

    def test_second_order_step_convergence(self):
        t = np.linspace(0.0, 4.0, 9)
        vals = {}
        for dt in (0.02, 0.01, 0.005):
            vals[dt] = response(FIG1, Potential.free(), t, dt=dt).values
        e1 = np.abs(vals[0.02] - vals[0.005]).max()
        e2 = np.abs(vals[0.01] - vals[0.005]).max()
        # Richardson: (4e - e/4-ish) ratio for halving consistent with order 2
        assert 3.0 <= e1 / e2 <= 6.0

    def test_nonlinear_potential_rejected(self):
        with pytest.raises(ConfigurationError):
            response(FIG1, Potential.polynomial([0, 0, 0, 1.0]),
                     np.linspace(0, 1, 5), dt=0.01)

    @pytest.mark.parametrize("t_grid", [[1.0, 0.5], [-0.5, 0.0, 0.5], [], [[0.0, 0.5]]],
                             ids=["decreasing", "negative", "empty", "two-dimensional"])
    def test_grid_not_nondecreasing_from_zero_rejected(self, t_grid):
        with pytest.raises(ConfigurationError, match="nondecreasing grid of times >= 0"):
            response(FIG1, Potential.free(), t_grid, dt=0.01)

    def test_repeated_time_read_twice(self):
        r = response(FIG1, Potential.free(), [0.0, 0.5, 0.5, 1.0], dt=0.01)
        assert r.values[1] == r.values[2] and r.values[0] == 0.0


class TestSigmaAnalytical:
    def _fake_d2(self, times, values):
        from qbm.observables import ObservableSeries
        return ObservableSeries(times=times, estimates=values,
                                standard_errors=np.zeros_like(values),
                                effective_sample_size=np.full(len(times), 10.0))

    def test_value_at_zero(self):
        t = np.linspace(0.0, 2.0, 21)
        r = response(NO_BATH, Potential.free(), t, dt=0.01)
        series = sigma_analytical(1.3, self._fake_d2(t, np.zeros_like(t)), r)
        assert series.estimates[0] == pytest.approx(1.3**2)

    def test_free_particle_spreading(self):
        # no bath, kT = 0: sigma^2 = sigma0^2 + (hbar t / (2 m sigma0))^2
        t = np.linspace(0.0, 5.0, 26)
        r = response(NO_BATH, Potential.free(), t, dt=0.005)
        sigma0 = 0.7
        series = sigma_analytical(sigma0, self._fake_d2(t, np.zeros_like(t)), r)
        expected = sigma0**2 + (t / (2.0 * sigma0)) ** 2
        assert np.abs(series.estimates - expected).max() < 1e-8

    def test_terms_nonnegative_and_grid_checked(self):
        t = np.linspace(0.0, 2.0, 21)
        r = response(FIG1, Potential.free(), t, dt=0.01)
        with pytest.raises(ConfigurationError):
            sigma_analytical(1.0, self._fake_d2(t[:-1], np.zeros(len(t) - 1)), r)


class TestP2Quadrature:
    def test_zero_at_origin(self):
        assert p2_quadrature(FIG3, 0.0) == 0.0

    def test_short_time_quadratic_growth(self):
        # ratio p2(t)/t^2 constant within 2% on [eps/100, eps/10], with the
        # stated prefactor m gamma hbar / (pi eps^2)
        pref = FIG3.mass * FIG3.gamma * FIG3.hbar / (np.pi * FIG3.eps**2)
        ts = np.geomspace(FIG3.eps / 100, FIG3.eps / 10, 7)
        ratios = np.array([p2_quadrature(FIG3, t) / t**2 for t in ts])
        assert np.abs(ratios / pref - 1.0).max() <= 0.02

    def test_intermediate_time_logarithmic_growth(self):
        # fit p2 = S ln(t/eps) on eps << t << 1/gamma; S must match
        # (2 m gamma hbar / pi)(1 - gamma t_mid) within 10%
        ts = np.geomspace(3 * FIG3.eps, 15 * FIG3.eps, 12)
        vals = np.array([p2_quadrature(FIG3, t) for t in ts])
        ln = np.log(ts / FIG3.eps)
        slope = np.sum(ln * vals) / np.sum(ln * ln)
        t_mid = np.sqrt(3 * 15) * FIG3.eps
        predicted = (2.0 * FIG3.mass * FIG3.gamma * FIG3.hbar / np.pi) \
            * (1.0 - FIG3.gamma * t_mid)
        assert abs(slope / predicted - 1.0) <= 0.10

    def test_nondecreasing_through_the_initial_rise(self):
        # the curve overshoots near 0.4/gamma and then relaxes toward its
        # equilibrium value, so monotonicity holds on the rise, not on all
        # of [0, 1/gamma]
        ts = np.linspace(0.0, 0.35 / FIG3.gamma, 40)
        vals = np.array([p2_quadrature(FIG3, t) for t in ts])
        assert np.all(np.diff(vals) > -1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            p2_quadrature(FIG3, -0.1)


    def test_vectorised_over_times(self):
        ts = np.array([0.0, 0.01, 0.3, 2.0])
        vals = p2_quadrature(FIG3, ts)
        assert vals.shape == ts.shape
        assert list(vals) == [p2_quadrature(FIG3, t) for t in ts]
        assert isinstance(p2_quadrature(FIG3, 0.3), float)
        assert vals[0] == 0.0

    def test_no_bath_gives_zero(self):
        assert p2_quadrature(NO_BATH, 1.0) == 0.0
        assert list(p2_quadrature(NO_BATH, [0.0, 1.0])) == [0.0, 0.0]


def p2_quadpack(spec, t):
    """Oracle: the wide-band integral of p2_quadrature by adaptive quadrature."""
    if t == 0.0 or spec.gamma == 0.0:
        return 0.0
    g = spec.gamma

    def integrand(w):
        return w * np.exp(-spec.eps * w) / (w**2 + g**2)

    opts = dict(epsabs=1e-12, epsrel=1e-10, limit=400)
    flat, _ = scipy.integrate.quad(integrand, 0.0, spec.omega_max, **opts)
    osc, _ = scipy.integrate.quad(integrand, 0.0, spec.omega_max, weight="cos",
                                  wvar=t, **opts)
    return spec.mass * g * spec.hbar / np.pi * (
        (1.0 + np.exp(-2.0 * g * t)) * flat - 2.0 * np.exp(-g * t) * osc)


class TestP2ClosedForm:
    @pytest.mark.parametrize("gamma", [0.05, 0.3, np.pi / 2, 5.0, 40.0])
    def test_matches_quadpack_oracle(self, gamma):
        for eps in (1e-3, 0.01, 0.1, 0.5, 2.0):
            for hbar, mass in ((1.0, 1.0), (2.0, 3.0)):
                spec = BathSpec(gamma=gamma, eps=eps, mass=mass, hbar=hbar)
                ts = np.geomspace(eps / 100, 100 / gamma, 40)
                oracle = np.array([p2_quadpack(spec, t) for t in ts])
                err = np.abs(p2_quadrature(spec, ts) - oracle).max()
                assert err <= 1e-13 * np.abs(oracle).max(), (eps, hbar, mass)

    @pytest.mark.parametrize("gamma_t", [700.0, 710.0, 1e6])
    def test_finite_at_long_times(self, gamma_t):
        # E1 overflows near gamma t = 709, where e^{-gamma t} underflows: the
        # curve is its flat equilibrium value, to QUADPACK's requested 1e-10
        t = gamma_t / FIG3.gamma
        value = p2_quadrature(FIG3, t)
        assert np.isfinite(value)
        assert value == pytest.approx(equilibrium_p2(FIG3), rel=1e-10)
        assert value == pytest.approx(p2_quadpack(FIG3, t), rel=1e-10)


class TestCoherenceLength:
    def test_definition(self):
        lam, p2 = coherence_length(FIG1)
        assert lam == pytest.approx(FIG1.hbar / np.sqrt(p2))

    def test_monotone_decrease_with_cutoff(self):
        lams = [coherence_length(BathSpec(gamma=np.pi / 2, eps=e, kT=0.0))[0]
                for e in (0.5, 0.25, 0.1, 0.05)]
        assert all(b < a for a, b in zip(lams, lams[1:]))

    def test_matches_long_time_momentum_variance(self):
        _, p2 = coherence_length(FIG3)
        late = p2_quadrature(FIG3, 100.0 / FIG3.gamma)
        assert abs(late - p2) / p2 <= 0.01

    def test_gamma_zero_degenerate(self):
        lam, p2 = coherence_length(NO_BATH)
        assert p2 == 0.0 and lam == np.inf


class TestSmallParameter:
    def test_quadratic_potentials_are_exact(self):
        assert small_parameter(FIG3, Potential.harmonic(1.0)) == (0.0, True)
        assert small_parameter(FIG3, Potential.free()) == (0.0, True)

    def test_quartic_against_derivative_oracle(self):
        pot = Potential.polynomial([0.0, 0.0, 0.0, 0.0, 0.25])  # x^4/4
        val, exact = small_parameter(FIG3, pot, x_range=(0.5, 2.0))
        assert not exact
        # oracle: high-order finite differences of V on the probed range
        x = np.linspace(0.5, 2.0, 501)
        h = 1e-3
        v = lambda y: 0.25 * y**4
        d1 = (v(x + h) - v(x - h)) / (2 * h)
        d3 = (v(x + 2 * h) - 2 * v(x + h) + 2 * v(x - h) - v(x - 2 * h)) / (2 * h**3)
        length = np.sqrt(np.min(np.abs(d1 / d3)))
        lam, _ = coherence_length(FIG3)
        assert val == pytest.approx(lam / length, rel=1e-3)

    def test_polynomial_requires_range(self):
        with pytest.raises(ConfigurationError):
            small_parameter(FIG3, Potential.polynomial([0, 0, 0, 1.0]))

    def test_degenerate_cubic_free_region(self):
        # quadratic polynomial: V''' = 0 everywhere -> exact regime flag
        pot = Potential.polynomial([0.0, 0.0, 0.5])
        assert small_parameter(FIG3, pot, x_range=(0.1, 1.0)) == (0.0, True)


class TestAgainstExactResponse:
    def test_wide_band_formula_approaches_exact_response_curve(self):
        # The quadrature treats the response as Markovian (e^{-gamma t}); the
        # exact curve convolves the integrator's own response with the
        # zero-point correlation.  At gamma*eps ~ 0.016 they agree to ~5%,
        # and the residual shrinks with eps.
        def exact_curve(spec, t, dt):
            n = int(round(t / dt))
            _, _, k = integrate_deterministic(spec, Potential.free(), dt, n)
            u = dt * np.arange(n + 1)
            lag = np.concatenate([-u[::-1][:-1], u])
            c = (spec.mass * spec.gamma * spec.hbar / np.pi) \
                * (spec.eps**2 - lag**2) / (spec.eps**2 + lag**2) ** 2
            inner = fftconvolve(k, c, mode="valid") * dt
            return float(np.sum(k * inner)) * dt

        t_probe = 0.3
        gaps = []
        for eps in (0.02, 0.005):
            spec = BathSpec(gamma=np.pi / 2, eps=eps, kT=0.0)
            exact = exact_curve(spec, t_probe, eps / 50)
            approx = p2_quadrature(spec, t_probe)
            gaps.append(abs(exact - approx) / exact)
        assert gaps[0] < 0.10
        assert gaps[1] < 0.6 * gaps[0]

    def test_monte_carlo_matches_exact_response_curve(self):
        # strong validation at the fig. 3 bath: MC vs the exact-response
        # convolution at a single probe time, 3 standard errors
        spec = FIG3
        sched = Schedule(t_eq=0.5, t_end=0.3, dt=5e-4, record_stride=20,
                         interventions=((0.0, MomentumReset(0.0)),))
        ens = run_ensemble(spec, Potential.free(), sched, 3000, "quantum", 321)
        series = estimate(ens, WeylObservable.p2())

        dt = 1e-4
        n = int(round(0.3 / dt))
        _, _, k = integrate_deterministic(spec, Potential.free(), dt, n)
        u = dt * np.arange(n + 1)
        lag = np.concatenate([-u[::-1][:-1], u])
        c = (spec.mass * spec.gamma * spec.hbar / np.pi) \
            * (spec.eps**2 - lag**2) / (spec.eps**2 + lag**2) ** 2
        inner = fftconvolve(k, c, mode="valid") * dt
        exact = float(np.sum(k * inner)) * dt

        i = np.argmin(np.abs(series.times - 0.3))
        assert abs(series.estimates[i] - exact) <= 3.0 * series.standard_errors[i]


class FixedNormals:
    """A stream whose standard normals are given in advance, in draw order."""

    def __init__(self, values):
        self.values = list(values)

    def standard_normal(self):
        return self.values.pop(0)


def node_covariance(spec, sched, statistics):
    """The synthesiser's covariance of the noise nodes of ``sched``."""
    n = sched.n_steps
    if statistics == "white":
        return 2.0 * spec.mass * spec.gamma * spec.kT / sched.dt * np.eye(n + 1)
    grid = FrequencyGrid.for_times(spec, sched.dt, n + 1)
    lag_cov = grid.fft_length * irfft(mode_amplitudes(spec, grid, statistics) ** 2,
                                      n=grid.fft_length)
    return lag_cov[np.abs(np.arange(n + 1)[:, None] - np.arange(n + 1))]


def identity_batch_moment(spec, pot, sched, statistics, observable):
    """Oracle: <x^2> or <p^2> through the schedule's preparations, as
    mean^2 + diag(D C D^T) + the squared coefficients of the normals.

    The stepper runs one column per input.  Column 0 runs without noise and
    with every standard normal the translate gaussians draw at 0, and gives
    the mean; column j + 1 adds a unit impulse at noise node j, and each
    column past those a unit normal.  Their records minus the mean are the
    weights D of xi_j and the coefficients of the normals.
    """
    n = sched.n_steps
    n_normals = 2 * sum(isinstance(iv.preparation, GaussianLocalize)
                        for iv in sched.interventions)
    cols = n + 2 + n_normals
    impulses = _noise_buffer(n, cols)
    impulses[:, 1:n + 2] = np.eye(n + 1)
    normals = [np.zeros(n_normals)] * (n + 2) + list(np.eye(n_normals))
    start = np.zeros(cols)
    x, p, _ = _integrate_batch(spec, pot, sched.dt, n, impulses, start, start,
                               sched.record_nodes(), intervention_plan=_build_plan(sched),
                               rngs=[FixedNormals(z) for z in normals])
    rec = x if observable == "x2" else p
    d = rec[1:] - rec[0]
    noise = d[:n + 1].T
    cov = node_covariance(spec, sched, statistics)
    return (rec[0] ** 2 + np.einsum("ij,jk,ik->i", noise, cov, noise)
            + np.sum(d[n + 1:] ** 2, axis=0))


def identity_batch_msd(spec, pot, sched, statistics):
    """Oracle: d^2 = diag(D C D^T), D the noise weights of x(t) - x(0)."""
    n = sched.n_steps
    impulses = _noise_buffer(n, n + 1)
    impulses[:, :n + 1] = np.eye(n + 1)
    x, _, _ = _integrate_batch(spec, pot, sched.dt, n, impulses, np.zeros(n + 1),
                               np.zeros(n + 1), sched.record_nodes())
    d = (x - x[:, :1]).T  # record_nodes()[0] is t = 0
    cov = node_covariance(spec, sched, statistics)
    return np.einsum("ij,jk,ik->i", d, cov, d)


WARM = BathSpec(gamma=np.pi / 2, eps=0.5, kT=0.5)
HARMONIC = Potential.harmonic(1.0)


def schedule(*preparations, **kw):
    """A short schedule with the preparations ``(time, preparation[, mode])``;
    t = 0.5 is a record node, t = 0.525 is not."""
    kw = dict(dict(t_eq=2.0, t_end=1.5, dt=0.025, record_stride=2), **kw)
    return Schedule(**kw, interventions=tuple(Intervention(*prep) for prep in preparations))


def translate(time, sigma0=0.8):
    return (time, GaussianLocalize(sigma0), "translate")


# the cases only the affine forms cover: (potential, preparations)
NEW_CASES = {
    "x2-after-reset-harmonic": (HARMONIC, [(0.5, MomentumReset(0.7))], "x2"),
    "p2-after-gaussian": (Potential.free(), [translate(0.0)], "p2"),
    "gaussian-at-0.525": (Potential.free(), [translate(0.525)], "x2"),
    "two-resets-x2": (HARMONIC, [(0.5, MomentumReset(0.7)),
                                 (1.025, MomentumReset(-0.4))], "x2"),
    "two-resets-p2": (HARMONIC, [(0.5, MomentumReset(0.7)),
                                 (1.025, MomentumReset(-0.4))], "p2"),
    "reset-then-gaussian-x2": (Potential.free(), [(0.25, MomentumReset(1.2)),
                                                  translate(0.75)], "x2"),
    "reset-then-gaussian-p2": (Potential.free(), [(0.25, MomentumReset(1.2)),
                                                  translate(0.75)], "p2"),
}


class TestExactSeries:
    @pytest.mark.parametrize("observable", ["x2", "p2"])
    @pytest.mark.parametrize("preparations", [[], [(0.5, MomentumReset(0.7))]],
                             ids=["thermal", "reset"])
    @pytest.mark.parametrize("pot", [Potential.free(), HARMONIC], ids=["free", "harmonic"])
    @pytest.mark.parametrize("statistics", ["quantum", "classical", "white"])
    def test_matches_identity_batch_oracle(self, pot, statistics, preparations, observable):
        sched = schedule(*preparations)
        exact = exact_series(WARM, pot, sched, statistics, observable)
        oracle = identity_batch_moment(WARM, pot, sched, statistics, observable)
        assert np.array_equal(exact.times, sched.record_times())
        np.testing.assert_allclose(exact.estimates, oracle, rtol=1e-12, atol=0)
        assert np.all(exact.standard_errors == 0.0)
        assert np.all(np.isinf(exact.effective_sample_size))

    @pytest.mark.parametrize("statistics", ["quantum", "classical"])
    @pytest.mark.parametrize("case", NEW_CASES)
    def test_new_cases_match_identity_batch_oracle(self, case, statistics):
        pot, preparations, observable = NEW_CASES[case]
        sched = schedule(*preparations)
        exact = exact_series(WARM, pot, sched, statistics, observable).estimates
        oracle = identity_batch_moment(WARM, pot, sched, statistics, observable)
        np.testing.assert_allclose(exact, oracle, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("pot", [Potential.free(), HARMONIC], ids=["free", "harmonic"])
    @pytest.mark.parametrize("statistics", ["quantum", "classical", "white"])
    def test_reset_pins_p_and_leaves_the_thermal_past(self, pot, statistics):
        sched = schedule((0.5, MomentumReset(0.7)))
        exact = exact_series(WARM, pot, sched, statistics, "p2").estimates
        at = np.flatnonzero(sched.record_times() == 0.5)
        assert len(at) == 1 and exact[at[0]] == 0.7**2
        thermal = exact_series(WARM, pot, schedule(), statistics, "p2").estimates
        assert exact[:at[0]].tobytes() == thermal[:at[0]].tobytes()
        assert np.all(thermal[at[0]:] != exact[at[0]:])

    @pytest.mark.parametrize("statistics", ["quantum", "classical", "white"])
    def test_translate_gaussian_at_zero_is_the_sigma2_assembly(self, statistics):
        # sigma0^2 + <(x(t) - x(0))^2> + A(t)^2 / sigma0^2, from the
        # thermal displacement and the response on the record times
        sigma0 = 0.8
        sched = schedule(translate(0.0, sigma0))
        exact = exact_series(WARM, Potential.free(), sched, statistics, "x2")
        d2 = identity_batch_msd(WARM, Potential.free(), schedule(), statistics)
        d2 = ObservableSeries(times=sched.record_times(), estimates=d2,
                              standard_errors=np.zeros_like(d2),
                              effective_sample_size=np.full(len(d2), np.inf))
        resp = response(WARM, Potential.free(), sched.record_times(), dt=sched.dt)
        assembled = sigma_analytical(sigma0, d2, resp)
        np.testing.assert_allclose(exact.estimates, assembled.estimates, rtol=1e-12, atol=0)

    def test_float_record_stride_reads_as_its_integer(self):
        # 2.0 passes the integer check; the record nodes index the response
        as_float = schedule(record_stride=2.0)
        exact = exact_series(WARM, Potential.free(), as_float, "quantum", "x2")
        assert exact.estimates.tobytes() == exact_series(
            WARM, Potential.free(), schedule(), "quantum", "x2").estimates.tobytes()
        assert as_float.record_nodes().dtype.kind == "i"

    def test_run_and_references_share_one_solve(self, monkeypatch, tmp_path):
        # a fig1 run, its map and its sigma2 reference, take one
        # deterministic solve between them
        solves = []
        monkeypatch.setattr(qdyn, "integrate_deterministic",
                            lambda *args: solves.append(args) or integrate_deterministic(*args))
        qdyn.momentum_response.cache_clear()
        with resources.as_file(preset_path("fig1")) as path:
            cfg = parse_config(path, {"n_traj": 16})
        written = run(cfg, out_dir=str(tmp_path))
        assert len(solves) == 1
        assert str(tmp_path / "sigma2_reference.csv") in written
        # the p2 of the same run shares it too
        exact_series(cfg.bath_spec(), cfg.potential_obj(), cfg.schedule_obj(),
                     cfg.statistics, "p2")
        assert len(solves) == 1

    def test_reset_off_the_record_grid(self):
        sched = schedule((0.525, MomentumReset(-1.3)))
        assert 0.525 not in sched.record_times()
        for observable in ("x2", "p2"):
            exact = exact_series(WARM, HARMONIC, sched, "quantum", observable)
            oracle = identity_batch_moment(WARM, HARMONIC, sched, "quantum", observable)
            np.testing.assert_allclose(exact.estimates, oracle, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("pot, preparation, mode", [
        (Potential.free(), GaussianLocalize(1.0), "lab"),
        (Potential.free(), CatProject(0.6, 0.3), "translate"),
        (Potential.free(), CatProject(0.6, 0.3), "lab"),
        (HARMONIC, GaussianLocalize(1.0), "translate"),
        (Potential.polynomial([0, 0, 0.5, 0, 0.1]), MomentumReset(0.0), "lab"),
    ], ids=["gaussian-lab", "cat-translate", "cat-lab", "gaussian-harmonic",
            "reset-polynomial"])
    def test_what_the_forms_cannot_carry_rejected(self, pot, preparation, mode):
        sched = schedule((0.0, preparation, mode))
        with pytest.raises(ConfigurationError, match=r"^\[reference\] mode needs"):
            exact_series(WARM, pot, sched, "quantum", "x2")

    def test_unknown_observable_rejected(self):
        with pytest.raises(ConfigurationError, match="x2 or p2, not 'xp'"):
            exact_series(WARM, Potential.free(), schedule(), "quantum", "xp")

    @pytest.mark.parametrize("spec, pot, preparations, observable, statistics", [
        (FIG1, Potential.free(), [], "x2", "quantum"),
        (FIG1, Potential.free(), [(0.5, MomentumReset(0.7))], "p2", "quantum"),
        (WARM, HARMONIC, [], "x2", "classical"),
        (WARM, HARMONIC, [(0.5, MomentumReset(0.7))], "p2", "classical"),
        *((WARM, *NEW_CASES[case], "quantum") for case in NEW_CASES),
    ], ids=["fig1-free-thermal-x2", "fig1-free-reset-p2", "harmonic-classical-thermal-x2",
            "harmonic-classical-reset-p2", *NEW_CASES])
    def test_pooled_monte_carlo_agrees(self, spec, pot, preparations, observable,
                                       statistics):
        # a short schedule: the exact moments carry the same unfinished
        # equilibration as the simulation, so t_eq need not be long
        sched = schedule(*preparations, t_eq=4.0, t_end=2.0)
        exact = exact_series(spec, pot, sched, statistics, observable).estimates
        weyl = WeylObservable.x2() if observable == "x2" else WeylObservable.p2()
        parts = [estimate(run_ensemble(spec, pot, sched, 1024, statistics, seed), weyl)
                 for seed in (21, 22, 23)]
        est = np.mean([s.estimates for s in parts], axis=0)
        se = np.sqrt(np.sum([s.standard_errors**2 for s in parts], axis=0)) / len(parts)
        # at a reset every trajectory holds p_value: no spread to score, an
        # SE of roundoff only
        spread = se > 1e-12 * est
        np.testing.assert_allclose(est[~spread], exact[~spread], rtol=1e-12)
        z = (est[spread] - exact[spread]) / se[spread]
        # 40 correlated times: a 4-sigma bound for the largest |z|
        assert np.abs(z).max() <= 4.0


class TestReferenceBlocks:
    def test_blocks_keep_the_bits_of_one_call(self):
        # 161 records, three blocks, and two resets: the series equal one
        # linear_variance call on all the rows of the run's map, moved by
        # the resets' kicks as the map moves its samples
        sched = Schedule(t_eq=2.0, t_end=4.0, dt=0.025, interventions=(
            (0.5, MomentumReset(0.7)), (1.525, MomentumReset(-0.2))))
        grid = FrequencyGrid.for_times(WARM, sched.dt, sched.n_steps + 1)
        (x_rec, p_rec, iv), gx, gp, _, _ = qdyn.linear_rows(WARM, HARMONIC, sched)
        n_rec = len(sched.record_nodes())
        nodes = np.append(sched.record_nodes(), sched.intervention_nodes())
        x, p = np.concatenate((x_rec, iv[0])), np.concatenate((p_rec, iv[1]))
        mean = np.zeros((2, len(nodes)))
        for k, (iv, r) in enumerate(zip(sched.interventions, sched.intervention_nodes()),
                                    start=n_rec):
            after = nodes >= r
            kick = iv.preparation.p_value - mean[1, k]
            kick_row = -p[k]
            for form, m, g in ((x, mean[0], gx), (p, mean[1], gp)):
                lag = g[nodes[after] - r]
                form[after] += lag[:, None] * kick_row
                m[after] += lag * kick
        for observable, form, m in (("x2", x, mean[0]), ("p2", p, mean[1])):
            expected = linear_variance(WARM, grid, "quantum", form[:n_rec]) + m[:n_rec]**2
            assert exact_series(WARM, HARMONIC, sched, "quantum", observable) \
                .estimates.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("observable", ["x2", "p2"])
    def test_peak_memory_does_not_grow_with_the_records(self, observable, monkeypatch):
        # one record per step takes the stepper, whose run builds no rows: the
        # reference builds its forms a noise block at a time, keeps none, and
        # peaks alike at 401 and 801 records, where all the rows at once take
        # 5.4 and 10.8 MB and their transforms 8 and 16 MB more
        pot = Potential.free()
        built = []
        monkeypatch.setattr(qdyn, "linear_rows", lambda *args: built.append(args))
        for t_eq, t_end in ((22.0, 20.0), (2.0, 40.0)):
            sched = Schedule(t_eq=t_eq, t_end=t_end, dt=0.05,
                             interventions=((1.0, MomentumReset(0.5)),))
            assert sched.n_steps == 840 and not qdyn._takes_map(pot, sched)
            grid = FrequencyGrid.for_times(FIG1, sched.dt, sched.n_steps + 1)
            # the shared solve, as a run on this schedule leaves it
            qdyn.momentum_response(FIG1, pot, sched.dt, sched.n_steps)
            tracemalloc.start()
            try:
                series = exact_series(FIG1, pot, sched, "quantum", observable)
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            n_rec = len(sched.record_nodes())
            assert len(series.estimates) == n_rec
            assert peak < 4 * qdyn._NOISE_BLOCK * grid.fft_length * 8
            # what is left is the series itself
            assert current < 64 * n_rec
            # the reference never builds the map's rows
            assert built == []
