import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, simpson

from qbm import noise as qnoise
from qbm.bath import BathSpec, noise_psd
from qbm.dynamics import (
    Intervention,
    InterventionResult,
    Potential,
    Schedule,
    Trajectory,
    _build_plan,
    _integrate_batch,
    _traj_stream,
    integrate,
    integrate_deterministic,
    run_ensemble,
)
from qbm.errors import ConfigurationError, IntegrationFailure
from qbm.preparation import CatProject, GaussianLocalize, Identity

FIG1 = BathSpec(gamma=np.pi / 2, eps=0.5, mass=1.0, hbar=1.0, kT=0.0)
NO_BATH = BathSpec(gamma=0.0, eps=0.5)
FREE = Potential.free()


def zero_path(sched):
    n = sched.n_steps + 1
    return qnoise.NoisePath(seed=("zero",), times=sched.dt * np.arange(n),
                            values=np.zeros(n))


def reset_to(x0, p0):
    def cb(t, rbar, pbar, rng):
        return InterventionResult(r0=x0, p0=p0, weight=1.0)
    return cb


class TestPotential:
    def test_forms_and_forces(self):
        x = np.array([-1.0, 0.5, 2.0])
        assert np.all(FREE.force(x, 1.0) == 0.0)
        h = Potential.harmonic(2.0)
        assert np.allclose(h.force(x, 3.0), -3.0 * 4.0 * x)
        p = Potential.polynomial([0.0, 0.0, 0.5])  # V = x^2/2
        assert np.allclose(p.force(x, 1.0), -x)

    def test_degree_guard(self):
        with pytest.raises(ConfigurationError):
            Potential.polynomial(np.ones(10))
        with pytest.raises(ConfigurationError):
            Potential.polynomial([0.0, np.inf])

    def test_derivatives(self):
        p = Potential.polynomial([0.0, 0.0, 0.0, 0.0, 0.25])  # x^4/4
        x = np.array([0.5, 2.0])
        assert np.allclose(p.derivative(x, 1.0, order=1), x**3)
        assert np.allclose(p.derivative(x, 1.0, order=3), 6.0 * x)

    def test_translation_invariance_flag(self):
        assert FREE.translation_invariant
        assert not Potential.harmonic(1.0).translation_invariant


class TestSchedule:
    def test_basic_invariants(self):
        with pytest.raises(ConfigurationError):
            Schedule(t_eq=0.0, t_end=1.0, dt=0.1)
        with pytest.raises(ConfigurationError):
            Schedule(t_eq=1.0, t_end=1.0, dt=0.1, record_stride=0)
        with pytest.raises(ConfigurationError):
            Schedule(t_eq=1.05, t_end=1.0, dt=0.1)  # dt does not divide t_eq
        for t_end in (1.02, 1.03):  # would round to 1.0 and 1.05
            with pytest.raises(ConfigurationError, match="t_end"):
                Schedule(t_eq=1.0, t_end=t_end, dt=0.05)

    def test_intervention_ordering_and_range(self):
        iv = lambda t: Intervention(t, Identity())
        with pytest.raises(ConfigurationError):
            Schedule(t_eq=1.0, t_end=1.0, dt=0.1, interventions=(iv(0.5), iv(0.2)))
        with pytest.raises(ConfigurationError):
            Schedule(t_eq=1.0, t_end=1.0, dt=0.1, interventions=(iv(1.0),))
        with pytest.raises(ConfigurationError):
            Schedule(t_eq=1.0, t_end=1.0, dt=0.1, interventions=(iv(0.55),))

    def test_dt_resolution_checks(self):
        sched = Schedule(t_eq=1.0, t_end=1.0, dt=0.1)
        with pytest.raises(ConfigurationError):
            sched.validate_against(FIG1)  # dt > eps/10
        fine = Schedule(t_eq=1.0, t_end=1.0, dt=0.05)
        fine.validate_against(FIG1)
        with pytest.raises(ConfigurationError):
            fine.validate_against(FIG1, Potential.harmonic(10.0))

    def test_record_grid(self):
        sched = Schedule(t_eq=1.0, t_end=1.0, dt=0.05, record_stride=4)
        t = sched.record_times()
        assert t[0] == pytest.approx(0.0)
        assert np.allclose(np.diff(t), 0.2)


class TestIntegrate:
    def test_no_forces_constant_position(self):
        sched = Schedule(t_eq=1.0, t_end=5.0, dt=0.025,
                         interventions=((0.0, None),))
        traj = integrate(NO_BATH, FREE, sched, zero_path(sched),
                         prep_sampler=reset_to(1.0, 0.0))
        assert np.all(traj.x == 1.0)
        assert traj.weight == 1.0

    def test_harmonic_oscillator_cosine(self):
        dt = 5e-4
        sched = Schedule(t_eq=10 * dt, t_end=10.0, dt=dt,
                         interventions=((0.0, None),))
        traj = integrate(NO_BATH, Potential.harmonic(1.0), sched, zero_path(sched),
                         prep_sampler=reset_to(1.0, 0.0))
        assert np.abs(traj.x - np.cos(traj.times)).max() <= 1e-6

    def test_fixed_noise_gle_matches_volterra_reference(self):
        # independent oracle for m v' = -int_0^t M(t-s) v(s) ds: integrate once
        # in time to the second-kind Volterra equation
        #   v(t) = v0 - (1/m) int_0^t Phi(t-u) v(u) du,
        # Phi(tau) = int_0^tau M = (2 m gamma / pi) arctan(tau/eps),
        # and solve it by trapezoidal product integration on a 16x finer grid.
        dt0, t_end = 0.025, 2.0
        fine = dt0 / 16
        n_ref = int(round(t_end / fine))
        phi = (2.0 * FIG1.mass * FIG1.gamma / np.pi) * np.arctan(
            fine * np.arange(n_ref + 1) / FIG1.eps)
        v = np.empty(n_ref + 1)
        v[0] = 1.0
        for n in range(1, n_ref + 1):
            acc = 0.5 * phi[n] * v[0] + np.dot(phi[1:n][::-1], v[1:n])
            v[n] = 1.0 - (fine / FIG1.mass) * acc  # Phi(0) = 0: explicit
        x_ref = np.concatenate([[0.0], np.cumsum((v[1:] + v[:-1]) / 2.0) * fine])

        errs = []
        for mult in (1, 2):
            dt = dt0 / mult
            n = int(round(t_end / dt))
            _, x, _ = integrate_deterministic(FIG1, FREE, dt, n, x0=0.0, p0=1.0)
            errs.append(np.abs(x - x_ref[:: 16 // mult]).max())
        assert errs[0] < 2e-4
        # halving dt shrinks the error consistently with second order
        assert 3.0 <= errs[0] / errs[1] <= 5.5

    def test_step_halving_second_order_on_fixed_noise(self):
        fine_dt = 0.025 / 4
        n_fine = int(round(4.0 / fine_dt))
        grid = qnoise.FrequencyGrid.for_times(FIG1, fine_dt, n_fine + 1)
        path = qnoise.synthesize(FIG1, grid, qnoise.QUANTUM, _traj_stream(42, 0, 0))
        x_at = {}
        for mult in (1, 2, 4):
            dt = 0.025 / mult
            sched = Schedule(t_eq=2.0, t_end=2.0, dt=dt)
            sub = qnoise.NoisePath(seed=("sub", mult),
                                   times=dt * np.arange(n_fine // (4 // mult) + 1),
                                   values=path.values[:: 4 // mult])
            x_at[mult] = integrate(FIG1, FREE, sched, sub).x[::mult]
        e12 = np.abs(x_at[1] - x_at[2][: len(x_at[1])]).max()
        e24 = np.abs(x_at[2][: len(x_at[1])] - x_at[4][: len(x_at[1])]).max()
        assert 3.0 <= e12 / e24 <= 5.5

    def test_short_noise_path_rejected(self):
        sched = Schedule(t_eq=1.0, t_end=1.0, dt=0.05)
        short = qnoise.NoisePath(seed=(), times=np.arange(5.0), values=np.zeros(5))
        with pytest.raises(ConfigurationError):
            integrate(FIG1, FREE, sched, short)

    def test_divergence_raises_integration_failure(self):
        # inverted quartic: runaway force, state overflows to non-finite
        pot = Potential.polynomial([0.0, 0.0, 0.0, 0.0, -5.0])
        sched = Schedule(t_eq=0.05, t_end=10.0, dt=0.05, relax_dt_check=True,
                         interventions=((0.0, None),))
        with pytest.raises(IntegrationFailure):
            integrate(NO_BATH, pot, sched, zero_path(sched),
                      prep_sampler=reset_to(1.0, 1.0))


def exact_equilibrium_p2(spec, n_grid=3000):
    """Oracle: FDT integral with the exact one-sided kernel transform.

    gamma_hat(w) = gamma e^{-eps w} + i (2 gamma/pi) integral_0^inf
    eps sin(w t)/(eps^2+t^2) dt; <p^2> = (1/pi) int S(w) / |gamma_hat - i w|^2.
    """
    ws = np.linspace(1e-8, 50 / spec.eps, n_grid)
    g_im = np.empty_like(ws)
    for i, w in enumerate(ws):
        val, _ = quad(lambda t: spec.eps / (spec.eps**2 + t**2), 0.0,
                      500 * spec.eps, weight="sin", wvar=w, limit=400)
        g_im[i] = 2.0 * spec.gamma / np.pi * val
    g_re = spec.gamma * np.exp(-spec.eps * ws)
    s = noise_psd(spec, ws)
    return simpson(s / (g_re**2 + (ws - g_im) ** 2), x=ws) / np.pi


# translate-mode cat preparation: signed weights, preparation draws per stream
CAT_SCHED = Schedule(t_eq=1.0, t_end=0.5, dt=0.05, interventions=(
    Intervention(0.0, CatProject(1.0, 0.5), mode="translate"),))
N_SPLIT = 7


class TestRunEnsemble:
    def test_single_trajectory_equals_direct_integrate(self):
        prep = GaussianLocalize(1.0)
        sched = Schedule(t_eq=2.0, t_end=1.0, dt=0.05,
                         interventions=(Intervention(0.0, prep),))
        ens = run_ensemble(FIG1, FREE, sched, 1, "quantum", 99, stream_tag=0)

        rng = _traj_stream(99, 0, 0)
        grid = qnoise.FrequencyGrid.for_times(FIG1, sched.dt, sched.n_steps + 1)
        path = qnoise.synthesize(FIG1, grid, qnoise.QUANTUM, rng,
                                 seed_record=(99, 0, 0))
        traj = integrate(FIG1, FREE, sched, path, rng=rng)
        assert np.array_equal(ens.x[0], traj.x)
        assert np.array_equal(ens.p[0], traj.p)
        assert ens.weights[0] == traj.weight

    def test_equilibrated_mean_position_vanishes(self):
        sched = Schedule(t_eq=10.0, t_end=0.0, dt=0.05)
        ens = run_ensemble(FIG1, FREE, sched, 10000, "quantum", 5)
        x0 = ens.x[:, 0]
        se = x0.std(ddof=1) / np.sqrt(len(x0))
        assert abs(x0.mean()) <= 3.0 * se

    def test_equilibrated_momentum_variance_matches_fdt_oracle(self):
        # The wide-band (Markovian-response) long-time formula underestimates
        # <p^2> by a factor ~2.6 at gamma*eps = pi/4, so the oracle keeps the
        # exact kernel transform in the susceptibility.
        sched = Schedule(t_eq=25.0, t_end=0.0, dt=0.025)
        ens = run_ensemble(FIG1, FREE, sched, 4000, "quantum", 1234)
        p2 = ens.p[:, 0] ** 2
        se = p2.std(ddof=1) / np.sqrt(len(p2))
        target = exact_equilibrium_p2(FIG1)
        assert abs(p2.mean() - target) <= 3.0 * se

    def test_abort_on_mass_divergence(self):
        pot = Potential.polynomial([0.0, 0.0, 0.0, 0.0, -5.0])
        sched = Schedule(t_eq=0.05, t_end=10.0, dt=0.05, relax_dt_check=True,
                         interventions=(
                             Intervention(0.0, GaussianLocalize(1.0)),))
        with pytest.raises(IntegrationFailure):
            run_ensemble(BathSpec(gamma=0.5, eps=0.5, kT=1.0), pot, sched,
                         32, "classical", 11)

    def test_abort_carries_first_nonfinite_time(self):
        # a decoupled bath and the same kick for every trajectory: all of them
        # diverge at the time integrate reports for one
        class Kick:
            def sample(self, rbar, pbar, rng):
                return 1.0, 1.0, 1.0

        pot = Potential.polynomial([0.0, 0.0, 0.0, 0.0, -5.0])
        sched = Schedule(t_eq=0.05, t_end=10.0, dt=0.05, relax_dt_check=True,
                         interventions=(Intervention(0.0, Kick()),))
        with pytest.raises(IntegrationFailure) as one:
            integrate(NO_BATH, pot, sched, zero_path(sched),
                      prep_sampler=reset_to(1.0, 1.0))
        with pytest.raises(IntegrationFailure) as ensemble:
            run_ensemble(NO_BATH, pot, sched, 8, "quantum", 3)
        assert ensemble.value.trajectory_ids == tuple(range(8))
        assert 0.0 < one.value.time < sched.t_end
        assert ensemble.value.time == one.value.time

    def test_requires_positive_count(self):
        sched = Schedule(t_eq=1.0, t_end=0.0, dt=0.05)
        with pytest.raises(ConfigurationError):
            run_ensemble(FIG1, FREE, sched, 0, "quantum", 1)

    def test_worker_count_does_not_change_results(self):
        sched = Schedule(t_eq=2.0, t_end=1.0, dt=0.05)
        a = run_ensemble(FIG1, FREE, sched, 64, "quantum", 17, batch_size=16,
                         workers=1)
        b = run_ensemble(FIG1, FREE, sched, 64, "quantum", 17, batch_size=16,
                         workers=2)
        assert a.x.tobytes() == b.x.tobytes()
        assert a.p.tobytes() == b.p.tobytes()

    @settings(max_examples=10, deadline=None)
    @given(batch_size=st.integers(1, N_SPLIT))
    def test_batch_split_does_not_change_signed_ensemble(self, batch_size):
        whole = run_ensemble(FIG1, FREE, CAT_SCHED, N_SPLIT, "quantum", 31,
                             batch_size=N_SPLIT)
        split = run_ensemble(FIG1, FREE, CAT_SCHED, N_SPLIT, "quantum", 31,
                             batch_size=batch_size)
        assert (whole.weights < 0).any() and (whole.weights > 0).any()
        assert split.x.tobytes() == whole.x.tobytes()
        assert split.p.tobytes() == whole.p.tobytes()
        assert split.weights.tobytes() == whole.weights.tobytes()


class TestTranslateMode:
    @settings(max_examples=10, deadline=None)
    @given(shift=st.floats(-50.0, 50.0), seed=st.integers(0, 2**32 - 1))
    def test_records_from_t_k_on_do_not_depend_on_a_shift_of_x0(self, shift, seed):
        # free potential: the translate-mode preparation fixes the origin, so
        # from t_k on the run forgets where the particle started
        sched = Schedule(t_eq=1.0, t_end=0.5, dt=0.05, interventions=(
            Intervention(0.2, CatProject(1.0, 0.5), mode="translate"),))
        grid = qnoise.FrequencyGrid.for_times(FIG1, sched.dt, sched.n_steps + 1)
        n = 4

        def records(x0):
            rngs = [_traj_stream(seed, 0, i) for i in range(n)]
            xi = qnoise.synthesize_batch(FIG1, grid, "quantum", rngs)
            return _integrate_batch(FIG1, FREE, sched.dt, sched.n_steps, xi,
                                    np.full(n, x0), np.zeros(n), sched.record_nodes(),
                                    intervention_plan=_build_plan(sched, FREE),
                                    rngs=rngs)[:3]

        x_a, p_a, w_a = records(0.0)
        x_b, p_b, w_b = records(shift)
        after = sched.record_times() >= 0.2 - 1e-12
        assert x_b[:, after].tobytes() == x_a[:, after].tobytes()
        assert p_b.tobytes() == p_a.tobytes()
        assert w_b.tobytes() == w_a.tobytes()
        # before t_k the whole path is translated by the shift
        assert np.allclose(x_b[:, ~after] - shift, x_a[:, ~after], rtol=0.0, atol=1e-12)


class TestDynamicsInvariants:
    def test_markovian_classical_limit_equipartition(self):
        # eps at the smallest grid-resolvable cutoff (6.4 dt) stands in for
        # the eps -> 0 limit; classical statistics must equipartition.
        dt = 0.01
        spec = BathSpec(gamma=1.0, eps=6.4 * dt, mass=1.0, kT=1.0)
        sched = Schedule(t_eq=12.0, t_end=0.0, dt=dt, relax_dt_check=True)
        ens = run_ensemble(spec, FREE, sched, 3000, "classical", 3)
        p2 = ens.p[:, 0] ** 2
        se = p2.std(ddof=1) / np.sqrt(len(p2))
        assert abs(p2.mean() - spec.mass * spec.kT) <= 3.0 * se

    def test_weight_neutrality_of_identity_intervention(self):
        sched_plain = Schedule(t_eq=2.0, t_end=1.0, dt=0.05)
        sched_iv = Schedule(t_eq=2.0, t_end=1.0, dt=0.05,
                            interventions=(Intervention(0.0, Identity()),))
        a = run_ensemble(FIG1, FREE, sched_plain, 128, "quantum", 23)
        b = run_ensemble(FIG1, FREE, sched_iv, 128, "quantum", 23)
        assert np.all(b.weights == 1.0)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.p, b.p)

    def test_equilibration_span_insensitivity(self):
        # doubling t_eq from 10/gamma to 20/gamma moves equilibrated moments
        # by less than one combined standard error
        spec = BathSpec(gamma=1.0, eps=0.25, mass=1.0, kT=0.5)
        stats = []
        for t_eq in (10.0, 20.0):
            sched = Schedule(t_eq=t_eq, t_end=0.0, dt=0.0125)
            ens = run_ensemble(spec, FREE, sched, 2500, "quantum", 6)
            p2 = ens.p[:, 0] ** 2
            stats.append((p2.mean(), p2.std(ddof=1) / np.sqrt(len(p2))))
        (m1, s1), (m2, s2) = stats
        assert abs(m1 - m2) <= np.hypot(s1, s2)


class TestTrajectoryRecords:
    def test_jump_log_carries_time_and_size(self):
        sched = Schedule(t_eq=1.0, t_end=1.0, dt=0.05,
                         interventions=((0.5, None),))
        traj = integrate(NO_BATH, FREE, sched, zero_path(sched),
                         prep_sampler=reset_to(2.0, 0.0))
        assert len(traj.jump_log) == 1
        t_k, dx = traj.jump_log[0]
        assert t_k == pytest.approx(0.5)
        assert dx == pytest.approx(2.0)

    def test_jump_boundary_force_matches_kernel(self):
        # after a pure position jump at t=0, a quiet trajectory feels the
        # boundary force -M(t - t_k) dx; at short times (gamma*t << 1) the
        # momentum is its impulse integral -dx * int_0^t M(u) du, with the
        # friction back-reaction on the induced motion entering at O((gamma t)^2)
        sched = Schedule(t_eq=1.0, t_end=2.0, dt=0.0125,
                         interventions=((0.0, None),))
        dx = 1.5
        traj = integrate(FIG1, FREE, sched, zero_path(sched),
                         prep_sampler=reset_to(dx, 0.0))
        t_probe = 0.1
        predicted = -dx * (2.0 * FIG1.mass * FIG1.gamma / np.pi) * np.arctan(
            t_probe / FIG1.eps)
        k = int(round(t_probe / 0.0125))
        assert traj.p[k] == pytest.approx(predicted, rel=0.05)

    def test_position_jump_acts_only_after_its_time(self):
        t_k, dx = 0.5, 1.5
        sched = Schedule(t_eq=1.0, t_end=2.0, dt=0.0125,
                         interventions=((t_k, None),))
        grid = qnoise.FrequencyGrid.for_times(FIG1, sched.dt, sched.n_steps + 1)
        path = qnoise.synthesize(FIG1, grid, qnoise.QUANTUM, _traj_stream(8, 0, 0))

        def shift(step):
            def cb(t, rbar, pbar, rng):
                return InterventionResult(r0=rbar + step, p0=pbar, weight=1.0)
            return cb

        plain = integrate(FIG1, FREE, sched, path, prep_sampler=shift(0.0))
        jumped = integrate(FIG1, FREE, sched, path, prep_sampler=shift(dx))
        k = int(round(t_k / sched.dt))
        assert plain.x[:k].tobytes() == jumped.x[:k].tobytes()
        assert plain.p[:k].tobytes() == jumped.p[:k].tobytes()
        assert jumped.p[k] == plain.p[k]
        assert jumped.x[k] - plain.x[k] == pytest.approx(dx, rel=1e-12)
        # from t_k on the boundary force -M(t - t_k) dx pulls the momentum back
        assert np.all(jumped.p[k + 1:k + 41] < plain.p[k + 1:k + 41])
