import gc
import re
import sys
import threading
import tracemalloc
import weakref
from importlib import resources
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, simpson

from qbm import cli as qcli
from qbm import dynamics as qdyn
from qbm import noise as qnoise
from qbm.bath import BathSpec, memory_kernel, noise_psd
from qbm.dynamics import (
    _CONV_BLOCK,
    _HISTORY_TILE,
    Intervention,
    Potential,
    Schedule,
    Trajectory,
    TrajectoryEnsemble,
    _batch_runner,
    _build_plan,
    _integrate_batch,
    _kernel_mid,
    _noise_buffer,
    _traj_stream,
    _traj_streams,
    integrate,
    integrate_deterministic,
    run_ensemble,
)
from qbm.errors import ConfigurationError, IntegrationFailure
from qbm.preparation import CatProject, GaussianLocalize, MomentumReset

FIG1 = BathSpec(gamma=np.pi / 2, eps=0.5, mass=1.0, hbar=1.0, kT=0.0)
NO_BATH = BathSpec(gamma=0.0, eps=0.5)
FREE = Potential.free()
# a polynomial potential: the stepper runs it, in one batch buffer per process
WELL = Potential.polynomial([0.0, 0.0, 0.5])
HARMONIC = Potential.harmonic(1.0)


def batches_of(size):
    """Within the block, a run integrates ``size`` trajectories at a time."""
    return mock.patch.object(qdyn, "_BATCH", size)


def zero_path(sched):
    n = sched.n_steps + 1
    return qnoise.NoisePath(seed=("zero",), times=sched.dt * np.arange(n),
                            values=np.zeros(n))


def noise_buffer(xi, tile=_HISTORY_TILE):
    """The (B, n_times) noise rows in a time-major buffer ``tile``-padded wide."""
    buf = np.zeros((xi.shape[1], -(-xi.shape[0] // tile) * tile))
    buf[:, :xi.shape[0]] = xi.T
    return buf


class ResetTo:
    """Moves the particle to (x0, p0) with weight 1."""

    def __init__(self, x0, p0):
        self.x0, self.p0 = x0, p0

    def sample(self, rbar, pbar, rng):
        return self.x0, self.p0, 1.0


class Shift:
    """Moves the particle by ``step``, keeping its momentum, with weight 1."""

    def __init__(self, step):
        self.step = step

    def sample(self, rbar, pbar, rng):
        return rbar + self.step, pbar, 1.0


def run_batch(spec, pot, sched, statistics, master_seed, stream_tag, ids):
    """The pieces a run's ``_batch_runner`` books for ``ids``, gathered into one
    :class:`TrajectoryEnsemble`; they must come contiguous, in id order."""
    n_rec = len(sched.record_nodes())
    x, p, w = np.empty((len(ids), n_rec)), np.empty((len(ids), n_rec)), np.empty(len(ids))
    end = 0

    def book(first, px, pp, pw):
        nonlocal end
        assert first == ids[end]
        x[end:end + len(pw)], p[end:end + len(pw)], w[end:end + len(pw)] = px, pp, pw
        end += len(pw)

    _batch_runner(spec, pot, sched, statistics, master_seed, stream_tag)(ids, book)
    assert end == len(ids)
    return TrajectoryEnsemble(sched.record_times(), x, p, w)


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

    @pytest.mark.parametrize("pot", [FREE, Potential.harmonic(1.3),
                                     Potential.polynomial([0.1, -0.4, 0.5, 0.0, 0.1])],
                             ids=["free", "harmonic", "polynomial"])
    def test_force_is_minus_the_first_derivative_bit_for_bit(self, pot):
        x = np.array([-1.7, -0.0, 0.0, 0.3, 2.5])
        assert pot.force(x, 1.7).tobytes() == (-pot.derivative(x, 1.7)).tobytes()
        if pot.form == "harmonic":
            # the closed form the integrator has always used, to the bit
            assert pot.force(x, 1.7).tobytes() == (-1.7 * 1.3**2 * x).tobytes()

    def test_harmonic_derivative_orders(self):
        h, x = Potential.harmonic(2.0), np.array([-1.0, 0.5])
        assert np.array_equal(h.derivative(x, 3.0, order=1), 12.0 * x)
        assert np.array_equal(h.derivative(x, 3.0, order=2), [12.0, 12.0])
        assert np.array_equal(h.derivative(x, 3.0, order=3), [0.0, 0.0])

    @pytest.mark.parametrize("pot, mass, v", [
        (FREE, 1.7, lambda x: 0.0 * x),
        (Potential.harmonic(2.0), 3.0, lambda x: 0.5 * 3.0 * 4.0 * x**2),
        (Potential.polynomial([0.1, -0.4, 0.5]), 1.0, lambda x: 0.1 - 0.4 * x + 0.5 * x**2),
    ], ids=["free", "harmonic", "polynomial"])
    def test_order_zero_is_the_potential(self, pot, mass, v):
        x = np.array([-1.0, 0.0, 0.5, 2.0])
        assert np.allclose(pot.derivative(x, mass, order=0), v(x), rtol=1e-15, atol=0)

    def test_harmonic_equals_its_polynomial_at_every_order(self):
        x = np.array([-1.0, 0.5, 2.0])
        h, p = Potential.harmonic(1.0), Potential.polynomial([0.0, 0.0, 0.5])
        for order in range(4):
            assert np.array_equal(h.derivative(x, 1.0, order), p.derivative(x, 1.0, order))

    def test_polynomial_derivatives_formed_once(self, monkeypatch):
        # every order past the degree is the zero polynomial
        p = Potential.polynomial([0.0, 1.0, 0.0, 2.0])  # x + 2x^3
        monkeypatch.setattr(np.polynomial.polynomial, "polyder", None)
        x = np.array([-1.0, 0.5])
        assert np.array_equal(p.force(x, 1.0), -(1.0 + 6.0 * x**2))
        assert np.array_equal(p.derivative(x, 1.0, order=3), [12.0, 12.0])
        assert np.array_equal(p.derivative(x, 1.0, order=7), [0.0, 0.0])


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

    @pytest.mark.parametrize("t_eq, t_end, dt, stride", [
        (25.0, 10.0, 0.025, 2), (60.0, 20.0, 0.05, 4), (4.0, 2.0, 0.005, 1)])
    def test_record_times_are_whole_multiples_of_dt(self, t_eq, t_end, dt, stride):
        # fig1's, classical_limit's and a fine schedule: subtracting t_eq
        # from the node times would leave up to 7e-15 of its roundoff
        sched = Schedule(t_eq=t_eq, t_end=t_end, dt=dt, record_stride=stride)
        times = sched.record_times()
        assert times.tobytes() == (dt * (stride * np.arange(len(times)))).tobytes()
        assert times[0] == 0.0 and times[1] == stride * dt

    def test_intervention_ordering_and_range(self):
        iv = lambda t: Intervention(t, ResetTo(0.0, 0.0))
        with pytest.raises(ConfigurationError):
            Schedule(t_eq=1.0, t_end=1.0, dt=0.1, interventions=(iv(0.5), iv(0.2)))
        with pytest.raises(ConfigurationError):
            Schedule(t_eq=1.0, t_end=1.0, dt=0.1, interventions=(iv(1.0),))
        with pytest.raises(ConfigurationError):
            Schedule(t_eq=1.0, t_end=1.0, dt=0.1, interventions=(iv(0.55),))

    def test_dt_resolution_checks(self):
        sched = Schedule(t_eq=1.0, t_end=1.0, dt=0.1)
        with pytest.raises(ConfigurationError):
            sched.validate_against(FIG1, FREE)  # dt > eps/10
        fine = Schedule(t_eq=1.0, t_end=1.0, dt=0.05)
        fine.validate_against(FIG1, FREE)
        with pytest.raises(ConfigurationError):
            fine.validate_against(FIG1, Potential.harmonic(10.0))

    @pytest.mark.parametrize("pot", [Potential.harmonic(1.0),
                                     Potential.polynomial([0.0, 0.0, 0.5, 0.0, 0.1])],
                             ids=["harmonic", "polynomial"])
    def test_translate_mode_needs_the_free_potential(self, pot):
        sched = Schedule(t_eq=1.0, t_end=1.0, dt=0.05, interventions=(
            Intervention(0.0, CatProject(1.0, 0.5), mode="translate"),))
        sched.validate_against(FIG1, FREE)
        with pytest.raises(ConfigurationError, match="translate-mode"):
            sched.validate_against(FIG1, pot)
        # rejected before any batch is integrated or handed on
        batches = []
        with pytest.raises(ConfigurationError, match="translate-mode"):
            run_ensemble(FIG1, pot, sched, 4, "quantum", 1, consumer=batches.append)
        assert batches == []

    def test_translate_mode_without_a_covariant_sampler_rejected_when_built(self):
        # before any schedule holds it, so before any noise is synthesised
        form = ResetTo(1.0, 0.0)
        Intervention(0.0, form)  # lab mode samples the form itself
        with pytest.raises(ConfigurationError, match="no translation-covariant sampler"):
            Intervention(0.0, form, mode="translate")
        with pytest.raises(ConfigurationError, match="unknown intervention mode"):
            Intervention(0.0, form, mode="sideways")

    def test_intervention_is_exported(self):
        import qbm

        assert qbm.Intervention is Intervention

    def test_momentum_reset_is_lab_only(self):
        # it keeps the position, so a translate mode would repeat the lab draw
        Intervention(0.0, MomentumReset(0.4))
        with pytest.raises(ConfigurationError,
                           match="MomentumReset has no translation-covariant sampler"):
            Intervention(0.0, MomentumReset(0.4), mode="translate")

    def test_record_grid(self):
        sched = Schedule(t_eq=1.0, t_end=1.0, dt=0.05, record_stride=4)
        t = sched.record_times()
        assert t[0] == pytest.approx(0.0)
        assert np.allclose(np.diff(t), 0.2)


class TestIntegrate:
    def test_no_forces_constant_position(self):
        sched = Schedule(t_eq=1.0, t_end=5.0, dt=0.025,
                         interventions=((0.0, ResetTo(1.0, 0.0)),))
        traj = integrate(NO_BATH, FREE, sched, zero_path(sched))
        assert np.all(traj.x == 1.0)
        assert traj.weight == 1.0

    def test_harmonic_oscillator_cosine(self):
        dt = 5e-4
        sched = Schedule(t_eq=10 * dt, t_end=10.0, dt=dt,
                         interventions=((0.0, ResetTo(1.0, 0.0)),))
        traj = integrate(NO_BATH, Potential.harmonic(1.0), sched, zero_path(sched))
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
            _, x, _ = integrate_deterministic(FIG1, FREE, dt, n)
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

    def test_noise_path_at_another_step_rejected(self):
        sched = Schedule(t_eq=1.0, t_end=1.0, dt=0.05)
        n = sched.n_steps + 1
        coarse = qnoise.NoisePath(seed=(), times=0.1 * np.arange(n), values=np.zeros(n))
        with pytest.raises(ConfigurationError, match="steps by 0.1, run steps by dt = 0.05"):
            integrate(FIG1, FREE, sched, coarse)

    def test_divergence_raises_integration_failure(self):
        # inverted quartic: runaway force, state overflows to non-finite
        pot = Potential.polynomial([0.0, 0.0, 0.0, 0.0, -5.0])
        sched = Schedule(t_eq=0.05, t_end=10.0, dt=0.05,
                         interventions=((0.0, ResetTo(1.0, 1.0)),))
        with pytest.raises(IntegrationFailure):
            integrate(NO_BATH, pot, sched, zero_path(sched))


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
        path = qnoise.synthesize(FIG1, grid, qnoise.QUANTUM, rng)
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
        sched = Schedule(t_eq=0.05, t_end=10.0, dt=0.05,
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
        sched = Schedule(t_eq=0.05, t_end=10.0, dt=0.05,
                         interventions=(Intervention(0.0, Kick()),))
        with pytest.raises(IntegrationFailure) as one:
            integrate(NO_BATH, pot, sched, zero_path(sched))
        with pytest.raises(IntegrationFailure) as ensemble:
            run_ensemble(NO_BATH, pot, sched, 8, "quantum", 3)
        assert ensemble.value.trajectory_ids == tuple(range(8))
        assert 0.0 < one.value.time < sched.t_end
        assert ensemble.value.time == one.value.time

    def test_nonfinite_weight_fails_integrate_as_it_fails_run_ensemble(self):
        # finite records, NaN weight: both paths flag the trajectory, with no
        # failure time, and name it by a Python int
        class NanWeight:
            def sample(self, rbar, pbar, rng):
                return rbar, pbar, np.nan

        sched = Schedule(t_eq=0.5, t_end=1.0, dt=0.05,
                         interventions=((0.0, NanWeight()),))
        assert sched.n_steps == 30
        with pytest.raises(IntegrationFailure) as one:
            integrate(FIG1, FREE, sched, zero_path(sched))
        with pytest.raises(IntegrationFailure, match="4 of 4 trajectories diverged") as ensemble:
            run_ensemble(FIG1, FREE, sched, 4, "quantum", 5)
        assert one.value.trajectory_ids == (0,)
        assert ensemble.value.trajectory_ids == (0, 1, 2, 3)
        assert one.value.time is None and ensemble.value.time is None
        ids = one.value.trajectory_ids + ensemble.value.trajectory_ids
        assert all(type(i) is int for i in ids)

    def test_requires_positive_count(self):
        sched = Schedule(t_eq=1.0, t_end=0.0, dt=0.05)
        with pytest.raises(ConfigurationError):
            run_ensemble(FIG1, FREE, sched, 0, "quantum", 1)

    @settings(max_examples=10, deadline=None)
    @given(batch_size=st.integers(1, N_SPLIT))
    def test_batch_split_does_not_change_signed_ensemble(self, batch_size):
        whole = run_ensemble(FIG1, FREE, CAT_SCHED, N_SPLIT, "quantum", 31)
        with batches_of(batch_size):
            split = run_ensemble(FIG1, FREE, CAT_SCHED, N_SPLIT, "quantum", 31)
        assert (whole.weights < 0).any() and (whole.weights > 0).any()
        assert split.x.tobytes() == whole.x.tobytes()
        assert split.p.tobytes() == whole.p.tobytes()
        assert split.weights.tobytes() == whole.weights.tobytes()

    def test_batch_split_does_not_change_a_long_history(self):
        # 480 steps: history products over more than 384 nodes, where the BLAS
        # kernels and thread splits chosen for a (nodes x batch) product would
        # otherwise change the last bits with the batch width
        sched = Schedule(t_eq=20.0, t_end=4.0, dt=0.05, record_stride=8)
        whole = run_ensemble(FIG1, FREE, sched, 130, "quantum", 37)
        for batch_size in (1, 17, 64, 100):
            with batches_of(batch_size):
                split = run_ensemble(FIG1, FREE, sched, 130, "quantum", 37)
            assert split.x.tobytes() == whole.x.tobytes()
            assert split.p.tobytes() == whole.p.tobytes()
        grid = qnoise.FrequencyGrid.for_times(FIG1, sched.dt, sched.n_steps + 1)
        path = qnoise.synthesize(FIG1, grid, qnoise.QUANTUM, _traj_stream(37, 0, 129))
        traj = integrate(FIG1, FREE, sched, path)
        assert traj.x.tobytes() == whole.x[129].tobytes()


class TestStreamedRun:
    def test_consumer_gets_every_batch_in_id_order(self):
        whole = run_ensemble(FIG1, FREE, CAT_SCHED, 40, "quantum", 23)
        got = []
        with batches_of(17):
            streamed = run_ensemble(FIG1, FREE, CAT_SCHED, 40, "quantum", 23,
                                    consumer=got.append)
        assert [b.n_traj for b in got] == [17, 17, 6]
        assert np.concatenate([b.x for b in got]).tobytes() == whole.x.tobytes()
        assert np.concatenate([b.p for b in got]).tobytes() == whole.p.tobytes()
        assert streamed.x is None and streamed.p is None
        assert streamed.weights.tobytes() == whole.weights.tobytes()
        assert streamed.times.tobytes() == whole.times.tobytes()
        assert streamed.failed_ids == () and all(b.failed_ids == () for b in got)

    def test_failures_are_booked_per_batch(self):
        # the polynomial runaway of test_abort_carries_first_nonfinite_time,
        # kicked in about one trajectory in 1000 at a time drawn per
        # trajectory: 2 of 2000 diverge, within the 0.1% bound, and streamed
        # in batches every id and the earliest time are reported
        class RareKick:
            def sample(self, rbar, pbar, rng):
                if rng.random() < 1e-3:
                    return rng.uniform(0.3, 1.5), 1.0, 1.0
                return rbar, pbar, 1.0

        pot = Potential.polynomial([0.0, 0.0, 0.0, 0.0, -5.0])
        sched = Schedule(t_eq=0.05, t_end=10.0, dt=0.05,
                         interventions=(Intervention(0.0, RareKick()),))
        stacked = run_ensemble(NO_BATH, pot, sched, 2000, "quantum", 2)
        seen = []
        with batches_of(700):
            streamed = run_ensemble(NO_BATH, pot, sched, 2000, "quantum", 2,
                                    consumer=seen.append)
        assert streamed.failed_ids == stacked.failed_ids == (1039, 1826)
        assert streamed.failure_time == stacked.failure_time
        # each batch names its own rows and its own first failure time
        assert [b.failed_ids for b in seen] == [(), (339,), (426,)]
        times = [b.failure_time for b in seen]
        assert times[0] is None
        assert streamed.failure_time == min(times[1:]) < max(times[1:])

    def test_run_stops_at_the_batch_that_crosses_the_bound(self):
        # every trajectory diverges: the first batch of 3 crosses the bound
        # of 0.008 failures, and no later batch is integrated or handed on
        class Kick:
            def sample(self, rbar, pbar, rng):
                return rng.uniform(0.3, 1.5), 1.0, 1.0

        pot = Potential.polynomial([0.0, 0.0, 0.0, 0.0, -5.0])
        sched = Schedule(t_eq=0.05, t_end=10.0, dt=0.05,
                         interventions=(Intervention(0.0, Kick()),))
        seen, shown = [], []
        with pytest.raises(IntegrationFailure,
                           match="^3 of the first 3 trajectories diverged; "
                                 "5 of 8 were not integrated$") as failure, batches_of(3):
            run_ensemble(NO_BATH, pot, sched, 8, "quantum", 3, consumer=seen.append,
                         progress=lambda *a: shown.append(a))
        assert [b.n_traj for b in seen] == [3]
        assert shown == [(3, 8)]
        assert failure.value.trajectory_ids == (0, 1, 2)
        assert failure.value.time == seen[0].failure_time

    def test_integrate_leaves_the_noise_path_intact(self):
        sched = Schedule(t_eq=2.0, t_end=1.0, dt=0.05)
        grid = qnoise.FrequencyGrid.for_times(FIG1, sched.dt, sched.n_steps + 1)
        path = qnoise.synthesize(FIG1, grid, qnoise.QUANTUM, _traj_stream(4, 0, 0))
        before = path.values.copy()
        first = integrate(FIG1, FREE, sched, path)
        assert path.values.tobytes() == before.tobytes()
        assert integrate(FIG1, FREE, sched, path).x.tobytes() == first.x.tobytes()

    def test_rows_are_freed_when_the_run_returns(self):
        # the map's x and p rows, 2.6 MB here, live as long as the run
        # that builds them: once it has returned, what it
        # leaves is its weights and the memoised solve, which is not traced
        sched = Schedule(t_eq=60.0, t_end=20.0, dt=0.05, record_stride=4)
        n_map = len(sched.record_nodes())
        assert qdyn._takes_map(FREE, sched) and n_map == 101
        qdyn.momentum_response(FIG1, FREE, sched.dt, sched.n_steps)
        tracemalloc.start()
        try:
            ens = run_ensemble(FIG1, FREE, sched, 256, "quantum", 1,
                               consumer=lambda piece: None)
            gc.collect()
            current = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert ens.n_traj == 256
        assert current < qdyn._map_rows(sched).nbytes

    def test_amplitudes_are_set_up_once_and_freed_on_return(self, monkeypatch):
        # a run of two batches, on two noise threads, builds the amplitudes
        # once per batch, which every noise group of its blocks reads, and
        # does not leave them behind, on the map or the stepper, nor when a
        # trajectory diverges
        monkeypatch.setattr(qdyn, "_BATCH", 128)
        monkeypatch.setattr(qnoise, "usable_cores", lambda: 2)
        checked, refs = qnoise._checked_amplitudes, []

        def watched(*args):
            amp = checked(*args)
            refs.append(weakref.ref(amp))
            return amp

        monkeypatch.setattr(qnoise, "_checked_amplitudes", watched)
        sched = Schedule(t_eq=2.0, t_end=1.0, dt=0.05, record_stride=4)
        dense = Schedule(t_eq=2.0, t_end=1.0, dt=0.05)
        for pot, s in ((FREE, sched), (FREE, dense), (WELL, sched)):
            refs.clear()
            run_ensemble(FIG1, pot, s, 256, "quantum", 1, consumer=lambda piece: None)
            assert len(refs) == 2 and all(ref() is None for ref in refs)
        kick = Schedule(t_eq=0.05, t_end=10.0, dt=0.05,
                        interventions=(Intervention(0.0, ResetTo(1.5, 1.0)),))
        refs.clear()
        with pytest.raises(IntegrationFailure):
            run_ensemble(NO_BATH, Potential.polynomial([0.0, 0.0, 0.0, 0.0, -5.0]), kick, 8,
                         "quantum", 3)
        assert len(refs) == 1 and refs[0]() is None

    def test_waiting_blocks_stay_within_what_check_memory_counts(self, monkeypatch):
        # the worst case the memory plan counts: block 0 is held back until
        # every other block of the batch has finished, so their pieces all
        # wait to be booked at once, and are still within the plan
        sched = Schedule(t_eq=60.0, t_end=20.0, dt=0.05, record_stride=4)
        n_traj = 3000
        n_blocks = -(-n_traj // qdyn._NOISE_BLOCK)
        monkeypatch.setattr(qnoise, "usable_cores", lambda: 2)
        key_streams, apply_map = qdyn._key_streams, qdyn._apply_map
        first_key = qdyn._stream_keys(1, 0, [0])[0].tobytes()
        on_block = threading.local()
        lock = threading.Lock()
        others_done = threading.Event()
        finished = []    # blocks other than block 0 done, in order
        at_first_booking = []

        def streams(keys):
            on_block.first = keys[0].tobytes() == first_key
            return key_streams(keys)

        def held_back(*args):
            if on_block.first:
                assert others_done.wait(60)
                return apply_map(*args)
            piece = apply_map(*args)
            with lock:
                finished.append(None)
                if len(finished) == n_blocks - 1:
                    others_done.set()
            return piece

        def drop(first, x, p, w):
            if first == 0:
                at_first_booking.append(len(finished))

        # one-time allocations
        _batch_runner(FIG1, FREE, sched, "quantum", 1, 0)(range(8), lambda *piece: None)
        qdyn.momentum_response.cache_clear()
        monkeypatch.setattr(qdyn, "_key_streams", streams)
        monkeypatch.setattr(qdyn, "_apply_map", held_back)
        tracemalloc.start()
        try:
            _batch_runner(FIG1, FREE, sched, "quantum", 1, 0)(range(n_traj), drop)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert at_first_booking == [n_blocks - 1]
        monkeypatch.setattr(qdyn, "_BATCH", n_traj)  # the plan of the one batch traced
        assert peak <= batch_total(qdyn.memory_plan(FIG1, FREE, sched, "quantum", n_traj,
                                                    master_seed=1))

    def test_record_dense_quadratic_run_takes_the_stepper(self, monkeypatch):
        # 10,000 steps recorded at every node from t = 0: the map would do
        # 2 x 8001 x 10001 multiply-adds per path against the stepper's
        # 10000 x 10001 / 2, and hold 16 x 8001 x 10001 B = 1.28 GB of rows
        # against the stepper's 10001 x 1024 x 8 B = 82 MB buffer
        dense = Schedule(t_eq=100.0, t_end=400.0, dt=0.05)
        monkeypatch.setattr(qdyn, "physical_memory", lambda: 2**30)
        for pot in (FREE, HARMONIC, WELL):
            assert not qdyn._takes_map(pot, dense)
            qdyn.check_memory(qdyn.memory_plan(FIG1, pot, dense, "quantum", 4096))
        # the count decides where the rows would fit: of 80 steps, 20 nodes
        # take the map and 21 the stepper
        assert qdyn._takes_map(FREE, Schedule(t_eq=3.05, t_end=0.95, dt=0.05))
        reset = (Intervention(0.5, MomentumReset(0.0)),)
        assert not qdyn._takes_map(FREE, Schedule(t_eq=3.05, t_end=0.95, dt=0.05,
                                                  interventions=reset))
        # every fourth node: 2001 nodes whose rows take 320 MB, which 1 GiB holds and
        # 256 MiB does not
        sparse = Schedule(t_eq=100.0, t_end=400.0, dt=0.05, record_stride=4)
        assert qdyn._takes_map(FREE, sparse) and qdyn._takes_map(HARMONIC, sparse)
        assert not qdyn._takes_map(WELL, sparse)
        monkeypatch.setattr(qdyn, "physical_memory", lambda: 2**28)
        assert not qdyn._takes_map(FREE, sparse)
        qdyn.check_memory(qdyn.memory_plan(FIG1, FREE, sparse, "quantum", 4096))

    def test_failed_ids_are_python_ints(self):
        # the diverging quartic of test_failures_are_booked_per_batch: the
        # ensemble and each batch name ids by Python ints, as
        # IntegrationFailure does
        class RareKick:
            def sample(self, rbar, pbar, rng):
                if rng.random() < 1e-3:
                    return rng.uniform(0.3, 1.5), 1.0, 1.0
                return rbar, pbar, 1.0

        pot = Potential.polynomial([0.0, 0.0, 0.0, 0.0, -5.0])
        sched = Schedule(t_eq=0.05, t_end=10.0, dt=0.05,
                         interventions=(Intervention(0.0, RareKick()),))
        seen = []
        stacked = run_ensemble(NO_BATH, pot, sched, 2000, "quantum", 2)
        with batches_of(700):
            streamed = run_ensemble(NO_BATH, pot, sched, 2000, "quantum", 2,
                                    consumer=seen.append)
        ids = stacked.failed_ids + streamed.failed_ids + seen[1].failed_ids
        assert ids == (1039, 1826, 1039, 1826, 339)
        assert all(type(i) is int for i in ids)

    @pytest.mark.parametrize("cores", [1, 2, 4])
    def test_failed_ids_in_id_order_on_any_noise_thread_count(self, monkeypatch, cores):
        # the diverging quartic of test_failures_are_booked_per_batch, its
        # noise blocks drawn on 1, 2 or 4 threads: the same ids, in id order
        class RareKick:
            def sample(self, rbar, pbar, rng):
                if rng.random() < 1e-3:
                    return rng.uniform(0.3, 1.5), 1.0, 1.0
                return rbar, pbar, 1.0

        class Kick:
            def sample(self, rbar, pbar, rng):
                return rng.uniform(0.3, 1.5), 1.0, 1.0

        monkeypatch.setattr(qnoise, "usable_cores", lambda: cores)
        monkeypatch.setattr(qdyn, "_BATCH", 700)
        pot = Potential.polynomial([0.0, 0.0, 0.0, 0.0, -5.0])
        sched = Schedule(t_eq=0.05, t_end=10.0, dt=0.05,
                         interventions=(Intervention(0.0, RareKick()),))
        seen = []
        streamed = run_ensemble(NO_BATH, pot, sched, 2000, "quantum", 2, consumer=seen.append)
        assert streamed.failed_ids == (1039, 1826)
        assert [b.failed_ids for b in seen] == [(), (339,), (426,)]
        # every trajectory of a 200-path batch (four blocks) diverges
        sched = Schedule(t_eq=0.05, t_end=10.0, dt=0.05,
                         interventions=(Intervention(0.0, Kick()),))
        with pytest.raises(IntegrationFailure, match="^200 of 200 trajectories") as failure:
            run_ensemble(NO_BATH, pot, sched, 200, "quantum", 3)
        assert failure.value.trajectory_ids == tuple(range(32))


    @pytest.mark.parametrize("cores", [1, 2, 4])
    def test_map_pieces_are_booked_in_id_order(self, monkeypatch, cores):
        # 600 trajectories in batches of 300, each five noise blocks (64 x 4
        # and 44), on 1, 2 or 4 threads switching every microsecond: the
        # consumer gets one piece per block, one call at a time, and the
        # pieces put end to end are the stacked run, byte for byte
        sched = Schedule(t_eq=2.0, t_end=1.0, dt=0.05, record_stride=4,
                         interventions=CAT_SCHED.interventions)
        assert qdyn._takes_map(FREE, sched)
        monkeypatch.setattr(qnoise, "usable_cores", lambda: 1)
        stacked = run_ensemble(FIG1, FREE, sched, 600, "quantum", 29)
        monkeypatch.setattr(qnoise, "usable_cores", lambda: cores)
        monkeypatch.setattr(qdyn, "_BATCH", 300)
        pieces, inside, threads = [], [], []
        lock = threading.Lock()

        def consumer(piece):
            with lock:
                inside.append(piece)
                assert len(inside) == 1
            threads.append(threading.get_ident())
            pieces.append(piece)
            with lock:
                inside.remove(piece)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            streamed = run_ensemble(FIG1, FREE, sched, 600, "quantum", 29, consumer=consumer)
        finally:
            sys.setswitchinterval(interval)
        assert [piece.n_traj for piece in pieces] == [64, 64, 64, 64, 44] * 2
        assert not any(piece.failed_ids for piece in pieces)
        for key in ("x", "p", "weights"):
            joined = np.concatenate([getattr(piece, key) for piece in pieces])
            assert joined.tobytes() == getattr(stacked, key).tobytes()
        assert streamed.weights.tobytes() == stacked.weights.tobytes()
        # per batch: each starts threads of its own, and a thread whose
        # join has returned may not have exited, so the next batch's may
        # not take its ident
        assert len(set(threads[:5])) <= cores and len(set(threads[5:])) <= cores


def preset_config(name):
    with resources.as_file(qcli.preset_path(name)) as p:
        return qcli.parse_config(p)


def preset_args(name):
    """``(spec, pot, sched, statistics)`` of a preset."""
    cfg = preset_config(name)
    return cfg.bath_spec(), cfg.potential_obj(), cfg.schedule_obj(), cfg.statistics


def plan_total(plan, but=()):
    """The total of a memory plan, less the terms named in ``but``."""
    return sum(term.nbytes for term in plan.terms if term.name not in but)


def batch_total(plan):
    """What a run's batch holds at most: its plan less the run's weights."""
    return plan_total(plan, but=("weights",))


def traced_peak(call):
    """tracemalloc's peak over ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# 1/2 x^2 + 0.1 x^4, which the stepper runs: 3000 steps and 51 records
QUARTIC = (BathSpec(gamma=np.pi / 2, eps=0.05, kT=1.0),
           Potential.polynomial([0.0, 0.0, 0.5, 0.0, 0.1]),
           Schedule(t_eq=10.0, t_end=5.0, dt=0.005, record_stride=20), "quantum")


class TestMemoryPlan:
    # the lowest peak / plan measured on these cases is 0.80, fig2_white's
    # noise-check: it keys every path, through the hash's temporaries,
    # before its blocks start
    FLOOR = 0.7

    @pytest.mark.parametrize("shape, n", [
        *((shape, n) for shape in ("fig1", "fig2", "fig2_white", "classical_limit", "quartic")
          for n in (64, 300, 1024)),
        # at 64 trajectories a plan that reads one record is smaller than
        # the rows of both, which the engine rule counts: a byte below it
        # the run takes the stepper, rather than being rejected
        *((shape, n) for shape in ("fig1/x", "fig3/p") for n in (300, 1024)),
        ("noise-check-fig2", 1500), ("noise-check-fig2_white", 1500)])
    def test_peak_within_its_plan(self, tmp_path, monkeypatch, shape, n):
        # one batch of n trajectories on two noise threads, the map's rows
        # and their solve built within the trace, or one noise-check of n
        # paths (fig2's with its dump): its tracemalloc peak is within the
        # plan check_memory sums, less the run's weights, and within
        # FLOOR of it, less on the map the x and p of blocks waiting to be
        # booked, which only a slow first block makes wait at once
        # (test_waiting_blocks_stay_within_what_check_memory_counts).
        # check_memory accepts the plan's total and rejects one byte less,
        # naming its largest term and the config key that shrinks it, before
        # anything is integrated or written.  "fig1/x" reads only x, as
        # fig1's run does, and "fig3/p" only p
        monkeypatch.setattr(qnoise, "usable_cores", lambda: 2)
        out = tmp_path / "rejected"
        if shape.startswith("noise-check"):
            cfg = preset_config(shape.split("-")[-1])
            cfg.n_traj = n
            spec, sched, statistics = cfg.bath_spec(), cfg.schedule_obj(), cfg.statistics
            dump = statistics != qnoise.WHITE
            qcli.noise_check(cfg, out_dir=str(tmp_path / "warm"), dump=dump)  # one-time set-up
            peak = traced_peak(lambda: qcli.noise_check(cfg, out_dir=str(tmp_path / "nc"),
                                                        dump=dump))
            grid = qnoise.FrequencyGrid.for_times(spec, sched.dt, sched.n_steps + 1)
            plan = qdyn.noise_check_plan(grid, statistics, n, 20, dump, cfg.master_seed)
            counted, waiting = plan_total(plan), 0

            def rejected():
                qcli.noise_check(cfg, out_dir=str(out), dump=dump)
        else:
            shape, _, read = shape.partition("/")
            records = tuple(read) or qdyn.RECORDS
            args = QUARTIC if shape == "quartic" else preset_args(shape)
            runner = _batch_runner(*args, 1, 0, records)
            runner(range(8), lambda *piece: None)  # one-time set-up
            del runner
            qdyn.momentum_response.cache_clear()
            peak = traced_peak(lambda: _batch_runner(*args, 1, 0, records)(
                range(n), lambda *piece: None))
            plan = qdyn.memory_plan(*args, n, master_seed=1, records=records)
            counted = batch_total(plan)
            # on the map the batch records are those of the blocks that wait
            waiting = (counted - plan_total(plan, but=("weights", "batch records"))
                       if qdyn._takes_map(*args[1:3]) else 0)

            def rejected():
                run_ensemble(*args[:3], n, args[3], 1, consumer=lambda piece: None,
                             records=records)
        assert self.FLOOR * (counted - waiting) <= peak <= counted, (peak, counted)
        monkeypatch.setattr(qdyn, "physical_memory", lambda: plan_total(plan))
        qdyn.check_memory(plan)
        monkeypatch.setattr(qdyn, "physical_memory", lambda: plan_total(plan) - 1)
        largest = max(plan.terms, key=lambda term: term.nbytes)
        assert "[" in largest.shrink
        with pytest.raises(ConfigurationError, match=re.escape(f"the {largest.name}, ")
                           + r"\S+ GiB " + re.escape(f"({largest.shrink})")):
            rejected()
        assert not out.exists()

    def test_every_hint_names_a_key_that_exists(self):
        # the plans of a map run (fig2's cat), a stepper run with an
        # intervention, stacked, and a dumped noise-check: each term but the
        # stacked records names a config key or flag that shrinks it, and
        # each it names is one parse_config reads
        spec, pot, sched, statistics = QUARTIC
        cat_sched = Schedule(t_eq=sched.t_eq, t_end=sched.t_end, dt=sched.dt,
                             record_stride=sched.record_stride,
                             interventions=(Intervention(0.0, CatProject(1.0, 0.5)),))
        assert not qdyn._takes_map(pot, cat_sched) and qdyn._takes_map(*preset_args("fig2")[1:3])
        grid = qnoise.FrequencyGrid.for_times(spec, sched.dt, sched.n_steps + 1)
        plans = [qdyn.memory_plan(*preset_args("fig2"), 3000),
                 qdyn.memory_plan(spec, pot, cat_sched, statistics, 3000, stacked=True),
                 qdyn.noise_check_plan(grid, statistics, 3000, 20, True, 1)]
        terms = [term for plan in plans for term in plan.terms]
        assert {"map rows", "batch buffer", "intervention updates", "lag products"} <= {
            term.name for term in terms}
        for term in terms:
            keys = re.findall(r"\[(\w+)\] (\w+)", term.shrink)
            flags = re.findall(r"--[\w-]+", term.shrink)
            assert keys or flags or term.name == "stacked records", term
            for section, key in keys:
                assert key in qcli._TABLE[section], term
            assert set(flags) <= set(qcli._FLAGS.values()), term

    @pytest.mark.parametrize("case, match", [
        pytest.param("stacked", r"n_traj = 4096 over 120 steps needs .* the stacked records, "
                                r"\S+ GiB \(stream the batches to a consumer\)", id="stacked"),
        pytest.param("dt-1e-300", r"over 6e\+300 steps needs .* physical memory; most of it is "
                                  r"the batch buffer, .* \(raise \[schedule\] dt\)",
                 id="dt-1e-300"),
        pytest.param("n_traj-1e14", r"\[run\] n_traj = 100000000000000 over 120 steps needs "
                                    r".* the weights, \S+ GiB \(lower \[run\] n_traj\)",
                     id="n_traj-1e14")])
    def test_rejected_before_allocating(self, monkeypatch, case, match):
        # 6e300 steps would size a buffer of 6e300 rows, 1e14 trajectories
        # 800 TB of weights, and 4096 stacked trajectories more x and p
        # records than the memory left beside the streamed run
        sched = Schedule(t_eq=4.0, t_end=2.0, dt=1e-300 if case == "dt-1e-300" else 0.05)
        n_traj = {"dt-1e-300": 4, "n_traj-1e14": 10**14}.get(case, 4096)
        if case == "stacked":
            streamed = qdyn.memory_plan(FIG1, FREE, sched, "quantum", n_traj)
            monkeypatch.setattr(qdyn, "physical_memory", lambda: plan_total(streamed))

        def run():
            with pytest.raises(ConfigurationError, match=match):
                run_ensemble(FIG1, FREE, sched, n_traj, "quantum", 1)
        assert traced_peak(run) < 1e6


class TestThreads:
    @pytest.fixture
    def openblas(self):
        calls = qdyn._openblas()
        if calls is None:
            pytest.skip("numpy's BLAS is not an OpenBLAS with thread-count calls")
        get, put = calls
        before = get()
        yield get, put
        put(before)

    def test_run_ensemble_pins_openblas_to_one_thread_and_restores_it(self, openblas):
        get, put = openblas
        put(2)
        seen = []
        sched = Schedule(t_eq=1.0, t_end=0.5, dt=0.05)
        with batches_of(4):
            run_ensemble(FIG1, FREE, sched, 8, "quantum", 1,
                         consumer=lambda batch: seen.append(get()))
        assert seen == [1, 1]
        assert get() == 2

    def test_noise_blocks_and_autocorrelation_pin_openblas_and_restore_it(self, openblas,
                                                                          monkeypatch):
        # noise-check's lag products run in noise_blocks' work, and
        # empirical_autocorrelation's in lag_products: both on one thread
        get, put = openblas
        put(2)
        grid = qnoise.FrequencyGrid.for_times(FIG1, 0.05, 31)
        seen = []

        def work(lo, hi, rngs, groups):
            for g, rows in groups:
                pass
            seen.append(get())

        qdyn.noise_blocks(FIG1, grid, "quantum", 1, 0, range(70), work)
        lag_products = qnoise.lag_products

        def counted(*args):
            seen.append(get())
            return lag_products(*args)

        monkeypatch.setattr(qnoise, "lag_products", counted)
        times = grid.t_step * np.arange(grid.n_times)
        paths = [qnoise.NoisePath(seed=(i,), times=times, values=np.ones(grid.n_times))
                 for i in range(20)]
        qnoise.empirical_autocorrelation(paths, [0.0, 0.05])
        assert seen == [1, 1, 1, 1]
        assert get() == 2

    def test_exact_reference_solves_on_one_openblas_thread(self, openblas, monkeypatch):
        # a run computes its exact reference before the ensemble, and the
        # map's rows then reuse that memoised solve: it is pinned too
        from qbm.reference import exact_series

        get, put = openblas
        put(2)
        integrate_batch = qdyn._integrate_batch
        seen = []

        def spied(*args, **kwargs):
            seen.append(get())
            return integrate_batch(*args, **kwargs)

        monkeypatch.setattr(qdyn, "_integrate_batch", spied)
        qdyn.momentum_response.cache_clear()
        sched = Schedule(t_eq=1.0, t_end=0.5, dt=0.05)
        exact_series(FIG1, FREE, sched, "quantum", "x2")
        qdyn.momentum_response.cache_clear()
        assert seen == [1]
        assert get() == 2

    def test_integrate_gives_the_run_s_rows_on_the_stepper(self, openblas):
        # a quartic takes the stepper, whose friction products two OpenBLAS
        # threads split otherwise than one: integrate pins it as the run
        # does, so each trajectory's noise and stream give the run's row
        get, put = openblas
        put(2)
        spec = BathSpec(gamma=np.pi / 2, eps=0.05, kT=1.0)
        pot = Potential.polynomial([0.0, 0.0, 0.5, 0.0, 0.1])
        sched = Schedule(t_eq=4.0, t_end=1.0, dt=0.005, record_stride=50)
        assert sched.n_steps == 1000 and not qdyn._takes_map(pot, sched)
        ens = run_ensemble(spec, pot, sched, 4, "quantum", 5)
        grid = qnoise.FrequencyGrid.for_times(spec, sched.dt, sched.n_steps + 1)
        for i in range(4):
            rng = _traj_stream(5, 0, i)
            traj = integrate(spec, pot, sched, qnoise.synthesize(spec, grid, "quantum", rng),
                             rng=rng)
            assert traj.x.tobytes() == ens.x[i].tobytes()
            assert traj.p.tobytes() == ens.p[i].tobytes()
        assert get() == 2

    def test_pin_is_restored_when_the_run_fails(self, openblas):
        get, put = openblas
        put(2)
        sched = Schedule(t_eq=1.0, t_end=0.5, dt=0.05)

        def consumer(batch):
            raise RuntimeError("consumer failed")

        with pytest.raises(RuntimeError, match="consumer failed"):
            run_ensemble(FIG1, FREE, sched, 8, "quantum", 1, consumer=consumer)
        assert get() == 2

    @pytest.mark.parametrize("cores", [1, 2, 4])
    def test_pin_is_restored_when_a_block_thread_consumer_fails(self, openblas,
                                                                monkeypatch, cores):
        # on the map the consumer runs on whichever block thread books the
        # piece; its failure on the third of five pieces is raised by the
        # run, no later piece is booked, and the pin is restored
        get, put = openblas
        put(2)
        monkeypatch.setattr(qnoise, "usable_cores", lambda: cores)
        sched = Schedule(t_eq=1.0, t_end=0.5, dt=0.05, record_stride=5)
        assert qdyn._takes_map(FREE, sched)
        seen = []

        def consumer(piece):
            seen.append(piece.n_traj)
            if len(seen) == 3:
                raise RuntimeError("consumer failed")

        with pytest.raises(RuntimeError, match="consumer failed"):
            run_ensemble(FIG1, FREE, sched, 300, "quantum", 1, consumer=consumer)
        assert seen == [64, 64, 64]
        assert get() == 2

    def test_openblas_is_looked_up_once_per_process(self):
        # two runs (one pin each, and one per map batch) and one integrate
        # read the memoised lookup; the library is found once
        qdyn._openblas.cache_clear()
        sched = Schedule(t_eq=1.0, t_end=0.5, dt=0.05, record_stride=5)
        assert qdyn._takes_map(FREE, sched)
        for _ in range(2):
            with batches_of(4):
                run_ensemble(FIG1, FREE, sched, 8, "quantum", 1)
        grid = qnoise.FrequencyGrid.for_times(FIG1, sched.dt, sched.n_steps + 1)
        integrate(FIG1, FREE, sched, qnoise.synthesize(FIG1, grid, "quantum",
                                                       _traj_stream(1, 0, 0)))
        qdyn.blas_threads()
        qdyn.thread_counts()
        info = qdyn._openblas.cache_info()
        assert info.misses == 1 and info.hits >= 8

    def test_thread_counts_without_openblas(self, monkeypatch):
        monkeypatch.setattr(qdyn, "_openblas", lambda: None)
        assert qdyn.thread_counts() == {"noise": qnoise.usable_cores(), "blas": None}
        assert qdyn.blas_threads() is None
        sched = Schedule(t_eq=1.0, t_end=0.5, dt=0.05)
        assert run_ensemble(FIG1, FREE, sched, 4, "quantum", 1).n_traj == 4


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
            return _integrate_batch(FIG1, FREE, sched.dt, sched.n_steps, noise_buffer(xi),
                                    np.full(n, x0), np.zeros(n), sched.record_nodes(),
                                    intervention_plan=_build_plan(sched),
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
        # a short cutoff (eps = 0.064, gamma eps << 1) stands in for the
        # eps -> 0 limit, resolved at dt = eps/10; classical statistics must
        # equipartition.
        spec = BathSpec(gamma=1.0, eps=0.064, mass=1.0, kT=1.0)
        sched = Schedule(t_eq=12.0, t_end=0.0, dt=spec.eps / 10)
        ens = run_ensemble(spec, FREE, sched, 3000, "classical", 3)
        p2 = ens.p[:, 0] ** 2
        se = p2.std(ddof=1) / np.sqrt(len(p2))
        assert abs(p2.mean() - spec.mass * spec.kT) <= 3.0 * se

    def test_weight_neutrality_of_identity_intervention(self):
        class Keep:
            def sample(self, rbar, pbar, rng):
                return rbar, pbar, 1.0

        sched_plain = Schedule(t_eq=2.0, t_end=1.0, dt=0.05)
        sched_iv = Schedule(t_eq=2.0, t_end=1.0, dt=0.05,
                            interventions=(Intervention(0.0, Keep()),))
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
    def test_jump_boundary_force_matches_kernel(self):
        # after a pure position jump at t=0, a quiet trajectory feels the
        # boundary force -M(t - t_k) dx; at short times (gamma*t << 1) the
        # momentum is its impulse integral -dx * int_0^t M(u) du, with the
        # friction back-reaction on the induced motion entering at O((gamma t)^2)
        dx = 1.5
        sched = Schedule(t_eq=1.0, t_end=2.0, dt=0.0125,
                         interventions=((0.0, ResetTo(dx, 0.0)),))
        traj = integrate(FIG1, FREE, sched, zero_path(sched))
        t_probe = 0.1
        predicted = -dx * (2.0 * FIG1.mass * FIG1.gamma / np.pi) * np.arctan(
            t_probe / FIG1.eps)
        k = int(round(t_probe / 0.0125))
        assert traj.p[k] == pytest.approx(predicted, rel=0.05)

    def test_position_jump_acts_only_after_its_time(self):
        t_k, dx = 0.5, 1.5

        def shifted(step):
            return Schedule(t_eq=1.0, t_end=2.0, dt=0.0125,
                            interventions=((t_k, Shift(step)),))

        sched = shifted(0.0)
        grid = qnoise.FrequencyGrid.for_times(FIG1, sched.dt, sched.n_steps + 1)
        path = qnoise.synthesize(FIG1, grid, qnoise.QUANTUM, _traj_stream(8, 0, 0))
        plain = integrate(FIG1, FREE, sched, path)
        jumped = integrate(FIG1, FREE, shifted(dx), path)
        k = int(round(t_k / sched.dt))
        assert plain.x[:k].tobytes() == jumped.x[:k].tobytes()
        assert plain.p[:k].tobytes() == jumped.p[:k].tobytes()
        assert jumped.p[k] == plain.p[k]
        assert jumped.x[k] - plain.x[k] == pytest.approx(dx, rel=1e-12)
        # from t_k on the boundary force -M(t - t_k) dx pulls the momentum back
        assert np.all(jumped.p[k + 1:k + 41] < plain.p[k + 1:k + 41])


def column_major_integrate(spec, pot, dt, n_steps, xi, x0, p0, record_nodes,
                           intervention_plan=(), rngs=None):
    """Reference: the blocked midpoint loop with (B, n_steps) column writes."""
    B = xi.shape[0]
    mass = spec.mass
    rec_pos = {int(n): k for k, n in enumerate(record_nodes)}
    n_rec = len(record_nodes)
    k_mid = _kernel_mid(spec, dt, n_steps)
    m_nodes = memory_kernel(spec, dt * np.arange(n_steps + 1))
    plan = {int(n): draw for n, draw in intervention_plan}
    x = np.array(x0, dtype=float, copy=True)
    p = np.array(p0, dtype=float, copy=True)
    weights = np.ones(B)
    jump_nodes = []
    V = np.empty((B, n_steps))
    x_rec = np.empty((B, n_rec))
    p_rec = np.empty((B, n_rec))
    force = pot.force(x, mass) + xi[:, 0]
    if 0 in rec_pos:
        x_rec[:, rec_pos[0]] = x
        p_rec[:, rec_pos[0]] = p
    old = np.zeros((B, _CONV_BLOCK))
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_steps):
            p_half = p + (0.5 * dt) * force
            v = p_half / mass
            V[:, n] = v
            x += dt * v
            node = n + 1
            if n % _CONV_BLOCK == 0:
                block_start = node
                cols = min(_CONV_BLOCK, n_steps + 1 - block_start)
                idx = (block_start - 1 - np.arange(block_start))[:, None] \
                    + np.arange(cols)[None, :]
                old[:, :cols] = V[:, :block_start] @ k_mid[idx]
            s = node - block_start
            fric = -old[:, s]
            if node - 1 >= block_start:
                seg = k_mid[:node - block_start][::-1]
                fric = fric - V[:, block_start:node] @ seg
            for jn, dxv in jump_nodes:
                fric = fric - m_nodes[node - jn] * dxv
            force = pot.force(x, mass) + xi[:, node] + fric
            p = p_half + (0.5 * dt) * force
            if node in plan:
                dxv = np.zeros(B)
                for i in range(B):
                    r_pre, r0, p0, w = plan[node](x[i], p[i], rngs[i])
                    weights[i] *= w
                    dxv[i] = r0 - r_pre
                    x[i] = r0
                    p[i] = p0
                if np.any(dxv):
                    jump_nodes.append((node, dxv))
                    fric = fric - m_nodes[0] * dxv
                force = pot.force(x, mass) + xi[:, node] + fric
            if node in rec_pos:
                x_rec[:, rec_pos[node]] = x
                p_rec[:, rec_pos[node]] = p
    return x_rec, p_rec, weights


def cat_wigner_bounds(cat):
    """Upper bounds of |W| and of |dW/dr| + |dW/dp| for the cat's Wigner function.

    ``W = [G(r - x0, p) + G(r + x0, p) + 2 G(r, p) cos(2 x0 p / hbar)] / N``
    with ``G = 2 exp(-r^2/2 sigma^2 - 2 sigma^2 p^2/hbar^2)``, so |G| <= 2,
    |dG/dr| <= 2/(sigma sqrt(e)) and |dG/dp| <= 4 sigma/(hbar sqrt(e)).
    """
    x0, sigma, hbar = cat.x0, cat.sigma, cat.hbar
    norm = 2.0 * np.pi * hbar * 2.0 * (1.0 + np.exp(-x0**2 / (2.0 * sigma**2)))
    root_e = np.sqrt(np.e)
    slope = 4.0 * (2.0 / (sigma * root_e) + 4.0 * sigma / (hbar * root_e)
                   + 2.0 * x0 / hbar) / norm
    return 8.0 / norm, slope


class TestTimeMajorIntegrator:
    # 213 steps: three full friction blocks and a partial fourth; two cat
    # interventions, each logging a position jump (in translate mode the one
    # from the sampled pre-position to r0).  One trajectory alone is the
    # one-column product of integrate_deterministic (tile 1); in tiles it
    # gets the bits of a batch member.
    @pytest.mark.parametrize("n_traj, tile", [(1, 1), (5, _HISTORY_TILE),
                                              (130, _HISTORY_TILE)])
    @pytest.mark.parametrize("pot, mode", [
        (FREE, "translate"),
        (FREE, "lab"),
        (Potential.harmonic(1.0), "lab"),
        (Potential.polynomial([0.0, 0.0, 0.5, 0.0, 0.1]), "lab"),
    ])
    def test_matches_column_major_loop_within_the_summation_order_bound(
            self, pot, mode, n_traj, tile):
        cat = CatProject(1.0, 0.5)
        sched = Schedule(t_eq=6.0, t_end=4.65, dt=0.05, record_stride=3, interventions=(
            Intervention(1.0, cat, mode=mode), Intervention(2.5, cat, mode=mode)))
        assert sched.n_steps == 3 * _CONV_BLOCK + 21
        dt, n_steps = sched.dt, sched.n_steps
        grid = qnoise.FrequencyGrid.for_times(FIG1, dt, n_steps + 1)
        xi = qnoise.synthesize_batch(FIG1, grid, "quantum",
                                     [_traj_stream(61, 0, i) for i in range(n_traj)])
        # |c| of each weight factor c W(r, pbar) the oracle's preparations
        # draw (r = rbar in lab mode, the sampled r_pre in translate mode),
        # multiplied up per trajectory
        factor_scale = np.ones(n_traj)

        def call(integrator, noise, scale=False):
            """The integrator's records and weights, and each node's jumps r0 - r_pre."""
            rngs = [_traj_stream(61, 0, i) for i in range(n_traj)]
            jumps = {}

            def logged(node, draw):
                def sample(rbar, pbar, rng):
                    r_pre, r0, p0, w = draw(rbar, pbar, rng)
                    i = next(k for k, r in enumerate(rngs) if r is rng)
                    jumps.setdefault(node, np.zeros(n_traj))[i] = r0 - r_pre
                    if scale:
                        factor_scale[i] *= abs(w / cat.wigner(r_pre, pbar))
                    return r_pre, r0, p0, w
                return sample

            plan = [(n, logged(n, draw)) for n, draw in _build_plan(sched)]
            return (*integrator(FIG1, pot, dt, n_steps, noise, np.full(n_traj, 0.3),
                                np.zeros(n_traj), sched.record_nodes(),
                                intervention_plan=plan, rngs=rngs), jumps)

        buf = noise_buffer(xi, tile)
        x, p, w, jumps = call(_integrate_batch, buf)
        x_ref, p_ref, w_ref, jumps_ref = call(column_major_integrate, xi, scale=True)

        # The a-priori bound, formed before anything is compared.  The two
        # loops differ only in the order in which they sum a step's in-block
        # friction, at most 63 products k_i v_i.  Each order is within
        # gamma_63 sum |k_i v_i| of the exact sum (Higham, Accuracy and
        # Stability of Numerical Algorithms, section 3.1), so at node n they
        # differ by at most b_n = 2 gamma_64 sum_i |k_i v_(n-1-i)|, which the
        # two half-kicks around node n pass to the momentum as dt b_n.  A
        # momentum error d then moves p by at most d (the bath is passive)
        # and x by at most d T / m over the run's span T: the free particle's
        # bound, which the oscillator and the quartic well, being stiffer,
        # keep.  A position error d at a logged jump adds the boundary force
        # M(t - t_k) d, an impulse of at most d sum_n dt |M(t_n)|.  So with
        # G = 1 + T/m, x and p agree within G (1 + G sum dt |M|)^K sum_n dt b_n
        # after K jumps.  Each weight factor is c W(r, p) with c drawn from
        # the stream, so the product of the K = 2 factors moves by at most
        # 2 max|W| (|dW/dr| + |dW/dp|) |c_1 c_2| times the state bound.
        u = np.finfo(float).eps / 2
        gamma_64 = 64 * u / (1 - 64 * u)
        k_abs = np.abs(_kernel_mid(FIG1, dt, n_steps))
        v_abs = np.abs(buf[:n_steps, :n_traj])
        impulse = np.zeros(n_traj)
        for node in range(1, n_steps + 1):
            s = (node - 1) % _CONV_BLOCK
            impulse += dt * 2 * gamma_64 * (k_abs[:s][::-1] @ v_abs[node - s:node])
        growth = 1 + dt * n_steps / FIG1.mass
        jump_impulse = dt * np.abs(memory_kernel(FIG1, dt * np.arange(n_steps + 1))).sum()
        state_bound = growth * (1 + growth * jump_impulse) ** len(jumps_ref) * impulse
        w_max, w_slope = cat_wigner_bounds(cat)
        weight_bound = 2 * w_max * w_slope * factor_scale * state_bound

        assert np.isfinite(x_ref).all() and (w_ref != 1.0).any()
        assert len(jumps_ref) == 2 and all(np.any(dx) for dx in jumps_ref.values())
        assert x.flags.c_contiguous and p.flags.c_contiguous
        assert np.all(np.abs(x - x_ref) <= state_bound[:, None])
        assert np.all(np.abs(p - p_ref) <= state_bound[:, None])
        assert np.all(np.abs(w - w_ref) <= weight_bound)
        assert jumps.keys() == jumps_ref.keys()
        # a jump dx = r0 - rbar carries at most the position's error
        assert all(np.all(np.abs(jumps[n] - jumps_ref[n]) <= state_bound) for n in jumps)

    def test_rows_do_not_depend_on_the_batch_around_them(self):
        # fig1's bath and step, 1024 trajectories, 240 steps (three full
        # friction blocks and part of a fourth): both friction products run
        # on whole history tiles, so each slice of ids, integrated as its own
        # batch, has the bits of the same rows of the full batch
        sched = Schedule(t_eq=10.0, t_end=2.0, dt=0.05)
        assert sched.n_steps > 3 * _CONV_BLOCK
        whole = run_batch(FIG1, FREE, sched, "quantum", 20260808, 0, range(1024))
        for lo, hi in [(1000, 1017), (5, 6), (100, 229), (0, 300), (513, 1024)]:
            part = run_batch(FIG1, FREE, sched, "quantum", 20260808, 0, range(lo, hi))
            assert part.x.tobytes() == whole.x[lo:hi].tobytes(), (lo, hi)
            assert part.p.tobytes() == whole.p[lo:hi].tobytes(), (lo, hi)
        grid = qnoise.FrequencyGrid.for_times(FIG1, sched.dt, sched.n_steps + 1)
        path = qnoise.synthesize(FIG1, grid, qnoise.QUANTUM, _traj_stream(20260808, 0, 17))
        traj = integrate(FIG1, FREE, sched, path)
        assert traj.x.tobytes() == whole.x[17].tobytes()
        assert traj.p.tobytes() == whole.p[17].tobytes()

    def test_polynomial_rows_do_not_depend_on_the_batch_around_them(self):
        # the slices of the test above on the stepper, which a polynomial
        # potential takes: its friction products run on whole history tiles
        sched = Schedule(t_eq=10.0, t_end=2.0, dt=0.05)
        pot = Potential.polynomial([0.0, 0.0, 0.5, 0.0, 0.1])
        whole = run_batch(FIG1, pot, sched, "quantum", 20260808, 0, range(1024))
        for lo, hi in [(1000, 1017), (5, 6), (100, 229), (0, 300), (513, 1024)]:
            part = run_batch(FIG1, pot, sched, "quantum", 20260808, 0, range(lo, hi))
            assert part.x.tobytes() == whole.x[lo:hi].tobytes(), (lo, hi)
            assert part.p.tobytes() == whole.p[lo:hi].tobytes(), (lo, hi)
        grid = qnoise.FrequencyGrid.for_times(FIG1, sched.dt, sched.n_steps + 1)
        path = qnoise.synthesize(FIG1, grid, qnoise.QUANTUM, _traj_stream(20260808, 0, 17))
        traj = integrate(FIG1, pot, sched, path)
        assert traj.x.tobytes() == whole.x[17].tobytes()
        assert traj.p.tobytes() == whole.p[17].tobytes()


U = np.finfo(float).eps / 2


def gamma_n(n):
    """Higham's gamma_n = n u / (1 - n u), u the unit roundoff."""
    return n * U / (1 - n * U)


def carried(spec, pot, n_steps, dt):
    """How far the scheme carries a unit error in p or in x (see TestLinearMap)."""
    omega0 = pot.omega0 if pot.form == "harmonic" else 0.0
    return (1 + n_steps * dt / spec.mass) * (1 + spec.mass * omega0)


def drawn_noise(spec, grid, statistics, master_seed, stream_tag, ids):
    """The noise rows ``noise_blocks`` hands its blocks' work, a group at a
    time, with the streams that continue past them, both in the order of
    ``ids``."""
    xi = np.empty((len(ids), grid.n_times))
    rngs = [None] * len(ids)

    def work(lo, hi, block_rngs, groups):
        for g, rows in groups:
            xi[lo + g:lo + g + len(rows)] = rows
        rngs[lo:hi] = block_rngs

    qdyn.noise_blocks(spec, grid, statistics, master_seed, stream_tag, ids, work)
    return xi, rngs


def logged_plan(plan, log):
    """``plan`` with every draw appended to ``log[node]`` as (rbar, pbar, r_pre, r0, p0, w)."""
    def logged(node, draw):
        def sample(rbar, pbar, rng):
            out = draw(rbar, pbar, rng)
            log.setdefault(node, []).append((rbar, pbar, *out))
            return out
        return sample
    return [(node, logged(node, draw)) for node, draw in plan]


def stepper_with_bound(spec, pot, dt, n_steps, xi, x0, p0, plan=(), rngs=None):
    """The stepper's records at every node for the rows of ``xi``, its weights
    and draws, and a bound on its roundoff per row (see TestLinearMap)."""
    n_traj = xi.shape[0]
    buf = noise_buffer(xi)
    log = {}
    nodes = np.arange(n_steps + 1)
    x, p, w = _integrate_batch(spec, pot, dt, n_steps, buf, x0, p0, nodes,
                               intervention_plan=logged_plan(plan, log), rngs=rngs)
    draws = {node: np.array(rows, dtype=float).T for node, rows in log.items()}
    v = np.abs(buf[:n_steps, :n_traj])  # the buffer ends holding the velocities
    lag = nodes[:, None] - 1 - nodes[None, :n_steps]
    k_abs = np.abs(_kernel_mid(spec, dt, n_steps))
    force = np.where(lag >= 0, k_abs[np.maximum(lag, 0)], 0.0) @ v
    force += np.abs(xi.T) + np.abs(pot.force(x, spec.mass)).T
    state = np.abs(x).T + np.abs(p).T
    state[:n_steps] += (spec.mass + dt) * v
    m_abs = np.abs(memory_kernel(spec, dt * nodes))
    for node, (rbar, pbar, r_pre, r0, p0_, _) in draws.items():
        force[node:] += m_abs[:n_steps + 1 - node, None] * np.abs(r0 - r_pre)
        force[node] += np.abs(pot.force(rbar, spec.mass))
        state[node] += np.abs(rbar) + np.abs(pbar) + np.abs(r_pre) + np.abs(r0) + np.abs(p0_)
    local = dt * force + state
    bound = carried(spec, pot, n_steps, dt) * gamma_n(n_steps + 10) * local.sum(axis=0)
    return x, p, w, draws, bound


WARM = BathSpec(gamma=1.0, eps=0.5, mass=1.0, kT=1.0)
CAT = CatProject(1.0, 0.5)


def unit_jump(rbar, pbar, rng):
    """A position jump from 0 to 1 at rest, with weight 1."""
    return 0.0, 1.0, 0.0, 1.0


def stepper_jump_response(spec, pot, dt, n_steps):
    """The stepper's (Jx, Jp) at lags 0..n_steps - 1 after a unit position
    jump at rest, with its friction boundary term, and the stepper's bound
    on their roundoff: the oracle of the map's derived jump response.

    The jump is made at node 1 of an n_steps solve, since node 0 takes no
    intervention; at rest before it the particle leaves a zero velocity in
    the history.
    """
    x, p, _, _, bound = stepper_with_bound(spec, pot, dt, n_steps, np.zeros((1, n_steps + 1)),
                                           np.zeros(1), np.zeros(1), [(1, unit_jump)], [None])
    return x[0, 1:], p[0, 1:], bound[0]


def derived_jump_bound(spec, pot, dt, n_steps):
    """A-priori bounds, lag by lag, on the roundoff of the map's (Jx, Jp).

    ``Jx = 1 + dt (Gx * fh)`` and ``Jp = dt (Gp * fh) - (dt/2) Gp(0) f``
    (``qdyn.linear_rows``), f the unit jump's force at each lag and fh f
    with f_0 halved (exact).  G's error, E_G (the stepper's bound on the
    unit-momentum solve), is carried through dt (sum |f| + |f_k|) at lag k.
    The convolution sums at most n + 1 products, then is scaled by dt and
    takes the 1 or the endpoint term: within gamma_(n+4) of the absolute
    sum of those terms (Higham, section 3.1), and one gamma_1 more for f,
    which rounds once on the harmonic potential.
    """
    _, _, _, _, e_g = stepper_with_bound(spec, pot, dt, n_steps, np.zeros((1, n_steps + 1)),
                                         np.zeros(1), np.ones(1))
    gx, gp = qdyn.momentum_response(spec, pot, dt, n_steps)
    f = (np.abs(memory_kernel(spec, dt * np.arange(n_steps + 1)))
         + np.abs(pot.derivative(0.0, spec.mass, order=2)))
    carried_g = e_g[0] * dt * (f.sum() + f)
    return tuple(
        carried_g + gamma_n(n_steps + 5) * (
            one + dt * np.convolve(np.abs(g), f)[:n_steps + 1] + dt * abs(g[0]) * f)
        for g, one in ((gx, 1.0), (gp, 0.0)))


class TestLinearMap:
    @pytest.mark.parametrize("spec, pot, statistics, interventions", [
        pytest.param(FIG1, FREE, "quantum", (
            Intervention(0.0, GaussianLocalize(1.0), mode="translate"),), id="fig1"),
        pytest.param(FIG1, FREE, "quantum", (
            Intervention(0.0, CAT, mode="translate"),), id="fig2"),
        pytest.param(FIG1, FREE, "quantum", (Intervention(0.0, MomentumReset(0.0)),),
                     id="fig3"),
        pytest.param(WARM, FREE, "classical", (), id="classical_limit"),
        pytest.param(FIG1, HARMONIC, "quantum", (
            Intervention(0.0, GaussianLocalize(1.0)),), id="harmonic-gaussian-lab"),
        pytest.param(FIG1, HARMONIC, "quantum", (Intervention(0.0, CAT),),
                     id="harmonic-cat-lab"),
        pytest.param(FIG1, FREE, "quantum", (
            Intervention(1.05, MomentumReset(0.5)),
            Intervention(2.5, CAT, mode="translate")), id="reset-then-cat"),
    ])
    def test_matches_the_stepper_within_the_roundoff_bound(
            self, monkeypatch, spec, pot, statistics, interventions):
        # 213 steps (three full friction blocks and part of a fourth), 130
        # trajectories (two noise blocks and a zero-padded tail of two)
        sched = Schedule(t_eq=6.0, t_end=4.65, dt=0.05, record_stride=3,
                         interventions=interventions)
        dt, n, n_traj = sched.dt, sched.n_steps, 130
        ids = range(n_traj)
        map_log = {}
        monkeypatch.setattr(qdyn, "_build_plan",
                            lambda sched: logged_plan(_build_plan(sched), map_log))
        # one noise thread, so the map's blocks log their draws in id order
        monkeypatch.setattr(qnoise, "usable_cores", lambda: 1)
        ens = run_batch(spec, pot, sched, statistics, 47, 0, ids)
        grid = qnoise.FrequencyGrid.for_times(spec, dt, n + 1)
        xi, rngs = drawn_noise(spec, grid, statistics, 47, 0, ids)
        x_all, p_all, w_ref, draws, step_bound = stepper_with_bound(
            spec, pot, dt, n, xi, np.zeros(n_traj), np.zeros(n_traj),
            _build_plan(sched), rngs)
        rec = sched.record_nodes()
        x_ref, p_ref = x_all[:, rec], p_all[:, rec]

        # The a-priori bound, formed before anything is compared.  Both
        # engines evaluate the same linear scheme; |map - stepper| is at most
        # the sum of their distances to its exact-arithmetic value.
        # - A momentum error d moves p by at most d (the bath is passive) and
        #   x by at most d T / m over the span T; a position error d moves x
        #   by at most d and p by at most m omega0 d.  So the scheme carries a
        #   unit error at most A = (1 + T/m)(1 + m omega0) (``carried``).
        # - The stepper: the force at a node sums at most n + 3 terms (the
        #   history products, the noise, the potential, the jumps' boundary
        #   terms), within gamma_(n+3) of their absolute sum (Higham, Accuracy
        #   and Stability of Numerical Algorithms, section 3.1), an impulse of
        #   dt times that; each half-kick, drift and intervention rounds once
        #   more, relative to |x|, |p|, m |v| and the draw's values.  With
        #   gamma_(n+10) for all of them, the stepper is within A gamma_(n+10)
        #   sum over nodes of (dt |force terms| + |state terms|)
        #   (``stepper_with_bound``).  The unit solve behind Gx, Gp is a
        #   stepper run: E_G.  The jump response Jx, Jp derives from it
        #   within E_J (``derived_jump_bound``).
        # - The map: the product sums n + 1 terms, within gamma_(n+2) sum_j
        #   |row_kj xi_j| (dt G rounds once), and each row inherits G's error,
        #   dt sum_j |xi_j| E_G.  Each intervention adds its shift, kick and
        #   jump through responses in error by E_G or E_J, each term rounding
        #   within gamma_4 R, where R = A (1 + A J_M) bounds a response (J_M =
        #   dt sum |M| is the boundary impulse of a unit jump).
        # - An error at an intervention node enters its kick or jump, which
        #   carries it at most R further: a factor (1 + R) per intervention.
        _, _, _, _, e_g = stepper_with_bound(spec, pot, dt, n, np.zeros((1, n + 1)),
                                             np.zeros(1), np.ones(1))
        e_j = max(bound.max() for bound in derived_jump_bound(spec, pot, dt, n))
        a = carried(spec, pot, n, dt)
        response = a * (1 + a * dt * np.abs(memory_kernel(spec, dt * np.arange(n + 1))).sum())
        rows = np.abs(np.vstack([group.reshape(-1, n + 1)
                                 for group in qdyn.linear_rows(spec, pot, sched)[0]]))
        map_bound = (gamma_n(n + 2) * (rows @ np.abs(xi).T).max(axis=0)
                     + dt * np.abs(xi).sum(axis=1) * e_g[0])
        for rbar, pbar, r_pre, r0, p0, _ in (np.array(v, dtype=float).T
                                             for v in map_log.values()):
            kicks = np.abs(r_pre - rbar) + np.abs(p0 - pbar) + np.abs(r0 - r_pre)
            map_bound += kicks * (e_g[0] + e_j + gamma_n(4) * response)
        bound = (1 + response) ** len(interventions) * (step_bound + map_bound)

        assert np.isfinite(x_ref).all() and np.isfinite(p_ref).all()
        assert np.all(np.abs(ens.x - x_ref) <= bound[:, None])
        assert np.all(np.abs(ens.p - p_ref) <= bound[:, None])
        # each preparation drew once per trajectory on both engines, in id order
        assert map_log.keys() == draws.keys() == set(sched.intervention_nodes())
        assert all(len(v) == n_traj for v in map_log.values())
        # the records at an intervention node are the draw's (r0, p0) exactly
        for node, entries in map_log.items():
            _, _, _, r0, p0, _ = np.array(entries, dtype=float).T
            at = rec == node
            if at.any():
                assert ens.x[:, at].ravel().tobytes() == r0.tobytes()
                assert ens.p[:, at].ravel().tobytes() == p0.tobytes()
        # A weight that does not read (rbar, pbar) has the stepper's bits; a
        # cat's weight c W(r, pbar) (r = rbar in lab mode) moves by at most
        # |c| (|dW/dr| + |dW/dp|) times the state's error, a lab Gaussian's
        # w e^(-rbar^2/2 sigma0^2) by at most |w| (|rbar| + e) e / sigma0^2
        # (to first order, doubled).
        weight_bound = np.zeros(n_traj)
        for iv, node in zip(interventions, sched.intervention_nodes()):
            rbar, pbar, r_pre, _, _, w = draws[node]
            if isinstance(iv.preparation, CatProject):
                _, slope = cat_wigner_bounds(CAT)
                weight_bound += 2 * np.abs(w / CAT.wigner(r_pre, pbar)) * slope * bound
            elif iv.mode == "lab" and isinstance(iv.preparation, GaussianLocalize):
                sigma0 = iv.preparation.sigma0
                weight_bound += 2 * np.abs(w) * (np.abs(rbar) + bound) * bound / sigma0**2
        assert np.all(np.abs(ens.weights - w_ref) <= weight_bound)
        if not weight_bound.any():
            assert ens.weights.tobytes() == w_ref.tobytes()

    def test_rows_are_built_once_and_read_only(self, monkeypatch):
        # a run of three batches builds its rows once, before its first
        # batch: x and p at the record nodes, and both at the intervention
        # node; a run that reads x alone builds no p rows at the records
        solves, built = [], []
        monkeypatch.setattr(qdyn, "integrate_deterministic",
                            lambda *args: solves.append(args) or integrate_deterministic(*args))
        linear_rows = qdyn.linear_rows
        monkeypatch.setattr(qdyn, "linear_rows",
                            lambda *args: built.append(linear_rows(*args)) or built[-1])
        qdyn.momentum_response.cache_clear()
        sched = Schedule(t_eq=2.0, t_end=1.0, dt=0.05, record_stride=4, interventions=(
            Intervention(0.0, GaussianLocalize(1.0), mode="translate"),))
        assert qdyn._takes_map(FREE, sched)
        batches = []
        monkeypatch.setattr(qdyn, "_BATCH", 64)
        run_ensemble(FIG1, FREE, sched, 192, "quantum", 3,
                     progress=lambda done, n_traj: batches.append(done))
        assert batches == [64, 128, 192]
        assert len(built) == 1
        rows, gx, gp, jx, jp = built[0]
        assert len(solves) == 1
        assert not any(a.flags.writeable for a in (*rows, gx, gp, jx, jp))
        n_rec, n_nodes = len(sched.record_nodes()), sched.n_steps + 1
        assert [a.shape for a in rows] == [(n_rec, n_nodes), (n_rec, n_nodes), (2, 1, n_nodes)]
        assert jx.shape == jp.shape == (n_nodes,)
        run_ensemble(FIG1, FREE, sched, 64, "quantum", 3, records=("x",))
        assert len(built) == 2 and len(solves) == 1
        x_rows, p_rows, iv_rows = built[1][0]
        assert p_rows is None
        assert x_rows.tobytes() == rows[0].tobytes() and iv_rows.tobytes() == rows[2].tobytes()

    @pytest.mark.parametrize("pot", [FREE, HARMONIC], ids=["free", "harmonic"])
    @pytest.mark.parametrize("t_eq, t_end", [(6.0, 4.65), (40.0, 30.0)],
                             ids=["213-steps", "1400-steps"])
    def test_jump_response_matches_the_stepper_within_its_bound(self, pot, t_eq, t_end):
        # 213 steps end 21 nodes into the fourth friction block; 1400 steps
        # end 56 nodes into the twenty-second
        sched = Schedule(t_eq=t_eq, t_end=t_end, dt=0.05, record_stride=10,
                         interventions=(Intervention(0.0, CAT),))
        dt, n = sched.dt, sched.n_steps
        # the bounds, formed before anything is compared
        bound_x, bound_p = derived_jump_bound(FIG1, pot, dt, n)
        jx_ref, jp_ref, e_step = stepper_jump_response(FIG1, pot, dt, n)
        _, _, _, jx, jp = qdyn.linear_rows(FIG1, pot, sched)
        assert np.all(np.abs(jx[:n] - jx_ref) <= bound_x[:n] + e_step)
        assert np.all(np.abs(jp[:n] - jp_ref) <= bound_p[:n] + e_step)
        # lag 0 is the jump node itself, where the state is (1, 0) exactly
        assert (jx[0], jp[0]) == (1.0, 0.0)
        # a roundoff bound, far below the response it bounds
        assert max((bound_x + e_step).max() / np.abs(jx).max(),
                   (bound_p + e_step).max() / np.abs(jp).max()) < 1e-6

    def test_a_jumping_run_on_the_map_solves_once(self, monkeypatch):
        # a cat's jumps go through the response derived from the unit-momentum
        # solve: the map's one deterministic solve, even for a bath and a
        # schedule no run has solved before
        solves = []
        monkeypatch.setattr(
            qdyn, "_integrate_batch",
            lambda *args, **kw: solves.append(args) or _integrate_batch(*args, **kw))
        qdyn.momentum_response.cache_clear()
        spec = BathSpec(gamma=1.25, eps=0.5)
        cat = Schedule(t_eq=2.0, t_end=1.05, dt=0.05, record_stride=4, interventions=(
            Intervention(0.0, CAT, mode="translate"),))
        assert qdyn._takes_map(FREE, cat)
        ens = run_batch(spec, FREE, cat, "quantum", 3, 0, range(70))
        assert len(solves) == 1
        assert np.isfinite(ens.x).all() and np.isfinite(ens.p).all()


def gathered_map(sched, plan, linear, xi, rngs, stacked=True):
    """One noise block's records and weights by the linear map as it was
    evaluated before each row group took its own product: the x rows of the
    record and intervention nodes, and the p rows, stacked into one ``(2,
    n_map, n_steps + 1)`` product (``stacked``; otherwise each group's own
    product, as ``qdyn._apply_map`` takes them), and each preparation's
    updates gathered from the rows after it and scattered back.  The
    oracle of :class:`TestRecordRows`."""
    (x_rows, p_rows, iv_rows), gx, gp, jx, jp = linear
    n = sched.n_steps + 1
    nodes = np.array([*sched.record_nodes(), *sched.intervention_nodes()], dtype=int)
    n_rec, b = len(x_rows), len(rngs)
    values = np.zeros((qdyn._NOISE_BLOCK, n))
    values[:b] = xi
    with qdyn._one_blas_thread():
        if stacked:
            rows = np.stack([np.concatenate((x_rows, iv_rows[0])),
                             np.concatenate((p_rows, iv_rows[1]))])
            x, p = (rows @ values.T)[:, :, :b]
        else:
            iv = (iv_rows.reshape(-1, n) @ values.T).reshape(2, -1, qdyn._NOISE_BLOCK)
            x, p = (np.concatenate((rows @ values.T, at))[:, :b]
                    for rows, at in ((x_rows, iv[0]), (p_rows, iv[1])))
    weights = np.ones(b)
    for k, (node, draw) in enumerate(plan):
        rbar, pbar = x[n_rec + k], p[n_rec + k]
        r_pre, r0, p0, w = np.array(
            [draw(rbar[i], pbar[i], rngs[i]) for i in range(b)], dtype=float).T
        weights *= w
        shift, kick, dx = r_pre - rbar, p0 - pbar, r0 - r_pre
        later = nodes > node
        lag = nodes[later] - node
        x[later] += shift + gx[lag, None] * kick
        p[later] += gp[lag, None] * kick
        if np.any(dx):
            x[later] += jx[lag, None] * dx
            p[later] += jp[lag, None] * dx
        at = nodes == node
        x[at] = r0
        p[at] = p0
    return x[:n_rec].T, p[:n_rec].T, weights


# the 61-node schedule of test_map_pieces_are_booked_in_id_order: products
# of 6 and 2 rows of 61 nodes, where BLAS may pick kernels for small
# matrices that the presets' products do not reach
SHORT_CAT = (FIG1, FREE, Schedule(t_eq=2.0, t_end=1.0, dt=0.05, record_stride=4,
                                  interventions=CAT_SCHED.interventions), "quantum")


class TestRecordRows:
    @pytest.mark.parametrize("cores", [1, 2])
    @pytest.mark.parametrize("shape", ["fig1", "fig2", "fig3", "classical_limit", "short-cat"])
    def test_records_do_not_depend_on_what_else_the_run_reads(self, monkeypatch, shape, cores):
        # 130 trajectories: two noise blocks and a tail of two.  Each record
        # group is its own product, of one shape whatever the run reads, so
        # reading x alone or p alone gives that record's bytes, and the
        # weights', of a run that reads both
        args = SHORT_CAT if shape == "short-cat" else preset_args(shape)
        assert qdyn._takes_map(*args[1:3])
        monkeypatch.setattr(qnoise, "usable_cores", lambda: cores)
        both = run_ensemble(*args[:3], 130, args[3], 5)
        for v in ("x", "p"):
            alone = run_ensemble(*args[:3], 130, args[3], 5, records=(v,))
            other = {"x": "p", "p": "x"}[v]
            assert getattr(alone, other) is None
            assert getattr(alone, v).tobytes() == getattr(both, v).tobytes()
            assert alone.weights.tobytes() == both.weights.tobytes()

    @pytest.mark.parametrize("shape", ["fig1", "fig2", "fig3", "classical_limit"])
    def test_own_products_move_records_within_the_roundoff_bound(self, shape):
        # one 64-path block of each preset's map against the oracle that
        # multiplies x and p at every node as one stacked product
        spec, pot, sched, statistics = preset_args(shape)
        n = sched.n_steps + 1
        grid = qnoise.FrequencyGrid.for_times(spec, sched.dt, n)
        linear = qdyn.linear_rows(spec, pot, sched)
        (x_rows, p_rows, iv_rows), gx, gp, jx, jp = linear
        ids = range(qdyn._NOISE_BLOCK)

        def block(apply):
            log = {}
            xi, rngs = drawn_noise(spec, grid, statistics, 11, 0, ids)
            out = apply(logged_plan(_build_plan(sched), log), xi, rngs)
            return (*out, {node: np.array(v, dtype=float).T for node, v in log.items()}, xi)

        with qdyn._one_blas_thread():
            x, p, w, _, xi = block(lambda plan, xi, rngs: qdyn._apply_map(
                sched, plan, linear, [(0, xi)], rngs))
        x_own, p_own, w_own, _, _ = block(lambda plan, xi, rngs: gathered_map(
            sched, plan, linear, xi, rngs, stacked=False))
        x_old, p_old, w_old, draws, _ = block(lambda plan, xi, rngs: gathered_map(
            sched, plan, linear, xi, rngs))
        # Updating each group's tail in place from one update array makes
        # the additions the gathered update makes, in the same order: given
        # the same products, the same bits
        for new, own in ((x, x_own), (p, p_own), (w, w_own)):
            assert new.tobytes() == own.tobytes()

        # The a-priori bound on the move from the stacked product, formed
        # before the two are compared.
        # - A dot of a row with a path sums n terms, within gamma_n sum_j
        #   |row_j xi_j| of its exact value (Higham, section 3.1) whatever
        #   the order OpenBLAS sums in: two evaluations differ by at most
        #   twice that, D for a record and D_iv for rbar and pbar.
        # - Each of these draws' r_pre, r0 and p0 is drawn without (rbar,
        #   pbar), is rbar itself, or is pbar plus a draw: it moves by at
        #   most D_iv = |d rbar| + |d pbar| and its rounding, 2 u |value|.
        #   So the shift, the kick and the jump each move by at most c = 2
        #   D_iv + 2 u (|r_pre| + |r0| + |p0|), and a record at the node by c.
        # - A record after the node, x + (shift + G kick) + J dx, moves by
        #   its product's D, c (1 + |G| + |J|) at its lag, and the five
        #   roundings of each evaluation, within gamma_5 of the absolute
        #   terms.  To first order, doubled.
        gamma = gamma_n(n)
        d_rec = [2 * gamma * np.abs(rows) @ np.abs(xi).T for rows in (x_rows, p_rows)]
        rec = sched.record_nodes()
        bound = [d.T.copy() for d in d_rec]
        for k, node in enumerate(sched.intervention_nodes()):
            d_iv = 2 * gamma * (np.abs(iv_rows[:, k]) @ np.abs(xi).T).sum(axis=0)
            rbar, pbar, r_pre, r0, p0, _ = draws[node]
            c = 2 * d_iv + 2 * U * (np.abs(r_pre) + np.abs(r0) + np.abs(p0))
            after = rec > node
            lag = rec[after] - node
            terms = [np.abs(x_old[:, after]) + np.abs(r_pre - rbar)[:, None],
                     np.abs(p_old[:, after])]
            for b, g, j, t in zip(bound, (gx, gp), (jx, jp), terms):
                b[:, after] += (c[:, None] * (1 + np.abs(g[lag]) + np.abs(j[lag]))
                                + gamma_n(5) * (t + np.abs(g[lag] * (p0 - pbar)[:, None])
                                                + np.abs(j[lag] * (r0 - r_pre)[:, None])))
                b[:, rec == node] += c[:, None]
        bound = [2 * b for b in bound]
        assert np.all(np.abs(x - x_old) <= bound[0])
        assert np.all(np.abs(p - p_old) <= bound[1])
        # the weights: a reset's and a translate Gaussian's do not read
        # (rbar, pbar); a translate cat's c W(r_pre, pbar) moves by at most
        # |c| |dW/dp| |d pbar|, doubled
        prep = sched.interventions[0].preparation if sched.interventions else None
        if isinstance(prep, CatProject):
            _, pbar, r_pre, _, _, _ = draws[sched.intervention_nodes()[0]]
            d_pbar = 2 * gamma * np.abs(iv_rows[1, 0]) @ np.abs(xi).T
            slope = cat_wigner_bounds(prep)[1]
            assert np.all(np.abs(w - w_old)
                          <= 2 * np.abs(w_old / prep.wigner(r_pre, pbar)) * slope * d_pbar)
        else:
            assert w.tobytes() == w_old.tobytes()
        # without a preparation the records' products are the stacked
        # product's shape: the same bits
        if not sched.interventions:
            assert x.tobytes() == x_old.tobytes() and p.tobytes() == p_old.tobytes()

    def test_only_the_rows_read_are_built_and_counted(self):
        # fig1 reads x: its rows hold x at the records and both at the
        # preparation, as its plan counts; the engine rule counts both
        spec, pot, sched, statistics = preset_args("fig1")
        (x_rows, p_rows, iv_rows), *_ = qdyn.linear_rows(spec, pot, sched, ("x",))
        assert p_rows is None and iv_rows.shape == (2, 1, sched.n_steps + 1)
        held = x_rows.nbytes + iv_rows.nbytes + 4 * 8 * (sched.n_steps + 1)
        assert qdyn._map_rows(sched, ("x",)).nbytes == held
        assert qdyn._map_rows(sched).nbytes == held + x_rows.nbytes
        plan = {t.name: t.nbytes for t in qdyn.memory_plan(spec, pot, sched, statistics,
                                                           4096, records=("x",)).terms}
        assert plan["map rows"] == held
        with pytest.raises(ValueError, match="records are among"):
            qdyn.memory_plan(spec, pot, sched, statistics, 4096, records=("v",))


class TestStreams:
    SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 7, 2**70 + 11)
    TAGS = (0, 1, 3)
    # past 2**32 an id is two entropy words: with the seed and the tag more
    # than SeedSequence's pool of four
    IDS = (0, 1, 1023, 2**31, 2**32 - 1, 2**32, 2**40 + 3)

    @staticmethod
    def seed_sequence_stream(seed, tag, i):
        return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, tag, i))))

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("tag", TAGS)
    def test_keys_and_normals_are_seed_sequences(self, seed, tag):
        streams = _traj_streams(seed, tag, self.IDS)
        assert len(streams) == len(self.IDS)
        for i, rng in zip(self.IDS, streams):
            ref = self.seed_sequence_stream(seed, tag, i)
            key = np.random.SeedSequence((seed, tag, i)).generate_state(2, np.uint64)
            assert rng.bit_generator.state["state"]["key"].tobytes() == key.tobytes()
            assert str(rng.bit_generator.state) == str(ref.bit_generator.state)
            assert rng.standard_normal(8).tobytes() == ref.standard_normal(8).tobytes()
        single = _traj_stream(seed, tag, self.IDS[-1])
        assert single.standard_normal(8).tobytes() == \
            self.seed_sequence_stream(seed, tag, self.IDS[-1]).standard_normal(8).tobytes()

    def test_negative_entropy_rejected_as_seed_sequence_rejects_it(self):
        # numpy would cast a negative numpy integer id to uint64 unchecked
        for args in ((-1, 0, 0), (0, -1, 0), (0, 0, -1), (0, 0, np.int64(-1))):
            with pytest.raises(ValueError):
                np.random.SeedSequence(args)
            with pytest.raises(ValueError):
                _traj_streams(*args[:2], [args[2]])

    def test_noise_blocks_draw_the_seed_sequence_paths(self):
        # a block that straddles 2**32 keys ids of one and of two words
        sched = Schedule(t_eq=2.0, t_end=1.0, dt=0.05)
        grid = qnoise.FrequencyGrid.for_times(FIG1, sched.dt, sched.n_steps + 1)
        ids = range(2**32 - 40, 2**32 + 30)
        rows, _ = drawn_noise(FIG1, grid, "quantum", 4099, 2, ids)
        ref = qnoise.synthesize_batch(FIG1, grid, "quantum",
                                      [self.seed_sequence_stream(4099, 2, i) for i in ids])
        assert rows.tobytes() == ref.tobytes()


