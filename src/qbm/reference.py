"""Analytical and semi-analytical baselines for validating the simulator."""

from dataclasses import dataclass

import numpy as np

from . import bath as _bath
from . import noise as _noise
from .dynamics import _NOISE_BLOCK, FREE, HARMONIC, momentum_response, response_rows
from .errors import ConfigurationError
from .observables import ObservableSeries
from .preparation import MomentumReset

# points at which small_parameter probes the potential over its range
_PROBE_POINTS = 2001

# E1(-gamma t - i gamma eps) overflows near gamma t = 709; above this gamma t
# p2_quadrature leaves out its oscillating term, below e^-700 of the flat one
_P2_OSCILLATION_CUTOFF = 700.0


@dataclass(frozen=True)
class ResponseFunction:
    """Homogeneous GLE response G with m G'' + int_0^t M(t-s) G'(s) ds = 0.

    Initial data G(0) = 0, G'(0) = 1/m (unit momentum impulse).  For linear
    dynamics the position commutator amplitude is A(t) = (hbar/2) G(t); the
    sign convention of A is unobservable here (it only enters squared).
    Deterministic: independent of temperature and of the noise statistics.
    """

    times: np.ndarray
    values: np.ndarray
    hbar: float = 1.0

    def amplitude(self):
        """A(t) = (hbar / 2) G(t)."""
        return 0.5 * self.hbar * self.values


def response(spec, pot, t_grid, dt):
    """Response function on ``t_grid`` by deterministic integration at step ``dt``.

    Supported for the free and harmonic potentials, where the dynamics is
    linear and the commutator reduces to a c-number.  Pass the ensemble's
    own step to share discretisation with a Monte Carlo run; every time of
    ``t_grid`` must be a multiple of ``dt``.
    """
    if pot.form not in (FREE, HARMONIC):
        raise ConfigurationError(
            "response requires a quadratic (free or harmonic) potential")
    t_grid = np.asarray(t_grid, dtype=float)
    n_steps = int(round(t_grid[-1] / dt))
    x, _ = momentum_response(spec, pot, dt, n_steps)
    times = dt * np.arange(n_steps + 1)
    idx = np.round(t_grid / dt).astype(int)
    if np.any(np.abs(t_grid - times[idx]) > 1e-9 * max(1.0, t_grid[-1])):
        raise ConfigurationError("t_grid is not commensurate with dt")
    return ResponseFunction(times=t_grid, values=x[idx], hbar=spec.hbar)


def _responses(spec, pot, sched):
    """``(Gx, Gp)`` of a quadratic potential over the run's steps: the
    :func:`qbm.dynamics.momentum_response` solve the run shares."""
    if pot.form not in (FREE, HARMONIC):
        raise ConfigurationError(
            "the exact references require a quadratic (free or harmonic) potential")
    return momentum_response(spec, pot, sched.dt, sched.n_steps)


def _exact_series(spec, sched, statistics, rows, mean=0.0):
    """``mean^2`` plus the variance over the synthesised noise of the rows
    ``rows(nodes)`` builds at the record nodes, as a series on the record
    times with standard error 0.

    The rows exist ``_NOISE_BLOCK`` at a time; the transform and the sums of
    :func:`qbm.noise.linear_variance` run per row, so the blocks leave the
    bits as they are.
    """
    grid = _noise.FrequencyGrid.for_times(spec, sched.dt, sched.n_steps + 1)
    nodes = sched.record_nodes()
    est = np.concatenate([
        _noise.linear_variance(spec, grid, statistics, rows(nodes[lo:lo + _NOISE_BLOCK]))
        for lo in range(0, len(nodes), _NOISE_BLOCK)]) + mean**2
    return ObservableSeries(times=sched.record_times(), estimates=est,
                            standard_errors=np.zeros_like(est),
                            effective_sample_size=np.full(len(est), np.inf))


def thermal_msd(spec, pot, sched, statistics):
    """Exact thermal mean squared displacement <(x(t) - x(0))^2> of the scheme.

    For a free or harmonic potential the integrator is linear in the noise:
    node k holds ``dt sum_{j<=k} G(k - j) xi_j``, with G the response to a
    unit momentum, of position (:func:`response`, G(0) = 0) or of momentum;
    xi_0 and xi_k count half.  :func:`qbm.noise.linear_variance` gives each
    displacement's variance over the synthesised noise: the expectation of
    :func:`qbm.dynamics.run_ensemble` with the same dt, history rule and FFT
    period.  The schedule's interventions are not applied.  The series has
    standard error 0 and effective size inf.
    """
    gx, _ = _responses(spec, pot, sched)
    # the first record node is t = 0
    origin = response_rows(gx, sched.dt, sched.record_nodes()[:1])
    return _exact_series(spec, sched, statistics,
                         lambda nodes: response_rows(gx, sched.dt, nodes) - origin)


def p2_exact(spec, pot, sched, statistics):
    """Exact <p^2> of the scheme through the schedule's momentum resets.

    The momentum rows are those of :func:`thermal_msd`, with the momentum
    response Gp.  A reset to ``p_value`` at node r adds the response to the
    kick ``p_value - p(r)``: for n >= r the rows become ``rows(n) - Gp(n - r)
    rows(r)`` and the mean ``p_value Gp(n - r)``.  The mean squared plus
    :func:`qbm.noise.linear_variance` of the rows is the expectation of
    :func:`qbm.dynamics.run_ensemble` on the same schedule, whose
    interventions must all be momentum resets.  Standard error 0.
    """
    resets = sched.intervention_nodes()
    for iv in sched.interventions:
        if not isinstance(iv.preparation, MomentumReset):
            raise ConfigurationError(
                f"p2_exact applies momentum resets only, not {type(iv.preparation).__name__}")
    _, gp = _responses(spec, pot, sched)
    n_rec = len(sched.record_nodes())
    # the reset nodes' means follow the records'
    nodes = np.append(sched.record_nodes(), resets).astype(int)
    mean = np.zeros(len(nodes))
    for k, (iv, r) in enumerate(zip(sched.interventions, resets), start=n_rec):
        after = nodes >= r
        mean[after] += gp[nodes[after] - r] * (iv.preparation.p_value - mean[k])
    kicks = []  # each reset's node and row, with the kicks of the resets before it

    def rows(nodes):
        out = response_rows(gp, sched.dt, nodes)
        for r, row in kicks:
            after = nodes >= r
            out[after] -= gp[nodes[after] - r][:, None] * row
        return out

    for r in resets:
        kicks.append((r, rows(np.array([r]))[0]))
    return _exact_series(spec, sched, statistics, rows, mean[:n_rec])


def sigma_analytical(sigma0, d2_series, resp):
    """Position variance of a Gaussian-localised preparation.

    Assembles ``sigma0^2 + d2(t) + A(t)^2 / sigma0^2`` pointwise from the
    thermal mean squared displacement (measured, or exact from
    :func:`thermal_msd`) and the deterministic response amplitude.  All
    three terms are individually nonnegative.
    """
    if len(d2_series.times) != len(resp.times) or \
            np.any(np.abs(d2_series.times - resp.times) > 1e-9):
        raise ConfigurationError("d2 series and response use different grids")
    a = resp.amplitude()
    est = sigma0**2 + d2_series.estimates + a**2 / sigma0**2
    return ObservableSeries(times=d2_series.times, estimates=est,
                            standard_errors=d2_series.standard_errors,
                            effective_sample_size=d2_series.effective_sample_size)


def p2_quadrature(spec, t):
    """Momentum variance growth from rest in the zero-temperature limit.

    ``(m*gamma*hbar/pi) * integral_0^inf domega omega e^{-eps*omega}
    |e^{i omega t} - e^{-gamma t}|^2 / (omega^2 + gamma^2)`` in closed form:
    ``(m*gamma*hbar/pi) [(1 + e^{-2 gamma t}) I(eps) - 2 e^{-gamma t} Re I(eps - i t)]``
    with ``I(s) = [e^{i gamma s} E1(i gamma s) + e^{-i gamma s} E1(-i gamma s)] / 2``,
    the integral of ``omega e^{-s omega} / (omega^2 + gamma^2)`` for Re s > 0
    (Abramowitz & Stegun 5.1).  Vectorised over ``t``; a scalar gives a float.
    Starts from zero, rises as (m*gamma*hbar/pi) t^2/eps^2 for t << eps,
    grows logarithmically for eps << t << 1/gamma.

    The damped-response factor ``e^{-gamma t}`` treats the friction as
    Markovian; the formula is therefore a wide-band approximation whose
    residual error decays only logarithmically in ``gamma*eps`` (a few
    percent at gamma*eps ~ 0.02).
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ConfigurationError("p2_quadrature requires t >= 0")
    out = np.zeros_like(t)
    if spec.gamma > 0.0:
        from scipy.special import exp1

        g = spec.gamma

        def wide_band(s):
            z = 1j * g * s
            return 0.5 * (np.exp(z) * exp1(z) + np.exp(-z) * exp1(-z))

        pref = spec.mass * g * spec.hbar / np.pi
        flat = wide_band(spec.eps).real
        osc = np.zeros_like(t)
        live = g * t < _P2_OSCILLATION_CUTOFF
        osc[live] = wide_band(spec.eps - 1j * t[live]).real
        value = pref * ((1.0 + np.exp(-2.0 * g * t)) * flat - 2.0 * np.exp(-g * t) * osc)
        out = np.where(t > 0.0, value, 0.0)
    return out if out.ndim else float(out)


def equilibrium_p2(spec):
    """Equilibrium momentum variance by the fluctuation-dissipation integral.

    ``(1/pi) * integral_0^inf noise_psd(omega) |chi_p(omega)|^2 domega`` with
    the momentum susceptibility of the free damped particle,
    ``|chi_p|^2 = 1/(omega^2 + gamma^2)``.  The prefactor is fixed by
    requiring that the kT = 0 value equal the long-time limit of
    :func:`p2_quadrature`, which this integral reproduces exactly.
    """
    if spec.gamma == 0.0:
        return 0.0
    from scipy.integrate import quad

    def integrand(w):
        return _bath.noise_psd(spec, w) / (w**2 + spec.gamma**2)

    value, _ = quad(integrand, 0.0, spec.omega_max, epsabs=1e-12,
                    epsrel=1e-10, limit=400)
    return value / np.pi


def coherence_length(spec):
    """Off-diagonal width of the equilibrium state and the variance behind it.

    Returns ``(lambda, p2_eq)`` with ``lambda = hbar / sqrt(p2_eq)``.  The
    length shrinks as the cutoff frequency 1/eps grows, even at kT = 0, since
    zero-point momentum fluctuations diverge logarithmically in the cutoff.
    """
    p2 = equilibrium_p2(spec)
    if p2 <= 0.0:
        return np.inf, p2
    return spec.hbar / np.sqrt(p2), p2


def small_parameter(spec, pot, x_range=None):
    """Classicality ratio lambda / L with L the potential's curvature scale.

    ``L = min over the probed range of |V'(x) / V'''(x)|^(1/2)`` excluding
    zeros of V'.  Quadratic potentials (V''' = 0) are exact for the
    trajectory mapping: returns (0.0, True), the flag marking the exact
    regime.  Polynomial potentials require an explicit ``x_range``.
    """
    if pot.form in (FREE, HARMONIC):
        return 0.0, True
    if x_range is None:
        raise ConfigurationError("small_parameter needs x_range for polynomial potentials")
    x = np.linspace(x_range[0], x_range[1], _PROBE_POINTS)
    v1 = pot.derivative(x, spec.mass, order=1)
    v3 = pot.derivative(x, spec.mass, order=3)
    if np.all(v3 == 0.0):
        return 0.0, True
    keep = (np.abs(v1) > 1e-12) & (np.abs(v3) > 1e-12)
    if not np.any(keep):
        return 0.0, True
    length = np.sqrt(np.min(np.abs(v1[keep] / v3[keep])))
    lam, _ = coherence_length(spec)
    return lam / length, False
