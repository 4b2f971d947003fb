"""Analytical and semi-analytical baselines for validating the simulator."""

from dataclasses import dataclass

import numpy as np

from . import bath as _bath
from . import noise as _noise
from .dynamics import _NOISE_BLOCK, FREE, HARMONIC, momentum_response, response_rows
from .errors import ConfigurationError
from .observables import ObservableSeries
from .preparation import GaussianLocalize, MomentumReset

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
    own step to share discretisation with a Monte Carlo run; ``t_grid``
    must be nonempty and nondecreasing from 0, and every time of it a
    multiple of ``dt``.
    """
    if pot.form not in (FREE, HARMONIC):
        raise ConfigurationError(
            "response requires a quadratic (free or harmonic) potential")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or not len(t_grid) or not (
            t_grid[0] >= 0 and np.all(np.diff(t_grid) >= 0)):
        raise ConfigurationError("t_grid must be a nonempty, nondecreasing grid of times >= 0")
    n_steps = int(round(t_grid[-1] / dt))
    x, _ = momentum_response(spec, pot, dt, n_steps)
    times = dt * np.arange(n_steps + 1)
    idx = np.round(t_grid / dt).astype(int)
    if np.any(np.abs(t_grid - times[idx]) > 1e-9 * max(1.0, t_grid[-1])):
        raise ConfigurationError("t_grid is not commensurate with dt")
    return ResponseFunction(times=t_grid, values=x[idx], hbar=spec.hbar)


# what exact_series covers: the preparations the scheme moves affinely
_EXACT_RULE = ("[reference] mode needs a free or harmonic potential whose preparations "
               "are all momentum resets or, on the free potential, gaussians in translate mode")


def check_exact(pot, sched):
    """Raise :class:`ConfigurationError` unless :func:`exact_series` covers
    the run of ``pot`` over ``sched`` (``_EXACT_RULE``)."""
    if pot.form not in (FREE, HARMONIC):
        raise ConfigurationError(f"{_EXACT_RULE}, not the {pot.form} potential")
    for iv in sched.interventions:
        prep = iv.preparation
        if not (isinstance(prep, MomentumReset) or (
                isinstance(prep, GaussianLocalize) and iv.mode == "translate"
                and pot.form == FREE)):
            raise ConfigurationError(
                f"{_EXACT_RULE}, not {type(prep).__name__} in {iv.mode} mode "
                f"on the {pot.form} potential")


def exact_series(spec, pot, sched, statistics, observable):
    """Exact <x^2> (``observable`` "x2") or <p^2> ("p2") of the scheme through
    the schedule's preparations, on the record times with standard error 0.

    For a free or harmonic potential the scheme is linear: x and p at each
    node are affine forms, a row of weights of the noise nodes (those of
    :func:`qbm.dynamics.response_rows`, through the run's memoised
    :func:`qbm.dynamics.momentum_response` (Gx, Gp)), then the mean, then
    the coefficients of each translate gaussian's two standard normals.  A
    preparation at node r moves the forms at every node n >= r as the
    linear map moves its samples: x by a shift, x and p by (Gx, Gp)(n - r)
    times a kick.  A momentum reset kicks by ``p_value - p(r)``; a gaussian
    in translate mode shifts x by ``sigma0 z - x(r)`` and kicks by
    ``sigma_p z'``.  The value is :func:`qbm.noise.linear_variance` of the
    noise weights plus the squared normal coefficients plus the mean
    squared: the expectation of :func:`qbm.dynamics.run_ensemble` with the
    same dt, history rule and FFT period.

    The record forms exist ``_NOISE_BLOCK`` at a time; the transform and
    the sums of ``linear_variance`` run per row, so the blocks leave the
    bits as they are.
    """
    if observable not in ("x2", "p2"):
        raise ConfigurationError(f"exact_series computes x2 or p2, not {observable!r}")
    check_exact(pot, sched)
    var = ("x2", "p2").index(observable)
    dt, n = sched.dt, sched.n_steps + 1
    responses = momentum_response(spec, pot, dt, sched.n_steps)
    gaussians = [iv for iv in sched.interventions
                 if isinstance(iv.preparation, GaussianLocalize)]
    moves = []  # (node, shift of x or None, kick) of each preparation so far

    def forms(var, nodes):
        """The forms of x (``var`` 0) or p (1) at ``nodes``."""
        g = responses[var]
        out = np.zeros((len(nodes), n + 1 + 2 * len(gaussians)))
        response_rows(g, dt, nodes, out=out[:, :n])
        for r, shift, kick in moves:
            after = nodes >= r
            out[after] += g[nodes[after] - r, None] * kick
            if var == 0 and shift is not None:
                out[after] += shift
        return out

    for iv, r in zip(sched.interventions, sched.intervention_nodes()):
        prep, at = iv.preparation, np.array([r])
        if isinstance(prep, MomentumReset):
            kick = -forms(1, at)[0]
            kick[n] += prep.p_value
            moves.append((r, None, kick))
        else:
            z = n + 1 + 2 * gaussians.index(iv)  # the columns of z and z'
            shift = -forms(0, at)[0]
            shift[z] += prep.sigma0
            kick = np.zeros_like(shift)
            kick[z + 1] = prep.sigma_p
            moves.append((r, shift, kick))

    grid = _noise.FrequencyGrid.for_times(spec, dt, n)
    nodes = sched.record_nodes()
    est = []
    for lo in range(0, len(nodes), _NOISE_BLOCK):
        f = forms(var, nodes[lo:lo + _NOISE_BLOCK])
        est.append(_noise.linear_variance(spec, grid, statistics, f[:, :n])
                   + np.sum(f[:, n + 1:] ** 2, axis=1) + f[:, n] ** 2)
    est = np.concatenate(est)
    return ObservableSeries(times=sched.record_times(), estimates=est,
                            standard_errors=np.zeros_like(est),
                            effective_sample_size=np.full(len(est), np.inf))


def sigma_analytical(sigma0, d2_series, resp):
    """Position variance of a Gaussian-localised preparation.

    Assembles ``sigma0^2 + d2(t) + A(t)^2 / sigma0^2`` pointwise from the
    thermal mean squared displacement (as :func:`qbm.observables.msd`
    measures it) and the deterministic response amplitude.  All three terms
    are individually nonnegative.  :func:`exact_series` gives the scheme's
    own curve of the same experiment.
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
