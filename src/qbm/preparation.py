"""Phase-space preparation functions, their sampling rules and weights.

A preparation at time ``t_k`` maps the pre-intervention point ``(rbar, pbar)``
to a post-intervention point ``(r0, p0)`` plus a signed importance weight.
The new point is drawn by rejection from a density ``q`` proportional to
``|lambda(r0, p0 | rbar, pbar)|`` inside a box that encloses the essential
support, and the weight is the quotient ``lambda / q``.  With that quotient
the weighted trajectory average is an exact importance-sampling identity even
when the preparation function takes negative values; unknown normalisation
constants cancel between numerator and denominator of the ratio estimator.

Two sampling modes exist for position-selective preparations:

- ``lab``: the literal update (position kept for delta-constrained forms,
  jumped otherwise with a friction boundary term).
- ``translate``: for free (translation-invariant) potentials, where the
  equilibrium position marginal is improper and the preparation itself fixes
  the coordinate origin.  The whole trajectory is translated to the sampled
  pre-intervention position, which realises the flat-marginal limit exactly
  instead of approaching it logarithmically in the equilibration span.
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import InterventionResult
from .errors import ConfigurationError, DomainError, EnvelopeError

# Rejection draws happen in blocks; a sampler that burns through this many
# proposal blocks without one acceptance is below the 1e-4 acceptance floor
# with overwhelming probability.
_REJECTION_BLOCK = 128
_REJECTION_MAX_BLOCKS = 2000

_GAUSS_PREFACTOR = 1.0 / (2.0 * (2.0 * np.pi) ** 2)
# Mass of a centred unit Gaussian within +-6 sigma; the box truncation error
# of the 6-sigma envelope is below 1e-8.
_SIX_SIGMA_MASS = 0.9999999980268247


@dataclass(frozen=True)
class Box:
    """Rectangular sampling envelope in phase space."""

    center_r: float
    half_r: float
    center_p: float
    half_p: float


def gaussian_value(sigma0, r0, p0, rbar, pbar, hbar=1.0):
    """Position-localising Gaussian preparation density (delta factor implied).

    Evaluates ``exp(-r0^2/(2 sigma0^2) - (2 sigma0^2/hbar^2)(p0 - pbar)^2)``
    times a constant prefactor.  The ``delta(r0 - rbar)`` factor is handled
    structurally by the sampler (r0 is never moved away from rbar), so the
    caller is expected to pass ``r0 = rbar``.  Prefactor constants cancel in
    the weighted estimator.
    """
    r0 = np.asarray(r0, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    out = _GAUSS_PREFACTOR * np.exp(
        -r0**2 / (2.0 * sigma0**2)
        - (2.0 * sigma0**2 / hbar**2) * (p0 - pbar) ** 2)
    return out if out.ndim else float(out)


def cat_wigner(x0, sigma, r, p, hbar=1.0):
    """Wigner function of a symmetric two-packet superposition state.

    With ``G(r, p) = 2 exp(-r^2/(2 sigma^2) - 2 sigma^2 p^2 / hbar^2)``:

        W(r, p) = [G(r - x0, p) + G(r + x0, p)
                   + 2 G(r, p) cos(2 x0 p / hbar)] / (2 pi hbar * norm)

    where ``norm = 2 (1 + exp(-x0^2/(2 sigma^2)))`` comes from the overlap of
    the two packets.  Integrates to 1 over phase space; negative in the
    interference fringes for well-separated packets.
    """
    r = np.asarray(r, dtype=float)
    p = np.asarray(p, dtype=float)

    def packet(rr):
        return 2.0 * np.exp(-rr**2 / (2.0 * sigma**2) - 2.0 * sigma**2 * p**2 / hbar**2)

    overlap = np.exp(-x0**2 / (2.0 * sigma**2))
    norm = 2.0 * (1.0 + overlap)
    out = (packet(r - x0) + packet(r + x0)
           + 2.0 * packet(r) * np.cos(2.0 * x0 * p / hbar)) / (2.0 * np.pi * hbar * norm)
    return out if out.ndim else float(out)


def _rejection_draw(rng, propose, density, ceiling):
    """Draw one point from density/integral by rejection under ``ceiling``."""
    for _ in range(_REJECTION_MAX_BLOCKS):
        cand = propose(rng, _REJECTION_BLOCK)
        dens = density(*cand)
        if np.any(dens > ceiling * (1.0 + 1e-9)):
            raise EnvelopeError("rejection ceiling below the sampled density; "
                                "envelope is misconfigured")
        accept = rng.random(_REJECTION_BLOCK) * ceiling < dens
        hits = np.flatnonzero(accept)
        if len(hits):
            k = hits[0]
            return tuple(c[k] for c in cand)
    raise EnvelopeError(
        f"rejection acceptance below 1e-4 over {_REJECTION_BLOCK * _REJECTION_MAX_BLOCKS} "
        "proposals; envelope is misconfigured")


class Identity:
    """No-op preparation: keeps the phase-space point, weight exactly 1."""

    form = "identity"

    def envelope(self, rbar, pbar):
        return Box(center_r=rbar, half_r=0.0, center_p=pbar, half_p=0.0)

    def sample(self, rbar, pbar, rng):
        return rbar, pbar, 1.0

    def sample_translate(self, rbar, pbar, rng):
        return InterventionResult(r0=rbar, p0=pbar, weight=1.0)


class MomentumReset:
    """Sharp momentum localisation: keeps position, pins momentum.

    Product form with structural delta factors ``delta(r0 - rbar) delta(p0 - p)``;
    used to start momentum-relaxation measurements from a definite momentum.
    """

    form = "product-form"

    def __init__(self, p_value=0.0):
        self.p_value = float(p_value)

    def envelope(self, rbar, pbar):
        return Box(center_r=rbar, half_r=0.0, center_p=self.p_value, half_p=0.0)

    def sample(self, rbar, pbar, rng):
        return rbar, self.p_value, 1.0

    def sample_translate(self, rbar, pbar, rng):
        return InterventionResult(r0=rbar, p0=self.p_value, weight=1.0)


class GaussianLocalize:
    """Gaussian position localisation with the conjugate momentum blur.

    The preparation keeps the position (structural delta) and redraws the
    momentum around ``pbar`` with standard deviation ``hbar / (2 sigma0)``,
    weighting the trajectory by the position factor ``exp(-rbar^2/(2 sigma0^2))``
    (times constants that cancel in the ratio estimator).
    """

    form = "gaussian-localize"

    def __init__(self, sigma0, hbar=1.0):
        if not sigma0 > 0:
            raise DomainError("sigma0 must be > 0")
        self.sigma0 = float(sigma0)
        self.hbar = float(hbar)

    @property
    def sigma_p(self):
        return self.hbar / (2.0 * self.sigma0)

    def value(self, r0, p0, rbar, pbar):
        return gaussian_value(self.sigma0, r0, p0, rbar, pbar, hbar=self.hbar)

    def envelope(self, rbar, pbar):
        return Box(center_r=rbar, half_r=0.0, center_p=pbar, half_p=6.0 * self.sigma_p)

    def sample(self, rbar, pbar, rng):
        box = self.envelope(rbar, pbar)
        ceiling = self.value(rbar, pbar, rbar, pbar)

        def propose(r, n):
            return (box.center_p + box.half_p * (2.0 * r.random(n) - 1.0),)

        def density(p0):
            return self.value(rbar, p0, rbar, pbar)

        if ceiling == 0.0:
            # rbar far in the Gaussian tail: weight underflows to 0, point kept
            return rbar, pbar, 0.0
        (p0,) = _rejection_draw(rng, propose, density, ceiling)
        # weight = lambda / q with q the normalised accepted density; the p0
        # dependence cancels, leaving the box mass of lambda at this rbar.
        weight = (_GAUSS_PREFACTOR * np.exp(-rbar**2 / (2.0 * self.sigma0**2))
                  * np.sqrt(2.0 * np.pi) * self.sigma_p * _SIX_SIGMA_MASS)
        return rbar, float(p0), float(weight)

    def sample_translate(self, rbar, pbar, rng):
        r0 = self.sigma0 * rng.standard_normal()
        p0 = pbar + self.sigma_p * rng.standard_normal()
        return InterventionResult(r0=float(r0), p0=float(p0), weight=1.0,
                                  r_pre=float(r0))


class CatProject:
    """Projection onto a two-packet superposition (cat) state.

    The preparation function factorises into a post-factor in ``(r0, p0)``
    and a pre-factor in ``(rbar, pbar)``, both equal to the cat Wigner
    function; only the post-factor is sampled (by rejection on its absolute
    value) and the pre-factor multiplies the weight.  The overall projection
    normalisation is dropped: it cancels in the ratio estimator.
    """

    form = "cat-project"

    def __init__(self, x0, sigma, hbar=1.0):
        if not sigma > 0:
            raise DomainError("sigma must be > 0")
        if x0 < 0:
            raise DomainError("x0 must be >= 0")
        self.x0 = float(x0)
        self.sigma = float(sigma)
        self.hbar = float(hbar)
        self._box_mass = None

    def wigner(self, r, p):
        return cat_wigner(self.x0, self.sigma, r, p, hbar=self.hbar)

    def value(self, r0, p0, rbar, pbar):
        return self.wigner(r0, p0) * self.wigner(rbar, pbar)

    def envelope(self, rbar, pbar):
        half_p = 6.0 * self.hbar / (2.0 * self.sigma)
        return Box(center_r=0.0, half_r=self.x0 + 6.0 * self.sigma,
                   center_p=0.0, half_p=half_p)

    def _abs_box_mass(self):
        """integral of |W| over the envelope box (cached; constant per form)."""
        if self._box_mass is None:
            box = self.envelope(0.0, 0.0)
            r = np.linspace(-box.half_r, box.half_r, 801)
            p = np.linspace(-box.half_p, box.half_p, 801)
            vals = np.abs(self.wigner(r[:, None], p[None, :]))
            from scipy.integrate import simpson
            self._box_mass = float(simpson(simpson(vals, x=p, axis=1), x=r))
        return self._box_mass

    def _draw_post(self, rng):
        box = self.envelope(0.0, 0.0)
        overlap = np.exp(-self.x0**2 / (2.0 * self.sigma**2))
        ceiling = 8.0 / (2.0 * np.pi * self.hbar * 2.0 * (1.0 + overlap))

        def propose(r, n):
            u = r.random((2, n))
            return (box.center_r + box.half_r * (2.0 * u[0] - 1.0),
                    box.center_p + box.half_p * (2.0 * u[1] - 1.0))

        def density(r0, p0):
            return np.abs(self.wigner(r0, p0))

        return _rejection_draw(rng, propose, density, ceiling)

    def sample(self, rbar, pbar, rng):
        r0, p0 = self._draw_post(rng)
        w_post = np.sign(self.wigner(r0, p0)) * self._abs_box_mass()
        weight = w_post * self.wigner(rbar, pbar)
        return float(r0), float(p0), float(weight)

    def sample_translate(self, rbar, pbar, rng):
        # Importance density for the pre-intervention position: the cat state's
        # own position marginal (a positive three-component Gaussian mixture).
        overlap = np.exp(-self.x0**2 / (2.0 * self.sigma**2))
        probs = np.array([1.0, 1.0, 2.0 * overlap])
        probs /= probs.sum()
        centers = np.array([-self.x0, self.x0, 0.0])
        comp = rng.choice(3, p=probs)
        r_pre = centers[comp] + self.sigma * rng.standard_normal()
        dens = sum(w * np.exp(-(r_pre - c) ** 2 / (2.0 * self.sigma**2))
                   / np.sqrt(2.0 * np.pi * self.sigma**2)
                   for w, c in zip(probs, centers))
        w_pre = self.wigner(r_pre, pbar) / dens

        r0, p0 = self._draw_post(rng)
        w_post = np.sign(self.wigner(r0, p0)) * self._abs_box_mass()
        return InterventionResult(r0=float(r0), p0=float(p0),
                                  weight=float(w_pre * w_post), r_pre=float(r_pre))


class ProductForm:
    """General factorised preparation with callable post and pre factors.

    ``post_factor(r0, p0)`` is sampled by rejection on its absolute value
    inside the given envelope box; ``pre_factor(rbar, pbar)`` multiplies the
    weight.  The rejection ceiling is scanned numerically with a safety
    margin; densities exceeding it raise :class:`EnvelopeError`.
    """

    form = "product-form"

    def __init__(self, post_factor, pre_factor, box):
        self.post_factor = post_factor
        self.pre_factor = pre_factor
        self.box = box
        r = np.linspace(box.center_r - box.half_r, box.center_r + box.half_r, 201)
        p = np.linspace(box.center_p - box.half_p, box.center_p + box.half_p, 201)
        vals = np.abs(post_factor(r[:, None], p[None, :]))
        self._ceiling = 1.25 * float(vals.max())
        from scipy.integrate import simpson
        self._box_mass = float(simpson(simpson(vals, x=p, axis=1), x=r))

    def envelope(self, rbar, pbar):
        return self.box

    def value(self, r0, p0, rbar, pbar):
        return self.post_factor(r0, p0) * self.pre_factor(rbar, pbar)

    def sample(self, rbar, pbar, rng):
        box = self.box

        def propose(r, n):
            u = r.random((2, n))
            return (box.center_r + box.half_r * (2.0 * u[0] - 1.0),
                    box.center_p + box.half_p * (2.0 * u[1] - 1.0))

        def density(r0, p0):
            return np.abs(self.post_factor(r0, p0))

        r0, p0 = _rejection_draw(rng, propose, density, self._ceiling)
        w_post = np.sign(self.post_factor(r0, p0)) * self._box_mass
        weight = w_post * self.pre_factor(rbar, pbar)
        return float(r0), float(p0), float(weight)


def as_intervention(prep, mode="lab"):
    """Adapt a preparation to the integrator's intervention callback protocol."""
    if mode == "lab":
        def callback(t, rbar, pbar, rng):
            r0, p0, w = prep.sample(rbar, pbar, rng)
            return InterventionResult(r0=r0, p0=p0, weight=w)
        return callback
    if mode == "translate":
        if not hasattr(prep, "sample_translate"):
            raise ConfigurationError(
                f"{type(prep).__name__} has no translation-covariant sampler")
        def callback(t, rbar, pbar, rng):
            return prep.sample_translate(rbar, pbar, rng)
        return callback
    raise ConfigurationError(f"unknown intervention mode {mode!r}")
