"""Phase-space preparation functions, their sampling rules and weights.

A preparation at time ``t_k`` maps the pre-intervention point ``(rbar, pbar)``
to a post-intervention point ``(r0, p0)`` plus a signed importance weight.
The new point is drawn from a density ``q`` proportional to
``|lambda(r0, p0 | rbar, pbar)|`` and the weight is the quotient
``lambda / q`` up to one constant that every draw of the preparation shares.
The Gaussian localisation draws its momentum blur in closed form; the cat
projection draws by rejection inside a box, fixed when the preparation is
built, that encloses the essential support, and its weight leaves out the
mass of ``|lambda|`` in that box.  Every estimate qbm reports is the ratio
``sum(w O) / sum(w)``, which that constant cancels, so the weighted
trajectory average is an exact importance-sampling identity even when the
preparation function takes negative values.

Every preparation draws ``sample(rbar, pbar, rng) -> (r0, p0, weight)``, and
is attached to a run through ``Schedule(interventions=((t, prep),))``.  Two
sampling modes exist for position-selective preparations:

- ``lab``: the literal update (position kept for delta-constrained forms,
  jumped otherwise with a friction boundary term), drawn by ``sample``.
- ``translate``: for free (translation-invariant) potentials, where the
  equilibrium position marginal is improper and the preparation itself fixes
  the coordinate origin.  ``sample_translate(rbar, pbar, rng) -> (r_pre, r0,
  p0, weight)`` first translates the whole trajectory to the sampled
  pre-intervention position ``r_pre``, which realises the flat-marginal limit
  exactly instead of approaching it logarithmically in the equilibration span;
  the move from ``r_pre`` to ``r0`` is a jump.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, EnvelopeError

# Rejection draws happen in blocks; a sampler that burns through this many
# proposal blocks without one acceptance is below the 1e-4 acceptance floor
# with overwhelming probability.
_REJECTION_BLOCK = 128
_REJECTION_MAX_BLOCKS = 2000

_GAUSS_PREFACTOR = 1.0 / (2.0 * (2.0 * np.pi) ** 2)


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


def _draw_signed(rng, box, factor, ceiling):
    """Draw ``(r0, p0)`` from ``|factor|`` inside ``box`` by rejection under ``ceiling``.

    Returns the point with ``sign(factor)`` there: ``factor / q`` for the
    drawn density ``q``, up to the integral of ``|factor|`` over the box,
    which every draw shares.
    """
    for _ in range(_REJECTION_MAX_BLOCKS):
        u = rng.random((2, _REJECTION_BLOCK))
        r0 = box.center_r + box.half_r * (2.0 * u[0] - 1.0)
        p0 = box.center_p + box.half_p * (2.0 * u[1] - 1.0)
        vals = factor(r0, p0)
        dens = np.abs(vals)
        if np.any(dens > ceiling * (1.0 + 1e-9)):
            raise EnvelopeError("rejection ceiling below the sampled density; "
                                "envelope is misconfigured")
        hits = np.flatnonzero(rng.random(_REJECTION_BLOCK) * ceiling < dens)
        if len(hits):
            k = hits[0]
            return r0[k], p0[k], np.sign(vals[k])
    raise EnvelopeError(
        f"rejection acceptance below 1e-4 over {_REJECTION_BLOCK * _REJECTION_MAX_BLOCKS} "
        "proposals; envelope is misconfigured")


class MomentumReset:
    """Sharp momentum localisation: keeps position, pins momentum.

    Product form with structural delta factors ``delta(r0 - rbar) delta(p0 - p)``;
    used to start momentum-relaxation measurements from a definite momentum.
    Lab mode only: it selects no position, so a translate mode would repeat the lab draw.
    """

    def __init__(self, p_value=0.0):
        self.p_value = float(p_value)

    def sample(self, rbar, pbar, rng):
        return rbar, self.p_value, 1.0


class GaussianLocalize:
    """Gaussian position localisation with the conjugate momentum blur.

    The preparation keeps the position (structural delta) and redraws the
    momentum around ``pbar`` with standard deviation ``hbar / (2 sigma0)``,
    weighting the trajectory by the position factor ``exp(-rbar^2/(2 sigma0^2))``
    (times constants that cancel in the ratio estimator).
    """

    def __init__(self, sigma0, hbar=1.0):
        if not sigma0 > 0:
            raise DomainError("sigma0 must be > 0")
        self.sigma0 = float(sigma0)
        self.hbar = float(hbar)

    @property
    def sigma_p(self):
        return self.hbar / (2.0 * self.sigma0)

    def sample(self, rbar, pbar, rng):
        p0 = pbar + self.sigma_p * rng.standard_normal()
        # weight = lambda / q with q the normal density of p0; the p0
        # dependence cancels, leaving lambda's momentum integral at rbar.
        weight = (_GAUSS_PREFACTOR * np.exp(-rbar**2 / (2.0 * self.sigma0**2))
                  * np.sqrt(2.0 * np.pi) * self.sigma_p)
        return rbar, float(p0), float(weight)

    def sample_translate(self, rbar, pbar, rng):
        r0 = self.sigma0 * rng.standard_normal()
        p0 = pbar + self.sigma_p * rng.standard_normal()
        return float(r0), float(r0), float(p0), 1.0


class CatProject:
    """Projection onto a two-packet superposition (cat) state.

    The preparation function factorises into a post-factor in ``(r0, p0)``
    and a pre-factor in ``(rbar, pbar)``, both equal to the cat Wigner
    function; only the post-factor is sampled (by rejection on its absolute
    value inside ``box``) and the pre-factor multiplies the weight.  Two
    constants are dropped, both cancelled by the ratio estimator: the
    overall projection normalisation, and the mass of ``|W|`` in the box,
    so the post-factor's weight is its sign.
    """

    def __init__(self, x0, sigma, hbar=1.0):
        if not sigma > 0:
            raise DomainError("sigma must be > 0")
        if x0 < 0:
            raise DomainError("x0 must be >= 0")
        self.x0 = float(x0)
        self.sigma = float(sigma)
        self.hbar = float(hbar)
        self.box = Box(center_r=0.0, half_r=self.x0 + 6.0 * self.sigma,
                       center_p=0.0, half_p=6.0 * self.hbar / (2.0 * self.sigma))
        # the peak of |W|: each of its four packet terms is at most 2
        overlap = np.exp(-self.x0**2 / (2.0 * self.sigma**2))
        self._ceiling = 8.0 / (2.0 * np.pi * self.hbar * 2.0 * (1.0 + overlap))
        # translate mode's importance density for the pre-intervention
        # position: the cat state's own position marginal, a positive
        # three-component Gaussian mixture
        self._probs = np.array([1.0, 1.0, 2.0 * overlap])
        self._probs /= self._probs.sum()
        self._centers = np.array([-self.x0, self.x0, 0.0])

    def wigner(self, r, p):
        return cat_wigner(self.x0, self.sigma, r, p, hbar=self.hbar)

    def sample(self, rbar, pbar, rng):
        r0, p0, sign = _draw_signed(rng, self.box, self.wigner, self._ceiling)
        return float(r0), float(p0), float(sign * self.wigner(rbar, pbar))

    def sample_translate(self, rbar, pbar, rng):
        comp = rng.choice(3, p=self._probs)
        r_pre = self._centers[comp] + self.sigma * rng.standard_normal()
        dens = sum(w * np.exp(-(r_pre - c) ** 2 / (2.0 * self.sigma**2))
                   / np.sqrt(2.0 * np.pi * self.sigma**2)
                   for w, c in zip(self._probs, self._centers))
        w_pre = self.wigner(r_pre, pbar) / dens

        r0, p0, sign = _draw_signed(rng, self.box, self.wigner, self._ceiling)
        return float(r_pre), float(r0), float(p0), float(w_pre * sign)


def as_intervention(prep, mode="lab"):
    """The per-trajectory draw ``(rbar, pbar, rng) -> (r_pre, r0, p0, weight)``
    of a preparation in the given mode; ``r_pre = rbar`` in lab mode."""
    if mode == "lab":
        return lambda rbar, pbar, rng: (rbar, *prep.sample(rbar, pbar, rng))
    if mode == "translate":
        if not hasattr(prep, "sample_translate"):
            raise ConfigurationError(
                f"{type(prep).__name__} has no translation-covariant sampler")
        return prep.sample_translate
    raise ConfigurationError(f"unknown intervention mode {mode!r}")
