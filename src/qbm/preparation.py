"""Phase-space preparation functions, their sampling rules and weights.

A preparation at time ``t_k`` maps the pre-intervention point ``(rbar, pbar)``
to a post-intervention point ``(r0, p0)`` plus a signed importance weight.
The new point is drawn from a density ``q`` proportional to
``|lambda(r0, p0 | rbar, pbar)|`` and the weight is the quotient
``lambda / q``.  The Gaussian localisation draws its momentum blur in closed
form; the cat projection draws by rejection inside a box, fixed when the
preparation is built, that encloses the essential support.  With that
quotient the weighted trajectory average is an exact importance-sampling
identity even when the preparation function takes negative values; unknown
normalisation constants cancel between numerator and denominator of the
ratio estimator.

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

import threading
from dataclasses import dataclass
from functools import cache

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


@cache
def _rule():
    """Nodes and weights of the 20-point Gauss-Legendre rule on [0, 1].

    Built on first use: only a cat's box mass reads it, and importing
    ``numpy.polynomial`` for it would cost every run 0.76 MB of RSS.
    """
    x, w = np.polynomial.legendre.leggauss(20)
    return 0.5 * (x + 1.0), 0.5 * w


def _gauss_legendre(edges):
    """Nodes and weights of the 20-point rule on each interval between edges."""
    x, w = _rule()
    edges = np.asarray(edges, dtype=float)
    lo, width = edges[:-1, None], np.diff(edges)[:, None]
    return (lo + width * x).ravel(), (width * w).ravel()


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


def _draw_signed(rng, box, factor, ceiling, mass):
    """Draw ``(r0, p0)`` from ``|factor|`` inside ``box`` by rejection under ``ceiling``.

    Returns the point with its weight ``sign(factor) * mass``, ``mass`` being
    the integral of ``|factor|`` over the box.
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
            return r0[k], p0[k], np.sign(vals[k]) * mass
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
    value) and the pre-factor multiplies the weight.  The overall projection
    normalisation is dropped: it cancels in the ratio estimator.
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
        self._box_mass = None
        # a run's noise block threads draw from one preparation: the first
        # draw builds the box mass, the others wait for it
        self._box_mass_lock = threading.Lock()

    def wigner(self, r, p):
        return cat_wigner(self.x0, self.sigma, r, p, hbar=self.hbar)

    def _abs_box_mass(self):
        """Integral of |W| over the sampling box (cached; constant per form).

        ``W = c exp(-alpha p^2) [a(r) + b(r) cos(beta p)]`` with
        ``alpha = 2 sigma^2 / hbar^2``, ``beta = 2 x0 / hbar``,
        ``a(r) = exp(-(r - x0)^2 / 2 sigma^2) + exp(-(r + x0)^2 / 2 sigma^2)`` and
        ``b(r) = 2 exp(-r^2 / 2 sigma^2)``.  At fixed r its sign changes only at
        the fringe zeros ``cos(beta p) = -a/b``, which exist where b > a, i.e.
        for ``|r| < r* = (sigma^2 / x0) arccosh(exp(x0^2 / 2 sigma^2))``.  The p
        integral runs Gauss-Legendre between those zeros and the fringe troughs
        ``cos(beta p) = -1``, where |W| is smooth.  The r integral splits at r*,
        where the negative mass sets in as ``(r* - |r|)^{3/2}``, and maps
        ``[0, r*]`` by ``r = r* (1 - u^2)``, which makes that onset smooth.
        """
        if self._box_mass is None:
            box = self.box
            s2, beta = self.sigma**2, 2.0 * self.x0 / self.hbar
            t = self.x0**2 / (2.0 * s2)
            # arccosh(e^t) = t + log(1 + sqrt(1 - e^{-2t})), without overflow
            r_star = 0.0 if t == 0.0 else min(
                box.half_r, s2 / self.x0 * (t + np.log1p(np.sqrt(-np.expm1(-2.0 * t)))))
            # r pieces no wider than sigma, the width of the packets
            n_in = int(np.ceil(2.0 * r_star / self.sigma))
            n_out = int(np.ceil((box.half_r - r_star) / self.sigma))
            u, wu = _gauss_legendre(np.linspace(0.0, 1.0, n_in + 1))
            r_out, w_out = _gauss_legendre(np.linspace(r_star, box.half_r, n_out + 1))
            r = np.concatenate([r_star * (1.0 - u**2), r_out])
            wr = np.concatenate([2.0 * r_star * u * wu, w_out])

            # fringe troughs and zeros as phases beta*p, then the p pieces in [0, half_p]
            k = np.arange(int(beta * box.half_p / (2.0 * np.pi)) + 2)
            troughs = np.pi * (2 * k + 1)
            inner = 0.0
            for r_i, w_i in zip(r, wr):
                phases = troughs
                if r_i < r_star:
                    # a/b = e^{-t} cosh(r x0 / sigma^2) < 1 inside r*
                    q = self.x0 * r_i / s2
                    theta = np.arccos(-0.5 * (np.exp(q - t) + np.exp(-q - t)))
                    phases = np.concatenate([troughs, 2 * np.pi * k + theta,
                                             2 * np.pi * (k + 1) - theta])
                with np.errstate(divide="ignore"):
                    cuts = phases / beta
                edges = np.unique(np.concatenate([[0.0, box.half_p],
                                                  cuts[cuts < box.half_p]]))
                p, wp = _gauss_legendre(edges)
                inner += w_i * np.dot(wp, np.abs(self.wigner(r_i, p)))
            # W is even in r and in p
            self._box_mass = float(4.0 * inner)
        return self._box_mass

    def _draw_post(self, rng):
        with self._box_mass_lock:
            mass = self._abs_box_mass()
        return _draw_signed(rng, self.box, self.wigner, self._ceiling, mass)

    def sample(self, rbar, pbar, rng):
        r0, p0, w_post = self._draw_post(rng)
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

        r0, p0, w_post = self._draw_post(rng)
        return float(r_pre), float(r0), float(p0), float(w_pre * w_post)


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
