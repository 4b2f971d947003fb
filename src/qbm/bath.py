"""Bath spectral density, memory kernel and noise correlation targets.

The bath is an ohmic oscillator continuum with an exponential frequency
cutoff.  The cutoff is parametrised by the time scale ``eps``; the
corresponding energy cutoff is ``hbar / eps`` (some conventions quote the
cutoff frequency ``Lambda = 1 / eps`` instead).  All functions are pure and
accept scalars or numpy arrays.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# Arguments of coth below this threshold use the Laurent series to avoid
# catastrophic cancellation in cosh/sinh.
_COTH_SERIES_THRESHOLD = 1e-4

# Adaptive quadratures truncate at omega = _OMEGA_MAX_FACTOR / eps, where the
# exponential cutoff bounds the tail below 1e-18.
_OMEGA_MAX_FACTOR = 50.0

# Matsubara series of quantum_correlation: terms n < _MATSUBARA_TERMS are
# summed explicitly, the rest by Euler-Maclaurin with the Bernoulli numbers
# B_2..B_8 below.  The remainder is below 4 zeta(8) 8! / ((2 pi)^8 N^7) |C(0)|,
# i.e. 1.5e-14 |C(0)| at N = 64 (see quantum_correlation).
_MATSUBARA_TERMS = 64
_EULER_MACLAURIN_BERNOULLI = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0)
# Above this ratio hbar / (kT eps) the n >= 1 terms sum to at most
# (pi^2/3) (eps kT / hbar)^2 <= 3.3e-16 of C(0) and are dropped (kT = 0 included).
_MATSUBARA_COLD_RATIO = 1e8


@dataclass(frozen=True)
class BathSpec:
    """Ohmic-exponential bath parameters.

    Parameters
    ----------
    gamma : float
        Friction rate (1/time).  ``gamma = 0`` is allowed as the degenerate
        decoupled-bath limit (zero spectral density).
    eps : float
        Cutoff time scale; the spectral density decays as ``exp(-eps*omega)``.
    mass : float
        Particle mass.
    hbar : float
        Reduced Planck constant in the chosen unit system.
    kT : float
        Thermal energy; ``kT = 0`` selects pure zero-point statistics.
    """

    gamma: float
    eps: float
    mass: float = 1.0
    hbar: float = 1.0
    kT: float = 0.0

    def __post_init__(self):
        if not self.gamma >= 0.0:
            raise DomainError("gamma must be >= 0")
        if not self.eps > 0.0:
            raise DomainError("eps must be > 0")
        if not self.mass > 0.0:
            raise DomainError("mass must be > 0")
        if not self.hbar > 0.0:
            raise DomainError("hbar must be > 0")
        if not self.kT >= 0.0:
            raise DomainError("kT must be >= 0")

    @property
    def omega_max(self):
        """Upper quadrature limit; the spectral tail beyond it is < 1e-18."""
        return _OMEGA_MAX_FACTOR / self.eps


def spectral_density(spec, omega):
    """Ohmic spectral density J(omega) = gamma * m * omega * exp(-eps*omega).

    Linear in omega at small omega, exponentially cut off at large omega.
    Raises :class:`DomainError` for negative frequencies.
    """
    omega = np.asarray(omega, dtype=float)
    if np.any(omega < 0.0):
        raise DomainError("spectral_density requires omega >= 0")
    out = spec.gamma * spec.mass * omega * np.exp(-spec.eps * omega)
    return out if out.ndim else float(out)


def memory_kernel(spec, t):
    """Friction memory kernel M(t) = (2*m*gamma/pi) * eps / (eps^2 + t^2).

    Even in t, Lorentzian in time, with total mass ``integral_0^inf M = m*gamma``.
    """
    t = np.asarray(t, dtype=float)
    out = (2.0 * spec.mass * spec.gamma / np.pi) * spec.eps / (spec.eps**2 + t**2)
    return out if out.ndim else float(out)


def thermal_spectrum(spec, omega):
    """Thermal occupation factor coth(hbar*omega / (2*kT)).

    Returns exactly 1 for kT = 0 (zero-point limit).  Small arguments use the
    series 1/x + x/3 to avoid float cancellation near omega = 0.
    """
    omega = np.asarray(omega, dtype=float)
    if np.any(omega <= 0.0):
        raise DomainError("thermal_spectrum requires omega > 0")
    if spec.kT == 0.0:
        out = np.ones_like(omega)
        return out if out.ndim else 1.0
    # float-range edges saturate in the mathematically consistent direction:
    # the argument overflows to inf for denormal kT (coth -> 1) and the series
    # reciprocal overflows to inf for denormal omega (coth -> 1/x)
    with np.errstate(over="ignore", divide="ignore"):
        x = spec.hbar * omega / (2.0 * spec.kT)
        small = x < _COTH_SERIES_THRESHOLD
        safe = np.where(small, 1.0, x)
        # 1/tanh is overflow-safe for large arguments (tanh saturates at 1)
        out = np.where(small, 1.0 / np.where(small, x, 1.0) + x / 3.0,
                       1.0 / np.tanh(safe))
    return out if out.ndim else float(out)


def noise_psd(spec, omega):
    """Spectral weight J(omega) * hbar * coth(hbar*omega/(2*kT)) of the noise.

    This is the two-sided power spectral density of the stationary force,
    evaluated on omega >= 0; the symmetric correlation function is its cosine
    transform divided by pi.  At omega = 0 the analytic limit is
    ``2 * kT * gamma * m`` (the classical white-noise strength), which is 0
    at kT = 0.  Nonnegative everywhere, as required of a Gaussian process.
    """
    omega = np.asarray(omega, dtype=float)
    if np.any(omega < 0.0):
        raise DomainError("noise_psd requires omega >= 0")
    decay = spec.gamma * spec.mass * np.exp(-spec.eps * omega)
    if spec.kT == 0.0:
        out = spec.hbar * omega * decay
        return out if out.ndim else float(out)
    # denormal kT overflows the coth argument to inf; the non-series branch
    # saturates correctly there (coth -> 1)
    with np.errstate(over="ignore"):
        x = spec.hbar * omega / (2.0 * spec.kT)
        small = x < _COTH_SERIES_THRESHOLD
        # small arguments (omega -> 0 included) use the cancellation-free
        # product gamma m e^{-eps w} (2kT + hbar w x / 3), whose limit is the
        # classical white-noise strength 2 kT gamma m
        series = decay * (2.0 * spec.kT + spec.hbar * omega * x / 3.0)
    safe = np.where(small, 1.0, omega)
    body = spec.hbar * safe * spec.gamma * spec.mass * np.exp(-spec.eps * safe) \
        * thermal_spectrum(spec, safe)
    out = np.where(small, series, body)
    return out if out.ndim else float(out)


def quantum_correlation(spec, lag):
    """Symmetric quantum noise correlation at the given time lag(s).

    The target is ``(1/pi) * integral_0^inf noise_psd(omega) cos(omega*lag)
    domega``.  Expanding ``coth x = 1 + 2 sum_{n>=1} exp(-2 n x)`` turns it into
    the Matsubara series

        C(t) = (m gamma hbar / pi) sum_{n>=0} (2 - delta_{n0})
               (a_n^2 - t^2) / (a_n^2 + t^2)^2,     a_n = eps + n hbar / kT,

    i.e. ``Re (a_n - i t)^-2`` per term.  The first 64 terms are summed
    explicitly and the rest by Euler-Maclaurin up to the B_8 term, whose
    remainder is below ``4 zeta(8) 8! / ((2 pi)^8 64^7) |C(0)| = 1.5e-14 |C(0)|``
    at every lag.  At kT = 0 (and whenever ``hbar / kT > 1e8 eps``) only the
    n = 0 term is kept: the closed form
    ``(m*gamma*hbar/pi) * (eps^2 - lag^2) / (eps^2 + lag^2)^2``.

    Vectorised over ``lag``; a scalar lag returns a float.
    """
    t = np.abs(np.asarray(lag, dtype=float))
    prefactor = spec.mass * spec.gamma * spec.hbar / np.pi

    def term(a, t):
        # Re (a - i t)^-2, exactly zero at t = a
        return (a - t) * (a + t) / (a * a + t * t) ** 2

    total = term(spec.eps, t)
    with np.errstate(divide="ignore", over="ignore"):
        h = np.divide(spec.hbar, spec.kT)   # Matsubara spacing; inf at kT = 0
    if h < _MATSUBARA_COLD_RATIO * spec.eps:
        # n on the last axis: each lag sums its terms in the same order, so
        # an array of lags gives the bits of one lag at a time
        a = spec.eps + h * np.arange(1, _MATSUBARA_TERMS)
        total = total + 2.0 * np.sum(term(a, t[..., np.newaxis]), axis=-1)
        # Euler-Maclaurin tail sum_{n>=N} 2 Re z_n^-2, z_n = a_n - i t: the
        # integral, half the first term and -sum_k B_2k/(2k)! f^(2k-1)(N);
        # |h / z_N| <= 1/N keeps the powers small
        zn = spec.eps + _MATSUBARA_TERMS * h - 1j * t
        ratio = h / zn
        tail = 2.0 / (h * zn) + 1.0 / (zn * zn)
        for k, b in enumerate(_EULER_MACLAURIN_BERNOULLI, start=1):
            tail = tail + 2.0 * b * ratio ** (2 * k - 1) / (zn * zn)
        total = total + np.real(tail)
    out = prefactor * total
    return out if t.ndim else float(out)


def classical_correlation(spec, lag):
    """Classical noise correlation kT * M(lag) (classical limit of the quantum one)."""
    return spec.kT * memory_kernel(spec, lag)
