"""Frequency-domain synthesis of stationary Gaussian colored noise.

Realizations are built on a finite frequency grid ``omega_k = k * delta_omega``
from complex Gaussian auxiliary coefficients with Hermitian symmetry, then
transformed to the time domain with a real inverse FFT.  The per-mode
amplitudes are chosen so the ensemble autocorrelation reproduces the quantum
(or classical) fluctuation-dissipation target of :mod:`qbm.bath`.
"""

import contextlib
import itertools
import json
from dataclasses import dataclass

import numpy as np
from scipy.fft import irfft, next_fast_len

from . import bath
from .errors import ConfigurationError

QUANTUM = "quantum"
CLASSICAL = "classical"
WHITE = "white"
STATISTICS = (QUANTUM, CLASSICAL, WHITE)

# The synthesis period 2*pi/delta_omega must exceed this multiple of the
# simulated span, otherwise circular images of the correlation alias into
# the memory integral.
_PERIOD_FACTOR = 3.0

# Frequency coverage must resolve the exponential cutoff: N*delta_omega >= 20/eps.
_COVERAGE_FACTOR = 20.0

_MAGIC = b"QBENS\x01"


@dataclass(frozen=True)
class FrequencyGrid:
    """Synthesis grid: modes k = -n_modes..n_modes with spacing delta_omega.

    ``t_step`` and ``n_times`` describe the time-domain output; the implied
    FFT length is ``2 * n_modes`` and satisfies
    ``delta_omega * t_step = pi / n_modes`` so FFT samples land exactly on the
    integrator's nodes.
    """

    delta_omega: float
    n_modes: int
    t_step: float
    n_times: int

    @property
    def fft_length(self):
        return 2 * self.n_modes

    @property
    def span(self):
        return (self.n_times - 1) * self.t_step

    @property
    def omegas(self):
        """Nonnegative mode frequencies k * delta_omega, k = 0..n_modes."""
        return self.delta_omega * np.arange(self.n_modes + 1)

    @classmethod
    def for_times(cls, spec, t_step, n_times):
        """Smallest FFT-friendly grid covering ``n_times`` samples at ``t_step``.

        The FFT length is the next fast length at least ``3 * span / t_step``
        (anti-aliasing period) and at least ``n_times``.
        """
        span = (n_times - 1) * t_step
        min_len = max(int(np.ceil(_PERIOD_FACTOR * span / t_step)), n_times, 16)
        m = next_fast_len(min_len, real=True)
        while m % 2:
            m = next_fast_len(m + 1, real=True)
        return cls(delta_omega=2.0 * np.pi / (m * t_step), n_modes=m // 2,
                   t_step=t_step, n_times=n_times)

    def validate(self, spec):
        if self.delta_omega <= 0 or self.n_modes < 1:
            raise ConfigurationError("frequency grid requires delta_omega > 0 and n_modes >= 1")
        if self.n_times < 1 or self.t_step <= 0:
            raise ConfigurationError("frequency grid requires n_times >= 1 and t_step > 0")
        coverage = self.n_modes * self.delta_omega
        need = _COVERAGE_FACTOR / spec.eps
        if coverage < need * (1.0 - 1e-12):
            raise ConfigurationError(
                f"frequency coverage n_modes*delta_omega = {coverage:.6g} does not resolve "
                f"the cutoff (needs >= 20/eps = {need:.6g})")
        if self.span > 0:
            resolution = 2.0 * np.pi / (_PERIOD_FACTOR * self.span)
            if self.delta_omega > resolution * (1.0 + 1e-12):
                raise ConfigurationError(
                    f"delta_omega = {self.delta_omega:.6g} too coarse: synthesis period "
                    f"2*pi/delta_omega must exceed {_PERIOD_FACTOR:g}x the simulated span "
                    f"(needs delta_omega <= {resolution:.6g})")


@dataclass(frozen=True)
class NoisePath:
    """One force realization on a uniform time grid, with its seed record."""

    seed: tuple
    times: np.ndarray
    values: np.ndarray

    def __len__(self):
        return len(self.values)


def draw_auxiliary(grid, rng):
    """Draw the complex auxiliary coefficients z_{-N..N} with Hermitian symmetry.

    z_0 is a real standard normal; for 0 < k < N, z_k = (eta_k + i*zeta_k)/sqrt(2)
    with independent standard normals; z_{-k} = conj(z_k).  The band-edge
    coefficient z_N is kept real so the even-length inverse FFT is exactly
    Hermitian; its amplitude is exponentially negligible for any grid that
    resolves the cutoff.  Returns an array of length 2N+1 indexed k+N.
    """
    half = _draw_half(grid.n_modes, rng)
    n = grid.n_modes
    z = np.empty(2 * n + 1, dtype=complex)
    z[n:] = half
    z[:n] = np.conj(half[:0:-1])
    return z


def _draw_half(n_modes, rng):
    """Coefficients for k = 0..N.  Draw order is part of the seed contract."""
    a = rng.standard_normal(n_modes + 1)
    b = rng.standard_normal(n_modes + 1)
    z = (a + 1j * b) / np.sqrt(2.0)
    z[0] = a[0]
    z[-1] = a[-1]
    return z


def mode_amplitudes(spec, grid, statistics):
    """Per-mode amplitude sqrt(delta_omega / (2*pi) * PSD(omega_k)) for k = 0..N."""
    w = grid.omegas
    if statistics == QUANTUM:
        psd = bath.noise_psd(spec, w)
    elif statistics == CLASSICAL:
        # Classical FDT target kT*M(tau): PSD = 2*kT*J(omega)/omega.
        psd = 2.0 * spec.kT * spec.gamma * spec.mass * np.exp(-spec.eps * w)
    else:
        raise ConfigurationError(f"no spectral amplitudes for statistics {statistics!r}")
    return np.sqrt(grid.delta_omega / (2.0 * np.pi) * psd)


def synthesize(spec, grid, statistics, rng, seed_record=("adhoc",)):
    """Generate one NoisePath whose ensemble statistics match the chosen target.

    ``statistics``:

    - ``"quantum"``: quantum fluctuation-dissipation spectrum (zero-point
      fluctuations survive at kT = 0),
    - ``"classical"``: classical target kT * M(lag),
    - ``"white"``: independent Gaussian increments of variance
      2*m*gamma*kT / t_step per sample (Markovian limit); the zero path
      at kT = 0.

    The same seeded stream yields a bit-identical path.
    """
    values = synthesize_batch(spec, grid, statistics, [rng])[0]
    times = grid.t_step * np.arange(grid.n_times)
    return NoisePath(seed=tuple(seed_record), times=times, values=values)


def synthesize_batch(spec, grid, statistics, rngs):
    """Stack paths for several generators into one (len(rngs), n_times) array.

    Each generator draws only its own path's coefficients, so a trajectory's
    noise is independent of how the ensemble is batched.
    """
    if statistics not in STATISTICS:
        raise ConfigurationError(f"unknown noise statistics {statistics!r}")
    grid.validate(spec)
    if statistics == WHITE:
        scale = np.sqrt(2.0 * spec.mass * spec.gamma * spec.kT / grid.t_step)
        return np.stack([scale * r.standard_normal(grid.n_times) for r in rngs])
    amp = mode_amplitudes(spec, grid, statistics)
    m = grid.fft_length
    coeff = np.empty((len(rngs), grid.n_modes + 1), dtype=complex)
    for i, r in enumerate(rngs):
        coeff[i] = _draw_half(grid.n_modes, r)
    coeff *= amp
    # Hermitian construction: the inverse transform is exactly real, so the
    # imaginary residue is identically zero (trivially within the 1e-10*RMS bound).
    full = irfft(coeff, n=m, axis=1)
    del coeff
    full *= m
    return np.ascontiguousarray(full[:, :grid.n_times])


def empirical_autocorrelation(paths, lags, window=None, chunk=1024):
    """Cross-path estimate of <xi(t0) xi(t0+lag)> with standard errors.

    Averages over the ensemble and over all admissible ``t0`` within each
    path (optionally restricted to the index ``window = (lo, hi)``); paths are
    the independent units for the standard error.

    ``paths`` is any iterable of :class:`NoisePath` on one time grid.  It is
    consumed ``chunk`` paths at a time and each chunk is reduced at once to
    its per-path lag products, so memory is bounded by ``chunk`` (plus
    ``len(lags)`` floats per path) whatever the ensemble size, and the
    estimates do not depend on ``chunk``.

    Returns ``(estimates, standard_errors)`` aligned with ``lags``.
    """
    paths = iter(paths)
    group = list(itertools.islice(paths, chunk))
    if not group:
        raise ConfigurationError("empirical_autocorrelation requires at least 2 paths")
    times = group[0].times
    dt = float(times[1] - times[0]) if len(times) > 1 else 1.0
    n = len(group[0].values)
    lo, hi = (0, n) if window is None else window

    lags = np.atleast_1d(np.asarray(lags, dtype=float))
    shifts = []
    for lag in lags:
        k = int(round(lag / dt))
        if abs(k * dt - lag) > 1e-9 * max(dt, abs(lag)):
            raise ConfigurationError(f"lag {lag} is not a multiple of the path step {dt}")
        if k < 0 or k >= hi - lo:
            raise ConfigurationError(f"lag {lag} exceeds the admissible path span")
        shifts.append(k)

    blocks = []
    while group:
        values = np.stack([p.values for p in group])
        block = np.empty((len(shifts), len(group)))
        for i, k in enumerate(shifts):
            block[i] = np.mean(values[:, lo:hi - k] * values[:, lo + k:hi], axis=1)
        blocks.append(block)
        # release this chunk before the iterable produces the next one
        del values, group
        group = list(itertools.islice(paths, chunk))
    # lag-major, so each lag reduces over one contiguous row of per-path values
    per_path = np.concatenate(blocks, axis=1)
    n_paths = per_path.shape[1]
    if n_paths < 2:
        raise ConfigurationError("empirical_autocorrelation requires at least 2 paths")
    est = np.array([row.mean() for row in per_path])
    se = np.array([row.std(ddof=1) for row in per_path]) / np.sqrt(n_paths)
    return est, se


@contextlib.contextmanager
def ensemble_writer(path, header, shape):
    """Open a dump of float64 rows of the given shape; yields ``write(rows)``.

    The JSON header, ``shape`` included, goes first, so row blocks can be
    appended as they are produced; leaving the context checks that exactly
    ``shape`` was written.  The payload is little-endian.
    """
    meta = dict(header)
    meta["shape"] = [int(d) for d in shape]
    blob = json.dumps(meta, sort_keys=True).encode()
    expected = 8 * int(np.prod(meta["shape"]))
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(np.array([len(blob)], dtype="<u4").tobytes())
        fh.write(blob)
        start = fh.tell()

        def write(rows):
            fh.write(np.ascontiguousarray(rows, dtype="<f8").tobytes())

        yield write
        if fh.tell() - start != expected:
            raise ConfigurationError(
                f"{path}: wrote {fh.tell() - start} payload bytes, shape {meta['shape']} "
                f"needs {expected}")


def dump_ensemble(path, header, values):
    """Write stacked float64 rows with a JSON header (little-endian payload)."""
    with ensemble_writer(path, header, values.shape) as write:
        write(values)


def load_ensemble(path):
    """Inverse of :func:`dump_ensemble`; returns (header, values)."""
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ConfigurationError(f"{path}: not a noise/trajectory dump")
        (size,) = np.frombuffer(fh.read(4), dtype="<u4")
        meta = json.loads(fh.read(int(size)).decode())
        values = np.frombuffer(fh.read(), dtype="<f8").reshape(meta["shape"])
    return meta, values
