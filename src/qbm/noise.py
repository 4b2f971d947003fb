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
import math
import os
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.fft import irfft, rfft

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

# Rows of synthesize_batch's workspaces, transformed per inverse FFT call,
# and the paths of each call a run makes (qbm.dynamics.noise_blocks).
# numpy plans the transform anew on every call, and each call has a fixed
# overhead, so one path per call is slower than a 64-path block in one call;
# four per call are as fast, and the workspaces stay four rows long.
_FFT_ROWS = 4

# Paths :func:`empirical_autocorrelation` stacks into its tile buffer at a time.
_TILE_PATHS = 16

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
        m = _next_fast_len(min_len)
        while m % 2:
            m = _next_fast_len(m + 1)
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
        if self.n_times > self.fft_length:
            raise ConfigurationError(
                f"frequency grid of {self.n_times} samples exceeds its FFT period of "
                f"{self.fft_length}")


def _next_fast_len(n):
    """Smallest 5-smooth length ``2^a 3^b 5^c >= n`` (pocketfft's fast real sizes)."""
    best = 2 * n  # an upper bound: the next power of two lies below it
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # smallest power of two taking p35 to at least n
            p = p35 if p35 >= n else p35 << (-(-n // p35) - 1).bit_length()
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


@dataclass(frozen=True)
class NoisePath:
    """One force realization on a uniform time grid, with its seed record."""

    seed: tuple
    times: np.ndarray
    values: np.ndarray


def _draw_half(rngs, normals, z):
    """Coefficients for k = 0..N, one row of ``z`` per generator.

    Each generator draws its N+1 real parts, then its N+1 imaginary parts,
    into its row of ``normals`` (shape ``(len(rngs), 2 (N+1))``); the draw
    order is part of the seed contract.  ``z_k = (eta_k + i
    zeta_k)/sqrt(2)`` for 0 < k < N; z_0 and the band-edge z_N are real
    standard normals, so the even-length inverse FFT is exactly Hermitian.
    """
    n = z.shape[1]
    for row, r in zip(normals, rngs):
        # the real parts, then the imaginary: the row is contiguous
        r.standard_normal(out=row)
    real, imag = normals[:, :n], normals[:, n:]
    # numpy divides (a + ib) by the real sqrt(2) as (a * s, b * s) with
    # s = 1/sqrt(2); the same products keep the bits of that division
    s = 1.0 / np.sqrt(2.0)
    np.multiply(real, s, out=z.real)
    np.multiply(imag, s, out=z.imag)
    z[:, 0] = real[:, 0]
    z[:, -1] = real[:, -1]
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


def _white_variance(spec, t_step):
    """Node variance 2*m*gamma*kT / t_step of the white (Markovian) noise."""
    return 2.0 * spec.mass * spec.gamma * spec.kT / t_step


def target_correlation(spec, statistics, lags, t_step):
    """Correlation ``<xi(t0) xi(t0 + lag)>`` that the ``statistics`` paths target.

    The quantum and classical targets are :func:`qbm.bath.quantum_correlation`
    and :func:`qbm.bath.classical_correlation`; white noise, independent per
    node of spacing ``t_step``, has its node variance at lag 0 and 0 elsewhere.
    """
    if statistics == QUANTUM:
        return bath.quantum_correlation(spec, lags)
    if statistics == CLASSICAL:
        return bath.classical_correlation(spec, lags)
    if statistics == WHITE:
        return np.where(np.equal(lags, 0.0), _white_variance(spec, t_step), 0.0)
    raise ConfigurationError(f"unknown noise statistics {statistics!r}")


def linear_variance(spec, grid, statistics, coeffs):
    """Exact variance of ``sum_j c_j xi_j`` over the paths synthesize_batch draws.

    ``coeffs`` holds one row of node weights per variance.  With
    ``H = rfft(c)`` over the FFT period and ``a_k`` the
    :func:`mode_amplitudes`, it is ``a_0^2 |H_0|^2 + 2 sum_{0<k<N} a_k^2
    |H_k|^2 + a_N^2 |H_N|^2``: z_0 and z_N are real, the other z_k complex
    with variance 1/2 per part.  White noise is independent per node.
    Rows longer than ``grid.n_times`` are rejected: they would wrap into the
    circular period, or past it be cropped, instead of weighting the path.
    """
    if statistics not in STATISTICS:
        raise ConfigurationError(f"unknown noise statistics {statistics!r}")
    grid.validate(spec)
    c = np.asarray(coeffs, dtype=float)
    if c.shape[-1] > grid.n_times:
        raise ConfigurationError(
            f"coefficient rows have {c.shape[-1]} entries, the noise grid only "
            f"{grid.n_times} nodes")
    if statistics == WHITE:
        return _white_variance(spec, grid.t_step) * np.sum(c**2, axis=-1)
    power = np.abs(rfft(c, n=grid.fft_length, axis=-1)) ** 2
    power *= mode_amplitudes(spec, grid, statistics) ** 2
    power[..., 1:-1] *= 2.0
    return power.sum(axis=-1)


def synthesize(spec, grid, statistics, rng):
    """Generate one NoisePath whose ensemble statistics match the chosen target.

    ``statistics``:

    - ``"quantum"``: quantum fluctuation-dissipation spectrum (zero-point
      fluctuations survive at kT = 0),
    - ``"classical"``: classical target kT * M(lag),
    - ``"white"``: independent Gaussian increments of variance
      2*m*gamma*kT / t_step per sample (Markovian limit); the zero path
      at kT = 0.

    The same seeded stream yields a bit-identical path, whose seed record is
    ``("adhoc",)``.
    """
    values = synthesize_batch(spec, grid, statistics, [rng])[0]
    times = grid.t_step * np.arange(grid.n_times)
    return NoisePath(seed=("adhoc",), times=times, values=values)


def usable_cores():
    """Cores this process may run on (its CPU affinity where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@lru_cache(maxsize=4)
def _checked_amplitudes(spec, grid, statistics):
    """The grid validated and :func:`mode_amplitudes` cast to complex, once
    per bath, grid and statistics: each group of a run's noise blocks is
    one :func:`synthesize_batch` call.  Read-only."""
    grid.validate(spec)
    # multiplying by the real amplitudes would cast them on every call
    amp = mode_amplitudes(spec, grid, statistics).astype(complex)
    amp.flags.writeable = False
    return amp


# The workspaces this thread's synthesize_batch calls share, by number of
# modes, while :func:`shared_workspaces` holds them
_shared = threading.local()


@contextlib.contextmanager
def shared_workspaces():
    """Let this thread's :func:`synthesize_batch` calls share their workspaces.

    Within the context the calls of one grid draw into one pair of
    workspaces, allocated by the first of them, so a call of at most
    ``_FFT_ROWS`` paths returns rows that are valid only until this
    thread's next call.  A run synthesises its noise a group of
    ``_FFT_ROWS`` paths per call (:func:`qbm.dynamics.noise_blocks`):
    allocating the workspaces anew for each group, the allocator handed
    their pages back to the OS and took them again on every call, which
    made fig2's noise-check a third slower.
    """
    outer = getattr(_shared, "pairs", None)
    _shared.pairs = {}
    try:
        yield
    finally:
        _shared.pairs = outer


def _workspace_shape(n_rows, n_modes):
    """Shape of the one array :func:`_workspaces` allocates for a pair."""
    return (2, n_rows, 2 * (n_modes + 1))


def _workspaces(n_rows, n_modes):
    """``(scratch, coeff)``: ``n_rows`` rows of ``2 (n_modes + 1)`` floats and
    of ``n_modes + 1`` complex coefficients, or within
    :func:`shared_workspaces` the thread's ``_FFT_ROWS``-row pair."""
    pairs = getattr(_shared, "pairs", None)
    if pairs is not None and n_modes in pairs:
        return pairs[n_modes]
    rows = n_rows if pairs is None else _FFT_ROWS
    # one allocation for both: glibc hands the free top of its heap back to
    # the OS once it exceeds twice the largest mapped chunk freed so far, and
    # as two halves each block's pair crossed that and was faulted in anew
    whole = np.empty(_workspace_shape(rows, n_modes))
    pair = (whole[0], whole[1].view(complex))
    if pairs is not None:
        pairs[n_modes] = pair
    return pair


def synthesize_batch(spec, grid, statistics, rngs):
    """Stack paths for several generators into one (len(rngs), n_times) array.

    Each generator draws only its own path's coefficients, so a trajectory's
    noise is independent of how the ensemble is batched.  The paths are
    built on the calling thread, ``_FFT_ROWS`` at a time, through two
    workspaces of ``_FFT_ROWS`` rows: one of ``2 (N+1)`` floats, into which
    each group's normals are drawn and, once the coefficients are formed
    from them, the inverse transform of its ``m = 2N``-point period is
    written and scaled, and one of complex coefficients.  So beyond the
    result the working set does not grow with the number of paths, and
    since every row keeps its own generator, draw order and transform, a
    path does not depend on the rows around it.  Within
    :func:`shared_workspaces`, where a run draws each group of its noise
    blocks (:func:`qbm.dynamics.noise_blocks`), the thread's calls share
    their workspaces, and a call of at most ``_FFT_ROWS`` generators
    returns its rows in place: the first ``n_times`` columns of the first
    workspace, valid until the thread's next call.
    """
    if statistics not in STATISTICS:
        raise ConfigurationError(f"unknown noise statistics {statistics!r}")
    if statistics == WHITE:
        grid.validate(spec)
        out = np.empty((len(rngs), grid.n_times))
        scale = np.sqrt(_white_variance(spec, grid.t_step))
        for row, r in zip(out, rngs):
            r.standard_normal(out=row)
            row *= scale
        return out
    amp = _checked_amplitudes(spec, grid, statistics)
    m = grid.fft_length
    scratch, coeff = _workspaces(min(len(rngs), _FFT_ROWS), grid.n_modes)
    in_place = getattr(_shared, "pairs", None) is not None and len(rngs) <= _FFT_ROWS
    out = scratch[:len(rngs), :grid.n_times] if in_place else np.empty((len(rngs), grid.n_times))
    for lo in range(0, len(rngs), _FFT_ROWS):
        group = rngs[lo:lo + _FFT_ROWS]
        k = len(group)
        rows = _draw_half(group, scratch[:k], coeff[:k])
        rows *= amp
        # Hermitian construction: the inverse transform is exactly real, so the
        # imaginary residue is identically zero (trivially within the 1e-10*RMS bound).
        periods = irfft(rows, n=m, axis=1, out=scratch[:k, :m])
        np.multiply(periods[:, :grid.n_times], m, out=out[lo:lo + k])
    return out


def lag_shifts(lags, t_step, n_times):
    """Sample shifts of ``lags`` on paths of ``n_times`` samples ``t_step`` apart.

    A lag off the sample grid, or past the paths' span, is rejected.
    """
    shifts = []
    for lag in np.atleast_1d(np.asarray(lags, dtype=float)):
        k = int(round(lag / t_step))
        if abs(k * t_step - lag) > 1e-9 * max(t_step, abs(lag)):
            raise ConfigurationError(f"lag {lag} is not a multiple of the path step {t_step}")
        if k < 0 or k >= n_times:
            raise ConfigurationError(f"lag {lag} exceeds the admissible path span")
        shifts.append(k)
    return shifts


def lag_products(rows, shifts, out):
    """Per-path lag products: ``out[i, r]`` is the mean over ``t0`` of
    ``rows[r, t0] * rows[r, t0 + shifts[i]]``.

    ``rows`` is a 2-D array of paths, ``out`` a ``(len(shifts),
    len(rows))`` array or view.  Each path and lag is one BLAS dot product
    of the path with its own shifted view, so a path's products are its own
    row's, whatever the rows around it.  How OpenBLAS splits a long dot
    among its threads changes its last bits, so callers hold it to one
    thread (:func:`qbm.dynamics.noise_blocks`).  Returns ``out``.
    """
    n = rows.shape[1]
    for i, k in enumerate(shifts):
        np.vecdot(rows[:, :n - k], rows[:, k:], out=out[i])
    # one division for every lag: noise-check calls this per group of four paths
    out /= np.subtract(n, shifts)[:, None]
    return out


def lag_statistics(products):
    """``(estimates, standard_errors)`` of the lag products of
    :func:`lag_products`, one row per lag and one column per path; the
    paths are the independent units."""
    n_paths = products.shape[1]
    if n_paths < 2:
        raise ConfigurationError("empirical_autocorrelation requires at least 2 paths")
    est = np.array([row.mean() for row in products])
    se = np.array([row.std(ddof=1) for row in products]) / np.sqrt(n_paths)
    return est, se


def empirical_autocorrelation(paths, lags):
    """Cross-path estimate of <xi(t0) xi(t0+lag)> with standard errors.

    Averages over the ensemble and over all admissible ``t0`` within each
    path; paths are the independent units for the standard error.  To
    estimate over part of the span, pass paths sliced to it.

    ``paths`` is any iterable of :class:`NoisePath` on one time grid.  It is
    consumed ``_TILE_PATHS`` paths at a time, each tile stacked into one
    reused tile buffer and reduced to its per-path lag products
    (:func:`lag_products`, OpenBLAS on one thread) before the next is
    taken.  So memory is bounded by two tiles of paths (plus ``len(lags)``
    floats per path) whatever the ensemble size, and the estimates do not
    depend on the tiling or on ``OPENBLAS_NUM_THREADS``.

    Returns ``(estimates, standard_errors)`` aligned with ``lags``.
    """
    from .dynamics import _one_blas_thread  # dynamics imports this module

    paths = iter(paths)
    tile = list(itertools.islice(paths, _TILE_PATHS))
    if not tile:
        raise ConfigurationError("empirical_autocorrelation requires at least 2 paths")
    times = tile[0].times
    dt = float(times[1] - times[0]) if len(times) > 1 else 1.0
    n = len(tile[0].values)
    shifts = lag_shifts(lags, dt, n)

    blocks = []
    tile_values = np.empty((len(tile), n))
    while tile:
        if any(len(p.values) != n for p in tile):
            raise ConfigurationError(
                f"empirical_autocorrelation requires paths of one length ({n} samples)")
        values = np.stack([p.values for p in tile], out=tile_values[:len(tile)])
        with _one_blas_thread():
            blocks.append(lag_products(values, shifts, np.empty((len(shifts), len(tile)))))
        # release this tile's paths, and any array they view, before the
        # iterable produces the next ones
        del tile
        tile = list(itertools.islice(paths, _TILE_PATHS))
    # lag-major, so each lag reduces over one contiguous row of per-path values
    return lag_statistics(np.concatenate(blocks, axis=1))


@contextlib.contextmanager
def ensemble_writer(path, header, shape):
    """Open a dump of float64 rows of the given shape; yields ``write(rows, row=None)``.

    The JSON header, ``shape`` included, goes first, so row blocks can be
    appended as they are produced, or, given ``row``, written at that row
    of the payload: threads may write their own blocks in any order, and
    the file still holds the rows in row order.  Leaving the context checks
    that exactly ``shape`` was written.  The payload is little-endian.  If
    the block raises, or the check fails, the file is deleted: no partial
    dump is left.
    """
    meta = dict(header)
    meta["shape"] = [int(d) for d in shape]
    blob = json.dumps(meta, sort_keys=True).encode()
    expected = 8 * int(np.prod(meta["shape"]))
    row_bytes = 8 * int(np.prod(meta["shape"][1:]))
    lock = threading.Lock()
    written = 0
    fh = open(path, "wb")
    try:
        with fh:
            fh.write(_MAGIC)
            fh.write(np.array([len(blob)], dtype="<u4").tobytes())
            fh.write(blob)
            start = fh.tell()

            def write(rows, row=None):
                nonlocal written
                data = np.ascontiguousarray(rows, dtype="<f8").tobytes()
                with lock:
                    if row is not None:
                        fh.seek(start + row * row_bytes)
                    fh.write(data)
                    written += len(data)

            yield write
            if written != expected:
                raise ConfigurationError(
                    f"{path}: wrote {written} payload bytes, shape {meta['shape']} "
                    f"needs {expected}")
    except BaseException:
        os.remove(path)
        raise


def dump_ensemble(path, header, values):
    """Write stacked float64 rows with a JSON header (little-endian payload)."""
    with ensemble_writer(path, header, values.shape) as write:
        write(values)


def load_ensemble(path):
    """Inverse of :func:`dump_ensemble`; returns (header, values).

    A malformed header, or a payload whose size does not match the header's
    shape (a truncated or padded dump), is rejected.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ConfigurationError(f"{path}: not a noise/trajectory dump")
        try:
            (size,) = np.frombuffer(fh.read(4), dtype="<u4")
            meta = json.loads(fh.read(int(size)).decode())
            if not all(type(d) is int and d >= 0 for d in meta["shape"]):
                raise ValueError(f"shape {meta['shape']!r} is not a list of sizes")
            expected = 8 * math.prod(meta["shape"])
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigurationError(f"{path}: malformed dump header ({exc!r})") from None
        payload = fh.read()
    if len(payload) != expected:
        raise ConfigurationError(
            f"{path}: payload has {len(payload)} bytes, shape {meta['shape']} "
            f"needs {expected}")
    return meta, np.frombuffer(payload, dtype="<f8").reshape(meta["shape"])
