"""Generalized Langevin integration with memory friction and interventions.

Each trajectory solves

    m x''(t) = -V'(x) - integral_{-T_eq}^{t} M(t - tau) dx(tau) + xi(t)

where the friction term is a Stieltjes convolution over the position path:
interventions may move the position discontinuously, and each logged jump
``dx`` at time ``t_k`` contributes a boundary force ``-M(t - t_k) * dx`` for
``t >= t_k`` (the bath stays continuous through the intervention, so
integrating the oscillator solutions by parts across the jump leaves exactly
this term).  Dropping it silently changes the post-intervention dynamics.
Momentum jumps need no such correction: the friction couples to the position
path only.

The stepper is a leapfrog (kick-drift-kick) scheme, second order, with the
memory convolution evaluated from the mid-interval velocity history by the
midpoint rule.

Two engines run that scheme.  For a free or harmonic potential it is linear
in the noise and in each preparation's jumps, so every record is a fixed row
of weights against the noise path plus the responses to the preparations'
kicks: the linear map (:func:`linear_rows`), applied one matrix product per
row group and noise block.  Per path it does 2 n_map (n_steps + 1)
multiply-adds, n_map being the record and intervention nodes, where the
stepper's friction history does n_steps (n_steps + 1) / 2;
:func:`run_ensemble` and :func:`integrate` take the map when it does no
more and its rows fit in physical memory (:func:`_takes_map`).  A run then
builds the rows once (:func:`_batch_runner`) and frees them when it
returns: those of the intervention nodes, and at the record nodes only
those of the variables the run reads (``records``), so a run of x² alone
builds and multiplies half the record rows.  It integrates its
trajectories ``_BATCH`` at a time, and a batch holds one noise block and
its records per noise thread (:func:`noise_blocks`); each block's records
are booked as soon as the blocks before it are (:func:`run_ensemble`).
Every other run, and :func:`integrate_deterministic` (the one solve the
map's responses come from, before any block thread starts), takes the
stepper (:func:`_integrate_batch`), whose batch holds one ``(n_steps + 1) x
width`` buffer of noise and velocity history and records both variables.
"""

import math
import os
import threading
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import bath as _bath
from . import noise as _noise
from . import preparation as _prep
from .errors import ConfigurationError, IntegrationFailure

# Node-block size for the blocked (BLAS) evaluation of the direct convolution.
_CONV_BLOCK = 64

# Trajectories run_ensemble integrates at a time, each batch ending in its
# progress and divergence checks; no output bit depends on it.
_BATCH = 1024

# Trajectories per history tile; a batch's buffer is a whole number of tiles
# wide (the last zero-padded).  The block product multiplies a kernel block
# with one tile at a time, and the in-block vector product runs over the
# whole padded width: the kernels and thread splits OpenBLAS picks depend on
# the operand shapes, and a dgemv's column tail takes a different kernel, so
# with any other width a trajectory's last bits would depend on the batch it
# lands in.
_HISTORY_TILE = 128

# Paths a noise thread takes at a time (noise_blocks): it makes their
# streams and draws their noise a group of noise._FFT_ROWS paths at a time,
# so noise never exists as a batch.
_NOISE_BLOCK = 64

# Bytes of one trajectory's generator (a numpy Generator on Philox), rounded
# up from the 800 B that tracemalloc counts.
_GENERATOR_BYTES = 1024

# Bytes of one trajectory's preparation draw, its sampler's temporaries and
# stacked row included, rounded up from tracemalloc's peak over 64 cat draws
# in either mode, 290-370 B a draw; a cat keeps nothing between draws
_DRAW_BYTES = 512

FREE = "free"
HARMONIC = "harmonic"
POLYNOMIAL = "polynomial"

# The recorded variables a run may read (run_ensemble's ``records``)
RECORDS = ("x", "p")

_MAX_POLY_DEGREE = 8


@dataclass(frozen=True)
class Potential:
    """External potential acting on the particle."""

    form: str
    omega0: float = 0.0
    coefficients: tuple = ()
    # polynomial coefficients of V, V', V'', ... down to the zero polynomial
    _derivatives: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.form not in (FREE, HARMONIC, POLYNOMIAL):
            raise ConfigurationError(f"unknown potential form {self.form!r}")
        if self.form == HARMONIC and not self.omega0 > 0:
            raise ConfigurationError("harmonic potential requires omega0 > 0")
        if self.form == POLYNOMIAL:
            coeffs = tuple(float(c) for c in self.coefficients)
            if not coeffs or not all(np.isfinite(coeffs)):
                raise ConfigurationError("polynomial coefficients must be finite")
            if len(coeffs) - 1 > _MAX_POLY_DEGREE:
                raise ConfigurationError(
                    f"polynomial degree {len(coeffs) - 1} exceeds {_MAX_POLY_DEGREE} "
                    "(overflow guard for long runs)")
            object.__setattr__(self, "coefficients", coeffs)
            chain = [coeffs]
            for _ in coeffs:
                chain.append(np.polynomial.polynomial.polyder(chain[-1]))
            object.__setattr__(self, "_derivatives", tuple(chain))

    @classmethod
    def free(cls):
        return cls(form=FREE)

    @classmethod
    def harmonic(cls, omega0):
        return cls(form=HARMONIC, omega0=float(omega0))

    @classmethod
    def polynomial(cls, coefficients):
        return cls(form=POLYNOMIAL, coefficients=tuple(coefficients))

    @property
    def translation_invariant(self):
        return self.form == FREE

    def force(self, x, mass):
        """-dV/dx, vectorised over x."""
        return -self.derivative(x, mass)

    def derivative(self, x, mass, order=1):
        """d^order V / dx^order, vectorised over x."""
        x = np.asarray(x, dtype=float)
        if self.form == FREE:
            return np.zeros_like(x)
        if self.form == HARMONIC:
            k = mass * self.omega0**2
            if order == 0:
                return 0.5 * k * x**2
            return k * x if order == 1 else np.full_like(x, k if order == 2 else 0.0)
        chain = self._derivatives
        return np.polynomial.polynomial.polyval(x, chain[min(order, len(chain) - 1)])


@dataclass(frozen=True)
class Intervention:
    """A preparation applied at a fixed time during the run.

    ``mode`` is ``"lab"`` for the literal phase-space update of the
    preparation, or ``"translate"`` for the translation-covariant variant
    available for free (translation-invariant) potentials, where the
    equilibrium position marginal is improper and the preparation instead
    fixes the coordinate origin.
    """

    time: float
    preparation: object
    mode: str = "lab"

    def __post_init__(self):
        # rejects an unknown mode, or translate mode for a preparation
        # without a translation-covariant sampler, before any run starts
        _prep.as_intervention(self.preparation, mode=self.mode)


@dataclass(frozen=True)
class Schedule:
    """Time layout of a run: equilibration, output span, step, interventions."""

    t_eq: float
    t_end: float
    dt: float
    interventions: tuple = ()
    record_stride: int = 1

    def __post_init__(self):
        if not self.t_eq > 0:
            raise ConfigurationError("t_eq must be > 0")
        if self.t_end < 0:
            raise ConfigurationError("t_end must be >= 0")
        if not self.dt > 0:
            raise ConfigurationError("dt must be > 0")
        if int(self.record_stride) != self.record_stride or self.record_stride < 1:
            raise ConfigurationError("record_stride must be a positive integer")
        # 2.0 passes the check; node indices must be integers
        object.__setattr__(self, "record_stride", int(self.record_stride))
        norm = []
        for item in self.interventions:
            if isinstance(item, Intervention):
                norm.append(item)
            else:
                t_k, prep = item
                norm.append(Intervention(time=float(t_k), preparation=prep))
        object.__setattr__(self, "interventions", tuple(norm))
        times = [iv.time for iv in self.interventions]
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ConfigurationError("intervention times must be strictly increasing")
        for t_k in times:
            if not 0.0 <= t_k < self.t_end:
                raise ConfigurationError(f"intervention time {t_k} outside [0, t_end)")
        for name, value in (("t_eq", self.t_eq), ("t_end", self.t_end),
                            *((f"t_k={t}", t) for t in times)):
            steps = value / self.dt
            if abs(steps - round(steps)) > 1e-12 * max(1.0, abs(steps)):
                raise ConfigurationError(f"dt must divide {name} (got {value} / {self.dt})")

    def validate_against(self, spec, potential):
        """Step-size and translate-mode invariants that need the bath and potential."""
        if self.dt > spec.eps / 10 * (1 + 1e-12):
            raise ConfigurationError(
                f"dt = {self.dt} too coarse for the kernel time scale "
                f"(needs dt <= eps/10 = {spec.eps / 10:.6g})")
        if (not potential.translation_invariant
                and any(iv.mode == "translate" for iv in self.interventions)):
            raise ConfigurationError(
                "translate-mode preparations require a translation-invariant "
                "(free) potential")
        if potential.form == HARMONIC:
            limit = (2 * np.pi / potential.omega0) / 50
            if self.dt > limit * (1 + 1e-12):
                raise ConfigurationError(
                    f"dt = {self.dt} too coarse for the oscillator period "
                    f"(needs dt <= {limit:.6g})")

    @property
    def n_steps(self):
        return int(round((self.t_eq + self.t_end) / self.dt))

    @property
    def eq_steps(self):
        return int(round(self.t_eq / self.dt))

    def record_nodes(self):
        """Node indices written to the output (t = 0 onward, decimated)."""
        return np.arange(self.eq_steps, self.n_steps + 1, self.record_stride)

    def record_times(self):
        """Times of the record nodes: whole multiples of ``dt`` from t = 0,
        without the roundoff of ``t_eq`` that subtracting it would carry."""
        return self.dt * (self.record_nodes() - self.eq_steps)

    def intervention_nodes(self):
        return [int(round((iv.time + self.t_eq) / self.dt)) for iv in self.interventions]


@dataclass(frozen=True)
class Trajectory:
    """One recorded particle path with its accumulated preparation weight."""

    times: np.ndarray
    x: np.ndarray
    p: np.ndarray
    weight: float


class TrajectoryEnsemble:
    """Immutable stack of recorded trajectories sharing one recording grid.

    ``failure_time`` is the first recorded time at which a failed
    trajectory is non-finite (None without one).  A streamed ensemble keeps
    no records: its ``x`` and ``p`` are None, as is a record the run does
    not read (:func:`run_ensemble`'s ``records``).
    """

    def __init__(self, times, x, p, weights, failed_ids=(), failure_time=None):
        self.times = np.asarray(times, dtype=float)
        self.x = x
        self.p = p
        self.weights = np.asarray(weights, dtype=float)
        self.failed_ids = tuple(int(i) for i in failed_ids)
        self.failure_time = failure_time

    @property
    def n_traj(self):
        return len(self.weights)

    def unweighted(self):
        return bool(np.all(self.weights == 1.0))


def default_equilibration_span(spec):
    """Default T_eq = max(10/gamma, 50*eps): covers relaxation and memory."""
    if spec.gamma == 0.0:
        return 50.0 * spec.eps
    return max(10.0 / spec.gamma, 50.0 * spec.eps)


# numpy's SeedSequence hash (``numpy/random/bit_generator.pyx``): a pool of
# four uint32 words, ``hashmix`` and ``mix`` constants, and the state hash
_POOL = 4
_HASH_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _uint32_words(n):
    """SeedSequence's uint32 words of a non-negative int, least significant first."""
    if n < 0:
        raise ValueError(f"expected a non-negative integer, got {n}")
    words = [n & 0xFFFFFFFF]
    while n >> 32:
        n >>= 32
        words.append(n & 0xFFFFFFFF)
    return words


def _hash_constants(start, mult, count):
    """``start * mult**k`` mod 2**32 for k < count, as a (count, 1) uint32 column."""
    out = [start]
    for _ in range(count - 1):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)[:, None]


def _seed_keys(entropy):
    """``SeedSequence(row).generate_state(2, np.uint64)`` for every row of an
    (n, w) uint32 entropy array, as an (n, 2) uint64 array.

    The hash of numpy's SeedSequence, vectorised over the rows: each
    ``hashmix`` call takes the next hash constant, so the calls SeedSequence
    makes one after the other for the pool's other words are one array
    operation here, in the same order of constants.
    """
    n, w = entropy.shape
    words = np.zeros((max(w, _POOL), n), dtype=np.uint32)
    words[:w] = entropy.T
    hc = _hash_constants(_HASH_A, _MULT_A, _POOL * len(words) + 1)
    calls = 0

    def hashmix(value, count):
        nonlocal calls
        value = (value ^ hc[calls:calls + count]) * hc[calls + 1:calls + count + 1]
        calls += count
        return value ^ (value >> 16)

    def mix(x, y):
        out = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return out ^ (out >> 16)

    # the entropy up to the pool size (zero words past its end), then every
    # pool word into every other, then the entropy past the pool
    pool = hashmix(words[:_POOL], _POOL)
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], _POOL - 1))
    for src in range(_POOL, len(words)):
        pool = mix(pool, hashmix(words[src], _POOL))
    hb = _hash_constants(_HASH_B, _MULT_B, _POOL + 1)
    state = (pool ^ hb[:_POOL]) * hb[1:]
    state ^= state >> 16
    # generate_state's uint64 words: pairs of uint32 words, little-endian
    return np.ascontiguousarray(state.T).astype("<u4").view("<u8").astype(np.uint64)


class _PhiloxKey:
    """Hands Philox a key already derived: ``Philox(key=...)`` would first
    draw a seed from the OS, and a SeedSequence would hash it again.
    Registered as a ``numpy.random.bit_generator.ISeedSequence`` on use."""

    def __init__(self, key):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


def _stream_keys(master_seed, stream_tag, ids):
    """Philox keys of the trajectories ``ids``, as an (n, 2) uint64 array.

    Row ``i`` is ``SeedSequence((master_seed, stream_tag,
    ids[i])).generate_state(2, np.uint64)``, so a trajectory's stream is
    independent of scheduling order and of the ids keyed with it.  The
    entropy is built as arrays, not per id, so keying a whole run's ids
    holds a few words per id.  Ids lie in [0, 2**64).
    """
    prefix = _uint32_words(int(master_seed)) + _uint32_words(int(stream_tag))
    try:  # through Python ints: numpy would wrap a negative numpy integer
        ids = np.fromiter(map(int, ids), dtype=np.uint64, count=len(ids))
    except OverflowError:
        raise ValueError("trajectory ids must lie in [0, 2**64)") from None
    # an id past 2**32 is two entropy words: one hash per row length
    entropy = np.empty((len(ids), len(prefix) + 2), dtype=np.uint32)
    entropy[:, :len(prefix)] = prefix
    entropy[:, -2] = ids & 0xFFFFFFFF
    entropy[:, -1] = ids >> 32
    wide = entropy[:, -1] != 0
    keys = np.empty((len(ids), 2), dtype=np.uint64)
    keys[~wide] = _seed_keys(entropy[~wide, :-1])
    if wide.any():
        keys[wide] = _seed_keys(entropy[wide])
    return keys


def _key_streams(keys):
    """One generator per row of :func:`_stream_keys`, at counter 0."""
    # registered here, not at import: importing qbm does not load numpy.random
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_PhiloxKey)
    # a counter array, not Philox's default int 0, skips a slow conversion
    zero = np.zeros(4, dtype=np.uint64)
    return [np.random.Generator(np.random.Philox(_PhiloxKey(key), counter=zero))
            for key in keys]


def _traj_streams(master_seed, stream_tag, ids):
    """Counter-based streams of the trajectories ``ids`` (see :func:`_stream_keys`)."""
    return _key_streams(_stream_keys(master_seed, stream_tag, ids))


def _traj_stream(master_seed, stream_tag, traj_id):
    """The stream of one trajectory (see :func:`_traj_streams`)."""
    return _traj_streams(master_seed, stream_tag, (traj_id,))[0]


def noise_blocks(spec, grid, statistics, master_seed, stream_tag, ids, work, book=None):
    """Call ``work(lo, hi, rngs, groups)`` for each ``_NOISE_BLOCK``-path block of ``ids``.

    ``ids[lo:hi]`` are the block's trajectories and ``rngs[i]`` the stream
    of ``ids[lo + i]``.  ``groups`` yields the block's noise
    ``noise._FFT_ROWS`` paths at a time, as ``(g, rows)``: row ``j`` of
    ``rows`` is the noise path of ``ids[lo + g + j]``, each group one
    :func:`qbm.noise.synthesize_batch` call on ``rngs[g:g + _FFT_ROWS]``,
    made as ``work`` asks for it.  The noise amplitudes are built once per
    call, before any block runs, and freed on return; a block's calls read
    them and share one pair of workspaces
    (:func:`qbm.noise.shared_workspaces`), so ``rows`` is valid only until
    ``work`` asks for the next group: ``work`` takes each group's rows
    where they go, and a thread holds one group, not a block.  ``work``
    must draw every group before it continues a stream past its noise (a
    preparation draw), and this checks that it drew them all.

    Every id's stream key is hashed first, in one pass, and the amplitudes
    built.  Then the calling thread and short-lived others, one per usable
    core (:func:`qbm.noise.usable_cores`) and at most one per block, claim
    whole blocks from one shared counter and run each end to end: making
    its streams, synthesising its noise and calling ``work``; a thread
    whose core another process takes runs fewer blocks.  Each thread is
    pinned to its own core, and the calling thread's affinity is restored
    after: left to itself, a 2-core VM's kernel was seen to keep both
    threads on one core for a whole run.  So ``work`` runs concurrently,
    in no set order, and writes only rows ``lo:hi`` of what it fills; what
    it reads must have been built before this is called.  OpenBLAS runs on
    one thread meanwhile (:func:`_one_blas_thread`), so ``work``'s BLAS
    calls give the same bits whatever ``OPENBLAS_NUM_THREADS`` is, and
    leave the cores to the block threads.

    With ``book``, what ``work`` returns is the block's piece, and
    ``book(lo, piece)`` is called for every piece in block order, one call
    at a time: a thread that finishes a block takes one lock, leaves its
    piece and books every piece next in line, so a thread that finishes
    while another books waits for it.  Every thread is joined before this
    returns, and the first exception raised in a block, or by ``book``,
    stops the claims and is raised here; no piece is booked after it.
    """
    keys = _stream_keys(master_seed, stream_tag, ids)
    # one array for every block, freed on return (None for white noise)
    amplitudes = _noise._checked_amplitudes(spec, grid, statistics)
    n_threads = _noise_threads(len(ids))
    try:
        cores = sorted(os.sched_getaffinity(0)) if n_threads > 1 else None
    except AttributeError:  # no affinity calls on this platform
        cores = None
    blocks = iter(range(0, len(ids), _NOISE_BLOCK))
    claim = threading.Lock()
    errors = []
    drain = threading.Lock()
    pending = {}          # lo -> piece, finished but not yet booked
    booked = 0            # lo of the next piece to book

    def groups(rngs):
        for g in range(0, len(rngs), _noise._FFT_ROWS):
            yield g, _noise.synthesize_batch(spec, grid, statistics,
                                             rngs[g:g + _noise._FFT_ROWS])

    def block(lo):
        nonlocal booked
        hi = min(lo + _NOISE_BLOCK, len(ids))
        rngs = _key_streams(keys[lo:hi])
        # the block's groups drawn into one pair of workspaces, freed before
        # the booking: held over a thread's blocks, the pairs raised
        # gauss-fig1's peak RSS by 0.25 MB
        with _noise.shared_workspaces(spec, grid, statistics, amplitudes):
            drawn = groups(rngs)
            piece = work(lo, hi, rngs, drawn)
            if next(drawn, None) is not None:
                raise RuntimeError(f"the noise block of ids[{lo}:{hi}] was not drawn whole")
        if book is not None:
            with drain:
                pending[lo] = piece
                while booked in pending:
                    book(booked, pending.pop(booked))
                    booked += _NOISE_BLOCK

    def thread(k):
        if cores:
            try:
                os.sched_setaffinity(0, {cores[k % len(cores)]})
            except OSError:  # the core went away: run unpinned
                pass
        while True:
            with claim:
                lo = None if errors else next(blocks, None)
            if lo is None:
                return
            try:
                block(lo)
            except BaseException as exc:  # re-raised in the calling thread
                with claim:
                    errors.append(exc)

    helpers = [threading.Thread(target=thread, args=(k,)) for k in range(1, n_threads)]
    with _one_blas_thread():
        for t in helpers:
            t.start()
        try:
            thread(0)
        finally:
            if cores:
                os.sched_setaffinity(0, cores)
            for t in helpers:
                t.join()
    if errors:
        raise errors[0]


def _kernel_mid(spec, dt, n):
    """dt * M((i + 1/2) dt), the midpoint-rule convolution weights."""
    return dt * _bath.memory_kernel(spec, dt * (np.arange(n) + 0.5))


def _buffer_width(n_traj):
    """Columns of a batch's buffer: ``n_traj`` rounded up to whole history tiles."""
    return -(-n_traj // _HISTORY_TILE) * _HISTORY_TILE


def _noise_buffer(n_steps, n_traj):
    """Zeroed time-major (n_steps + 1, width) buffer, width a whole number of tiles."""
    return np.zeros((n_steps + 1, _buffer_width(n_traj)))


def physical_memory():
    """Bytes of physical memory, or None where the OS does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (ValueError, OSError, AttributeError):
        return None


def _n_records(sched):
    """Record nodes of ``sched``, counted, not listed: dt = 1e-300 would list
    6e300 of them."""
    return (sched.n_steps - sched.eq_steps) // sched.record_stride + 1


def _rows_shapes(sched):
    """Shapes of the linear map's three row groups: x at the record nodes, p
    at the record nodes, and x and p at the intervention nodes."""
    n_rec, n_nodes = _n_records(sched), sched.n_steps + 1
    return (n_rec, n_nodes), (n_rec, n_nodes), (2, len(sched.interventions), n_nodes)


def _check_records(records):
    """``records`` as a subset of ``("x", "p")``, in that order."""
    unknown = set(records) - set(RECORDS)
    if unknown:
        raise ValueError(f"records are among {RECORDS}, got {sorted(unknown)}")
    return tuple(v for v in RECORDS if v in records)


def _takes_map(pot, sched):
    """Whether a run of ``pot`` over ``sched`` takes the linear map.

    It does for a free or harmonic potential whose map does no more
    multiply-adds per path than the stepper, 4 n_map <= n_steps (see the
    module docstring), and whose rows of both variables fit in physical
    memory.  Neither the ensemble's size nor the records the run reads
    enter, so a trajectory's bits do not depend on them.
    """
    if pot.form == POLYNOMIAL:
        return False
    memory = physical_memory()
    n_map = _n_records(sched) + len(sched.interventions)
    return (4 * n_map <= sched.n_steps
            and (memory is None or _map_rows(sched).nbytes <= memory))


# What a run or a noise-check allocates at most: terms, each the bytes ``name``
# holds and how to shrink them, summed as if all were alive at once
MemoryTerm = namedtuple("MemoryTerm", "name nbytes shrink")
MemoryPlan = namedtuple("MemoryPlan", "subject terms")
_ROWS = "raise [schedule] dt or [schedule] record_stride"
_STEPS = "raise [schedule] dt"
_N_TRAJ = "lower [run] n_traj"


def _map_rows(sched, records=RECORDS):
    """The linear map's row groups that a run reading ``records`` builds, and
    its responses G and J, in x and in p."""
    x, p, iv = _rows_shapes(sched)
    rows = math.prod(iv) + sum(math.prod(shape) for v, shape in zip(RECORDS, (x, p))
                               if v in records)
    return MemoryTerm("map rows", 8 * (rows + 4 * iv[-1]), _ROWS)


def _noise_threads(n_ids):
    """Threads :func:`noise_blocks` runs: one per usable core, at most one per block."""
    return min(_noise.usable_cores(), -(-n_ids // _NOISE_BLOCK))


def _noise_terms(grid, statistics, master_seed, stream_tag, n_ids, generators, shrink):
    """What :func:`noise_blocks` over ``n_ids`` ids holds with ``generators``
    alive: per id its key and id (24 B), two copies of its ``w`` entropy
    words, two masks and the hash's temporaries (4 max(w, 4) + 80 B, as
    measured); and per thread a workspace pair or, for white noise, the
    group ``work`` holds beside the one being drawn."""
    w = len(_uint32_words(int(master_seed))) + len(_uint32_words(int(stream_tag))) + 2
    threads = _noise_threads(n_ids)
    terms = [MemoryTerm("stream keys", n_ids * (26 + 8 * w + 4 * max(w, _POOL) + 80), shrink),
             MemoryTerm("generators", generators * _GENERATOR_BYTES, shrink)]
    if statistics == _noise.WHITE:
        return [*terms, MemoryTerm("white noise groups",
                                   threads * 2 * 8 * _noise._FFT_ROWS * grid.n_times, _STEPS)]
    shape = _noise._workspace_shape(_noise._FFT_ROWS, grid.n_modes)
    return [*terms, MemoryTerm("noise amplitudes", 16 * (grid.n_modes + 1), _STEPS),
            MemoryTerm("noise workspaces", threads * 8 * math.prod(shape), _STEPS)]


def memory_plan(spec, pot, sched, statistics, n_traj, stacked=False,
                master_seed=0, stream_tag=0, records=RECORDS):
    """The memory plan of a run of ``n_traj`` trajectories, ``_BATCH`` at a
    time, that reads ``records``: its noise blocks' terms, its engine's
    (:func:`_takes_map`), its weights and, ``stacked`` (:func:`run_ensemble`
    without a consumer), its records.  On the linear map the rows, a
    block's products and the records of a finished block count only the
    row groups the run reads (:func:`linear_rows`); a finished block waits
    to be booked until every block before it is, so every block's records
    may be alive at once.  The stepper records both variables.  Its
    friction holds ``_CONV_BLOCK`` rows of the width and a kernel block,
    beside a row of the width and three kernels.  ``dt = 1e-300`` plans
    6e300 steps, rejected before they are allocated.
    """
    n_steps, n_rec, n_iv = sched.n_steps, _n_records(sched), len(sched.interventions)
    records = _check_records(records)
    batch = min(_BATCH, n_traj)
    grid = _noise.FrequencyGrid.for_times(spec, sched.dt, n_steps + 1)
    if _takes_map(pot, sched):
        threads, held = _noise_threads(batch), len(records) * n_rec
        block = 8 * _NOISE_BLOCK
        terms = [*_noise_terms(grid, statistics, master_seed, stream_tag, batch,
                               threads * min(batch, _NOISE_BLOCK), _N_TRAJ),
                 _map_rows(sched, records),
                 MemoryTerm("noise blocks", threads * block * (n_steps + 1), _STEPS),
                 MemoryTerm("block records", threads * block * (held + 2 * n_iv), _ROWS),
                 MemoryTerm("batch records",
                            (-(-batch // _NOISE_BLOCK) - threads) * block * held, _ROWS)]
        # the draws, one update array of a group's rows, the lags and
        # responses it gathers, and numpy's buffers for the two operands of
        # a broadcast product into it
        updates = MemoryTerm("intervention updates", threads * (
            _NOISE_BLOCK * _DRAW_BYTES + (block + 16) * max(n_rec, n_iv)
            + 16 * np.getbufsize()), _ROWS)
    else:
        width = _buffer_width(batch)
        terms = [*_noise_terms(grid, statistics, master_seed, stream_tag, batch, batch,
                               _N_TRAJ),
                 MemoryTerm("batch buffer", 8 * (n_steps + 1) * width, _STEPS),
                 MemoryTerm("friction block products",
                            8 * (_CONV_BLOCK * (width + n_steps) + width + 3 * (n_steps + 1)),
                            _STEPS),
                 MemoryTerm("batch records", 8 * batch * (2 * n_rec + 6), _ROWS)]
        # per trajectory its draws and jumps, which no schedule key shrinks
        updates = MemoryTerm("intervention updates",
                             batch * (_DRAW_BYTES + 8 * n_iv), _N_TRAJ)
    if sched.interventions:
        terms.append(updates)
    terms.append(MemoryTerm("weights", 8 * n_traj, _N_TRAJ))
    if stacked:
        terms.append(MemoryTerm("stacked records", 8 * len(records) * n_traj * n_rec,
                                "stream the batches to a consumer"))
    return MemoryPlan(f"[run] n_traj = {n_traj} over {n_steps:.3g} steps", terms)


def noise_check_plan(grid, statistics, n_paths, n_lags, dump, master_seed):
    """The memory plan of a noise-check of ``n_paths`` paths of ``grid``,
    with ``n_lags`` lag products per path and for the ``dump`` per thread a
    path's copy and bytes."""
    threads, shrink = _noise_threads(n_paths), "lower [run] n_traj or --n-traj"
    terms = [MemoryTerm("lag products", 8 * n_lags * n_paths, shrink),
             *_noise_terms(grid, statistics, master_seed, 0, n_paths,
                           threads * min(n_paths, _NOISE_BLOCK), shrink)]
    if dump:
        terms.append(MemoryTerm("dump rows", threads * 16 * grid.n_times, _STEPS))
    return MemoryPlan(f"noise-check of [run] n_traj = {n_paths} paths", terms)


def check_memory(plan):
    """Reject a memory plan whose total exceeds physical memory, naming its
    two largest terms and the change of config that shrinks each."""
    memory = physical_memory()
    total = sum(term.nbytes for term in plan.terms)
    if memory is None or total <= memory:
        return
    largest = sorted(plan.terms, key=lambda term: term.nbytes, reverse=True)[:2]
    raise ConfigurationError(
        f"{plan.subject} needs {total / 2**30:.3g} GiB, more than the {memory / 2**30:.3g} "
        "GiB of physical memory; most of it is " + " and ".join(
            f"the {t.name}, {t.nbytes / 2**30:.3g} GiB ({t.shrink})" for t in largest))


@lru_cache(maxsize=1)
def _openblas():
    """``(get, set)`` of the thread count of the OpenBLAS numpy loaded, or None.

    The library is looked up among the process's mapped files by the getter
    symbols the numpy wheels' OpenBLAS builds export; the setter is the
    getter's ``set`` twin.  Looked up once per process: numpy loads its BLAS
    at import, before the first call.
    """
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            get = getattr(lib, symbol, None)
            put = getattr(lib, symbol.replace("_get_", "_set_"), None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                return get, put
    return None


def blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if it is not found."""
    calls = _openblas()
    return None if calls is None else int(calls[0]())


@contextmanager
def _one_blas_thread():
    """Pin OpenBLAS to one thread for the block, then restore its count.

    How OpenBLAS splits the friction product among its threads changes the
    product's last bits, so one thread makes a run's bits independent of
    ``OPENBLAS_NUM_THREADS``; and with the noise blocks run on every core,
    OpenBLAS's spinning threads would only take those cores back.
    """
    calls = _openblas()
    if calls is None:
        yield
        return
    get, put = calls
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def thread_counts():
    """Threads a run's noise blocks run on, and OpenBLAS's pinned count (None
    when OpenBLAS is not found)."""
    return {"noise": _noise.usable_cores(), "blas": None if _openblas() is None else 1}


def _integrate_batch(spec, pot, dt, n_steps, buf, x0, p0, record_nodes,
                     intervention_plan=(), rngs=None):
    """Batched leapfrog GLE integration.  Core numerical engine.

    ``buf`` (see :func:`_noise_buffer`) holds the noise time-major: row n is
    node n, column i trajectory i for the B = ``len(x0)`` trajectories, and
    the columns past B are zero.  The integrator overwrites row n with the
    mid-interval velocities of step n, whose noise is dead by then (the
    force at node n was formed at the end of step n - 1), so one array holds
    both the noise and the friction history and the noise is consumed.
    ``intervention_plan`` is a sequence of (node_index, draw) pairs; the
    draw (see :func:`preparation.as_intervention`) is called once per
    trajectory, in row order, as ``draw(rbar, pbar, rng)`` and returns
    ``(r_pre, r0, p0, weight)``: the trajectory moves to ``r_pre`` without a
    friction boundary term (exact for free potentials), then jumps to ``r0``.

    The friction at a node is the product of the kernel with the history
    before its block of ``_CONV_BLOCK`` nodes, one matrix product per block
    and ``_HISTORY_TILE`` columns of ``buf`` at a time, plus the in-block
    remainder, one BLAS vector product per step over the whole width of
    ``buf``.  Both see operands of whole tiles whatever B, so a trajectory's
    bits do not depend on the batch around it; a buffer narrower than a tile
    (``integrate_deterministic``'s one column) is one narrower product.
    The step works in place on arrays allocated once per call.

    Returns (x_rec, p_rec, weights).
    """
    B = len(x0)
    width = buf.shape[1]
    mass = spec.mass
    record_nodes = np.asarray(record_nodes, dtype=int)
    rec_pos = {int(n): k for k, n in enumerate(record_nodes)}
    n_rec = len(record_nodes)

    k_mid = _kernel_mid(spec, dt, n_steps)
    # k_rev[n_steps - L:] is k_mid[:L] reversed, contiguous for BLAS
    k_rev = np.ascontiguousarray(k_mid[::-1])
    m_nodes = _bath.memory_kernel(spec, dt * np.arange(n_steps + 1))

    plan = {int(n): draw for n, draw in intervention_plan}

    x = np.array(x0, dtype=float, copy=True)
    p = np.array(p0, dtype=float, copy=True)
    weights = np.ones(B)
    jump_nodes = []          # (node, dx vector)

    x_rec = np.empty((B, n_rec))
    p_rec = np.empty((B, n_rec))

    # the step's arrays, written in place: the loop allocates nothing
    p_half = np.empty(B)
    force = np.empty(B)
    fric = np.empty(B)
    row = np.empty(width)    # the in-block product over the whole buffer width
    tmp = row[:B]            # scratch once the product is spent

    def set_force(node, friction=True):
        """force = F(x) + noise[node] (+ fric), summed in that order."""
        if pot.form == FREE:
            # F(x) = -0.0, the identity of the sum
            np.copyto(force, buf[node, :B])
        else:
            np.add(pot.force(x, mass), buf[node, :B], out=force)
        if friction:
            np.add(force, fric, out=force)

    set_force(0, friction=False)
    if 0 in rec_pos:
        x_rec[:, rec_pos[0]] = x
        p_rec[:, rec_pos[0]] = p

    old = np.zeros((_CONV_BLOCK, width))
    # divergence is detected after the fact via isfinite checks; silence the
    # transient overflow warnings a runaway trajectory produces on the way
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_steps):
            # p_half = p + (dt/2) force; v = p_half / m; x += dt v
            np.multiply(force, 0.5 * dt, out=p_half)
            np.add(p, p_half, out=p_half)
            v = buf[n, :B]
            np.divide(p_half, mass, out=v)
            np.multiply(v, dt, out=tmp)
            np.add(x, tmp, out=x)

            node = n + 1
            # Friction at the new node from mid-interval velocities: the
            # block's pre-start history enters through one matrix product,
            # the in-block remainder through one vector product per step.
            if n % _CONV_BLOCK == 0:
                block_start = node
                cols = min(_CONV_BLOCK, n_steps + 1 - block_start)
                # row i holds k_mid[block_start - 1 - i + j], j < cols: a
                # strided view, copied C-contiguous so BLAS sees the operand
                # layout of a gathered kernel block
                window = sliding_window_view(k_mid[:block_start - 1 + cols], cols)
                kernel_t = np.ascontiguousarray(window[::-1]).T
                for t in range(0, width, _HISTORY_TILE):
                    np.matmul(kernel_t, buf[:block_start, t:t + _HISTORY_TILE],
                              out=old[:cols, t:t + _HISTORY_TILE])
                del kernel_t  # not alive beside the next block's
            s = node - block_start
            np.negative(old[s, :B], out=fric)
            if s > 0:
                # k_mid[:s] reversed against the block's rows, over the whole
                # (tile-padded) width, so its bits do not depend on B
                np.matmul(k_rev[n_steps - s:], buf[block_start:node], out=row)
                np.subtract(fric, row[:B], out=fric)
            for jn, dxv in jump_nodes:
                np.multiply(dxv, m_nodes[node - jn], out=tmp)
                np.subtract(fric, tmp, out=fric)

            set_force(node)
            # p = p_half + (dt/2) force
            np.multiply(force, 0.5 * dt, out=p)
            np.add(p_half, p, out=p)

            if node in plan:
                draw = plan[node]
                r_pre, r0, p0, w = np.array(
                    [draw(x[i], p[i], rngs[i]) for i in range(B)], dtype=float).T
                weights *= w
                dxv = r0 - r_pre
                x[:] = r0
                p[:] = p0
                if np.any(dxv):
                    jump_nodes.append((node, dxv))
                    np.multiply(dxv, m_nodes[0], out=tmp)
                    np.subtract(fric, tmp, out=fric)
                # forces changed discontinuously with the state
                set_force(node)

            if node in rec_pos:
                x_rec[:, rec_pos[node]] = x
                p_rec[:, rec_pos[node]] = p

    return x_rec, p_rec, weights


def _build_plan(sched):
    """Bind the schedule's interventions to their per-trajectory draws."""
    return [(node, _prep.as_intervention(iv.preparation, mode=iv.mode))
            for iv, node in zip(sched.interventions, sched.intervention_nodes())]


def integrate(spec, pot, sched, noise_path, rng=None):
    """Integrate one trajectory for a fixed noise realization.

    The particle starts at x = 0, p = 0 at t = -t_eq and evolves through the
    equilibration span before recording starts at t = 0; the schedule's
    preparations draw from ``rng``.  The engine (:func:`_takes_map`) and
    the one OpenBLAS thread (:func:`_one_blas_thread`) are
    :func:`run_ensemble`'s, so the bits are too.

    Raises :class:`ConfigurationError` if the path is shorter than the run
    or sampled at a step other than ``sched.dt``, and
    :class:`IntegrationFailure` if the state leaves float range or the
    weight is not finite.
    """
    sched.validate_against(spec, pot)
    n_steps = sched.n_steps
    if len(noise_path.values) < n_steps + 1:
        raise ConfigurationError(
            f"noise path has {len(noise_path.values)} samples, run needs {n_steps + 1}")
    steps = np.diff(noise_path.times[:n_steps + 1])
    off = ~np.isclose(steps, sched.dt, rtol=1e-9, atol=0.0)
    if off.any():
        raise ConfigurationError(
            f"noise path steps by {steps[off][0]}, run steps by dt = {sched.dt}")
    if rng is None:
        rng = _traj_stream(0, 3, 0)

    values = noise_path.values[:n_steps + 1]
    with _one_blas_thread():
        if _takes_map(pot, sched):
            x_rec, p_rec, weights = _apply_map(sched, _build_plan(sched),
                                               linear_rows(spec, pot, sched),
                                               [(0, values[None])], [rng])
        else:
            # the integrator consumes its buffer, never the caller's path
            buf = _noise_buffer(n_steps, 1)
            buf[:, 0] = values
            x_rec, p_rec, weights = _integrate_batch(
                spec, pot, sched.dt, n_steps, buf, np.zeros(1), np.zeros(1),
                sched.record_nodes(), intervention_plan=_build_plan(sched), rngs=[rng])
    failed, t_bad = _failures(sched.record_times(), x_rec, p_rec, weights)
    if len(failed):
        raise IntegrationFailure("trajectory state or weight became non-finite",
                                 trajectory_ids=failed, time=t_bad)
    return Trajectory(times=sched.record_times(), x=x_rec[0], p=p_rec[0],
                      weight=float(weights[0]))


def integrate_deterministic(spec, pot, dt, n_steps):
    """Noise-free response to a unit momentum: x = 0, p = 1 at t = 0.

    Friction history starts empty at t = 0.  Returns (times, x, p).
    """
    rec = np.arange(n_steps + 1)
    # a lone solve, no ensemble member: one column, no tile padding
    x_rec, p_rec, _ = _integrate_batch(spec, pot, dt, n_steps, np.zeros((n_steps + 1, 1)),
                                       np.zeros(1), np.ones(1), rec)
    return dt * np.arange(n_steps + 1), x_rec[0], p_rec[0]


@lru_cache(maxsize=2)
def momentum_response(spec, pot, dt, n_steps):
    """``(Gx, Gp)``: x and p at lags 0..n_steps after a unit momentum at rest.

    The :func:`integrate_deterministic` solve, on one OpenBLAS thread
    (:func:`_one_blas_thread`) whichever caller solves first, read-only and
    memoised on its arguments.  A solve of other length is solved anew: the last
    history block's product has as many rows as that block has nodes, and
    with another row count OpenBLAS may sum a row in another order, so a
    longer solve's first values need not have a shorter one's bits.
    """
    # pinned like every solve of a run: the exact references may solve first
    with _one_blas_thread():
        _, gx, gp = integrate_deterministic(spec, pot, dt, n_steps)
    gx.flags.writeable = gp.flags.writeable = False
    return gx, gp


def response_rows(g, dt, nodes, out):
    """Weights of the noise nodes at each node of ``nodes`` through the
    unit-momentum response ``g`` of an ``len(g) - 1``-step solve, written
    into the ``(len(nodes), len(g))`` array ``out``.

    Row k holds ``dt g(k - j)`` at noise node j <= k and 0 past it, with
    xi_0 and xi_k counting half (see :func:`linear_rows`).
    """
    n_steps = len(g) - 1
    nodes = np.asarray(nodes, dtype=int)
    # u[n - k + j] = dt g(k - j), 0 for j > k: row k is the window of u at n - k
    window = sliding_window_view(np.concatenate((dt * g[::-1], np.zeros(n_steps))),
                                 n_steps + 1)
    # row by row: taking them all at once copies the whole window
    for row, node in zip(out, nodes):
        row[:] = window[n_steps - node]
    out[:, 0] *= 0.5
    out[np.arange(len(nodes)), nodes] *= 0.5


def linear_rows(spec, pot, sched, records=RECORDS):
    """The linear map of a free or harmonic run, without its preparations.

    Returns ``(rows, Gx, Gp, Jx, Jp)``, ``rows`` being three row groups of
    the weights of the noise nodes, one row of ``n_steps + 1`` per node: x
    at the record nodes, p at the record nodes, and the ``(2, n_iv, n_steps
    + 1)`` x and p at the intervention nodes.  A record group is built only
    if ``records`` names its variable, and is None otherwise; the
    intervention group is always built, since the preparations draw from
    it.  The schedule alone sets each group's shape (:func:`_rows_shapes`).
    Node k takes ``dt G(k - j)`` from noise node j <= k, with G the response
    to a unit momentum (:func:`momentum_response`), xi_0 counting half (it
    enters only the first half-kick) and, in p, xi_k counting half (it
    enters only the last half-kick of step k - 1).  ``(Jx, Jp)`` are x and
    p at lags 0..n_steps after a unit position jump at rest.  The jump is a
    unit offset plus an additive force ``f(j dt) = -M(j dt)`` at lag j, the
    friction boundary term, less ``m omega0^2`` on the harmonic potential,
    the offset's own restoring force; the scheme takes f as it takes the
    noise, so ``Jx = 1 + dt G_x * f`` and ``Jp = dt G_p * f``, convolved
    with the rows' half weights.  Built anew on each call, from the
    memoised deterministic solve behind G, and read-only: a run builds them
    once (:func:`_batch_runner`), its block threads share them, and they
    are freed when it returns.
    """
    dt, n_steps = sched.dt, sched.n_steps
    gx, gp = momentum_response(spec, pot, dt, n_steps)
    x_shape, p_shape, iv_shape = _rows_shapes(sched)
    rec = sched.record_nodes()
    rows = [None, None, np.empty(iv_shape)]
    for k, (v, g, shape) in enumerate(zip(RECORDS, (gx, gp), (x_shape, p_shape))):
        if v in records:
            rows[k] = np.empty(shape)
            response_rows(g, dt, rec, out=rows[k])
        response_rows(g, dt, sched.intervention_nodes(), out=rows[2][k])
    # the force f at each lag after a unit jump, weighted as response_rows
    # weights the noise: f_0 counts half, and in p so does f_k
    f = (-_bath.memory_kernel(spec, dt * np.arange(n_steps + 1))
         - pot.derivative(0.0, spec.mass, order=2))
    half_first = np.concatenate((0.5 * f[:1], f[1:]))
    jx = 1.0 + dt * np.convolve(gx, half_first)[:n_steps + 1]
    jp = dt * np.convolve(gp, half_first)[:n_steps + 1] - 0.5 * dt * gp[0] * f
    for a in (*(r for r in rows if r is not None), jx, jp):
        a.flags.writeable = False
    return tuple(rows), gx, gp, jx, jp


def _apply_map(sched, plan, linear, groups, rngs):
    """Records and weights of the trajectories of the streams ``rngs`` (one
    noise block at most) by the linear map ``linear`` (``(rows, Gx, Gp, Jx,
    Jp)`` of :func:`linear_rows`), with the preparations of ``plan`` in time
    order.  ``groups`` yields their noise paths as ``(g, rows)``, ``rows``
    those of ``rngs[g:]`` (see :func:`noise_blocks`).

    The groups fill a zeroed ``_NOISE_BLOCK``-path block, which each row
    group the map holds multiplies, one product per group: in this layout a
    path's bits do not depend on its place in the block, on the block
    around it or on which other groups the run reads.  At each intervention
    node ``(rbar, pbar)`` come from the intervention group, moved by the
    earlier interventions, and each trajectory draws there once, in row
    order, from its own stream.  The later rows of every group then take a
    translate ``r_pre - rbar`` as a shift (translate mode needs the free
    potential), the kick ``p0 - pbar`` through (Gx, Gp) and a jump ``r0 -
    r_pre`` through (Jx, Jp); nodes ascend, so those rows are each group's
    tail, updated in place from one update array.  The records at the node
    itself are ``(r0, p0)`` exactly.  A short block's products stay
    ``_NOISE_BLOCK`` paths wide until they are returned, its padded paths
    drawing zeros and so taking zero updates: numpy updates a contiguous
    tail without a buffer, a strided one through one per operand.  Returns
    (x_rec, p_rec, weights), a record the map does not hold being None.
    """
    n_steps = sched.n_steps
    (x_rows, p_rows, iv_rows), gx, gp, jx, jp = linear
    rec, iv = sched.record_nodes(), np.array(sched.intervention_nodes(), dtype=int)
    b = len(rngs)
    values = np.zeros((_NOISE_BLOCK, n_steps + 1))
    for g, group in groups:
        values[g:g + len(group)] = group
    x, p = (rows @ values.T if rows is not None else None for rows in (x_rows, p_rows))
    ivx, ivp = (iv_rows.reshape(-1, n_steps + 1) @ values.T).reshape(
        2, len(iv), _NOISE_BLOCK)
    weights = np.ones(b)
    # one update array, as many rows as the longest tail
    update = np.empty((max(len(rec), len(iv)), _NOISE_BLOCK)) if plan else None
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (node, draw) in enumerate(plan):
            rbar, pbar = ivx[k], ivp[k]
            # a short block's padded paths draw zeros, so take zero updates
            drawn = np.zeros((_NOISE_BLOCK, 4))
            drawn[:b] = [draw(rbar[i], pbar[i], rngs[i]) for i in range(b)]
            r_pre, r0, p0, w = drawn.T
            weights *= w[:b]
            shift, kick, dx = r_pre - rbar, p0 - pbar, r0 - r_pre
            jumps = np.any(dx)
            after = np.searchsorted(rec, node, side="right")
            for held, nodes, start in (((x, p), rec, after), ((ivx, ivp), iv, k + 1)):
                lag = nodes[start:] - node
                u = update[:len(lag)]
                # x + (shift + Gx kick), then + Jx dx; p + Gp kick, then + Jp dx
                for a, g, j, moved in zip(held, (gx, gp), (jx, jp), (shift, None)):
                    if a is None:
                        continue
                    np.multiply(g[lag, None], kick, out=u)
                    if moved is not None:
                        np.add(moved, u, out=u)
                    a[start:] += u
                    if jumps:
                        np.multiply(j[lag, None], dx, out=u)
                        a[start:] += u
            if after and rec[after - 1] == node:
                for a, at in ((x, r0), (p, p0)):
                    if a is not None:
                        a[after - 1] = at
    return (None if x is None else x[:, :b].T), (None if p is None else p[:, :b].T), weights


def _batch_runner(spec, pot, sched, statistics, master_seed, stream_tag, records=RECORDS):
    """``run_batch(ids, book)``: integrate a run's trajectories ``ids`` and
    book their records in id order.

    The engine (:func:`_takes_map`), noise grid, draws and, on the linear
    map, its rows of ``records`` (:func:`linear_rows`) are set up once per
    run, before any block thread starts, and freed with ``run_batch``; the
    noise amplitudes, once per batch (:func:`noise_blocks`).
    Each piece goes to ``book(first, x, p, weights)``, ``first`` being the
    id of its first trajectory: on the linear map one piece per noise block,
    booked by a block thread (:func:`noise_blocks`), so a batch never holds
    its records, and a record it does not read is None; on the stepper the
    whole batch, once it is integrated, with both records.
    """
    n_steps = sched.n_steps
    grid = _noise.FrequencyGrid.for_times(spec, sched.dt, n_steps + 1)
    plan = _build_plan(sched)
    if _takes_map(pot, sched):
        linear = linear_rows(spec, pot, sched, records)

        def work(lo, hi, rngs, groups):
            return _apply_map(sched, plan, linear, groups, rngs)

        def run_batch(ids, book):
            noise_blocks(spec, grid, statistics, master_seed, stream_tag, ids, work,
                         book=lambda lo, piece: book(ids[lo], *piece))
        return run_batch

    def run_batch(ids, book):
        B = len(ids)
        # each group transposed into its columns of the shared buffer: the
        # batch never holds its noise and its velocity history side by side
        buf = _noise_buffer(n_steps, B)
        rngs = [None] * B

        def work(lo, hi, block_rngs, groups):
            for g, rows in groups:
                buf[:, lo + g:lo + g + len(rows)] = rows.T
            rngs[lo:hi] = block_rngs

        noise_blocks(spec, grid, statistics, master_seed, stream_tag, ids, work)
        x, p, weights = _integrate_batch(
            spec, pot, sched.dt, n_steps, buf, np.zeros(B), np.zeros(B),
            sched.record_nodes(), intervention_plan=plan, rngs=rngs)
        del buf  # not alive beside what the booking allocates
        book(ids[0], x, p, weights)
    return run_batch


def _failures(times, x, p, weights):
    """Rows with a non-finite record or weight, and the first of ``times`` at
    which a record of theirs is non-finite (None if only weights are).  A
    record that is None is not checked."""
    held = [a for a in (x, p) if a is not None]
    finite = np.isfinite(weights)
    for a in held:
        finite &= np.isfinite(a).all(axis=1)
    failed = np.flatnonzero(~finite)
    bad = np.zeros(len(times), dtype=bool)
    for a in held:
        bad |= ~np.isfinite(a[failed]).all(axis=0)
    t_bad = float(times[np.argmax(bad)]) if bad.any() else None
    return failed, t_bad


def run_ensemble(spec, pot, sched, n_traj, statistics, master_seed, *,
                 stream_tag=0, progress=None, consumer=None, records=RECORDS):
    """Simulate ``n_traj`` independent trajectories.

    Each trajectory owns a counter-based stream derived from
    ``(master_seed, stream_tag, trajectory_id)``; within a stream the noise
    coefficients are drawn first, then any preparation draws, so a
    trajectory's bits depend on its id, not on ``n_traj`` or on the batch
    of ``_BATCH`` it lands in.  What the batches share, the linear map's
    rows among it, is set up once (:func:`_batch_runner`) and freed on
    return; each batch's noise blocks build and free their own amplitudes
    (:func:`noise_blocks`).  The batches are integrated in the calling
    process, one after another, each running its noise blocks, and on the
    linear map their records, on one thread per usable core, with the same
    bits on any count.
    OpenBLAS runs on one thread while the ensemble is integrated (its count
    is restored on return), as it does for the deterministic solve
    (:func:`momentum_response`), so results are also independent of
    ``OPENBLAS_NUM_THREADS``; its check counts the batch's memory before
    anything is allocated (:func:`check_memory`).

    ``records``, a subset of ``("x", "p")``, names the records the caller
    reads.  On the linear map only their rows are built and multiplied, and
    a piece's other record is None; each record's product has the same
    shape whatever else is read, so its bits do not depend on ``records``.
    The stepper records both variables, and its pieces carry both.

    Without a ``consumer`` the records of ``records`` are stacked in
    trajectory-id order (the other is None).  With one, the records go to
    ``consumer(piece)`` in trajectory-id order, piece after piece, each a
    :class:`TrajectoryEnsemble` whose ``failed_ids`` index its own rows.
    On the linear map (:func:`_takes_map`) a piece is one noise block of at
    most ``_NOISE_BLOCK`` trajectories, handed on by whichever block thread
    books it under the booking lock, one call at a time; on the stepper it
    is a whole batch, on the calling thread.  The returned ensemble then
    keeps only the weights and the failed ids (``x`` and ``p`` are None),
    so memory does not grow with ``n_traj`` beyond 8 bytes per trajectory.
    ``progress(done, n_traj)`` is called after each batch.

    Aborts with :class:`IntegrationFailure` once more than 0.1% of the
    trajectories have left float range, without integrating the batches
    after the one that crosses that bound; isolated failures are reported
    through ``failed_ids`` and carry NaN records.  A record a piece does not
    carry is not checked.
    """
    if n_traj < 1:
        raise ConfigurationError("n_traj must be >= 1")
    records = _check_records(records)
    sched.validate_against(spec, pot)
    check_memory(memory_plan(spec, pot, sched, statistics, n_traj, stacked=consumer is None,
                             master_seed=master_seed, stream_tag=stream_tag, records=records))

    times = sched.record_times()
    stacked = {}
    if consumer is None:
        stacked = {v: np.empty((n_traj, len(times))) for v in records}
    weights = np.empty(n_traj)
    failed, bad_times = [], []

    def book(first, x, p, w):
        """Weights, failures and records of trajectories ``first`` on."""
        end = first + len(w)
        weights[first:end] = w
        rows, t_bad = _failures(times, x, p, w)
        failed.extend(first + i for i in rows)
        if t_bad is not None:
            bad_times.append(t_bad)
        if consumer is None:
            for v, a in zip(RECORDS, (x, p)):
                if v in stacked:
                    stacked[v][first:end] = a
        else:
            consumer(TrajectoryEnsemble(times, x, p, w, failed_ids=rows, failure_time=t_bad))

    done = 0
    with _one_blas_thread():
        run_batch = _batch_runner(spec, pot, sched, statistics, master_seed, stream_tag,
                                  records)
        for lo in range(0, n_traj, _BATCH):
            done = min(lo + _BATCH, n_traj)
            run_batch(range(lo, done), book)
            if progress:
                progress(done, n_traj)
            if len(failed) > 0.001 * n_traj:
                # the run fails whatever the rest holds
                break

    failed = np.array(failed, dtype=int)
    t_bad = min(bad_times, default=None)
    if len(failed) > 0.001 * n_traj:
        message = f"{len(failed)} of {n_traj} trajectories diverged"
        if done < n_traj:
            message = (f"{len(failed)} of the first {done} trajectories diverged; "
                       f"{n_traj - done} of {n_traj} were not integrated")
        raise IntegrationFailure(message, trajectory_ids=failed[:32], time=t_bad)
    return TrajectoryEnsemble(times=times, x=stacked.get("x"), p=stacked.get("p"),
                              weights=weights, failed_ids=failed, failure_time=t_bad)
