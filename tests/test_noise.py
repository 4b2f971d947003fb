import os
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.fft
from scipy.fft import irfft

from qbm import dynamics as qdyn
from qbm import noise as qnoise
from qbm.bath import BathSpec, quantum_correlation
from qbm.dynamics import _traj_streams
from qbm.errors import ConfigurationError
from qbm.noise import (
    CLASSICAL,
    QUANTUM,
    WHITE,
    FrequencyGrid,
    NoisePath,
    dump_ensemble,
    empirical_autocorrelation,
    ensemble_writer,
    linear_variance,
    load_ensemble,
    mode_amplitudes,
    synthesize,
    synthesize_batch,
)
from qbm.noise import _MAGIC, _checked_amplitudes, _next_fast_len

FIG1 = BathSpec(gamma=np.pi / 2, eps=0.5, mass=1.0, hbar=1.0, kT=0.0)


def stream(*entropy):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def make_paths(spec, grid, statistics, n, seed=101):
    vals = synthesize_batch(spec, grid, statistics,
                            [stream(seed, 0, i) for i in range(n)])
    times = grid.t_step * np.arange(grid.n_times)
    return [NoisePath(seed=(seed, 0, i), times=times, values=vals[i])
            for i in range(n)]


class TestFrequencyGrid:
    def test_for_times_satisfies_invariants(self):
        grid = FrequencyGrid.for_times(FIG1, 0.025, 801)
        grid.validate(FIG1)
        assert grid.fft_length * grid.t_step >= 3.0 * grid.span

    def test_coverage_violation_named(self):
        bad = FrequencyGrid(delta_omega=0.5, n_modes=10, t_step=0.025, n_times=100)
        with pytest.raises(ConfigurationError, match="coverage"):
            bad.validate(FIG1)

    def test_resolution_violation_named(self):
        bad = FrequencyGrid(delta_omega=1.0, n_modes=100, t_step=0.025, n_times=1000)
        with pytest.raises(ConfigurationError, match="delta_omega"):
            bad.validate(FIG1)

    def test_samples_beyond_the_period_rejected(self):
        # 201 samples of a 200-point period: the transform's workspace rows
        # hold 202 floats, so the samples past the period would be read from
        # beyond it, not from the path
        bad = FrequencyGrid(delta_omega=1.0, n_modes=100, t_step=1e-4, n_times=201)
        with pytest.raises(ConfigurationError, match="201 samples exceeds its FFT period of 200"):
            bad.validate(FIG1)
        with pytest.raises(ConfigurationError, match="exceeds its FFT period"):
            synthesize_batch(FIG1, bad, QUANTUM, [stream(1)])

    def test_next_fast_len_equals_scipy(self):
        got = [_next_fast_len(n) for n in range(1, 100001)]
        want = [scipy.fft.next_fast_len(n, real=True) for n in range(1, 100001)]
        assert got == want


def test_numpy_irfft_equals_scipy_irfft_bitwise():
    # the synthesis runs on numpy's pocketfft; its bits are scipy's on every
    # even 5-smooth length a FrequencyGrid can take up to 40000 points (numpy
    # 2.0 moved numpy.fft to the C++ pocketfft scipy.fft uses, hence the floor)
    rng = np.random.default_rng(5)
    lengths = [m for m in range(16, 40001, 2) if _next_fast_len(m) == m]
    assert len(lengths) == 206
    for m in lengths:
        coeff = rng.standard_normal((2, m // 2 + 1)) + 1j * rng.standard_normal((2, m // 2 + 1))
        assert np.fft.irfft(coeff, n=m, axis=1).tobytes() == \
            scipy.fft.irfft(coeff, n=m, axis=1).tobytes(), m


class TestDrawHalf:
    def test_moments(self):
        # the coefficients z_0..z_N of 120000 draws of N = 8 modes, one stream
        n, m = 8, 120000
        draws = qnoise._draw_half([stream(7)] * m, np.empty((m, 2 * (n + 1))),
                                  np.empty((m, n + 1), dtype=complex))
        # z_0 and z_N are real
        assert not draws[:, 0].imag.any() and not draws[:, n].imag.any()
        # <|z_k|^2> -> 1 within 3 standard errors
        sq = np.abs(draws) ** 2
        se = sq.std(axis=0, ddof=1) / np.sqrt(len(draws))
        assert np.all(np.abs(sq.mean(axis=0) - 1.0) <= 3.0 * se)
        # <z_k z_k> -> 0 for interior 0 < k < N
        for k in range(1, n):
            zz = draws[:, k] ** 2
            for part in (zz.real, zz.imag):
                se_p = part.std(ddof=1) / np.sqrt(len(part))
                assert abs(part.mean()) <= 3.0 * se_p


class TestSynthesize:
    def test_gamma_zero_gives_zero_path(self):
        spec = BathSpec(gamma=0.0, eps=0.5)
        grid = FrequencyGrid.for_times(spec, 0.025, 401)
        path = synthesize(spec, grid, QUANTUM, stream(1))
        assert np.all(path.values == 0.0)

    def test_deterministic_per_seed(self):
        grid = FrequencyGrid.for_times(FIG1, 0.025, 401)
        a = synthesize(FIG1, grid, QUANTUM, stream(1, 2, 3))
        b = synthesize(FIG1, grid, QUANTUM, stream(1, 2, 3))
        assert a.values.tobytes() == b.values.tobytes()

    def test_batch_matches_single(self):
        grid = FrequencyGrid.for_times(FIG1, 0.025, 401)
        single = synthesize(FIG1, grid, QUANTUM, stream(9, 0, 4))
        batch = synthesize_batch(FIG1, grid, QUANTUM,
                                 [stream(9, 0, 3), stream(9, 0, 4)])
        assert np.array_equal(batch[1], single.values)

    def test_invalid_statistics_rejected(self):
        grid = FrequencyGrid.for_times(FIG1, 0.025, 401)
        with pytest.raises(ConfigurationError):
            synthesize(FIG1, grid, "pink", stream(1))

    def test_grid_violation_rejected(self):
        bad = FrequencyGrid(delta_omega=0.5, n_modes=10, t_step=0.025, n_times=100)
        with pytest.raises(ConfigurationError):
            synthesize(FIG1, bad, QUANTUM, stream(1))

    def test_lag_zero_variance_and_eps_zero_crossing(self):
        grid = FrequencyGrid.for_times(FIG1, 0.025, 801)
        paths = make_paths(FIG1, grid, QUANTUM, 20000, seed=11)
        est, se = empirical_autocorrelation(paths, [0.0, FIG1.eps])
        # target: quantum_correlation(0) = 2 and the closed-form zero at eps
        assert abs(est[0] - 2.0) <= 3.0 * se[0]
        assert abs(est[1] - 0.0) <= 3.0 * se[1]

    def test_white_noise_variance_and_independence(self):
        spec = BathSpec(gamma=np.pi / 2, eps=0.5, kT=1.0)
        grid = FrequencyGrid.for_times(spec, 0.025, 401)
        paths = make_paths(spec, grid, WHITE, 4000, seed=21)
        est, se = empirical_autocorrelation(paths, [0.0, 2 * grid.t_step])
        target0 = 2.0 * spec.mass * spec.gamma * spec.kT / grid.t_step
        assert abs(est[0] - target0) <= 3.0 * se[0]
        assert abs(est[1]) <= 3.0 * se[1]

    def test_white_noise_zero_temperature_is_zero_path(self):
        grid = FrequencyGrid.for_times(FIG1, 0.025, 401)
        path = synthesize(FIG1, grid, WHITE, stream(3))
        assert np.all(path.values == 0.0)

    def test_classical_statistics_match_classical_target(self):
        spec = BathSpec(gamma=np.pi / 2, eps=0.5, kT=1.0)
        grid = FrequencyGrid.for_times(spec, 0.025, 801)
        paths = make_paths(spec, grid, CLASSICAL, 8000, seed=31)
        lags = np.array([0.0, 0.5, 1.0])
        est, se = empirical_autocorrelation(paths, lags)
        from qbm.bath import classical_correlation
        for e, s, lag in zip(est, se, lags):
            assert abs(e - classical_correlation(spec, lag)) <= 3.0 * s


def test_checked_amplitudes_are_shared_and_read_only(monkeypatch):
    # the blocks of one noise_blocks call read one array, which none may
    # change; each call builds its own, and white noise has none
    spec = BathSpec(gamma=np.pi / 2, eps=0.5, kT=0.5)
    grid = FrequencyGrid.for_times(spec, 0.025, 401)
    amp = _checked_amplitudes(spec, grid, QUANTUM)
    with pytest.raises(ValueError):
        amp[0] = 0.0
    assert amp.tobytes() == mode_amplitudes(spec, grid, QUANTUM).astype(complex).tobytes()
    assert _checked_amplitudes(spec, grid, QUANTUM) is not amp
    assert _checked_amplitudes(spec, grid, WHITE) is None
    shared = []
    workspaces = qnoise.shared_workspaces

    def spy(spec, grid, statistics, amplitudes):
        shared.append(amplitudes)
        return workspaces(spec, grid, statistics, amplitudes)

    monkeypatch.setattr(qnoise, "shared_workspaces", spy)
    monkeypatch.setattr(qnoise, "usable_cores", lambda: 2)
    for _ in range(2):
        block_rows(spec, grid, QUANTUM, 1, 4 * 64)
    assert len(shared) == 8
    assert all(a is shared[0] for a in shared[:4]) and shared[4] is not shared[0]
    assert all(a is shared[4] for a in shared[4:])
    assert shared[0].tobytes() == amp.tobytes() and not shared[0].flags.writeable


class TestLinearVariance:
    @pytest.mark.parametrize("statistics", [QUANTUM, CLASSICAL, WHITE])
    def test_rows_longer_than_the_path_rejected(self, statistics):
        spec = BathSpec(gamma=np.pi / 2, eps=0.5, kT=0.5)
        grid = FrequencyGrid.for_times(spec, 0.05, 101)
        assert len(linear_variance(spec, grid, statistics, np.ones((2, 101)))) == 2
        # past n_times the row would wrap into the period, past the FFT
        # length rfft would crop it
        for length in (102, grid.fft_length + 1):
            with pytest.raises(ConfigurationError, match="101 nodes"):
                linear_variance(spec, grid, statistics, np.ones(length))


class TestEnsembleProperties:
    def test_quantum_autocorrelation_matches_quadrature_on_lag_grid(self):
        grid = FrequencyGrid.for_times(FIG1, 0.025, 801)
        paths = make_paths(FIG1, grid, QUANTUM, 20000, seed=12)
        lags = FIG1.eps * np.arange(20)
        est, se = empirical_autocorrelation(paths, lags)
        target = np.array([quantum_correlation(FIG1, l) for l in lags])
        z = (est - target) / se
        assert np.abs(z).max() <= 3.0

    def test_stationarity_two_window(self):
        grid = FrequencyGrid.for_times(FIG1, 0.025, 801)
        paths = make_paths(FIG1, grid, QUANTUM, 6000, seed=13)
        half = grid.n_times // 2
        lags = [0.0, 0.25, 0.5]

        def sliced(lo, hi):
            return [NoisePath(seed=p.seed, times=p.times[lo:hi], values=p.values[lo:hi])
                    for p in paths]

        e1, s1 = empirical_autocorrelation(sliced(0, half), lags)
        e2, s2 = empirical_autocorrelation(sliced(half, grid.n_times), lags)
        z = (e1 - e2) / np.hypot(s1, s2)
        assert np.abs(z).max() <= 3.0

    def test_gaussianity_fourth_moment(self):
        grid = FrequencyGrid.for_times(FIG1, 0.025, 801)
        paths = make_paths(FIG1, grid, QUANTUM, 20000, seed=14)
        xi = np.array([p.values[40] for p in paths])
        m2 = np.mean(xi**2)
        excess = np.mean(xi**4) - 3.0 * m2**2
        # influence-function standard error of the excess kurtosis numerator
        infl = (xi**4 - np.mean(xi**4)) - 6.0 * m2 * (xi**2 - m2)
        se = infl.std(ddof=1) / np.sqrt(len(xi))
        assert abs(excess) <= 5.0 * se


def stacked_synthesis(spec, grid, statistics, rngs):
    """Reference: the whole-batch synthesiser, every array the size of the batch."""
    if statistics == WHITE:
        scale = np.sqrt(2.0 * spec.mass * spec.gamma * spec.kT / grid.t_step)
        return np.stack([scale * r.standard_normal(grid.n_times) for r in rngs])
    amp = mode_amplitudes(spec, grid, statistics)
    m = grid.fft_length
    coeff = np.empty((len(rngs), grid.n_modes + 1), dtype=complex)
    for i, r in enumerate(rngs):
        a = r.standard_normal(grid.n_modes + 1)
        b = r.standard_normal(grid.n_modes + 1)
        z = (a + 1j * b) / np.sqrt(2.0)
        z[0] = a[0]
        z[-1] = a[-1]
        coeff[i] = z
    coeff *= amp
    full = irfft(coeff, n=m, axis=1)
    full *= m
    return np.ascontiguousarray(full[:, :grid.n_times])


class TestChunkedSynthesis:
    # 63, 64, 65 and 300 paths put chunk edges inside, on and past the batch
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 300])
    @pytest.mark.parametrize("statistics", [QUANTUM, CLASSICAL, WHITE])
    def test_matches_stacked_synthesis_bit_for_bit(self, statistics, n):
        spec = BathSpec(gamma=np.pi / 2, eps=0.5, kT=0.5)
        grid = FrequencyGrid.for_times(spec, 0.025, 401)
        ref = stacked_synthesis(spec, grid, statistics, [stream(41, 0, i) for i in range(n)])
        got = synthesize_batch(spec, grid, statistics, [stream(41, 0, i) for i in range(n)])
        assert got.shape == ref.shape and got.flags.c_contiguous
        assert got.tobytes() == ref.tobytes()

    def test_peak_memory_is_close_to_the_output(self):
        # fig1's grid (1401 samples of a 4320-point period), 1024 paths: no
        # batch-sized coefficient or full-period array may exist at once
        grid = FrequencyGrid.for_times(FIG1, 0.025, 1401)
        rngs = [stream(42, 0, i) for i in range(1024)]
        tracemalloc.start()
        try:
            values = synthesize_batch(FIG1, grid, QUANTUM, rngs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * values.nbytes


def test_synthesis_working_set_is_its_row_workspaces():
    # fig2's grid (4001 samples of a 12000-point period): beyond the output
    # only the complex amplitudes, two workspaces of four rows (each row
    # fft_length + 2 floats), one of normals and transform output, one of
    # coefficients, and one numpy ufunc buffer may exist, whatever the
    # number of paths; a call outside a noise block builds its own
    # amplitudes and workspaces
    spec = BathSpec(gamma=np.pi / 2, eps=0.01, kT=1.0)
    grid = FrequencyGrid.for_times(spec, 0.001, 4001)
    assert grid.fft_length == 12000
    terms = qdyn._noise_terms(grid, QUANTUM, 43, 0, 1, 1, "")
    held = (sum(term.nbytes for term in terms
                if term.name in ("noise amplitudes", "noise workspaces"))
            + 8 * np.getbufsize())

    def beyond_output(n):
        rngs = [stream(43, 0, i) for i in range(n)]
        tracemalloc.start()
        try:
            values = synthesize_batch(spec, grid, QUANTUM, rngs)
            return tracemalloc.get_traced_memory()[1] - values.nbytes
        finally:
            tracemalloc.stop()

    assert beyond_output(64) <= 1.02 * held
    assert beyond_output(256) <= 1.02 * held


@pytest.mark.parametrize("statistics", [QUANTUM, CLASSICAL])
def test_group_calls_share_one_pair_of_workspaces(statistics):
    # within shared_workspaces a thread's calls of four paths read its
    # amplitudes, draw into one pair of workspaces, allocated on entry, and
    # return their rows in place: sixteen calls hold what one does, and each
    # call's rows are those of a call of its own
    spec = BathSpec(gamma=np.pi / 2, eps=0.01, kT=1.0)
    grid = FrequencyGrid.for_times(spec, 0.001, 4001)
    ref = synthesize_batch(spec, grid, statistics, [stream(43, 0, i) for i in range(64)])
    rngs = [stream(43, 0, i) for i in range(64)]
    amp = _checked_amplitudes(spec, grid, statistics)
    other = FrequencyGrid.for_times(spec, 0.001, 2001)
    peaks = []
    tracemalloc.start()
    try:
        with qnoise.shared_workspaces(spec, grid, statistics, amp):
            held = tracemalloc.get_traced_memory()[0]
            first = synthesize_batch(spec, grid, statistics, rngs[:4])
            assert first.tobytes() == ref[:4].tobytes()
            for g in range(4, 64, 4):
                tracemalloc.reset_peak()
                rows = synthesize_batch(spec, grid, statistics, rngs[g:g + 4])
                peaks.append(tracemalloc.get_traced_memory()[1])
                assert np.shares_memory(rows, first)
                assert rows.tobytes() == ref[g:g + 4].tobytes()
            # a call for another grid sets up its own and returns its own rows
            own = synthesize_batch(spec, other, statistics, [stream(43, 0, 0)])
            assert not np.shares_memory(own, first)
            assert own.tobytes() == synthesize_batch(
                spec, other, statistics, [stream(43, 0, 0)]).tobytes()
    finally:
        tracemalloc.stop()
    # the workspaces one noise thread holds, as the memory plan counts them
    terms = qdyn._noise_terms(grid, statistics, 43, 0, 1, 1, "")
    assert held >= next(term.nbytes for term in terms if term.name == "noise workspaces")
    assert max(peaks) <= held + 8 * np.getbufsize()
    # outside the context a call's rows are its own
    assert not np.shares_memory(synthesize_batch(spec, grid, statistics, rngs[:4]), first)


def block_rows(spec, grid, statistics, seed, n, work=None):
    """The rows ``dynamics.noise_blocks`` draws for ids 0..n-1, gathered by
    position a group at a time; ``work(lo, hi)`` is called in each block's
    thread first."""
    values = np.full((n, grid.n_times), np.nan)

    def gather(lo, hi, rngs, groups):
        if work is not None:
            work(lo, hi)
        for g, rows in groups:
            values[lo + g:lo + g + len(rows)] = rows

    qdyn.noise_blocks(spec, grid, statistics, seed, 0, range(n), gather)
    return values


class TestThreadedSynthesis:
    """A run's noise blocks, each drawn and consumed whole on one of
    ``usable_cores()`` threads by ``dynamics.noise_blocks``."""

    # 1 and 3 paths leave the threads one block or none, 64 and 65 one
    # whole block and a second of one path
    @pytest.mark.parametrize("n", [1, 3, 64, 65])
    @pytest.mark.parametrize("statistics", [QUANTUM, CLASSICAL, WHITE])
    @pytest.mark.parametrize("threads", [1, 2, 3, 4])
    def test_rows_do_not_depend_on_the_thread_count(self, monkeypatch, threads,
                                                    statistics, n):
        spec = BathSpec(gamma=np.pi / 2, eps=0.5, kT=0.5)
        grid = FrequencyGrid.for_times(spec, 0.025, 401)
        ref = stacked_synthesis(spec, grid, statistics, _traj_streams(44, 0, range(n)))
        monkeypatch.setattr(qnoise, "usable_cores", lambda: threads)
        got = block_rows(spec, grid, statistics, 44, n)
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("statistics", [QUANTUM, WHITE])
    def test_error_in_a_worker_thread_reaches_the_caller(self, monkeypatch, statistics):
        # an exception inside one block's work, on a thread other than the
        # calling one: it is raised in the caller, no thread is left running
        # and the caller's CPU affinity is restored
        spec = BathSpec(gamma=np.pi / 2, eps=0.5, kT=0.5)
        grid = FrequencyGrid.for_times(spec, 0.025, 401)
        monkeypatch.setattr(qnoise, "usable_cores", lambda: 2)
        before = threading.active_count()

        def work(lo, hi):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("broken block")
            time.sleep(0.01)  # slow in the calling thread: the worker claims a block

        affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
        with pytest.raises(RuntimeError, match="broken block"):
            block_rows(spec, grid, statistics, 45, 8 * 64, work)
        assert threading.active_count() == before
        if affinity is not None:
            assert os.sched_getaffinity(0) == affinity

    def test_a_block_not_drawn_whole_is_an_error(self):
        # a consumer that stops before the last group would leave the
        # streams of the paths after it where their noise draws begin
        spec = BathSpec(gamma=np.pi / 2, eps=0.5, kT=0.5)
        grid = FrequencyGrid.for_times(spec, 0.025, 401)

        def first_group_only(lo, hi, rngs, groups):
            next(groups)

        with pytest.raises(RuntimeError, match=r"ids\[0:10\] was not drawn whole"):
            qdyn.noise_blocks(spec, grid, QUANTUM, 1, 0, range(10), first_group_only)

    def test_failed_block_leaves_no_shared_workspaces(self):
        # a block's groups share workspaces only while it is drawn: after a
        # block that raises, this thread's calls return rows of their own
        spec = BathSpec(gamma=np.pi / 2, eps=0.5, kT=0.5)
        grid = FrequencyGrid.for_times(spec, 0.025, 401)

        def broken(lo, hi, rngs, groups):
            next(groups)
            raise ValueError("broken block")

        with pytest.raises(ValueError, match="broken block"):
            qdyn.noise_blocks(spec, grid, QUANTUM, 1, 0, range(4), broken)
        first = synthesize_batch(spec, grid, QUANTUM, [stream(46, 0, 0)])
        again = synthesize_batch(spec, grid, QUANTUM, [stream(46, 0, 1)])
        assert not np.shares_memory(first, again)

    @pytest.mark.parametrize("threads", [2, 4])
    def test_amplitudes_are_built_once_per_call(self, monkeypatch, threads):
        # building the amplitudes is made slow, so that every thread would
        # start a block, and miss a cache, while the first still builds:
        # the call builds them once, before its blocks, and frees them when
        # it returns
        spec = BathSpec(gamma=np.pi / 2, eps=0.5, kT=0.5)
        grid = FrequencyGrid.for_times(spec, 0.025, 401)
        ref = stacked_synthesis(spec, grid, QUANTUM, _traj_streams(48, 0, range(threads * 64)))
        built, refs = [], []
        amplitudes, checked = qnoise.mode_amplitudes, qnoise._checked_amplitudes

        def slow(*args):
            built.append(threading.current_thread())
            time.sleep(0.2)
            return amplitudes(*args)

        def watched(*args):
            amp = checked(*args)
            refs.append(weakref.ref(amp))
            return amp

        monkeypatch.setattr(qnoise, "mode_amplitudes", slow)
        monkeypatch.setattr(qnoise, "_checked_amplitudes", watched)
        monkeypatch.setattr(qnoise, "usable_cores", lambda: threads)
        got = block_rows(spec, grid, QUANTUM, 48, threads * 64)
        assert len(built) == 1 and len(refs) == 1
        assert refs[0]() is None
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("statistics", [QUANTUM, WHITE])
    def test_a_slow_thread_fills_fewer_groups(self, monkeypatch, statistics):
        # a worker whose core is taken runs its blocks slowly: the calling
        # thread claims the blocks it does not reach, and the rows keep
        # their bits
        spec = BathSpec(gamma=np.pi / 2, eps=0.5, kT=0.5)
        grid = FrequencyGrid.for_times(spec, 0.025, 401)
        n = 16 * 64
        ref = stacked_synthesis(spec, grid, statistics, _traj_streams(47, 0, range(n)))
        monkeypatch.setattr(qnoise, "usable_cores", lambda: 2)
        in_main = []

        def work(lo, hi):
            if threading.current_thread() is threading.main_thread():
                in_main.append(lo)
            else:
                time.sleep(0.2)

        got = block_rows(spec, grid, statistics, 47, n, work)
        assert got.tobytes() == ref.tobytes()
        assert len(in_main) >= 13

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity")
    def test_each_thread_works_on_its_own_core_and_the_callers_affinity_is_restored(
            self, monkeypatch):
        spec = BathSpec(gamma=np.pi / 2, eps=0.5, kT=0.5)
        grid = FrequencyGrid.for_times(spec, 0.025, 401)
        before = os.sched_getaffinity(0)
        monkeypatch.setattr(qnoise, "usable_cores", lambda: 2)
        # slow in the calling thread, so that the worker claims blocks too;
        # the worker holds its first block until the calling thread has run
        # one, so it cannot claim them all before the calling thread's first
        started = threading.Event()
        masks = {}

        def work(lo, hi):
            thread = threading.current_thread()
            masks.setdefault(thread, set()).add(frozenset(os.sched_getaffinity(0)))
            if thread is threading.main_thread():
                time.sleep(0.005)
                started.set()
            else:
                started.wait(timeout=60)

        block_rows(spec, grid, QUANTUM, 48, 16 * 64, work)
        assert os.sched_getaffinity(0) == before
        assert len(masks) == 2
        assert all(len(seen) == 1 and len(next(iter(seen))) == 1 for seen in masks.values())
        if len(before) > 1:
            assert len({next(iter(seen)) for seen in masks.values()}) == 2

    def test_stress_more_threads_than_cores_and_short_switch_interval(self, monkeypatch):
        # four threads switching every microsecond: a block's rows written
        # at another block's place would change the bits
        spec = BathSpec(gamma=np.pi / 2, eps=0.5, kT=0.5)
        grid = FrequencyGrid.for_times(spec, 0.025, 401)
        n = 5 * 64 + 1
        ref = stacked_synthesis(spec, grid, QUANTUM, _traj_streams(46, 0, range(n)))
        monkeypatch.setattr(qnoise, "usable_cores", lambda: 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert block_rows(spec, grid, QUANTUM, 46, n).tobytes() == ref.tobytes()
        finally:
            sys.setswitchinterval(interval)


def stacked_autocorrelation(paths, lags):
    """Reference: the whole-ensemble kernel, all paths stacked in one array,
    each path's lag product one dot product of the path with its shift."""
    values = np.stack([p.values for p in paths])
    dt = paths[0].times[1] - paths[0].times[0]
    n = values.shape[1]
    est, se = [], []
    for lag in lags:
        k = int(round(lag / dt))
        per_path = np.array([np.dot(v[:n - k], v[k:]) for v in values]) / (n - k)
        est.append(per_path.mean())
        se.append(per_path.std(ddof=1) / np.sqrt(len(paths)))
    return np.array(est), np.array(se)


def pairwise_lag_products(rows, shifts):
    """Oracle: the earlier kernel, the products of each path and its shift
    summed by numpy's pairwise row reduction."""
    n = rows.shape[1]
    return np.array([np.add.reduce(rows[:, :n - k] * rows[:, k:], axis=1) / (n - k)
                     for k in shifts])


class TestLagProducts:
    # A priori: both kernels compute the m = n - k term sum s = sum_t a_t
    # b_t, a_t b_t rounded once each, in some order; every order errs by at
    # most gamma_m sum_t |a_t b_t|, gamma_m = m u / (1 - m u), u = 2**-53
    # (Higham, Accuracy and Stability of Numerical Algorithms, 3.1).  The
    # division by m rounds once more, so each mean lies within gamma_{m+1}
    # sum_t |a_t b_t| / m of the exact one and the two kernels within
    # twice that of each other.
    @staticmethod
    def bound(rows, shifts):
        n = rows.shape[1]
        u = np.finfo(float).eps / 2
        out = []
        for k in shifts:
            m = n - k
            gamma = (m + 1) * u / (1 - (m + 1) * u)
            out.append(2 * gamma * np.abs(rows[:, :m] * rows[:, k:]).sum(axis=1) / m)
        return np.array(out)

    # fig2's grid (4001 samples at dt = 0.001, lags of eps = 10 samples) and
    # a long one, past the 10,000 terms from which OpenBLAS threads a dot
    @pytest.mark.parametrize("n_times", [4001, 60001])
    def test_within_the_roundoff_bound_of_the_pairwise_kernel(self, n_times):
        spec = BathSpec(gamma=np.pi / 2, eps=0.01, kT=1.0)
        grid = FrequencyGrid.for_times(spec, 0.001, n_times)
        rows = synthesize_batch(spec, grid, QUANTUM, [stream(49, 0, i) for i in range(8)])
        shifts = qnoise.lag_shifts(spec.eps * np.arange(20), 0.001, n_times)
        with qdyn._one_blas_thread():
            got = qnoise.lag_products(rows, shifts, np.empty((len(shifts), len(rows))))
        ref = pairwise_lag_products(rows, shifts)
        assert np.all(np.abs(got - ref) <= self.bound(rows, shifts))

    def test_statistics_need_two_paths(self):
        # noise-check's reduction names its own condition, not its caller's
        with pytest.raises(ConfigurationError, match="^lag_statistics needs the lag "
                                                     "products of at least 2 paths, got 1$"):
            qnoise.lag_statistics(np.ones((3, 1)))


class TestEmpiricalAutocorrelation:
    def test_chunked_consumption_matches_stacked_reference_bit_for_bit(self):
        # 63, 64, 65 and 150 paths put tile edges inside, on and past the ensemble
        grid = FrequencyGrid.for_times(FIG1, 0.025, 201)
        paths = make_paths(FIG1, grid, QUANTUM, 150, seed=17)
        lags = FIG1.eps * np.arange(8)
        for n in (2, 63, 64, 65, 150):
            ref_est, ref_se = stacked_autocorrelation(paths[:n], lags)
            est, se = empirical_autocorrelation(iter(paths[:n]), lags)
            assert est.tobytes() == ref_est.tobytes()
            assert se.tobytes() == ref_se.tobytes()

    def test_zero_ensemble(self):
        times = 0.1 * np.arange(50)
        paths = [NoisePath(seed=(i,), times=times, values=np.zeros(50))
                 for i in range(4)]
        est, se = empirical_autocorrelation(paths, [0.0, 0.5])
        assert np.all(est == 0.0) and np.all(se == 0.0)

    def test_requires_two_paths(self):
        times = 0.1 * np.arange(50)
        with pytest.raises(ConfigurationError):
            empirical_autocorrelation(
                [NoisePath(seed=(0,), times=times, values=np.zeros(50))], [0.0])

    def test_lag_must_be_on_grid(self):
        grid = FrequencyGrid.for_times(FIG1, 0.025, 101)
        paths = make_paths(FIG1, grid, QUANTUM, 2, seed=15)
        with pytest.raises(ConfigurationError):
            empirical_autocorrelation(paths, [0.0301])

    def test_lag_beyond_span_rejected(self):
        grid = FrequencyGrid.for_times(FIG1, 0.025, 101)
        paths = make_paths(FIG1, grid, QUANTUM, 2, seed=16)
        with pytest.raises(ConfigurationError):
            empirical_autocorrelation(paths, [3.0])

    # the longer path would otherwise be cut to the first path's window; it
    # follows 1 path (first tile) or 1024 paths (a later tile) of the first length
    @pytest.mark.parametrize("n_before", [1, 1024])
    def test_paths_of_another_length_rejected(self, n_before):
        times = 0.1 * np.arange(60)
        paths = [NoisePath(seed=(i,), times=times[:50], values=np.ones(50))
                 for i in range(n_before)]
        paths.append(NoisePath(seed=(n_before,), times=times, values=np.ones(60)))
        with pytest.raises(ConfigurationError, match="one length"):
            empirical_autocorrelation(paths, [0.0])

    def test_peak_memory_is_a_small_part_of_the_chunk(self):
        # fig2's grid (4001 samples) and 20 lags, a chunk of 1024 paths: only
        # tiles of paths may be stacked, never the chunk or a product of its size
        times = 0.001 * np.arange(4001)
        values = np.random.default_rng(3).standard_normal((1024, 4001))
        paths = [NoisePath(seed=(i,), times=times, values=row) for i, row in enumerate(values)]
        tracemalloc.start()
        try:
            empirical_autocorrelation(paths, 0.01 * np.arange(20))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * values.nbytes

    def test_one_batch_of_paths_alive_at_a_time(self):
        # as noise-check feeds it: batches made on demand and dropped once
        # consumed; no path of a consumed batch may be held while the next is made
        times = 0.001 * np.arange(4001)
        rng = np.random.default_rng(4)

        def batches(n_batches, size):
            for b in range(n_batches):
                block = rng.standard_normal((size, len(times)))
                yield from (NoisePath(seed=(b, i), times=times, values=row)
                            for i, row in enumerate(block))
                del block

        tracemalloc.start()
        try:
            empirical_autocorrelation(batches(2, 1024), 0.01 * np.arange(20))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 1024 * len(times) * 8


class TestBinaryDump:
    def test_round_trip(self, tmp_path):
        vals = np.arange(12.0).reshape(3, 4)
        path = tmp_path / "ens.bin"
        dump_ensemble(path, {"kind": "noise", "seed": 7}, vals)
        meta, loaded = load_ensemble(path)
        assert meta["kind"] == "noise" and meta["seed"] == 7
        assert np.array_equal(loaded, vals)

    def test_streamed_blocks_equal_one_dump(self, tmp_path):
        vals = np.arange(15.0).reshape(5, 3)
        dump_ensemble(tmp_path / "one.bin", {"kind": "noise"}, vals)
        with ensemble_writer(tmp_path / "blocks.bin", {"kind": "noise"}, (5, 3)) as write:
            write(vals[:2])
            write(vals[2:])
        assert (tmp_path / "blocks.bin").read_bytes() == (tmp_path / "one.bin").read_bytes()

    def test_short_stream_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="payload"):
            with ensemble_writer(tmp_path / "short.bin", {"kind": "noise"}, (5, 3)) as write:
                write(np.zeros((4, 3)))
        assert not (tmp_path / "short.bin").exists()

    def test_failure_inside_the_block_deletes_the_dump(self, tmp_path):
        with pytest.raises(RuntimeError, match="mid-run"):
            with ensemble_writer(tmp_path / "cut.bin", {"kind": "noise"}, (5, 3)) as write:
                write(np.zeros((2, 3)))
                raise RuntimeError("mid-run")
        assert not (tmp_path / "cut.bin").exists()

    @pytest.mark.parametrize("cut", [8, 3])
    def test_truncated_payload_rejected(self, tmp_path, cut):
        path = tmp_path / "cut.bin"
        dump_ensemble(path, {"kind": "noise"}, np.arange(12.0).reshape(3, 4))
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(ConfigurationError,
                           match=rf"cut\.bin: payload has {96 - cut} bytes.*needs 96"):
            load_ensemble(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a dump")
        with pytest.raises(ConfigurationError):
            load_ensemble(path)

    @pytest.mark.parametrize("tail", [
        b"",
        b"\x05\x00",
        (6).to_bytes(4, "little") + b"{shape",
        (17).to_bytes(4, "little") + b'{"kind": "noise"}',
        (19).to_bytes(4, "little") + b'{"shape": [2.5, 2]}' + bytes(40),
    ], ids=["magic-only", "two-byte-length", "not-json", "no-shape", "fractional-shape"])
    def test_malformed_header_rejected(self, tmp_path, tail):
        path = tmp_path / "bad.bin"
        path.write_bytes(_MAGIC + tail)
        with pytest.raises(ConfigurationError, match=r"bad\.bin: malformed dump header"):
            load_ensemble(path)
