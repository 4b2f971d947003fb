import numpy as np
import pytest

from qbm.bath import BathSpec, quantum_correlation
from qbm.errors import ConfigurationError
from qbm.noise import (
    CLASSICAL,
    QUANTUM,
    WHITE,
    FrequencyGrid,
    NoisePath,
    draw_auxiliary,
    dump_ensemble,
    empirical_autocorrelation,
    ensemble_writer,
    load_ensemble,
    synthesize,
    synthesize_batch,
)

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


class TestDrawAuxiliary:
    def test_hermitian_symmetry_exact(self):
        grid = FrequencyGrid(delta_omega=0.1, n_modes=32, t_step=0.1, n_times=8)
        z = draw_auxiliary(grid, stream(5))
        n = grid.n_modes
        for k in range(1, n + 1):
            assert z[n - k] == np.conj(z[n + k])
        assert z[n].imag == 0.0

    def test_moments(self):
        grid = FrequencyGrid(delta_omega=0.1, n_modes=8, t_step=0.1, n_times=8)
        rng = stream(7)
        draws = np.stack([draw_auxiliary(grid, rng) for _ in range(120000)])
        n = grid.n_modes
        # <|z_k|^2> -> 1 within 3 standard errors
        sq = np.abs(draws) ** 2
        se = sq.std(axis=0, ddof=1) / np.sqrt(len(draws))
        assert np.all(np.abs(sq.mean(axis=0) - 1.0) <= 3.0 * se)
        # <z_k z_k> -> 0 for interior k > 0
        for k in range(1, n):
            zz = draws[:, n + k] ** 2
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
        e1, s1 = empirical_autocorrelation(paths, lags, window=(0, half))
        e2, s2 = empirical_autocorrelation(paths, lags, window=(half, grid.n_times))
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


def stacked_autocorrelation(paths, lags):
    """Reference: the whole-ensemble kernel, all paths stacked in one array."""
    values = np.stack([p.values for p in paths])
    dt = paths[0].times[1] - paths[0].times[0]
    est, se = [], []
    for lag in lags:
        k = int(round(lag / dt))
        per_path = np.mean(values[:, :values.shape[1] - k] * values[:, k:], axis=1)
        est.append(per_path.mean())
        se.append(per_path.std(ddof=1) / np.sqrt(len(paths)))
    return np.array(est), np.array(se)


class TestEmpiricalAutocorrelation:
    def test_chunked_consumption_matches_stacked_reference_bit_for_bit(self):
        grid = FrequencyGrid.for_times(FIG1, 0.025, 201)
        paths = make_paths(FIG1, grid, QUANTUM, 150, seed=17)
        lags = FIG1.eps * np.arange(8)
        ref_est, ref_se = stacked_autocorrelation(paths, lags)
        for chunk in (1, 7, 64, 150, 1024):
            est, se = empirical_autocorrelation(iter(paths), lags, chunk=chunk)
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

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a dump")
        with pytest.raises(ConfigurationError):
            load_ensemble(path)
