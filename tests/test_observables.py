import numpy as np
import pytest
from scipy.integrate import simpson

from qbm.dynamics import TrajectoryEnsemble
from qbm.errors import SignProblemError
from qbm.observables import (
    Accumulator,
    ObservableSeries,
    WeylObservable,
    cat_initial_value,
    estimate,
    msd,
)
from qbm.preparation import cat_wigner


def make_ensemble(x, p=None, weights=None, times=None):
    x = np.asarray(x, dtype=float)
    if p is None:
        p = np.zeros_like(x)
    if weights is None:
        weights = np.ones(x.shape[0])
    if times is None:
        times = np.arange(x.shape[1], dtype=float)
    return TrajectoryEnsemble(times=times, x=x, p=np.asarray(p, dtype=float),
                              weights=np.asarray(weights, dtype=float))


class TestWeylObservable:
    def test_quadratic_forms(self):
        x, p = np.array([2.0]), np.array([3.0])
        assert WeylObservable.x2()(x, p)[0] == 4.0
        assert WeylObservable.p2()(x, p)[0] == 9.0
        assert WeylObservable.xp()(x, p)[0] == 6.0

    def test_cat_coherence_origin(self):
        o = WeylObservable.cat_coherence(2.0, 1.0)
        assert o(np.array([0.0]), np.array([0.0]))[0] == pytest.approx(4.0)

    def test_cat_coherence_hbar_phase(self):
        hbar = 3.0
        o = WeylObservable.cat_coherence(1.0, 0.5, hbar=hbar)
        p_flip = np.pi * hbar / 2.0
        assert o(np.array([0.0]), np.array([p_flip]))[0] < 0.0

    @pytest.mark.parametrize("obs, reads", [
        (WeylObservable.x2(), ("x",)), (WeylObservable.p2(), ("p",)),
        (WeylObservable.xp(), ("x", "p")),
        (WeylObservable.cat_coherence(1.0, 0.5), ("x", "p")),
        # p - p^2, 2 + 3x, x p, and a constant, which takes x's shape
        (WeylObservable.polynomial([[0.0, 1.0, -1.0]]), ("p",)),
        (WeylObservable.polynomial([[2.0], [3.0]]), ("x",)),
        (WeylObservable.polynomial([[0.0, 0.0], [0.0, 1.0]]), ("x", "p")),
        (WeylObservable.polynomial([[2.5]]), ("x",))])
    def test_reads_only_the_variables_it_names(self, obs, reads):
        # a record it does not read may be None: the values keep their bits
        rng = np.random.default_rng(2)
        x, p = rng.normal(size=(2, 5, 3))
        assert obs.reads == reads
        alone = obs(x if "x" in reads else None, p if "p" in reads else None)
        assert alone.shape == x.shape and alone.tobytes() == obs(x, p).tobytes()

    def test_polynomial(self):
        o = WeylObservable.polynomial([[0.0, 0.0, 1.0], [2.0, 0.0, 0.0]])
        # p^2 + 2x
        assert o(np.array([1.5]), np.array([2.0]))[0] == pytest.approx(4.0 + 3.0)


class TestEstimate:
    def test_unweighted_symmetric_pair(self):
        ens = make_ensemble([[1.0, 1.0], [-1.0, -1.0]])
        series = estimate(ens, WeylObservable.x2())
        assert np.allclose(series.estimates, 1.0)
        assert np.all(series.effective_sample_size == 2.0)

    def test_opposite_weights_raise_sign_problem(self):
        ens = make_ensemble([[1.0], [1.0]], weights=[1.0, -1.0])
        with pytest.raises(SignProblemError):
            estimate(ens, WeylObservable.x2())

    def test_agrees_with_plain_mean_when_unweighted(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((500, 3))
        ens = make_ensemble(x)
        series = estimate(ens, WeylObservable.x2())
        assert np.allclose(series.estimates, (x**2).mean(axis=0))
        assert np.allclose(series.standard_errors,
                           (x**2).std(axis=0, ddof=0) / np.sqrt(500), rtol=5e-3)

    # one trajectory, or two of which one failed: its residual is exactly 0,
    # which would read as a standard error of 0
    @pytest.mark.parametrize("x, weights, failed", [
        ([[1.0, 2.0]], [0.5], ()),
        ([[1.0, 2.0], [np.nan, 1.0]], [1.0, 1.0], (1,)),
    ], ids=["one", "one-finite"])
    def test_fewer_than_two_finite_trajectories_rejected(self, x, weights, failed):
        ens = make_ensemble(x, weights=weights)
        ens.failed_ids = failed
        with pytest.raises(ValueError,
                           match="at least 2 finite trajectories for a standard error, got 1"):
            estimate(ens, WeylObservable.x2())

    def test_weighted_ratio_and_ess(self):
        x = np.array([[1.0], [2.0], [3.0]])
        w = np.array([1.0, 2.0, 1.0])
        ens = make_ensemble(x, weights=w)
        series = estimate(ens, WeylObservable.x2())
        assert series.estimates[0] == pytest.approx((1 + 8 + 9) / 4.0)
        assert series.effective_sample_size[0] == pytest.approx(16.0 / 6.0)

    def test_low_ess_flag(self):
        x = np.ones((4, 1))
        w = np.array([100.0, 1e-6, 1e-6, 1e-6])
        series = estimate(make_ensemble(x, weights=w), WeylObservable.x2())
        assert series.low_ess.all()

    def test_se_shrinks_like_sqrt_n(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((8000, 1))
        s_full = estimate(make_ensemble(x), WeylObservable.x2())
        s_half = estimate(make_ensemble(x[:4000]), WeylObservable.x2())
        ratio = s_half.standard_errors[0] / s_full.standard_errors[0]
        assert np.sqrt(2.0) * 0.8 <= ratio <= np.sqrt(2.0) * 1.2


class TestMsd:
    def test_zero_at_reference_time(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((50, 4))
        series = msd(make_ensemble(x), 0.0)
        assert series.estimates[0] == 0.0

    def test_weighted_ensemble_rejected(self):
        ens = make_ensemble(np.ones((3, 2)), weights=[1.0, 0.5, 1.0])
        with pytest.raises(ValueError):
            msd(ens, 0.0)

    def test_invariant_under_noise_sign_flip(self):
        rng = np.random.default_rng(3)
        x = np.cumsum(rng.standard_normal((200, 6)), axis=1)
        a = msd(make_ensemble(x), 0.0)
        b = msd(make_ensemble(-x), 0.0)
        assert np.allclose(a.estimates, b.estimates)

    def test_off_grid_reference_time_rejected(self):
        with pytest.raises(ValueError):
            msd(make_ensemble(np.ones((3, 4))), 0.5)

    # one trajectory, or two of which one failed: no standard error exists
    @pytest.mark.parametrize("x, failed", [([[0.0, 1.0]], ()),
                                           ([[0.0, 1.0], [0.0, np.nan]], (1,))])
    def test_fewer_than_two_finite_trajectories_rejected(self, x, failed):
        ens = make_ensemble(x)
        ens.failed_ids = failed
        acc = Accumulator.displacement(ens.times, 0.0)
        acc.add(ens)
        with pytest.raises(ValueError,
                           match="at least 2 finite trajectories for a standard error, got 1"):
            acc.series(ens)


class TestCatInitialValue:
    def test_coincident_packets(self):
        assert cat_initial_value(0.0, 1.0) == pytest.approx(2.0)

    def test_orthogonal_packets(self):
        assert cat_initial_value(50.0, 1.0) == pytest.approx(1.0)

    def test_overlap_value(self):
        assert cat_initial_value(2.0, 1.0) == pytest.approx(1.0 + np.exp(-2.0), rel=1e-12)

    def test_cross_checked_by_phase_space_quadrature(self):
        # int O_W * W_cat over phase space must reproduce the overlap formula
        x0, sigma = 2.0, 1.0
        r = np.linspace(-10, 10, 1401)
        p = np.linspace(-8, 8, 1401)
        w = cat_wigner(x0, sigma, r[:, None], p[None, :])
        o = WeylObservable.cat_coherence(x0, sigma)(r[:, None], p[None, :])
        val = simpson(simpson(w * o, x=p, axis=1), x=r)
        assert val == pytest.approx(cat_initial_value(x0, sigma), abs=1e-6)


def two_pass_estimate(ensemble, obs):
    """Reference: the whole-ensemble estimator, sums over stacked rows."""
    good = np.setdiff1d(np.arange(ensemble.n_traj), ensemble.failed_ids)
    w = ensemble.weights[good]
    total = w.sum()
    ess = total**2 / np.sum(w**2)
    vals = obs(ensemble.x[good], ensemble.p[good])
    ratio = (w[:, None] * vals).sum(axis=0) / total
    resid = w[:, None] * (vals - ratio[None, :])
    se = np.sqrt((resid**2).sum(axis=0)) / abs(total)
    return ratio, se, np.full(len(ensemble.times), ess)


def two_pass_msd(ensemble, t0):
    """Reference: the mean squared displacement over stacked rows."""
    k0 = int(np.argmin(np.abs(ensemble.times - t0)))
    good = np.setdiff1d(np.arange(ensemble.n_traj), ensemble.failed_ids)
    disp = (ensemble.x[good] - ensemble.x[good, k0][:, None]) ** 2
    n = len(good)
    return (disp.mean(axis=0), disp.std(axis=0, ddof=1) / np.sqrt(n),
            np.full(len(ensemble.times), float(n)))


def batches(ensemble, batch_size):
    """The ensemble as run_ensemble hands it to a consumer: failed ids per batch."""
    failed = np.asarray(ensemble.failed_ids, dtype=int)
    for lo in range(0, ensemble.n_traj, batch_size):
        hi = min(lo + batch_size, ensemble.n_traj)
        mine = failed[(failed >= lo) & (failed < hi)] - lo
        yield TrajectoryEnsemble(ensemble.times, ensemble.x[lo:hi], ensemble.p[lo:hi],
                                 ensemble.weights[lo:hi], failed_ids=mine)


def streamed(acc, ensemble, batch_size):
    for batch in batches(ensemble, batch_size):
        acc.add(batch)
    return acc.series(ensemble)


def simulated(prep, n_traj, seed, mode="translate"):
    """A short fig1-bath run; prep None leaves the thermal ensemble unweighted."""
    from qbm.bath import BathSpec
    from qbm.dynamics import Intervention, Potential, Schedule, run_ensemble

    spec = BathSpec(gamma=np.pi / 2, eps=0.5)
    ivs = () if prep is None else (Intervention(0.0, prep, mode=mode),)
    sched = Schedule(t_eq=2.0, t_end=1.5, dt=0.05, interventions=ivs)
    return run_ensemble(spec, Potential.free(), sched, n_traj, "quantum", seed)


class TestAccumulator:
    @pytest.fixture(scope="class")
    def ensembles(self):
        from qbm.preparation import CatProject, MomentumReset

        rng = np.random.default_rng(11)
        thermal = simulated(None, 1500, 3)
        # positive weights spanning four decades, and two failed trajectories
        # whose NaN records must not reach the sums
        x, p = thermal.x.copy(), thermal.p.copy()
        x[[5, 900]] = np.nan
        weighted = TrajectoryEnsemble(thermal.times, x, p,
                                      10.0 ** rng.uniform(-2, 2, thermal.n_traj),
                                      failed_ids=(5, 900))
        cat = simulated(CatProject(1.0, 0.5), 1500, 4)
        reset = simulated(MomentumReset(0.0), 300, 5, mode="lab")
        assert (cat.weights < 0).any() and (cat.weights > 0).any()
        return {"thermal": thermal, "weighted": weighted, "cat": cat, "reset": reset}

    @pytest.mark.parametrize("batch_size", [1, 17, 1024])
    @pytest.mark.parametrize("name, obs", [
        ("thermal", WeylObservable.x2()),
        ("weighted", WeylObservable.xp()),
        ("cat", WeylObservable.p2()),
        ("cat", WeylObservable.cat_coherence(1.0, 0.5)),
        ("reset", WeylObservable.p2()),
    ])
    def test_matches_two_pass_estimate(self, ensembles, name, obs, batch_size):
        ens = ensembles[name]
        est, se, ess = two_pass_estimate(ens, obs)
        series = streamed(Accumulator(ens.times, obs), ens, batch_size)
        assert series.estimates.tobytes() == est.tobytes()
        assert series.effective_sample_size.tobytes() == ess.tobytes()
        assert np.array_equal(series.standard_errors == 0.0, se == 0.0)
        live = se > 0
        assert np.max(np.abs(series.standard_errors[live] / se[live] - 1.0)) <= 1e-13
        # the public estimator feeds the same accumulator 1024 rows at a time
        whole = estimate(ens, obs)
        assert whole.estimates.tobytes() == series.estimates.tobytes()
        assert whole.standard_errors.tobytes() == series.standard_errors.tobytes()

    @pytest.mark.parametrize("batch_size", [1, 17, 1024])
    def test_matches_two_pass_msd(self, ensembles, batch_size):
        ens = ensembles["thermal"]
        est, se, n = two_pass_msd(ens, 0.0)
        series = streamed(Accumulator.displacement(ens.times, 0.0), ens, batch_size)
        assert series.estimates.tobytes() == est.tobytes()
        assert series.effective_sample_size.tobytes() == n.tobytes()
        assert series.standard_errors[0] == 0.0 == se[0]
        assert np.max(np.abs(series.standard_errors[1:] / se[1:] - 1.0)) <= 1e-13
        assert msd(ens, 0.0).estimates.tobytes() == est.tobytes()

    def test_single_time_agrees_to_rounding(self, ensembles):
        # numpy sums a single column pairwise, not row after row: the one
        # case where the streamed sums may differ from one pass in the last bits
        th = ensembles["thermal"]
        ens = TrajectoryEnsemble(th.times[-1:], th.x[:, -1:], th.p[:, -1:], th.weights)
        est, se, ess = two_pass_estimate(ens, WeylObservable.x2())
        series = streamed(Accumulator(ens.times, WeylObservable.x2()), ens, 17)
        assert series.effective_sample_size.tobytes() == ess.tobytes()
        assert abs(series.estimates[0] / est[0] - 1.0) <= 1e-14
        assert abs(series.standard_errors[0] / se[0] - 1.0) <= 1e-13

    def test_zero_values_have_zero_error(self, ensembles):
        # p is reset to exactly 0 at t = 0: every value there is 0
        ens = ensembles["reset"]
        series = streamed(Accumulator(ens.times, WeylObservable.p2()), ens, 17)
        assert ens.times[0] == 0.0 and not ens.p[:, 0].any()
        assert series.estimates[0] == 0.0 and series.standard_errors[0] == 0.0
        assert (series.standard_errors[1:] > 0).all()

    def test_sign_problem_and_weighted_msd_still_raise(self):
        ens = make_ensemble(np.ones((4, 3)), weights=[1.0, -1.0, 1.0, -1.0])
        acc = Accumulator(ens.times, WeylObservable.x2())
        acc.add(ens)
        with pytest.raises(SignProblemError):
            acc.series(ens)
        ens = make_ensemble(np.ones((3, 2)), weights=[1.0, 0.5, 1.0])
        acc = Accumulator.displacement(ens.times, 0.0)
        acc.add(ens)
        with pytest.raises(ValueError, match="unweighted"):
            acc.series(ens)

    def test_takes_pieces_without_the_other_record(self):
        rng = np.random.default_rng(3)
        x, p = rng.normal(size=(2, 40, 6))
        ens = TrajectoryEnsemble(np.arange(6.0), x, p, np.ones(40))
        for acc, bare in ((Accumulator(ens.times, WeylObservable.x2()),
                           TrajectoryEnsemble(ens.times, x, None, ens.weights)),
                          (Accumulator(ens.times, WeylObservable.p2()),
                           TrajectoryEnsemble(ens.times, None, p, ens.weights)),
                          (Accumulator.displacement(ens.times, 0.0),
                           TrajectoryEnsemble(ens.times, x, None, ens.weights))):
            full = Accumulator(ens.times, acc._obs, thermal=acc._thermal)
            full.add(ens)
            acc.add(bare)
            assert acc.reads == (("x",) if bare.p is None else ("p",))
            assert acc.series(ens).estimates.tobytes() == full.series(ens).estimates.tobytes()

    def test_series_reads_no_records(self, ensembles):
        # a streamed ensemble keeps only its weights and failed ids
        ens = ensembles["weighted"]
        acc = Accumulator(ens.times, WeylObservable.x2())
        acc.add(ens)
        bare = TrajectoryEnsemble(ens.times, None, None, ens.weights,
                                  failed_ids=ens.failed_ids)
        assert acc.series(bare).estimates.tobytes() == acc.series(ens).estimates.tobytes()


def common_factor_bounds(w, vals):
    """A-priori bounds on how far the ratio estimate, its standard error and
    its effective sample size move, per recorded time and relative to their
    values, when every weight is multiplied by one constant and rounded.

    In exact arithmetic the three do not move.  With u = 2^-53, each weight
    lies within 2 ulp (4 u) of the scaled one, so each term of a sum, of up
    to three rounded factors with the weight squared among them, moves by at
    most 16 u; each of the two computed sums of n terms lies within (n - 1) u
    times the sum of its terms' magnitudes of its exact value: so a sum S
    moves by at most k = (2 n + 16) u times its condition number
    sum |terms| / |S|.  A quotient moves by the sum of its two parts'
    bounds, and by 2 u for its own rounding in each run.  First order in u.
    """
    n, u = len(w), np.finfo(float).eps / 2
    k = (2 * n + 16) * u
    e_total = k * np.abs(w).sum() / abs(w.sum())
    wv = w[:, None] * vals
    ratio = wv.sum(axis=0) / w.sum()
    e_ratio = k * np.abs(wv).sum(axis=0) / np.abs(wv.sum(axis=0)) + e_total + 2 * u
    # the squared residuals: sum w^2 (v - shift - d)^2 with d = ratio - shift,
    # from three sums, and through d from the ratio's move
    w2, shifted, d = w[:, None] ** 2, vals - vals[0], ratio - vals[0]
    magnitude = ((w2 * shifted**2).sum(axis=0) + 2 * np.abs(d) * (w2 * np.abs(shifted)).sum(axis=0)
                 + d**2 * w2.sum())
    slope = 2 * np.abs((w2 * (vals - ratio)).sum(axis=0))
    resid2 = (w2 * (vals - ratio) ** 2).sum(axis=0)
    e_resid2 = (k * magnitude + slope * np.abs(ratio) * e_ratio) / resid2
    e_se = e_resid2 / 2 + e_total + 2 * u
    e_ess = 2 * e_total + k + 2 * u
    return e_ratio, e_se, e_ess


class TestCommonFactor:
    # a factor every weight shares cancels from the ratio, its standard error
    # and its effective sample size; a preparation may leave one out (the
    # cat's box mass).  Not powers of two, which scale exactly
    @pytest.fixture(scope="class")
    def cat(self):
        from qbm.cli import parse_config, preset_path
        from qbm.dynamics import run_ensemble

        cfg = parse_config(preset_path("fig2"))
        ens = run_ensemble(cfg.bath_spec(), cfg.potential_obj(), cfg.schedule_obj(), 400,
                           cfg.statistics, cfg.master_seed)
        assert (ens.weights < 0).any() and (ens.weights > 0).any()
        return ens, WeylObservable.cat_coherence(cfg.preparation["x0"], cfg.preparation["sigma"])

    @pytest.mark.parametrize("c", [1.2082446077909161, 1e-3, 1e3])
    def test_estimates_ignore_a_common_factor(self, cat, c):
        ens, obs = cat
        scaled = TrajectoryEnsemble(ens.times, ens.x, ens.p, ens.weights * c)
        base, moved = estimate(ens, obs), estimate(scaled, obs)
        e_ratio, e_se, e_ess = common_factor_bounds(ens.weights, obs(ens.x, ens.p))
        assert np.all(np.abs(moved.estimates - base.estimates)
                      <= e_ratio * np.abs(base.estimates))
        assert np.all(np.abs(moved.standard_errors - base.standard_errors)
                      <= e_se * base.standard_errors)
        assert np.all(np.abs(moved.effective_sample_size - base.effective_sample_size)
                      <= e_ess * base.effective_sample_size)
