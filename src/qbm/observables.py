"""Weighted ensemble estimates of phase-space (Weyl symbol) observables."""

from dataclasses import dataclass

import numpy as np

from .errors import SignProblemError

# Times whose effective sample size falls below this are flagged unreliable.
_ESS_FLOOR = 100.0
# Trajectories an accumulator folds in at a time (bounds its temporaries): a
# noise block, the piece a run on the linear map hands on.
_ADD_CHUNK = 64


@dataclass(frozen=True)
class WeylObservable:
    """Phase-space function averaged over the weighted trajectory ensemble.

    Forms: ``x2``, ``p2``, ``xp`` (the symmetrised product), ``cat-coherence``
    (the off-diagonal projector of a two-packet superposition; its phase
    ``cos(2 x0 p / hbar)`` threads hbar explicitly for unit consistency), and
    ``poly`` with a coefficient matrix C[i, j] for sum C_ij x^i p^j.
    :attr:`reads` names the recorded variables the symbol reads.
    """

    form: str
    x0: float = 0.0
    sigma: float = 0.0
    hbar: float = 1.0
    coefficients: tuple = ()

    @classmethod
    def x2(cls):
        return cls(form="x2")

    @classmethod
    def p2(cls):
        return cls(form="p2")

    @classmethod
    def xp(cls):
        return cls(form="xp")

    @classmethod
    def cat_coherence(cls, x0, sigma, hbar=1.0):
        return cls(form="cat-coherence", x0=float(x0), sigma=float(sigma),
                   hbar=float(hbar))

    @classmethod
    def polynomial(cls, coefficients):
        c = tuple(tuple(float(v) for v in row) for row in coefficients)
        return cls(form="poly", coefficients=c)

    @property
    def reads(self):
        """The variables the symbol reads: ``x2`` x, ``p2`` p, ``xp`` and
        ``cat-coherence`` both, and ``poly`` those its nonzero coefficients
        raise to a power (x for a constant, whose values take x's shape)."""
        if self.form == "x2":
            return ("x",)
        if self.form == "p2":
            return ("p",)
        if self.form == "poly":
            c = np.asarray(self.coefficients)
            used = (c[1:].any(), c[:, 1:].any())
            return tuple(v for v, u in zip(("x", "p"), used) if u) or ("x",)
        return ("x", "p")

    def __call__(self, x, p):
        """The symbol's values; a variable it does not read may be None."""
        x, p = (np.asarray(a, dtype=float) if v in self.reads else None
                for v, a in (("x", x), ("p", p)))
        if self.form == "x2":
            return x * x
        if self.form == "p2":
            return p * p
        if self.form == "xp":
            return x * p
        if self.form == "cat-coherence":
            s2 = self.sigma**2
            return 4.0 * np.exp(-x**2 / (2.0 * s2)
                                - 2.0 * s2 * p**2 / self.hbar**2) \
                * np.cos(2.0 * self.x0 * p / self.hbar)
        if self.form == "poly":
            # a variable not read has only zero coefficients past power 0
            x = np.zeros_like(p) if x is None else x
            p = np.zeros_like(x) if p is None else p
            c = np.asarray(self.coefficients)
            return np.polynomial.polynomial.polyval2d(x, p, c)
        raise ValueError(f"unknown observable form {self.form!r}")


@dataclass(frozen=True)
class ObservableSeries:
    """Weighted time series with delta-method errors and sampling diagnostics."""

    times: np.ndarray
    estimates: np.ndarray
    standard_errors: np.ndarray
    effective_sample_size: np.ndarray

    @property
    def low_ess(self):
        return self.effective_sample_size < _ESS_FLOOR


def _check_weights(weights):
    """Signed-weight normalisation must be resolvable from zero (5 SE rule).

    The check targets sign cancellation, so it applies only to mixed-sign
    ensembles; a skewed all-positive ensemble is legitimate (it surfaces as a
    low effective sample size instead).
    """
    total = weights.sum()
    if total == 0.0:
        raise SignProblemError("sum of weights is exactly zero")
    mixed = np.any(weights > 0) and np.any(weights < 0)
    if mixed:
        se_total = weights.std(ddof=1) * np.sqrt(len(weights))
        if abs(total) < 5.0 * se_total:
            raise SignProblemError(
                f"sum of weights {total:.3g} is within 5 standard errors "
                f"({se_total:.3g}) of zero; the ratio estimator is undefined")
    return total


@dataclass(frozen=True)
class _SquaredDisplacement:
    """``(x(t) - x(t_k0))^2`` per trajectory; reads x only."""

    k0: int
    reads = ("x",)

    def __call__(self, x, p):
        return (x - x[:, self.k0][:, None]) ** 2


def _good(ensemble):
    """Row indices of the trajectories that stayed finite."""
    # not np.setdiff1d: its np.unique imports numpy.ma on first use
    return np.delete(np.arange(ensemble.n_traj), ensemble.failed_ids)


class Accumulator:
    """Streamed estimate of one observable over a trajectory ensemble.

    :meth:`add` takes the ensemble a piece at a time, in trajectory-id
    order (a run's consumer gets a noise block on the linear map, a batch on
    the stepper), and folds each piece in ``_ADD_CHUNK`` rows at a time into
    three sums per recorded time, so beyond the sums it holds a few chunks'
    temporaries; :meth:`series` turns them into an :class:`ObservableSeries`.
    Each sum adds the rows one after another, the order in which numpy
    reduces a whole (n_traj, n_times) array along its first axis when it has
    more than one column, so the estimates equal those of one pass over the
    stacked ensemble bit for bit, whatever the pieces and chunks.  A single
    column numpy sums pairwise instead; there the two differ in the last
    bits.  The delta-method variance comes from the values shifted by the
    first trajectory's (Chan, Golub & LeVeque, Am. Stat. 37, 1983), which
    keeps its cancellation small.
    """

    def __init__(self, times, obs, thermal=False):
        self.times = np.asarray(times, dtype=float)
        self._obs = obs
        self._thermal = thermal   # unit weights: the plain mean and its error
        self._shift = None
        self._sums = None   # sum w v, sum w^2 u, sum w^2 u^2 with u = v - shift

    @classmethod
    def displacement(cls, times, t0=0.0):
        """Squared displacement ``(x(t) - x(t0))^2`` of the unweighted ensemble."""
        times = np.asarray(times, dtype=float)
        k0 = int(np.argmin(np.abs(times - t0)))
        if abs(times[k0] - t0) > 1e-9:
            raise ValueError(f"reference time {t0} not on the recording grid")
        return cls(times, _SquaredDisplacement(k0), thermal=True)

    @property
    def reads(self):
        """The records the estimate reads: its observable's, x for the displacement."""
        return self._obs.reads

    def add(self, ensemble):
        """Fold in the finite trajectories of ``ensemble``, ``_ADD_CHUNK`` at a
        time; a record the ensemble does not carry (None) is passed as None."""
        good = _good(ensemble)
        for lo in range(0, len(good), _ADD_CHUNK):
            rows = good[lo:lo + _ADD_CHUNK]
            x, p = (None if a is None else a[rows] for a in (ensemble.x, ensemble.p))
            self._add_rows(x, p, ensemble.weights[rows])

    def _add_rows(self, x, p, w):
        vals = self._obs(x, p)
        if self._shift is None:
            self._shift = vals[0].copy()
        rows = np.empty((3, len(w) + 1, len(self.times)))
        np.multiply(w[:, None], vals, out=rows[0, 1:])
        vals -= self._shift
        np.multiply((w * w)[:, None], vals, out=rows[1, 1:])
        np.multiply(rows[1, 1:], vals, out=rows[2, 1:])
        # row 0 carries the sums so far; accumulate adds row after row
        if self._sums is None:
            rows = rows[:, 1:]
        else:
            rows[:, 0] = self._sums
        np.add.accumulate(rows, axis=1, out=rows)
        self._sums = rows[:, -1].copy()

    def series(self, ensemble):
        """The estimate, from the sums and the weights of the whole ``ensemble``.

        Only the ensemble's weights and failed ids are read, not its records.
        Per time: ``sum_j w_j O_j / sum_j w_j`` with the standard error from
        the delta-method linearisation of the ratio (weights are signed, so
        the naive weighted variance underestimates).  Effective sample size
        is ``(sum w)^2 / sum w^2``; times where it drops below 100 are
        flagged via ``low_ess``.  The displacement is the plain mean with
        the standard error of the mean and ``n`` as its sample size.  Either
        needs at least 2 finite trajectories.
        """
        w = ensemble.weights[_good(ensemble)]
        if self._thermal and not ensemble.unweighted():
            raise ValueError("msd is defined for the unweighted thermal ensemble; "
                             "got preparation weights != 1")
        if len(w) < 2:
            raise ValueError(f"an estimate needs at least 2 finite trajectories for a "
                             f"standard error, got {len(w)}")
        total = float(len(w)) if self._thermal else _check_weights(w)
        s_wv, s_w2u, s_w2u2 = self._sums
        sum_w2 = np.sum(w**2)
        ratio = s_wv / total
        # sum_j w_j^2 (v_j - ratio)^2, expanded around the shift
        d = ratio - self._shift
        resid2 = np.maximum(s_w2u2 - 2.0 * d * s_w2u + d * d * sum_w2, 0.0)
        if not self._thermal:
            se, ess = np.sqrt(resid2) / abs(total), total**2 / sum_w2
        else:
            se, ess = np.sqrt(resid2 / (total - 1)) / np.sqrt(total), total
        return ObservableSeries(times=self.times, estimates=ratio, standard_errors=se,
                                effective_sample_size=np.full(len(self.times), ess))


def estimate(ensemble, obs):
    """Weighted ratio estimate of ``obs`` on the ensemble's recording grid.

    See :meth:`Accumulator.series`; the ensemble goes through an
    :class:`Accumulator` ``_ADD_CHUNK`` trajectories at a time.
    """
    acc = Accumulator(ensemble.times, obs)
    acc.add(ensemble)
    return acc.series(ensemble)


def msd(ensemble, t0=0.0):
    """Mean squared displacement <(x(t) - x(t0))^2> of the thermal particle.

    Defined for the unprepared (all weights exactly 1) equilibrium ensemble;
    a weighted ensemble is a usage error.
    """
    acc = Accumulator.displacement(ensemble.times, t0)
    acc.add(ensemble)
    return acc.series(ensemble)


def cat_initial_value(x0, sigma):
    """Expected coherence of a fresh two-packet superposition at t = 0+.

    Equals ``1 + exp(-x0^2 / (2 sigma^2))`` from the Gaussian overlap of the
    two packets; anchors the decoherence curve at its start.
    """
    return 1.0 + np.exp(-x0**2 / (2.0 * sigma**2))
