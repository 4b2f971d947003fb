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
"""

from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import bath as _bath
from . import noise as _noise
from .errors import ConfigurationError, IntegrationFailure

# Node-block size for the blocked (BLAS) evaluation of the direct convolution.
_CONV_BLOCK = 64

FREE = "free"
HARMONIC = "harmonic"
POLYNOMIAL = "polynomial"

_MAX_POLY_DEGREE = 8


@dataclass(frozen=True)
class Potential:
    """External potential acting on the particle."""

    form: str
    omega0: float = 0.0
    coefficients: tuple = ()

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
        if self.form == FREE:
            return np.zeros_like(np.asarray(x, dtype=float))
        if self.form == HARMONIC:
            return -mass * self.omega0**2 * np.asarray(x, dtype=float)
        dcoef = np.polynomial.polynomial.polyder(self.coefficients)
        return -np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), dcoef)

    def derivative(self, x, mass, order=1):
        """d^order V / dx^order, vectorised over x."""
        x = np.asarray(x, dtype=float)
        if self.form == FREE:
            return np.zeros_like(x)
        if self.form == HARMONIC:
            table = {1: mass * self.omega0**2 * x,
                     2: np.full_like(x, mass * self.omega0**2)}
            return table.get(order, np.zeros_like(x))
        c = self.coefficients
        for _ in range(order):
            c = np.polynomial.polynomial.polyder(c)
        return np.polynomial.polynomial.polyval(x, c)


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
        if self.mode not in ("lab", "translate"):
            raise ConfigurationError(f"unknown intervention mode {self.mode!r}")


@dataclass(frozen=True)
class Schedule:
    """Time layout of a run: equilibration, output span, step, interventions."""

    t_eq: float
    t_end: float
    dt: float
    interventions: tuple = ()
    record_stride: int = 1
    relax_dt_check: bool = False

    def __post_init__(self):
        if not self.t_eq > 0:
            raise ConfigurationError("t_eq must be > 0")
        if self.t_end < 0:
            raise ConfigurationError("t_end must be >= 0")
        if not self.dt > 0:
            raise ConfigurationError("dt must be > 0")
        if int(self.record_stride) != self.record_stride or self.record_stride < 1:
            raise ConfigurationError("record_stride must be a positive integer")
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

    def validate_against(self, spec, potential=None):
        """Step-size invariants that need the bath (and potential) context."""
        if not self.relax_dt_check and self.dt > spec.eps / 10 * (1 + 1e-12):
            raise ConfigurationError(
                f"dt = {self.dt} too coarse for the kernel time scale "
                f"(needs dt <= eps/10 = {spec.eps / 10:.6g})")
        if potential is not None and potential.form == HARMONIC:
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

    def node_times(self):
        return -self.t_eq + self.dt * np.arange(self.n_steps + 1)

    def record_nodes(self):
        """Node indices written to the output (t = 0 onward, decimated)."""
        return np.arange(self.eq_steps, self.n_steps + 1, self.record_stride)

    def record_times(self):
        return -self.t_eq + self.dt * self.record_nodes()

    def intervention_nodes(self):
        return [int(round((iv.time + self.t_eq) / self.dt)) for iv in self.interventions]


@dataclass(frozen=True)
class Trajectory:
    """One recorded particle path with its accumulated preparation weight."""

    times: np.ndarray
    x: np.ndarray
    p: np.ndarray
    weight: float
    jump_log: tuple
    seed: tuple


class TrajectoryEnsemble:
    """Immutable stack of recorded trajectories sharing one recording grid."""

    def __init__(self, times, x, p, weights, failed_ids=()):
        self.times = np.asarray(times, dtype=float)
        self.x = x
        self.p = p
        self.weights = np.asarray(weights, dtype=float)
        self.failed_ids = tuple(failed_ids)

    @property
    def n_traj(self):
        return self.x.shape[0]

    def unweighted(self):
        return bool(np.all(self.weights == 1.0))


def default_equilibration_span(spec):
    """Default T_eq = max(10/gamma, 50*eps): covers relaxation and memory."""
    if spec.gamma == 0.0:
        return 50.0 * spec.eps
    return max(10.0 / spec.gamma, 50.0 * spec.eps)


@dataclass
class InterventionResult:
    """Outcome of one preparation draw for one trajectory.

    ``r_pre`` (optional) first translates the trajectory to that position
    without a friction boundary term (exact for free potentials); the move
    from there to ``r0`` is a physical jump and is logged.
    """

    r0: float
    p0: float
    weight: float
    r_pre: float = None


def _traj_stream(master_seed, stream_tag, traj_id):
    """Counter-based per-trajectory stream; independent of scheduling order."""
    seq = np.random.SeedSequence((int(master_seed), int(stream_tag), int(traj_id)))
    return np.random.Generator(np.random.Philox(seq))


def _kernel_mid(spec, dt, n):
    """dt * M((i + 1/2) dt), the midpoint-rule convolution weights."""
    return dt * _bath.memory_kernel(spec, dt * (np.arange(n) + 0.5))


def _integrate_batch(spec, pot, dt, n_steps, xi, x0, p0, record_nodes,
                     intervention_plan=(), rngs=None):
    """Batched leapfrog GLE integration.  Core numerical engine.

    ``xi`` has shape (B, n_steps + 1) with samples on the node grid.
    ``intervention_plan`` is a sequence of (node_index, t_k, callback)
    triples; the callback receives (t_k, rbar, pbar, rng) per trajectory and
    returns an :class:`InterventionResult`.

    Returns (x_rec, p_rec, weights, jump_nodes), where ``jump_nodes`` lists
    (node, dx vector) for every intervention that moved a position.
    """
    B = xi.shape[0]
    mass = spec.mass
    record_nodes = np.asarray(record_nodes, dtype=int)
    rec_pos = {int(n): k for k, n in enumerate(record_nodes)}
    n_rec = len(record_nodes)

    k_mid = _kernel_mid(spec, dt, n_steps)
    m_nodes = _bath.memory_kernel(spec, dt * np.arange(n_steps + 1))

    plan = {int(n): (t_k, cb) for n, t_k, cb in intervention_plan}

    x = np.array(x0, dtype=float, copy=True)
    p = np.array(p0, dtype=float, copy=True)
    weights = np.ones(B)
    jump_nodes = []          # (node, dx vector)

    V = np.empty((B, n_steps))
    x_rec = np.empty((B, n_rec))
    p_rec = np.empty((B, n_rec))

    force = pot.force(x, mass) + xi[:, 0]
    if 0 in rec_pos:
        x_rec[:, rec_pos[0]] = x
        p_rec[:, rec_pos[0]] = p

    old = np.zeros((B, _CONV_BLOCK))
    # divergence is detected after the fact via isfinite checks; silence the
    # transient overflow warnings a runaway trajectory produces on the way
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_steps):
            p_half = p + (0.5 * dt) * force
            v = p_half / mass
            V[:, n] = v
            x += dt * v

            node = n + 1
            # Friction at the new node from mid-interval velocities: the
            # block's pre-start history enters through one matrix product,
            # the in-block remainder through a short dot per step.
            if n % _CONV_BLOCK == 0:
                block_start = node
                cols = min(_CONV_BLOCK, n_steps + 1 - block_start)
                idx = (block_start - 1 - np.arange(block_start))[:, None] \
                    + np.arange(cols)[None, :]
                old[:, :cols] = V[:, :block_start] @ k_mid[idx]
            s = node - block_start
            fric = -old[:, s]
            if node - 1 >= block_start:
                seg = k_mid[:node - block_start][::-1]
                fric = fric - V[:, block_start:node] @ seg
            for jn, dxv in jump_nodes:
                fric = fric - m_nodes[node - jn] * dxv

            force = pot.force(x, mass) + xi[:, node] + fric
            p = p_half + (0.5 * dt) * force

            if node in plan:
                t_k, callback = plan[node]
                dxv = np.zeros(B)
                for i in range(B):
                    res = callback(t_k, x[i], p[i], rngs[i])
                    weights[i] *= res.weight
                    if res.r_pre is not None:
                        x[i] = res.r_pre
                    dxv[i] = res.r0 - x[i]
                    x[i] = res.r0
                    p[i] = res.p0
                if np.any(dxv):
                    jump_nodes.append((node, dxv))
                    fric = fric - m_nodes[0] * dxv
                # forces changed discontinuously with the state
                force = pot.force(x, mass) + xi[:, node] + fric

            if node in rec_pos:
                x_rec[:, rec_pos[node]] = x
                p_rec[:, rec_pos[node]] = p

    return x_rec, p_rec, weights, jump_nodes


def _build_plan(sched, potential):
    """Bind the schedule's interventions to per-trajectory callbacks."""
    from . import preparation as _prep

    plan = []
    for iv, node in zip(sched.interventions, sched.intervention_nodes()):
        if iv.mode == "translate" and not potential.translation_invariant:
            raise ConfigurationError(
                "translate-mode preparations require a translation-invariant "
                "(free) potential")
        plan.append((node, iv.time, _prep.as_intervention(iv.preparation, mode=iv.mode)))
    return plan


def integrate(spec, pot, sched, noise_path, prep_sampler=None, rng=None):
    """Integrate one trajectory for a fixed noise realization.

    The particle starts at x = 0, p = 0 at t = -t_eq and evolves through the
    equilibration span before recording starts at t = 0.  ``prep_sampler``,
    when given, overrides the schedule's preparations: it is called at every
    intervention time as ``prep_sampler(t_k, rbar, pbar, rng)`` and returns
    an :class:`InterventionResult`.

    Raises :class:`IntegrationFailure` if the state leaves float range.
    """
    sched.validate_against(spec, pot)
    n_steps = sched.n_steps
    if len(noise_path.values) < n_steps + 1:
        raise ConfigurationError(
            f"noise path has {len(noise_path.values)} samples, run needs {n_steps + 1}")
    if rng is None:
        rng = _traj_stream(0, 3, 0)

    if prep_sampler is None:
        plan = _build_plan(sched, pot)
    else:
        plan = [(node, iv.time, prep_sampler)
                for iv, node in zip(sched.interventions, sched.intervention_nodes())]

    xi = noise_path.values[np.newaxis, :n_steps + 1]
    rec = sched.record_nodes()
    x_rec, p_rec, weights, jump_nodes = _integrate_batch(
        spec, pot, sched.dt, n_steps, xi, np.zeros(1), np.zeros(1), rec,
        intervention_plan=plan, rngs=[rng])
    bad = ~np.isfinite(x_rec[0]) | ~np.isfinite(p_rec[0])
    if bad.any():
        t_bad = sched.record_times()[int(np.argmax(bad))]
        raise IntegrationFailure("trajectory state became non-finite",
                                 trajectory_ids=(0,), time=t_bad)
    jumps = tuple((-sched.t_eq + node * sched.dt, dxv[0]) for node, dxv in jump_nodes)
    return Trajectory(times=sched.record_times(), x=x_rec[0], p=p_rec[0],
                      weight=float(weights[0]), jump_log=jumps,
                      seed=tuple(noise_path.seed))


def integrate_deterministic(spec, pot, dt, n_steps, x0=0.0, p0=0.0):
    """Noise-free solve from t = 0 with given initial conditions.

    Used for response functions; friction history starts empty at t = 0.
    Returns (times, x, p).
    """
    xi = np.zeros((1, n_steps + 1))
    rec = np.arange(n_steps + 1)
    x_rec, p_rec, _, _ = _integrate_batch(
        spec, pot, dt, n_steps, xi, np.array([x0], dtype=float),
        np.array([p0], dtype=float), rec)
    return dt * np.arange(n_steps + 1), x_rec[0], p_rec[0]


def _run_batch(spec, pot, sched, statistics, master_seed, stream_tag, ids):
    grid = _noise.FrequencyGrid.for_times(spec, sched.dt, sched.n_steps + 1)
    rngs = [_traj_stream(master_seed, stream_tag, i) for i in ids]
    xi = _noise.synthesize_batch(spec, grid, statistics, rngs)
    plan = _build_plan(sched, pot)
    B = len(ids)
    x_rec, p_rec, weights, _ = _integrate_batch(
        spec, pot, sched.dt, sched.n_steps, xi, np.zeros(B), np.zeros(B),
        sched.record_nodes(), intervention_plan=plan, rngs=rngs)
    return x_rec, p_rec, weights


def run_ensemble(spec, pot, sched, n_traj, statistics, master_seed, *,
                 stream_tag=0, batch_size=1024, workers=1, progress=None):
    """Simulate ``n_traj`` independent trajectories and stack the records.

    Each trajectory owns a counter-based stream derived from
    ``(master_seed, stream_tag, trajectory_id)``; within a stream the noise
    coefficients are drawn first, then any preparation draws, so results are
    bit-reproducible for any batch split or worker count.  Batches are merged
    in trajectory-id order.

    Aborts with :class:`IntegrationFailure` if more than 0.1% of the
    trajectories leave float range; isolated failures are reported through
    ``failed_ids`` and carry NaN records.
    """
    if n_traj < 1:
        raise ConfigurationError("n_traj must be >= 1")
    sched.validate_against(spec, pot)

    job = partial(_run_batch, spec, pot, sched, statistics, master_seed, stream_tag)
    batches = [range(lo, min(lo + batch_size, n_traj))
               for lo in range(0, n_traj, batch_size)]
    mapper, pool = map, nullcontext()
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=workers)
        mapper = pool.map
    results = []
    with pool:
        # both maps yield in submission order, i.e. in trajectory-id order
        for out in mapper(job, batches):
            results.append(out)
            if progress:
                progress(min(len(results) * batch_size, n_traj), n_traj)

    x = np.vstack([r[0] for r in results])
    p = np.vstack([r[1] for r in results])
    weights = np.concatenate([r[2] for r in results])

    finite = np.isfinite(x).all(axis=1) & np.isfinite(p).all(axis=1) & np.isfinite(weights)
    failed = np.flatnonzero(~finite)
    if len(failed) > 0.001 * n_traj:
        # first recorded time at which any failed trajectory is non-finite
        bad = (~np.isfinite(x[failed]) | ~np.isfinite(p[failed])).any(axis=0)
        t_bad = float(sched.record_times()[np.argmax(bad)]) if bad.any() else None
        raise IntegrationFailure(
            f"{len(failed)} of {n_traj} trajectories diverged",
            trajectory_ids=tuple(failed[:32]), time=t_bad)
    return TrajectoryEnsemble(times=sched.record_times(), x=x, p=p,
                              weights=weights, failed_ids=failed)
