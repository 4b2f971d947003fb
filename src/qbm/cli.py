"""Configuration-driven experiment runner.

Subcommands:

- ``run <config>``: simulate an ensemble, write per-observable CSV series and
  a JSON manifest (and, for preset-style configs, a reference baseline CSV).
- ``noise-check <config>``: validate the synthesized noise statistics against
  the bath target with per-lag z-scores and a sign runs test.
- ``presets list``: list packaged experiment presets.

Config files are flat INI-style key/value sections; unknown sections or keys
are rejected.  Units are dimensionless with hbar = m = 1 defaults.
"""

import argparse
import configparser
import contextlib
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from importlib import resources

import numpy as np

from . import __version__
from . import bath as _bath
from . import dynamics as _dyn
from . import noise as _noise
from . import observables as _obs
from . import preparation as _prep
from . import reference as _ref
from .errors import ConfigurationError, IntegrationFailure, SignProblemError

OUT_DIR_ENV = "QBM_OUT_DIR"

_SCHEMA = {
    "bath": {"gamma", "eps", "mass", "hbar", "kT"},
    "potential": {"form", "omega0", "coefficients"},
    "schedule": {"t_eq", "t_end", "dt", "record_stride", "relax_dt_check"},
    "noise": {"statistics"},
    "preparation": {"form", "mode", "sigma0", "x0", "sigma", "p_value", "time"},
    "observables": None,          # free-form: name = output filename
    "run": {"n_traj", "master_seed", "batch_size", "workers", "out_dir"},
    "reference": {"mode", "n_traj"},
}

_OBSERVABLE_NAMES = ("x2", "p2", "xp", "cat_coherence", "msd")

# each reference mode describes one observable and is written only beside it
_REFERENCE_OBSERVABLE = {"sigma2": "x2", "p2": "p2"}


@dataclass
class ExperimentConfig:
    """Validated experiment description (source of the run manifest)."""

    bath: dict
    potential: dict
    schedule: dict
    statistics: str
    preparation: dict
    observables: dict
    n_traj: int
    master_seed: int
    batch_size: int = 1024
    workers: int = 1
    out_dir: str = None
    reference: dict = field(default_factory=lambda: {"mode": "none"})

    def to_dict(self):
        return asdict(self)

    def bath_spec(self):
        return _bath.BathSpec(**self.bath)

    def potential_obj(self):
        p = self.potential
        if p["form"] == "free":
            return _dyn.Potential.free()
        if p["form"] == "harmonic":
            return _dyn.Potential.harmonic(p["omega0"])
        return _dyn.Potential.polynomial(p["coefficients"])

    def preparation_obj(self):
        p = self.preparation
        hbar = self.bath["hbar"]
        if p["form"] == "identity":
            return _prep.Identity()
        if p["form"] == "gaussian":
            return _prep.GaussianLocalize(p["sigma0"], hbar=hbar)
        if p["form"] == "cat":
            return _prep.CatProject(p["x0"], p["sigma"], hbar=hbar)
        if p["form"] == "momentum-reset":
            return _prep.MomentumReset(p.get("p_value", 0.0))
        raise ConfigurationError(f"[preparation] form: unknown form {p['form']!r}")

    def schedule_obj(self):
        s = self.schedule
        interventions = ()
        if self.preparation["form"] != "identity":
            interventions = (_dyn.Intervention(
                time=self.preparation.get("time", 0.0),
                preparation=self.preparation_obj(),
                mode=self.preparation.get("mode", "lab")),)
        return _dyn.Schedule(t_eq=s["t_eq"], t_end=s["t_end"], dt=s["dt"],
                             record_stride=int(s.get("record_stride", 1)),
                             relax_dt_check=bool(s.get("relax_dt_check", False)),
                             interventions=interventions)


def _get_float(parser, section, key, default=None, required=False):
    if not parser.has_option(section, key):
        if required:
            raise ConfigurationError(f"[{section}] missing required key {key!r}")
        return default
    raw = parser.get(section, key)
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigurationError(f"[{section}] {key}: not a number: {raw!r}") from exc


def _get_int(parser, section, key, default=None, required=False):
    val = _get_float(parser, section, key, default=default, required=required)
    if val is None:
        return None
    if val != int(val):
        raise ConfigurationError(f"[{section}] {key}: expected an integer, got {val}")
    return int(val)


def parse_config(path):
    """Parse and validate a config file into an :class:`ExperimentConfig`.

    Structural errors carry line numbers (from the INI parser); semantic
    errors name the offending section and key.  Unknown sections and keys are
    rejected for typo safety.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.optionxform = str  # keys are case-sensitive (kT vs kt)
    try:
        with open(path) as fh:
            parser.read_file(fh, source=str(path))
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}")
    except configparser.Error as exc:
        raise ConfigurationError(f"config parse error: {exc}")

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigurationError(f"unknown config section [{section}]")
        allowed = _SCHEMA[section]
        if allowed is not None:
            for key in parser.options(section):
                if key not in allowed:
                    raise ConfigurationError(f"[{section}] unknown key {key!r}")

    bath = {
        "gamma": _get_float(parser, "bath", "gamma", required=True),
        "eps": _get_float(parser, "bath", "eps", required=True),
        "mass": _get_float(parser, "bath", "mass", 1.0),
        "hbar": _get_float(parser, "bath", "hbar", 1.0),
        "kT": _get_float(parser, "bath", "kT", 0.0),
    }

    pform = parser.get("potential", "form", fallback="free").strip()
    potential = {"form": pform}
    if pform == "harmonic":
        potential["omega0"] = _get_float(parser, "potential", "omega0", required=True)
    elif pform == "polynomial":
        raw = parser.get("potential", "coefficients", fallback=None)
        if raw is None:
            raise ConfigurationError("[potential] missing required key 'coefficients'")
        potential["coefficients"] = [float(c) for c in raw.replace(",", " ").split()]
    elif pform != "free":
        raise ConfigurationError(f"[potential] form: unknown form {pform!r}")

    dt = _get_float(parser, "schedule", "dt", required=True)
    t_eq = _get_float(parser, "schedule", "t_eq")
    if t_eq is None:
        # default span covers both the relaxation and the memory time scale,
        # rounded up to a step multiple
        t_eq = _dyn.default_equilibration_span(_bath.BathSpec(**bath))
        t_eq = np.ceil(t_eq / dt) * dt
    schedule = {
        "t_eq": t_eq,
        "t_end": _get_float(parser, "schedule", "t_end", required=True),
        "dt": dt,
        "record_stride": _get_int(parser, "schedule", "record_stride", 1),
        "relax_dt_check": parser.getboolean("schedule", "relax_dt_check", fallback=False),
    }

    statistics = parser.get("noise", "statistics", fallback="quantum").strip()
    if statistics not in _noise.STATISTICS:
        raise ConfigurationError(f"[noise] statistics: unknown tag {statistics!r}")

    prep_form = parser.get("preparation", "form", fallback="identity").strip()
    preparation = {"form": prep_form,
                   "mode": parser.get("preparation", "mode", fallback="lab").strip(),
                   "time": _get_float(parser, "preparation", "time", 0.0)}
    if prep_form == "gaussian":
        preparation["sigma0"] = _get_float(parser, "preparation", "sigma0", required=True)
    elif prep_form == "cat":
        preparation["x0"] = _get_float(parser, "preparation", "x0", required=True)
        preparation["sigma"] = _get_float(parser, "preparation", "sigma", required=True)
    elif prep_form == "momentum-reset":
        preparation["p_value"] = _get_float(parser, "preparation", "p_value", 0.0)
    elif prep_form != "identity":
        raise ConfigurationError(f"[preparation] form: unknown form {prep_form!r}")

    observables = {}
    if parser.has_section("observables"):
        for name in parser.options("observables"):
            if name not in _OBSERVABLE_NAMES:
                raise ConfigurationError(f"[observables] unknown observable {name!r}")
            target = parser.get("observables", name).strip()
            observables[name] = f"{name}.csv" if target in ("", "default") else target
    if not observables:
        raise ConfigurationError("[observables] at least one observable is required")

    n_traj = _get_int(parser, "run", "n_traj", required=True)
    if n_traj is None or n_traj < 1:
        raise ConfigurationError("[run] n_traj must be >= 1")
    master_seed = _get_int(parser, "run", "master_seed", required=True)

    reference = {"mode": parser.get("reference", "mode", fallback="none").strip()}
    if reference["mode"] not in ("none", *_REFERENCE_OBSERVABLE):
        raise ConfigurationError(f"[reference] mode: unknown mode {reference['mode']!r}")
    if reference["mode"] != "none":
        described = _REFERENCE_OBSERVABLE[reference["mode"]]
        if described not in observables:
            raise ConfigurationError(
                f"[reference] mode {reference['mode']} describes the {described!r} "
                f"observable, which [observables] does not configure")
        if reference["mode"] == "sigma2" and prep_form != "gaussian":
            raise ConfigurationError(
                "[reference] mode sigma2 requires the gaussian preparation")
        reference["n_traj"] = _get_int(parser, "reference", "n_traj", n_traj)

    cfg = ExperimentConfig(
        bath=bath, potential=potential, schedule=schedule, statistics=statistics,
        preparation=preparation, observables=observables, n_traj=n_traj,
        master_seed=master_seed,
        batch_size=_get_int(parser, "run", "batch_size", 1024),
        workers=_get_int(parser, "run", "workers", 1),
        out_dir=parser.get("run", "out_dir", fallback=None),
        reference=reference)

    # revalidate module-level invariants now, with config-level naming
    try:
        spec = cfg.bath_spec()
        pot = cfg.potential_obj()
        sched = cfg.schedule_obj()
        sched.validate_against(spec, pot)
    except (ConfigurationError, ValueError) as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
    return cfg


def _format_float(x):
    return format(float(x), ".17g")


def write_series_csv(path, series):
    """CSV with columns time, estimate, standard_error, effective_n."""
    with open(path, "w", newline="") as fh:
        fh.write("time,estimate,standard_error,effective_n\n")
        for row in zip(series.times, series.estimates, series.standard_errors,
                       series.effective_sample_size):
            fh.write(",".join(_format_float(v) for v in row) + "\n")


def _series_for(name, cfg, ensemble):
    hbar = cfg.bath["hbar"]
    if name == "x2":
        return _obs.estimate(ensemble, _obs.WeylObservable.x2())
    if name == "p2":
        return _obs.estimate(ensemble, _obs.WeylObservable.p2())
    if name == "xp":
        return _obs.estimate(ensemble, _obs.WeylObservable.xp())
    if name == "cat_coherence":
        prep = cfg.preparation
        if prep["form"] != "cat":
            raise ConfigurationError(
                "cat_coherence observable requires the cat preparation")
        o = _obs.WeylObservable.cat_coherence(prep["x0"], prep["sigma"], hbar=hbar)
        return _obs.estimate(ensemble, o)
    if name == "msd":
        return _obs.msd(ensemble, 0.0)
    raise ConfigurationError(f"unknown observable {name!r}")


def _reference_series(cfg, spec, pot, sched, times):
    mode = cfg.reference["mode"]
    if mode == "p2":
        vals = np.array([_ref.p2_quadrature(spec, t) for t in times])
        return _obs.ObservableSeries(times=times, estimates=vals,
                                     standard_errors=np.zeros_like(vals),
                                     effective_sample_size=np.full(len(times), np.inf))
    if mode == "sigma2":
        ref_sched = _dyn.Schedule(t_eq=sched.t_eq, t_end=sched.t_end, dt=sched.dt,
                                  record_stride=sched.record_stride,
                                  relax_dt_check=sched.relax_dt_check)
        ens = _dyn.run_ensemble(spec, pot, ref_sched, cfg.reference["n_traj"],
                                cfg.statistics, cfg.master_seed, stream_tag=1,
                                batch_size=cfg.batch_size, workers=cfg.workers)
        d2 = _obs.msd(ens, 0.0)
        resp = _ref.response(spec, pot, times, dt=sched.dt)
        return _ref.sigma_analytical(cfg.preparation["sigma0"], d2, resp)
    raise ConfigurationError(f"no reference series for mode {mode!r}")


def run(cfg, out_dir=None, dump_noise=False, dump_trajectories=False,
        progress=None):
    """Execute a configured experiment; returns the list of files written."""
    t_start = time.time()
    out_dir = out_dir or cfg.out_dir or os.environ.get(OUT_DIR_ENV) or "."
    os.makedirs(out_dir, exist_ok=True)

    spec = cfg.bath_spec()
    pot = cfg.potential_obj()
    sched = cfg.schedule_obj()

    ensemble = _dyn.run_ensemble(spec, pot, sched, cfg.n_traj, cfg.statistics,
                                 cfg.master_seed, stream_tag=0,
                                 batch_size=cfg.batch_size, workers=cfg.workers,
                                 progress=progress)
    ref_observable = _REFERENCE_OBSERVABLE.get(cfg.reference["mode"])
    written = []
    for name, fname in sorted(cfg.observables.items()):
        series = _series_for(name, cfg, ensemble)
        path = os.path.join(out_dir, fname)
        write_series_csv(path, series)
        written.append(path)
        if name == ref_observable:
            ref_series = _reference_series(cfg, spec, pot, sched, series.times)
            stem, ext = os.path.splitext(path)
            ref_path = f"{stem}_reference{ext}"
            write_series_csv(ref_path, ref_series)
            written.append(ref_path)

    if dump_noise:
        grid = _noise.FrequencyGrid.for_times(spec, sched.dt, sched.n_steps + 1)
        path = os.path.join(out_dir, "noise_paths.bin")
        with _noise_writer(path, cfg, grid) as write:
            for _, block in _noise_batches(cfg, spec, grid, stream_tag=0):
                write(block)
        written.append(path)
    if dump_trajectories:
        path = os.path.join(out_dir, "trajectories.bin")
        stacked = np.stack([ensemble.x, ensemble.p])
        _noise.dump_ensemble(path, {"kind": "trajectories", "config": cfg.to_dict(),
                                    "weights": list(map(float, ensemble.weights)),
                                    "times": list(map(float, ensemble.times))}, stacked)
        written.append(path)

    manifest = {
        "package": "qbm",
        "version": __version__,
        "config": cfg.to_dict(),
        "master_seed": cfg.master_seed,
        "wall_time_s": time.time() - t_start,
        "outputs": [os.path.basename(w) for w in written],
        "n_failed_trajectories": len(ensemble.failed_ids),
    }
    mpath = os.path.join(out_dir, "run_manifest.json")
    with open(mpath, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    written.append(mpath)
    return written


def _runs_test_pvalue(signs):
    """Wald-Wolfowitz runs test on the sign sequence of the residuals."""
    signs = np.asarray(signs)
    n_pos = int(np.sum(signs > 0))
    n_neg = int(np.sum(signs <= 0))
    n = n_pos + n_neg
    if n < 2:
        return 1.0
    if n_pos == 0 or n_neg == 0:
        # a single run: under the null this has probability 2^(1-n)
        return 2.0 ** (1 - n)
    runs = 1 + int(np.sum(signs[1:] * signs[:-1] < 0))
    mu = 2.0 * n_pos * n_neg / n + 1.0
    var = 2.0 * n_pos * n_neg * (2.0 * n_pos * n_neg - n) / (n**2 * (n - 1.0))
    z = (runs - mu) / math.sqrt(var)
    return math.erfc(abs(z) / math.sqrt(2.0))


def _noise_batches(cfg, spec, grid, stream_tag):
    """Synthesise the configured noise paths ``batch_size`` at a time.

    Yields ``(ids, values)`` in trajectory-id order; each path comes from its
    own stream, so the rows equal those of one whole-ensemble synthesis.
    """
    for lo in range(0, cfg.n_traj, cfg.batch_size):
        ids = range(lo, min(lo + cfg.batch_size, cfg.n_traj))
        rngs = [_dyn._traj_stream(cfg.master_seed, stream_tag, i) for i in ids]
        yield ids, _noise.synthesize_batch(spec, grid, cfg.statistics, rngs)


def _noise_writer(path, cfg, grid):
    """Streaming ``noise_paths.bin`` writer for the configured ensemble."""
    return _noise.ensemble_writer(
        path, {"kind": "noise", "config": cfg.to_dict(), "t_step": grid.t_step},
        (cfg.n_traj, grid.n_times))


def noise_check(cfg, n_lags=20, out_dir=None, dump=False):
    """Validate synthesized noise against the bath correlation target.

    Generates the configured ensemble of noise paths, estimates the
    autocorrelation on an ``n_lags``-point grid spaced by the cutoff time,
    and scores each lag against the analytic target.  Fails if any |z| > 4.
    Paths are synthesised and reduced ``batch_size`` at a time, so memory
    does not grow with ``n_traj`` beyond ``n_lags`` floats per path.
    Returns ``(report dict, ok flag)`` and writes ``noise_check.json``
    (plus the binary path ensemble when ``dump`` is set).
    """
    spec = cfg.bath_spec()
    sched = cfg.schedule_obj()
    report = {"statistics": cfg.statistics, "n_paths": cfg.n_traj,
              "master_seed": cfg.master_seed}

    out_dir = out_dir or cfg.out_dir or os.environ.get(OUT_DIR_ENV) or "."
    os.makedirs(out_dir, exist_ok=True)
    if spec.gamma == 0.0:
        report.update(status="pass", degenerate=True,
                      note="gamma = 0: zero spectral density, noise identically zero")
        ok = True
    else:
        n_times = sched.n_steps + 1
        grid = _noise.FrequencyGrid.for_times(spec, sched.dt, n_times)
        times = sched.dt * np.arange(n_times)

        # lags spaced by the cutoff time where the span allows: estimates at
        # neighbouring lags decorrelate there, keeping the runs test meaningful
        span = (n_times - 1) * sched.dt
        step_target = spec.eps if 2 * (n_lags - 1) * spec.eps <= span \
            else span / (2 * (n_lags - 1))
        step = max(sched.dt, round(step_target / sched.dt) * sched.dt)
        lags = step * np.arange(n_lags)

        with (_noise_writer(os.path.join(out_dir, "noise_paths.bin"), cfg, grid)
              if dump else contextlib.nullcontext()) as write:
            def paths():
                # one batch alive at a time: the autocorrelation consumes the
                # paths batch_size at a time, and each batch goes to the dump
                for ids, block in _noise_batches(cfg, spec, grid, stream_tag=2):
                    if write is not None:
                        write(block)
                    yield from (_noise.NoisePath(seed=(cfg.master_seed, 2, i),
                                                 times=times, values=row)
                                for i, row in zip(ids, block))
                    del block

            est, se = _noise.empirical_autocorrelation(paths(), lags,
                                                       chunk=cfg.batch_size)
        if cfg.statistics == _noise.QUANTUM:
            target = _bath.quantum_correlation(spec, lags)
        elif cfg.statistics == _noise.CLASSICAL:
            target = _bath.classical_correlation(spec, lags)
        else:
            target = np.zeros_like(lags)
            target[0] = 2.0 * spec.mass * spec.gamma * spec.kT / sched.dt
        z = (est - target) / np.where(se > 0, se, 1.0)
        pval = _runs_test_pvalue(np.sign(est - target))
        ok = bool(np.all(np.abs(z) <= 4.0))
        report.update(status="pass" if ok else "fail",
                      lags=[float(v) for v in lags],
                      estimates=[float(v) for v in est],
                      standard_errors=[float(v) for v in se],
                      targets=[float(v) for v in target],
                      z_scores=[float(v) for v in z],
                      max_abs_z=float(np.abs(z).max()),
                      runs_test_pvalue=float(pval))

    path = os.path.join(out_dir, "noise_check.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    return report, ok


def preset_names():
    root = resources.files("qbm") / "presets"
    return sorted(p.name[:-4] for p in root.iterdir() if p.name.endswith(".cfg"))


def preset_path(name):
    path = resources.files("qbm") / "presets" / f"{name}.cfg"
    if not path.is_file():
        raise ConfigurationError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}")
    return path


def _resolve_config(arg):
    if os.path.exists(arg):
        return parse_config(arg)
    if arg in preset_names():
        with resources.as_file(preset_path(arg)) as p:
            return parse_config(p)
    raise ConfigurationError(f"no such config file or preset: {arg}")


def _apply_overrides(cfg, args):
    if args.seed is not None:
        cfg.master_seed = args.seed
    if args.n_traj is not None:
        cfg.n_traj = args.n_traj
        if cfg.reference.get("mode") not in (None, "none") and "n_traj" in cfg.reference:
            cfg.reference["n_traj"] = args.n_traj
    if args.workers is not None:
        cfg.workers = args.workers
    return cfg


def main(argv=None):
    ap = argparse.ArgumentParser(prog="qbm", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a configured experiment")
    run_p.add_argument("config", help="config file path or preset name")
    chk_p = sub.add_parser("noise-check", help="validate noise statistics")
    chk_p.add_argument("config", help="config file path or preset name")
    for p in (run_p, chk_p):
        p.add_argument("--seed", type=int, default=None, help="override master seed")
        p.add_argument("--n-traj", type=int, default=None, help="override ensemble size")
        p.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: config value or 1)")
        p.add_argument("--out-dir", default=None,
                       help=f"output directory (default: ${OUT_DIR_ENV} or '.')")
    run_p.add_argument("--dump-noise", action="store_true",
                       help="dump the noise ensemble (binary)")
    run_p.add_argument("--dump-trajectories", action="store_true",
                       help="dump recorded trajectories (binary)")
    chk_p.add_argument("--dump-noise", action="store_true",
                       help="dump the validated noise ensemble (binary)")

    pre_p = sub.add_parser("presets", help="preset management")
    pre_p.add_argument("action", choices=["list"])

    args = ap.parse_args(argv)

    if args.command == "presets":
        for name in preset_names():
            print(name)
        return 0

    try:
        cfg = _apply_overrides(_resolve_config(args.config), args)
        if args.command == "run":
            def progress(done, total):
                print(f"\r{done}/{total} trajectories", end="", file=sys.stderr)

            written = run(cfg, out_dir=args.out_dir, dump_noise=args.dump_noise,
                          dump_trajectories=args.dump_trajectories,
                          progress=progress)
            print("", file=sys.stderr)
            for path in written:
                print(path)
            return 0
        report, ok = noise_check(cfg, out_dir=args.out_dir,
                                 dump=getattr(args, "dump_noise", False))
        keys = {"status", "statistics", "n_paths", "max_abs_z", "runs_test_pvalue"}
        print(json.dumps({k: report[k] for k in sorted(keys & report.keys())},
                         sort_keys=True))
        return 0 if ok else 1
    except (ConfigurationError, SignProblemError, IntegrationFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
