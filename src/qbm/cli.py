"""Configuration-driven experiment runner.

Subcommands:

- ``run <config>``: simulate an ensemble, write per-observable CSV series and
  a JSON manifest (and, for preset-style configs, a reference baseline CSV).
- ``noise-check <config>``: validate the noise ``run`` integrates against the
  bath target with per-lag z-scores and a sign runs test (and dump it).
- ``presets list``: list packaged experiment presets.

Config files are flat INI-style key/value sections; unknown sections or keys
are rejected.  Units are dimensionless with hbar = m = 1 defaults.
"""

import configparser
import contextlib
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass
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

# each reference mode describes one observable and is written only beside it
_REFERENCE_OBSERVABLE = {"sigma2": "x2", "p2": "p2"}

# the command-line flag that overrides each of these [run] keys
_FLAGS = {"master_seed": "--seed", "n_traj": "--n-traj"}

# lags at which noise-check scores the autocorrelation
_N_LAGS = 20


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
    reference: dict

    def to_dict(self):
        return asdict(self)

    def bath_spec(self):
        return _bath.BathSpec(**self.bath)

    def potential_obj(self):
        return _dyn.Potential(**self.potential)

    def schedule_obj(self):
        p, hbar = self.preparation, self.bath["hbar"]
        if p["form"] == "identity":
            return _dyn.Schedule(**self.schedule)
        if p["form"] == "gaussian":
            prep = _prep.GaussianLocalize(p["sigma0"], hbar=hbar)
        elif p["form"] == "cat":
            prep = _prep.CatProject(p["x0"], p["sigma"], hbar=hbar)
        else:  # momentum-reset, the one form left: _read_section admits no other
            prep = _prep.MomentumReset(p["p_value"])
        return _dyn.Schedule(**self.schedule, interventions=(
            _dyn.Intervention(time=p["time"], preparation=prep, mode=p.get("mode", "lab")),))


def _number(raw):
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"must be a finite number, got {raw!r}")
    return value


def _numbers(raw):
    return [_number(c) for c in raw.replace(",", " ").split()]


def _integer(floor=-math.inf):
    def read(raw):
        value = _number(raw)
        if value != int(value):
            raise ValueError(f"must be an integer, got {raw!r}")
        if value < floor:
            raise ValueError(f"must be >= {floor}, got {int(value)}")
        # a plain run of digits is read exactly, however large
        return int(raw) if raw.isdigit() else int(value)
    return read


def _choice(*options):
    def read(raw):
        if raw not in options:
            raise ValueError(f"must be one of {', '.join(options)}, got {raw!r}")
        return raw
    return read


_REQUIRED = object()

# the keys a preparation acting at a time reads besides its own
_INTERVENTION = {"mode": (_choice("lab", "translate"), "lab"), "time": (_number, 0.0)}

# Every config key: section -> key -> (reader, default or _REQUIRED).  The
# "form" entry of a section maps each form to the keys it reads; the first
# form is the default.
_TABLE = {
    "bath": {"gamma": (_number, _REQUIRED), "eps": (_number, _REQUIRED),
             "mass": (_number, 1.0), "hbar": (_number, 1.0), "kT": (_number, 0.0)},
    "potential": {"form": {"free": {}, "harmonic": {"omega0": (_number, _REQUIRED)},
                           "polynomial": {"coefficients": (_numbers, _REQUIRED)}}},
    # t_eq = None: the bath's default span
    "schedule": {"t_eq": (_number, None), "t_end": (_number, _REQUIRED),
                 "dt": (_number, _REQUIRED), "record_stride": (_integer(), 1)},
    "noise": {"statistics": (_choice(*_noise.STATISTICS), _noise.QUANTUM)},
    "preparation": {"form": {
        "identity": {},
        "gaussian": {**_INTERVENTION, "sigma0": (_number, _REQUIRED)},
        "cat": {**_INTERVENTION, "x0": (_number, _REQUIRED), "sigma": (_number, _REQUIRED)},
        "momentum-reset": {"time": (_number, 0.0), "p_value": (_number, 0.0)}}},
    # name = output file name; "" or "default" for <name>.csv
    "observables": dict.fromkeys(("x2", "p2", "xp", "cat_coherence", "msd"), (str, None)),
    "run": {"n_traj": (_integer(2), _REQUIRED), "master_seed": (_integer(0), _REQUIRED)},
    "reference": {"mode": (_choice("none", *_REFERENCE_OBSERVABLE), "none")},
}


def _read(name, reader, raw):
    try:
        return reader(raw)
    except ValueError as exc:
        raise ConfigurationError(f"{name} {exc}") from None


def _read_section(parser, section):
    """The section's values by the table, defaults filled in."""
    keys = _TABLE[section]
    given = dict(parser.items(section)) if parser.has_section(section) else {}
    values = {}
    forms = keys.get("form")
    if forms is not None:
        form = _read(f"[{section}] form", _choice(*forms), given.pop("form", next(iter(forms))))
        values, keys = {"form": form}, forms[form]
    for key in given:
        if key not in keys:
            if forms is not None and any(key in other for other in forms.values()):
                raise ConfigurationError(f"[{section}] form {form} does not read {key!r}")
            raise ConfigurationError(f"[{section}] unknown key {key!r}")
    for key, (reader, default) in keys.items():
        if key in given:
            values[key] = _read(f"[{section}] {key}", reader, given[key])
        elif default is _REQUIRED:
            raise ConfigurationError(f"[{section}] missing required key {key!r}")
        else:
            values[key] = default
    return values


def _reference_file(fname):
    """The file the reference beside observable file ``fname`` is written to."""
    stem, ext = os.path.splitext(fname)
    return f"{stem}_reference{ext}"


def _check_observables(observables, preparation, mode):
    """Reject observables the run cannot write, or not under their names."""
    prep_form = preparation["form"]
    if not observables:
        raise ConfigurationError("[observables] at least one observable is required")
    if "cat_coherence" in observables and prep_form != "cat":
        raise ConfigurationError("[observables] cat_coherence requires the cat preparation")
    weighted = prep_form == "cat" or (prep_form == "gaussian"
                                      and preparation["mode"] == "lab")
    if "msd" in observables and weighted:
        raise ConfigurationError(
            f"[observables] msd needs unit weights; the {prep_form} preparation "
            f"in {preparation['mode']} mode weights its trajectories")
    # every file the run writes into its output directory, with its writer
    files = list(observables.items())
    described = _REFERENCE_OBSERVABLE.get(mode)
    if described in observables:
        files.append((f"the {mode} reference beside {described}",
                      _reference_file(observables[described])))
    taken = {**dict.fromkeys(("run_manifest.json", "trajectories.bin"), "the run"),
             **dict.fromkeys(("noise_check.json", "noise_paths.bin"), "qbm noise-check")}
    for name, fname in files:
        if os.path.dirname(fname) or fname in (os.curdir, os.pardir):
            raise ConfigurationError(
                f"[observables] {name}: {fname!r} is not a file name in the output directory")
        if fname in taken:
            raise ConfigurationError(
                f"[observables] {name}: {fname!r} is written by {taken[fname]} too")
        taken[fname] = name


def parse_config(path, overrides=None):
    """Parse and validate a config file into an :class:`ExperimentConfig`.

    Structural errors carry line numbers (from the INI parser); semantic
    errors name the offending section and key.  Unknown sections and keys,
    keys the chosen form does not read, and values their key's reader cannot
    read are rejected.  ``overrides`` maps [run] keys to the values of the
    command-line flags that set them (``_FLAGS``; None leaves the file's):
    each is read as its key is, under the flag's name, before the checks
    that depend on it.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None)
    parser.optionxform = str  # keys are case-sensitive (kT vs kt)
    try:
        with open(path) as fh:
            parser.read_file(fh, source=str(path))
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}")
    except configparser.Error as exc:
        raise ConfigurationError(f"config parse error: {exc}")

    for section in parser.sections():
        if section not in _TABLE:
            raise ConfigurationError(f"unknown config section [{section}]")
    bath, potential, schedule, noise, preparation, observables, run_keys, reference = (
        _read_section(parser, section) for section in _TABLE)
    for key, value in (overrides or {}).items():
        if value is not None:
            run_keys[key] = _read(_FLAGS[key], _TABLE["run"][key][0], str(value))

    observables = {name: f"{name}.csv" if fname in ("", "default") else fname
                   for name, fname in observables.items() if fname is not None}
    mode = reference["mode"]
    _check_observables(observables, preparation, mode)

    if mode != "none":
        described = _REFERENCE_OBSERVABLE[mode]
        if described not in observables:
            raise ConfigurationError(
                f"[reference] mode {mode} describes the {described!r} "
                f"observable, which [observables] does not configure")

    cfg = ExperimentConfig(
        bath=bath, potential=potential, schedule=schedule, statistics=noise["statistics"],
        preparation=preparation, observables=observables, reference=reference, **run_keys)

    # revalidate module-level invariants now, with config-level naming
    try:
        spec = cfg.bath_spec()
        if schedule["t_eq"] is None:
            # default span covers both the relaxation and the memory time
            # scale, rounded up to a step multiple (a dt <= 0 is the
            # schedule's to reject)
            t_eq = _dyn.default_equilibration_span(spec)
            dt = schedule["dt"]
            schedule["t_eq"] = np.ceil(t_eq / dt) * dt if dt > 0 else t_eq
        pot, sched = cfg.potential_obj(), cfg.schedule_obj()
        if mode != "none":
            # a reference is written only where it is exact
            _ref.check_exact(pot, sched)
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


def _accumulator(name, cfg, times):
    if name == "msd":
        return _obs.Accumulator.displacement(times, 0.0)
    if name == "cat_coherence":
        prep = cfg.preparation
        obs = _obs.WeylObservable.cat_coherence(prep["x0"], prep["sigma"],
                                                hbar=cfg.bath["hbar"])
    elif name in ("x2", "p2", "xp"):
        obs = getattr(_obs.WeylObservable, name)()
    else:
        raise ConfigurationError(f"unknown observable {name!r}")
    return _obs.Accumulator(times, obs)


def _records(accumulators, dump=False):
    """The records a run reads: those its estimators read, or both for the dump."""
    reads = {v for acc in accumulators for v in acc.reads}
    return tuple(v for v in _dyn.RECORDS if dump or v in reads)


def _output_dir(out_dir):
    """Make the output directory, ``out_dir`` (``--out-dir``) or else ``.``,
    and return it."""
    out_dir = out_dir or "."
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot make output directory {out_dir!r}: {exc.strerror or exc}") from None
    return out_dir


def _check_outputs(out_dir, names):
    """Reject, before any work, an output file name a directory in ``out_dir`` takes."""
    for name in names:
        path = os.path.join(out_dir, name)
        if os.path.isdir(path):
            raise ConfigurationError(f"cannot write {path!r}: it is a directory")


def run(cfg, out_dir=None, dump_trajectories=False, progress=None):
    """Execute a configured experiment; returns the list of files written."""
    t_start = time.time()
    spec = cfg.bath_spec()
    pot = cfg.potential_obj()
    sched = cfg.schedule_obj()
    # the run's plan, checked before anything is made, the record times
    # included (dt = 1e-300 would list 6e300): the records are those the
    # estimators read, whatever their times, and a dump reads both
    records = _records((_accumulator(name, cfg, [0.0]) for name in cfg.observables),
                       dump=dump_trajectories)
    plan = _dyn.memory_plan(spec, pot, sched, cfg.statistics, cfg.n_traj,
                            master_seed=cfg.master_seed, records=records)
    _dyn.check_memory(plan)
    times = sched.record_times()
    accumulators = {name: _accumulator(name, cfg, times) for name in cfg.observables}

    out_dir = _output_dir(out_dir)
    ref_observable = _REFERENCE_OBSERVABLE.get(cfg.reference["mode"])
    names = [*cfg.observables.values(), "run_manifest.json"]
    if ref_observable:
        names.append(_reference_file(cfg.observables[ref_observable]))
    if dump_trajectories:
        names.append("trajectories.bin")
    _check_outputs(out_dir, names)

    # before the run: its blocks of rows are not alive beside the map's
    reference = (_ref.exact_series(spec, pot, sched, cfg.statistics, ref_observable)
                 if ref_observable else None)
    traj_path = os.path.join(out_dir, "trajectories.bin")
    dump = contextlib.nullcontext()
    if dump_trajectories:
        # one row per trajectory, in id order, as each piece reaches the
        # estimators; a failed run deletes the file
        dump = _noise.ensemble_writer(
            traj_path, {"kind": "trajectories", "config": cfg.to_dict(),
                        "times": list(map(float, times)),
                        "row_layout": "weight, x(times), p(times)"},
            (cfg.n_traj, 1 + 2 * len(times)))
    with dump as write_rows:
        def consume(piece):
            for acc in accumulators.values():
                acc.add(piece)
            if write_rows is not None:
                write_rows(np.column_stack([piece.weights, piece.x, piece.p]))

        ensemble = _dyn.run_ensemble(spec, pot, sched, cfg.n_traj, cfg.statistics,
                                     cfg.master_seed, stream_tag=0, progress=progress,
                                     consumer=consume, records=records)
    written = []
    for name, fname in sorted(cfg.observables.items()):
        series = accumulators[name].series(ensemble)
        path = os.path.join(out_dir, fname)
        write_series_csv(path, series)
        written.append(path)
        if name == ref_observable:
            ref_path = os.path.join(out_dir, _reference_file(fname))
            write_series_csv(ref_path, reference)
            written.append(ref_path)

    if dump_trajectories:
        written.append(traj_path)

    manifest = {
        "package": "qbm",
        "version": __version__,
        "config": cfg.to_dict(),
        "master_seed": cfg.master_seed,
        "wall_time_s": time.time() - t_start,
        "peak_rss_mb": _peak_rss_mb(),
        # what the memory check counted, term by term (the run streams)
        "memory_counted_mb": {term.name: term.nbytes / 2**20 for term in plan.terms},
        "environment": _environment(),
        "threads": _dyn.thread_counts(),
        "outputs": [os.path.basename(w) for w in written],
        "n_failed_trajectories": len(ensemble.failed_ids),
    }
    mpath = os.path.join(out_dir, "run_manifest.json")
    with open(mpath, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    written.append(mpath)
    return written


def _environment():
    """Library versions, the BLAS with its thread count, and the usable cores.

    The output bits depend on the library versions besides the config.
    ``blas_threads`` is the process's count outside the integration, which
    runs on one OpenBLAS thread (the manifest's ``threads``).
    """
    # the top-level package only: it loads none of scipy's subpackages
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        vendor = None
    return {"numpy": np.__version__, "scipy": scipy.__version__, "blas": vendor,
            "blas_threads": _dyn.blas_threads(), "nproc": _noise.usable_cores()}


def _peak_rss_mb():
    """Peak resident set of this process so far, which integrates the whole run."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _runs_test_pvalue(signs):
    """Wald-Wolfowitz runs test on the sign sequence of the residuals.

    A zero residual carries no sign and is dropped; with fewer than two
    residuals left the sequence says nothing, and p = 1.
    """
    signs = np.asarray(signs)
    signs = signs[signs != 0]
    n_pos = int(np.sum(signs > 0))
    n_neg = int(np.sum(signs < 0))
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


def noise_check(cfg, out_dir=None, dump=False):
    """Validate the run's noise against the bath correlation target.

    Generates the noise paths ``qbm run`` integrates for the same config and
    seed (stream tag 0), estimates the autocorrelation on an
    ``_N_LAGS``-point grid spaced by the cutoff time, and scores each lag
    against the analytic target.  Fails if any |z| > 4.  Each thread draws
    one 64-path block at a time, a group of four paths after another, from
    amplitudes built once for the check and freed when its blocks are done
    (:func:`qbm.dynamics.noise_blocks`), and reduces each group to its
    per-path lag products as it is drawn; the estimates are one reduction
    of those in id order, so they do not depend on the thread count.  Its
    memory plan (:func:`qbm.dynamics.noise_check_plan`) is checked before
    anything is written.  Returns ``(report dict, ok flag)`` and writes
    ``noise_check.json`` (plus the paths, as ``noise_paths.bin`` in id
    order, when ``dump`` is set: each thread writes each path at its own row).
    """
    if cfg.n_traj < 2:
        raise ConfigurationError(
            f"noise-check needs n_traj >= 2 paths for a standard error, got {cfg.n_traj}")
    spec = cfg.bath_spec()
    sched = cfg.schedule_obj()
    n_times = sched.n_steps + 1
    span = (n_times - 1) * sched.dt
    if n_times < _N_LAGS:
        raise ConfigurationError(
            f"[schedule] t_eq + t_end = {span:.6g} is too short: noise-check's {_N_LAGS} "
            f"lags need a span of at least {_N_LAGS - 1} dt = {(_N_LAGS - 1) * sched.dt:.6g}")
    # lags spaced by the cutoff time where the span allows: estimates at
    # neighbouring lags decorrelate there, keeping the runs test meaningful
    step_target = spec.eps if 2 * (_N_LAGS - 1) * spec.eps <= span \
        else span / (2 * (_N_LAGS - 1))
    step = max(sched.dt, round(step_target / sched.dt) * sched.dt)
    lags = step * np.arange(_N_LAGS)

    grid = _noise.FrequencyGrid.for_times(spec, sched.dt, n_times)
    shifts = _noise.lag_shifts(lags, sched.dt, n_times)
    _dyn.check_memory(_dyn.noise_check_plan(grid, cfg.statistics, cfg.n_traj, len(shifts),
                                            dump, cfg.master_seed))
    # lag-major, so each lag's estimate reduces one contiguous row
    products = np.empty((len(shifts), cfg.n_traj))
    report = {"statistics": cfg.statistics, "n_paths": cfg.n_traj,
              "master_seed": cfg.master_seed}

    out_dir = _output_dir(out_dir)
    _check_outputs(out_dir, ["noise_check.json", *(["noise_paths.bin"] if dump else [])])
    with (_noise.ensemble_writer(
            os.path.join(out_dir, "noise_paths.bin"),
            {"kind": "noise", "config": cfg.to_dict(), "t_step": grid.t_step},
            (cfg.n_traj, n_times))
          if dump else contextlib.nullcontext()) as write:
        def work(lo, hi, rngs, groups):
            # each group's paths reduced to their lag products, and each
            # path put at its own row of the dump
            for g, rows in groups:
                _noise.lag_products(rows, shifts, products[:, lo + g:lo + g + len(rows)])
                if write is not None:
                    for j, path in enumerate(rows):
                        write(path, row=lo + g + j)

        # the run's own streams, a group per thread alive at a time
        _dyn.noise_blocks(spec, grid, cfg.statistics, cfg.master_seed, 0,
                          range(cfg.n_traj), work)
        est, se = _noise.lag_statistics(products)
        target = _noise.target_correlation(spec, cfg.statistics, lags, sched.dt)
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


def _resolve_config(arg, overrides):
    if os.path.exists(arg):
        return parse_config(arg, overrides)
    if arg in preset_names():
        with resources.as_file(preset_path(arg)) as p:
            return parse_config(p, overrides)
    raise ConfigurationError(f"no such config file or preset: {arg}")


def main(argv=None):
    # imported here: qbm.cli.run and noise_check do not parse a command line
    import argparse

    ap = argparse.ArgumentParser(prog="qbm", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a configured experiment")
    run_p.add_argument("config", help="config file path or preset name")
    chk_p = sub.add_parser("noise-check", help="validate noise statistics")
    chk_p.add_argument("config", help="config file path or preset name")
    for p in (run_p, chk_p):
        p.add_argument("--seed", type=int, default=None, help="override master seed")
        p.add_argument("--n-traj", type=int, default=None, help="override ensemble size")
        p.add_argument("--out-dir", default=None,
                       help="output directory (default: '.')")
    run_p.add_argument("--dump-trajectories", action="store_true",
                       help="dump recorded trajectories (binary)")
    chk_p.add_argument("--dump-noise", action="store_true", dest="dump",
                       help="dump the checked noise paths, those qbm run integrates (binary)")

    pre_p = sub.add_parser("presets", help="preset management")
    pre_p.add_argument("action", choices=["list"])

    args = ap.parse_args(argv)

    if args.command == "presets":
        for name in preset_names():
            print(name)
        return 0

    try:
        cfg = _resolve_config(args.config, {"master_seed": args.seed, "n_traj": args.n_traj})
        if args.command == "run":
            shown = False

            def progress(done, total):
                nonlocal shown
                shown = True
                print(f"\r{done}/{total} trajectories", end="", file=sys.stderr)

            try:
                written = run(cfg, out_dir=args.out_dir,
                              dump_trajectories=args.dump_trajectories, progress=progress)
            finally:
                if shown:
                    # end the progress line, before any error is printed too
                    print("", file=sys.stderr)
            for path in written:
                print(path)
            return 0
        report, ok = noise_check(cfg, out_dir=args.out_dir, dump=args.dump)
        keys = {"status", "statistics", "n_paths", "max_abs_z", "runs_test_pvalue"}
        print(json.dumps({k: report[k] for k in sorted(keys & report.keys())},
                         sort_keys=True))
        return 0 if ok else 1
    except (ConfigurationError, SignProblemError, IntegrationFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # what no check foresees, such as a full disk: the file and the reason
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
