"""The benchmark's workloads: how each builds its config and checks its outputs.

Every workload drives ``qbm run`` or ``qbm noise-check`` through the public
entry points ``qbm.cli.parse_config``, ``qbm.cli.run`` and
``qbm.cli.noise_check``.  The seed passed on the command line becomes the
config's ``master_seed``; nothing else varies with it.
"""

import hashlib
import json
import os
from dataclasses import dataclass
from importlib import resources
from statistics import NormalDist

# Seed used when none is given, and a second seed kept for re-checking a
# claim on inputs that were not looked at while the claim was made.
DEFAULT_SEED = 20260808
HELDOUT_SEED = 4099

# Chance that one output check rejects correct code on a given seed.  Each
# check compares n points, so its z threshold is Bonferroni-corrected to
# FAMILY_ALPHA / n: the acceptance suite's fixed 3.0 holds for its pinned
# seeds, but across arbitrary seeds a max over ~200 correlated times exceeds
# 3 now and then on unmodified code (4096 trajectories, seed 2: 3.34).  It is
# small because a measuring window checks several seeds (see run_seed).
FAMILY_ALPHA = 1e-6

CSV_HEADER = "time,estimate,standard_error,effective_n"


@dataclass(frozen=True)
class Workload:
    """One benchmark input: a config source, its overrides and its check."""

    name: str
    command: str            # "run" or "noise-check"
    preset: str             # name of a preset shipped with qbm
    target_se: float        # standard error that time_to_se_s extrapolates to
    n_traj: int             # override (also applied to a sigma2 reference)
    seed_per_run: bool      # runs after the first get seeds derived by run_seed


# Why each exists is in BENCHMARK.json.  Together they reach every layer:
# gauss-fig1 the run path (noise, dynamics, preparation, observables and the
# sigma2 reference), noise-check-fig2 the bath quadrature and the noise
# autocorrelation.  A run takes 2-4 s on 2 cores, so a 20 s measuring window
# holds 5-8 runs to take the median of.
#
# The standard error of x2 moves by ~10 % from seed to seed, and with it
# time_to_se_s, so gauss-fig1 gives every run of a window its own seed and the
# median averages that out.  noise-check-fig2 keeps one seed: its status is
# qbm's fixed |z| <= 4 over all lags, and the largest |z| of correct code
# (median 2.1, maximum 3.5 over 56 seeds) puts its false failures near one
# seed in a thousand, too often to check several seeds per window.
WORKLOADS = {w.name: w for w in (
    Workload("gauss-fig1", "run", "fig1", target_se=0.01, n_traj=4096, seed_per_run=True),
    Workload("noise-check-fig2", "noise-check", "fig2", target_se=1.0, n_traj=1500,
             seed_per_run=False),
)}


def run_seed(workload, seed, k):
    """master_seed of run ``k`` of a window: ``seed`` itself, or one derived from it."""
    if k == 0 or not workload.seed_per_run:
        return seed
    return int.from_bytes(hashlib.sha256(f"{seed}:{k}".encode()).digest()[:4], "little")


def load_config(workload, seed):
    """Parse the workload's preset and apply its overrides.

    Both presets leave ``workers`` at its default of 1: one process per run.
    """
    from qbm import cli

    with resources.as_file(cli.preset_path(workload.preset)) as preset:
        cfg = cli.parse_config(preset)
    cfg.master_seed = seed
    cfg.n_traj = workload.n_traj
    if "n_traj" in cfg.reference:
        cfg.reference["n_traj"] = workload.n_traj
    return cfg


def traj_steps(workload, cfg):
    """Trajectory-steps (noise samples for noise-check) one run integrates."""
    n_steps = cfg.schedule_obj().n_steps
    if workload.command == "noise-check":
        return cfg.n_traj * (n_steps + 1)
    n = cfg.n_traj + (cfg.reference.get("n_traj", 0)
                      if cfg.reference["mode"] == "sigma2" else 0)
    return n * n_steps


def z_limit(n_points):
    """|z| threshold with family-wise false-alarm rate FAMILY_ALPHA over n points."""
    return NormalDist().inv_cdf(1.0 - FAMILY_ALPHA / (2.0 * n_points))


class CheckFailed(Exception):
    """An output file is missing, malformed or disagrees with its baseline."""


def read_series(path, times):
    """Columns of a series CSV; it must hold finite rows on the expected times."""
    import numpy as np

    if not os.path.exists(path):
        raise CheckFailed(f"{os.path.basename(path)}: missing")
    with open(path) as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise CheckFailed(f"{os.path.basename(path)}: bad header {header!r}")
        try:
            rows = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise CheckFailed(f"{os.path.basename(path)}: {exc}") from exc
    if rows.shape != (len(times), 4) or not np.isfinite(rows[:, :3]).all():
        raise CheckFailed(f"{os.path.basename(path)}: {rows.shape[0]} rows, "
                          f"expected {len(times)} finite ones")
    if np.abs(rows[:, 0] - times).max() > 1e-9:
        raise CheckFailed(f"{os.path.basename(path)}: times off the recording grid")
    return rows[:, 1], rows[:, 2]


def check_outputs(workload, cfg, out_dir):
    """Compare the written outputs with the package's own baselines.

    Returns ``(ok, detail, primary_se)``: ``primary_se`` is the median
    standard error of the primary output, ``x2`` or the noise
    autocorrelation (``None`` when the check failed).
    """
    import numpy as np
    from qbm import observables

    try:
        if workload.command == "noise-check":
            with open(os.path.join(out_dir, "noise_check.json")) as fh:
                report = json.load(fh)
            if report.get("status") != "pass":
                raise CheckFailed(f"noise-check status {report.get('status')!r}, "
                                  f"max |z| = {report.get('max_abs_z')}")
            return True, {"max_abs_z": report["max_abs_z"]}, \
                float(np.median(report["standard_errors"]))

        times = cfg.schedule_obj().record_times()
        est, se = read_series(os.path.join(out_dir, cfg.observables["x2"]), times)
        stem, ext = os.path.splitext(cfg.observables["x2"])
        ref, ref_se = read_series(os.path.join(out_dir, f"{stem}_reference{ext}"), times)
        stat = float(np.max(np.abs(est - ref) / np.hypot(se, ref_se)))
        limit = z_limit(len(times))
        if not stat <= limit:
            raise CheckFailed(f"{workload.name}: |z| = {stat:.3f} exceeds {limit:.3f}")
        return True, {"abs_z": stat, "z_limit": limit}, float(np.median(se))
    except (CheckFailed, OSError, KeyError, json.JSONDecodeError) as exc:
        return False, {"error": str(exc)}, None


def digests(out_dir):
    """sha256 of every CSV and JSON report the run wrote (manifests excluded)."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv") or name == "noise_check.json":
            with open(os.path.join(out_dir, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out
