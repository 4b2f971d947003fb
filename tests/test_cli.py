import importlib.util
import json
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from importlib import resources

import numpy as np
import pytest

import qbm
from qbm import dynamics as qdyn
from qbm import noise as qnoise
from qbm.cli import (
    _runs_test_pvalue,
    main,
    noise_check,
    parse_config,
    preset_names,
    preset_path,
    run,
)
from qbm.bath import classical_correlation, quantum_correlation
from qbm.errors import ConfigurationError, IntegrationFailure

TINY = """
[bath]
gamma = 1.5707963267948966
eps = 0.5
kT = {kT}

[potential]
{potential}

[schedule]
t_eq = 4.0
t_end = 2.0
dt = 0.05
record_stride = 4

[noise]
statistics = {statistics}

[preparation]
form = {prep}
{prep_extra}

[observables]
{observables}

[run]
n_traj = {n_traj}
master_seed = {seed}
{run_extra}
"""


def write_config(tmp_path, name="exp.cfg", **kw):
    defaults = dict(kT=0.0, statistics="quantum", potential="form = free", prep="identity",
                    prep_extra="", observables="x2 = default", n_traj=64, seed=7,
                    run_extra="")
    defaults.update(kw)
    path = tmp_path / name
    path.write_text(TINY.format(**defaults))
    return path


# inputs no run can honour: (write_config keywords, (old, new) text
# replacement or None, error message)
REJECTED = [
    pytest.param(dict(potential="form = free\nomega0 = 1.0"), None,
                 r"\[potential\] form free does not read 'omega0'", id="free-omega0"),
    pytest.param(dict(potential="form = free\ncoefficients = 0 0 0.5"), None,
                 r"\[potential\] form free does not read 'coefficients'",
                 id="free-coefficients"),
    *(pytest.param(dict(prep_extra=f"{key} = {value}"), None,
                   rf"\[preparation\] form identity does not read '{key}'",
                   id=f"identity-{key}")
      for key, value in (("sigma0", -4), ("x0", 2), ("mode", "sideways"), ("time", 9))),
    # the reset keeps the position: it has no translate mode to choose
    *(pytest.param(dict(prep="momentum-reset", prep_extra=f"mode = {mode}"), None,
                   r"\[preparation\] form momentum-reset does not read 'mode'",
                   id=f"momentum-reset-mode-{mode}")
      for mode in ("lab", "translate")),
    # the dt <= eps/10 rule has no switch
    pytest.param(dict(), ("record_stride = 4", "record_stride = 4\nrelax_dt_check = true"),
                 r"\[schedule\] unknown key 'relax_dt_check'", id="relax_dt_check-true"),
    # one process integrates every batch: there is no pool to size
    pytest.param(dict(run_extra="workers = 2"), None, r"\[run\] unknown key 'workers'",
                 id="workers-2"),
    pytest.param(dict(potential="form = polynomial\ncoefficients = 0 x 1"), None,
                 r"\[potential\] coefficients must be a finite number, got 'x'",
                 id="coefficients-0-x-1"),
    *(pytest.param(dict(n_traj=value), None,
                   rf"\[run\] n_traj must be a finite number, got '{value}'",
                   id=f"n_traj-{value}")
      for value in ("inf", "nan")),
    # a standard error needs two trajectories
    pytest.param(dict(observables="msd = default", n_traj=1), None,
                 r"\[run\] n_traj must be >= 2, got 1", id="msd-n_traj-1"),
    pytest.param(dict(n_traj=10**14), None,
                 r"\[run\] n_traj = 100000000000000 over 120 steps needs .* most of it is "
                 r"the weights, .* GiB \(lower \[run\] n_traj\)", id="n_traj-1e14"),
    pytest.param(dict(), ("t_end = 2.0", "t_end = inf"),
                 r"\[schedule\] t_end must be a finite number, got 'inf'", id="t_end-inf"),
    pytest.param(dict(potential="form = harmonic\nomega0 = 1.0", prep="cat",
                      prep_extra="x0 = 0.6\nsigma = 0.3\nmode = translate"), None,
                 "translate-mode preparations require a translation-invariant",
                 id="translate-harmonic"),
    pytest.param(dict(potential="form = polynomial\ncoefficients = 0 0 0.5 0 0.1",
                      prep="gaussian",
                      prep_extra="sigma0 = 1.0\nmode = translate"), None,
                 "translate-mode preparations require a translation-invariant",
                 id="translate-polynomial"),
    pytest.param(dict(observables="x2 = sub/x.csv"), None,
                 r"\[observables\] x2: 'sub/x.csv' is not a file name", id="file-in-directory"),
    pytest.param(dict(observables="x2 = out.csv\np2 = out.csv"), None,
                 r"\[observables\] p2: 'out.csv' is written by x2 too", id="file-twice"),
    *(pytest.param(dict(observables=f"x2 = default\nxp = {name}"), None,
                   rf"\[observables\] xp: '{name}' is written by {writer} too",
                   id=f"file-{name}")
      for name, writer in (("run_manifest.json", "the run"), ("trajectories.bin", "the run"),
                           ("noise_paths.bin", "qbm noise-check"),
                           ("noise_check.json", "qbm noise-check"))),
    pytest.param(dict(), ("dt = 0.05", "dt = 1e-300"),
                 r"\[run\] n_traj = 64 over 6e\+300 steps needs .* GiB, more than the .* GiB "
                 r"of physical memory; most of it is the batch buffer, .* GiB \(raise "
                 r"\[schedule\] dt or lower \[run\] batch_size\)", id="dt-1e-300"),
    pytest.param(dict(prep="gaussian", prep_extra="sigma0 = 1.0",
                      observables="x2 = a.csv\np2 = a_reference.csv"),
                 ("[run]", "[reference]\nmode = sigma2\n\n[run]"),
                 r"\[observables\] the sigma2 reference beside x2: 'a_reference.csv' "
                 "is written by p2 too", id="file-of-the-reference"),
]


def write_edited(tmp_path, kw, edit):
    path = write_config(tmp_path, **kw)
    if edit is not None:
        path.write_text(path.read_text().replace(*edit))
    return path


class TestParseConfig:
    def test_happy_path(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        assert cfg.bath["gamma"] == pytest.approx(np.pi / 2)
        assert cfg.observables == {"x2": "x2.csv"}
        assert cfg.n_traj == 64

    def test_missing_gamma_names_the_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(write_config(tmp_path).read_text().replace(
            "gamma = 1.5707963267948966\n", ""))
        with pytest.raises(ConfigurationError, match="gamma"):
            parse_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path)
        path.write_text(path.read_text().replace("[bath]", "[bath]\ngama = 2"))
        with pytest.raises(ConfigurationError, match="gama"):
            parse_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = write_config(tmp_path)
        path.write_text(path.read_text() + "\n[plotting]\ncolor = red\n")
        with pytest.raises(ConfigurationError, match="plotting"):
            parse_config(path)

    def test_zero_trajectories_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="n_traj"):
            parse_config(write_config(tmp_path, n_traj=0))

    # one process integrates every batch: a workers count of any size is an unknown key
    @pytest.mark.parametrize("run_extra, message", [
        *(pytest.param(f"batch_size = {n}", r"\[run\] batch_size must be >= 1",
                       id=f"batch_size = {n}-batch_size") for n in (0, -4)),
        *(pytest.param(f"workers = {n}", r"\[run\] unknown key 'workers'",
                       id=f"workers = {n}-workers") for n in (0, -3)),
    ])
    def test_run_sizes_below_one_rejected(self, tmp_path, run_extra, message):
        with pytest.raises(ConfigurationError, match=message):
            parse_config(write_config(tmp_path, run_extra=run_extra))

    @pytest.mark.parametrize("prep, prep_extra", [
        ("cat", "x0 = 1.0\nsigma = 0.5\nmode = translate"),
        ("cat", "x0 = 1.0\nsigma = 0.5"),
        ("gaussian", "sigma0 = 1.0"),
    ], ids=["cat-translate", "cat-lab", "gaussian-lab"])
    def test_msd_of_weighted_preparation_rejected(self, tmp_path, prep, prep_extra):
        with pytest.raises(ConfigurationError, match=rf"msd .* the {prep} preparation"):
            parse_config(write_config(tmp_path, prep=prep, prep_extra=prep_extra,
                                      observables="msd = default"))

    def test_msd_of_unweighted_preparation_accepted(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, prep="gaussian",
                                        prep_extra="sigma0 = 1.0\nmode = translate",
                                        observables="msd = default"))
        assert cfg.observables == {"msd": "msd.csv"}

    def test_cat_coherence_without_cat_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cat_coherence requires the cat"):
            parse_config(write_config(tmp_path, observables="cat_coherence = default"))

    def test_default_equilibration_span(self, tmp_path):
        # omitted t_eq defaults to max(10/gamma, 50 eps), step-rounded
        path = write_config(tmp_path)
        path.write_text(path.read_text().replace("t_eq = 4.0\n", ""))
        cfg = parse_config(path)
        assert cfg.schedule["t_eq"] == pytest.approx(25.0)  # 50 * eps wins here

    def test_invariant_violation_reported(self, tmp_path):
        path = write_config(tmp_path)
        path.write_text(path.read_text().replace("dt = 0.05", "dt = 0.5"))
        with pytest.raises(ConfigurationError, match="dt"):
            parse_config(path)

    def test_parse_error_carries_line_info(self, tmp_path):
        path = tmp_path / "broken.cfg"
        path.write_text("[bath\ngamma = 1\n")
        with pytest.raises(ConfigurationError, match="line"):
            parse_config(path)

    @pytest.mark.parametrize("mode, prep, prep_extra, observables, config", [
        # the ids of the first three cases are those of their four columns
        pytest.param("sigma2", "gaussian", "sigma0 = 1.0", "p2 = default", {},  # describes x2
                     id="sigma2-gaussian-sigma0 = 1.0-p2 = default"),
        pytest.param("p2", "identity", "", "x2 = default", {},  # p2 describes p2
                     id="p2-identity--x2 = default"),
        pytest.param("sigma2", "cat", "x0 = 0.6\nsigma = 0.3", "x2 = default", {},
                     id="sigma2-cat-x0 = 0.6\nsigma = 0.3-x2 = default"),  # needs gaussian
        # one case per part of the one rule the exact reference rests on: a
        # free or harmonic potential, and resets or translate gaussians on
        # the free potential
        pytest.param("sigma2", "gaussian", "sigma0 = 1.0\nmode = translate", "x2 = default",
                     dict(potential="form = polynomial\ncoefficients = 0 0 0.5 0 0.1"),
                     id="sigma2-polynomial"),
        pytest.param("sigma2", "gaussian", "sigma0 = 1.0\nmode = translate", "x2 = default",
                     dict(potential="form = harmonic\nomega0 = 1.0"), id="sigma2-harmonic"),
        pytest.param("sigma2", "gaussian", "sigma0 = 1.0", "x2 = default", {}, id="sigma2-lab"),
        pytest.param("p2", "cat", "x0 = 0.6\nsigma = 0.3\nmode = translate", "p2 = default",
                     {}, id="p2-cat-translate"),
        pytest.param("p2", "momentum-reset", "", "p2 = default",
                     dict(potential="form = polynomial\ncoefficients = 0 0 0.5 0 0.1"),
                     id="p2-polynomial"),
    ])
    def test_reference_it_cannot_write_rejected(self, tmp_path, mode, prep, prep_extra,
                                                observables, config):
        path = write_config(tmp_path, prep=prep, prep_extra=prep_extra,
                            observables=observables, **config)
        path.write_text(path.read_text() + f"\n[reference]\nmode = {mode}\n")
        with pytest.raises(ConfigurationError, match=r"\[reference\] mode"):
            parse_config(path)

    # each an experiment with an exact reference that the per-mode rules
    # before the one rule rejected
    @pytest.mark.parametrize("mode, prep, prep_extra, observables, config", [
        pytest.param("sigma2", "gaussian", "sigma0 = 1.0\nmode = translate\ntime = 0.5",
                     "x2 = default", {}, id="sigma2-time"),
        pytest.param("p2", "identity", "", "p2 = default", {}, id="p2-identity"),
        pytest.param("sigma2", "momentum-reset", "time = 0.5\np_value = 0.7", "x2 = default",
                     dict(potential="form = harmonic\nomega0 = 1.0"), id="sigma2-reset-harmonic"),
        pytest.param("p2", "gaussian", "sigma0 = 1.0\nmode = translate", "p2 = default", {},
                     id="p2-gaussian"),
    ])
    def test_reference_the_one_rule_accepts_written(self, tmp_path, mode, prep, prep_extra,
                                                    observables, config):
        from qbm.reference import exact_series
        path = write_config(tmp_path, prep=prep, prep_extra=prep_extra,
                            observables=observables, n_traj=16, **config)
        path.write_text(path.read_text() + f"\n[reference]\nmode = {mode}\n")
        cfg = parse_config(path)
        observable = "x2" if mode == "sigma2" else "p2"
        run(cfg, out_dir=str(tmp_path / "out"))
        ref = np.genfromtxt(tmp_path / "out" / f"{observable}_reference.csv", delimiter=",",
                            names=True)
        exact = exact_series(cfg.bath_spec(), cfg.potential_obj(), cfg.schedule_obj(),
                             cfg.statistics, observable)
        assert ref["estimate"].tolist() == exact.estimates.tolist()
        assert np.all(ref["standard_error"] == 0.0)

    def test_reference_has_no_ensemble_size(self, tmp_path):
        path = write_config(tmp_path, prep="gaussian", prep_extra="sigma0 = 1.0")
        path.write_text(path.read_text() + "\n[reference]\nmode = sigma2\nn_traj = 64\n")
        with pytest.raises(ConfigurationError, match=r"\[reference\] unknown key 'n_traj'"):
            parse_config(path)

    @pytest.mark.parametrize("kw, edit, message", REJECTED)
    def test_input_a_run_cannot_honour_rejected(self, tmp_path, kw, edit, message):
        with pytest.raises(ConfigurationError, match=message):
            parse_config(write_edited(tmp_path, kw, edit))

    def test_identity_reads_no_intervention_keys(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        assert cfg.preparation == {"form": "identity"}
        assert cfg.schedule_obj().interventions == ()

    def test_seed_digits_read_exactly(self, tmp_path):
        # past 2^53 a float would round the seed
        cfg = parse_config(write_config(tmp_path, seed=2**60 + 1))
        assert cfg.master_seed == 2**60 + 1

    def test_readme_example_parses(self, tmp_path):
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme) as fh:
            text = fh.read()
        example = text.split("### Config format", 1)[1].split("```ini\n", 1)[1]
        path = tmp_path / "readme.cfg"
        path.write_text(example.split("```", 1)[0])
        cfg = parse_config(path)
        assert cfg.preparation == {"form": "gaussian", "mode": "translate", "time": 0.0,
                                   "sigma0": 1.0}
        assert cfg.reference == {"mode": "sigma2"}

    def test_presets_parse_and_match_published_parameters(self):
        names = preset_names()
        assert {"fig1", "fig2", "fig3"} <= set(names)
        from importlib import resources
        with resources.as_file(preset_path("fig1")) as p:
            fig1 = parse_config(p)
        assert fig1.preparation["sigma0"] == 1.0
        assert fig1.bath["gamma"] == pytest.approx(np.pi / 2)
        assert fig1.bath["eps"] == 0.5
        assert fig1.bath["kT"] == 0.0
        assert fig1.bath["mass"] == 1.0 and fig1.bath["hbar"] == 1.0
        with resources.as_file(preset_path("fig2")) as p:
            fig2 = parse_config(p)
        assert fig2.bath["gamma"] == pytest.approx(np.pi / 2)
        assert fig2.bath["eps"] == 0.01
        assert fig2.bath["kT"] == 1.0
        assert fig2.preparation["form"] == "cat"


class TestRun:
    def test_outputs_and_manifest(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        out = tmp_path / "out"
        written = run(cfg, out_dir=str(out))
        names = sorted(os.path.basename(w) for w in written)
        assert names == ["run_manifest.json", "x2.csv"]
        header = (out / "x2.csv").read_text().splitlines()[0]
        assert header == "time,estimate,standard_error,effective_n"
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["config"]["n_traj"] == 64
        assert manifest["version"]

    def test_manifest_records_environment_and_peak_memory(self, tmp_path):
        import scipy
        cfg = parse_config(write_config(tmp_path))
        out = tmp_path / "out"
        run(cfg, out_dir=str(out))
        manifest = json.loads((out / "run_manifest.json").read_text())
        env = manifest["environment"]
        assert set(env) == {"numpy", "scipy", "blas", "blas_threads", "nproc"}
        assert env["numpy"] == np.__version__ and env["scipy"] == scipy.__version__
        assert env["nproc"] >= 1
        assert env["blas_threads"] is None or env["blas_threads"] >= 1
        assert manifest["peak_rss_mb"] > 0

    @pytest.mark.parametrize("potential, engine", [
        pytest.param("form = free", "map rows", id="map"),
        pytest.param("form = polynomial\ncoefficients = 0 0 0.5 0 0.1", "batch buffer",
                     id="stepper")])
    def test_manifest_records_what_the_memory_check_counted(self, tmp_path, potential, engine):
        cfg = parse_config(write_config(tmp_path, potential=potential))
        out = tmp_path / "out"
        run(cfg, out_dir=str(out))
        counted = json.loads((out / "run_manifest.json").read_text())["memory_counted_mb"]
        plan = qdyn.memory_plan(cfg.bath_spec(), cfg.potential_obj(), cfg.schedule_obj(),
                                cfg.statistics, cfg.n_traj, cfg.batch_size,
                                master_seed=cfg.master_seed)
        assert counted == {term.name: term.nbytes / 2**20 for term in plan.terms}
        assert engine in counted and "stacked records" not in counted

    @pytest.mark.parametrize("batches", [1, 2])
    def test_manifest_records_the_thread_counts(self, tmp_path, batches):
        from qbm import dynamics
        # one process integrates every batch on the same threads
        cfg = parse_config(write_config(tmp_path, run_extra=f"batch_size = {64 // batches}"))
        out = tmp_path / "out"
        run(cfg, out_dir=str(out))
        manifest = json.loads((out / "run_manifest.json").read_text())
        blas = None if dynamics.blas_threads() is None else 1
        assert manifest["threads"] == {"noise": qnoise.usable_cores(), "blas": blas}

    @pytest.mark.parametrize("preset, names", [
        pytest.param("fig1", ["sigma2.csv", "sigma2_reference.csv"], id="fig1"),
        pytest.param("fig2", ["coherence.csv"], id="fig2"),
        pytest.param("polynomial", ["p2.csv", "x2.csv"], id="polynomial")])
    def test_outputs_do_not_depend_on_openblas_num_threads(self, tmp_path, preset, names):
        # a fresh interpreter per setting: OpenBLAS reads it when it loads.
        # 128 trajectories are one history tile, which 2 unpinned threads
        # split differently from one; fig2's cat jumps through the jump
        # response, whose convolution numpy may hand to BLAS.  fig1 and fig2
        # take the linear map, the quartic the stepper, whose friction
        # products over 1200 steps 2 unpinned threads split differently too
        if preset == "polynomial":
            path = write_config(tmp_path, kT=1.0, observables="x2 = default\np2 = default",
                                potential="form = polynomial\ncoefficients = 0 0 0.5 0 0.1")
            path.write_text(path.read_text().replace("eps = 0.5", "eps = 0.05")
                            .replace("dt = 0.05", "dt = 0.005")
                            .replace("record_stride = 4", "record_stride = 20"))
            preset = str(path)
        src = os.path.dirname(os.path.dirname(os.path.abspath(qbm.__file__)))
        csvs = {}
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
            out = tmp_path / threads
            subprocess.run([sys.executable, "-m", "qbm.cli", "run", preset, "--n-traj", "128",
                            "--out-dir", str(out)], env=env, capture_output=True,
                           timeout=300, check=True)
            manifest = json.loads((out / "run_manifest.json").read_text())
            assert manifest["environment"]["blas_threads"] in (None, int(threads))
            csvs[threads] = {f.name: f.read_bytes() for f in sorted(out.glob("*.csv"))}
        assert list(csvs["1"]) == names
        assert csvs["1"] == csvs["2"]

    @pytest.mark.parametrize("preset", ["fig1", "fig2", "fig2_white", "fig3",
                                        "fig3_classical", "classical_limit"])
    def test_batch_split_leaves_outputs_and_dumps_identical(self, tmp_path, preset):
        # 17 does not divide 96: synthesis chunks and integrator batches both
        # end mid-ensemble
        from qbm.noise import load_ensemble

        def outputs(batch_size):
            with resources.as_file(preset_path(preset)) as p:
                cfg = parse_config(p)
            cfg.n_traj, cfg.batch_size = 96, batch_size
            out = tmp_path / str(batch_size)
            written = run(cfg, out_dir=str(out), dump_trajectories=True)
            files = {}
            for path in written:
                name = os.path.basename(path)
                if name.endswith(".bin"):
                    meta, values = load_ensemble(path)
                    del meta["config"]["batch_size"]
                    files[name] = (meta, values.tobytes())
                elif name.endswith(".csv"):
                    with open(path, "rb") as fh:
                        files[name] = fh.read()
            return files

        whole, split = outputs(96), outputs(17)
        assert "trajectories.bin" in whole
        assert split == whole

    # fig1 and fig2 take the linear map (fig2 with its translate-mode cat),
    # the polynomial the stepper
    @pytest.mark.parametrize("config", ["fig1", "fig2", "polynomial"])
    def test_outputs_do_not_depend_on_the_noise_thread_count(self, tmp_path, monkeypatch,
                                                             config):
        # 200 trajectories in batches of 128: blocks of 64, 64 | 64, 8, run
        # on 1, 2 or 4 threads, the four switching every microsecond; every
        # output but the manifest keeps its bytes
        if config == "polynomial":
            path = write_config(tmp_path, kT=0.5, n_traj=200, run_extra="batch_size = 128",
                                potential="form = polynomial\ncoefficients = 0 0 0.5 0 0.1")
        else:
            path = tmp_path / f"{config}.cfg"
            path.write_bytes(preset_path(config).read_bytes())
        outputs = {}
        for cores in (1, 2, 4):
            monkeypatch.setattr(qnoise, "usable_cores", lambda: cores)
            cfg = parse_config(path)
            cfg.n_traj, cfg.batch_size = 200, 128
            out = tmp_path / str(cores)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6 if cores == 4 else interval)
            try:
                run(cfg, out_dir=str(out), dump_trajectories=True)
                noise_check(cfg, out_dir=str(out), dump=True)
            finally:
                sys.setswitchinterval(interval)
            outputs[cores] = {f.name: f.read_bytes() for f in sorted(out.iterdir())
                              if f.name != "run_manifest.json"}
        assert {"trajectories.bin", "noise_paths.bin", "noise_check.json"} <= set(outputs[1])
        assert any(name.endswith(".csv") for name in outputs[1])
        assert outputs[1] == outputs[2] == outputs[4]

    def test_peak_memory_flat_in_ensemble_size(self, tmp_path):
        # a fig1-like run of 200 steps recording every step: the estimators
        # and the trajectory dump take each batch as it comes, so no
        # per-trajectory record is kept
        path = write_config(tmp_path, prep="gaussian",
                            prep_extra="sigma0 = 1.0\nmode = translate",
                            run_extra="batch_size = 128")
        path.write_text(path.read_text().replace("t_eq = 4.0", "t_eq = 5.0")
                        .replace("t_end = 2.0", "t_end = 5.0")
                        .replace("record_stride = 4", "record_stride = 1")
                        + "\n[reference]\nmode = sigma2\n")
        cfg = parse_config(path)
        assert cfg.schedule_obj().n_steps == 200

        def peak(n_traj, dump_trajectories):
            cfg.n_traj = n_traj
            tracemalloc.start()
            try:
                run(cfg, out_dir=str(tmp_path / str(n_traj)),
                    dump_trajectories=dump_trajectories)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(128, True)  # warm up one-time allocations (FFT plan cache, imports)
        assert peak(4096, False) <= 1.25 * peak(512, False)
        # the dump writes each batch as it comes, as the estimators take it
        assert peak(4096, True) <= 1.25 * peak(512, True)

    def test_peak_memory_flat_in_batch_size_on_the_map(self, tmp_path):
        # the fig1 preset at 2048 trajectories, with its sigma2 reference: on
        # the linear map each noise block is folded into the estimators as
        # it finishes, so a batch of 1024 holds no more than one of 128.
        # Each run builds its rows within the trace.  A batch of 64 is one
        # noise block on one thread; one of 128 runs two, as 1024 does on
        # two cores
        with resources.as_file(preset_path("fig1")) as p:
            cfg = parse_config(p)
        cfg.n_traj = 2048

        def peak(batch_size):
            cfg.batch_size = batch_size
            tracemalloc.start()
            try:
                run(cfg, out_dir=str(tmp_path / str(batch_size)))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(128)  # warm up one-time allocations (FFT plan cache, imports)
        assert peak(1024) <= 1.25 * peak(128)

    def test_float_serialisation_has_17_significant_digits(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        out = tmp_path / "out"
        run(cfg, out_dir=str(out))
        row = (out / "x2.csv").read_text().splitlines()[2]
        value = row.split(",")[1]
        assert float(value) == float(format(float(value), ".17g"))
        assert len(value.replace("-", "").replace(".", "").split("e")[0]) >= 15

    def test_manifest_reconstructs_run_byte_for_byte(self, tmp_path):
        from qbm.cli import ExperimentConfig
        cfg = parse_config(write_config(tmp_path, seed=51))
        out1 = tmp_path / "orig"
        run(cfg, out_dir=str(out1))
        manifest = json.loads((out1 / "run_manifest.json").read_text())
        rebuilt = ExperimentConfig(**manifest["config"])
        out2 = tmp_path / "rebuilt"
        run(rebuilt, out_dir=str(out2))
        assert (out1 / "x2.csv").read_bytes() == (out2 / "x2.csv").read_bytes()

    def test_byte_identical_reruns(self, tmp_path):
        cfg_path = write_config(tmp_path, prep="gaussian",
                                prep_extra="sigma0 = 1.0\nmode = translate",
                                run_extra="", seed=99)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run(parse_config(cfg_path), out_dir=str(out1))
        run(parse_config(cfg_path), out_dir=str(out2))
        assert (out1 / "x2.csv").read_bytes() == (out2 / "x2.csv").read_bytes()

    def test_reference_companion_written(self, tmp_path):
        cfg_path = write_config(
            tmp_path, prep="gaussian",
            prep_extra="sigma0 = 1.0\nmode = translate",
            observables="x2 = sigma2.csv",
            run_extra="\n")
        text = cfg_path.read_text() + "\n[reference]\nmode = sigma2\n"
        cfg_path.write_text(text)
        out = tmp_path / "out"
        written = run(parse_config(cfg_path), out_dir=str(out))
        names = sorted(os.path.basename(w) for w in written)
        assert "sigma2.csv" in names and "sigma2_reference.csv" in names
        ref = np.genfromtxt(out / "sigma2_reference.csv", delimiter=",", names=True)
        assert ref["estimate"][0] == pytest.approx(1.0)
        # the exact expectation of the simulated scheme: no sampling error
        assert np.all(ref["standard_error"] == 0.0)
        assert np.all(np.isinf(ref["effective_n"]))

    def test_reference_runs_once_beside_its_observable(self, tmp_path, monkeypatch):
        from qbm import dynamics
        cfg_path = write_config(
            tmp_path, prep="gaussian",
            prep_extra="sigma0 = 1.0\nmode = translate",
            observables="x2 = default\np2 = default", n_traj=16)
        cfg_path.write_text(cfg_path.read_text()
                            + "\n[reference]\nmode = sigma2\n")
        tags = []
        real = dynamics.run_ensemble

        def recording(*args, stream_tag=0, **kwargs):
            tags.append(stream_tag)
            return real(*args, stream_tag=stream_tag, **kwargs)

        monkeypatch.setattr(dynamics, "run_ensemble", recording)
        out = tmp_path / "out"
        run(parse_config(cfg_path), out_dir=str(out))
        assert tags == [0]
        assert (out / "x2_reference.csv").exists()
        assert not (out / "p2_reference.csv").exists()

    # the exact p2 covers every momentum reset on a quadratic potential
    @pytest.mark.parametrize("prep_extra, config", [
        pytest.param("", dict(potential="form = harmonic\nomega0 = 1.0"), id="p2-harmonic"),
        pytest.param("", dict(kT=1.0), id="p2-kT"),
        pytest.param("", dict(statistics="classical", kT=1.0), id="p2-classical"),
        pytest.param("p_value = 2.0", {}, id="p2-p_value"),
        # a reset between record nodes
        pytest.param("time = 0.3\np_value = -0.5", {}, id="p2-time"),
    ])
    def test_p2_reference_written(self, tmp_path, prep_extra, config):
        from qbm.reference import exact_series
        path = write_config(tmp_path, prep="momentum-reset", prep_extra=prep_extra,
                            observables="p2 = default", n_traj=16, **config)
        path.write_text(path.read_text() + "\n[reference]\nmode = p2\n")
        cfg = parse_config(path)
        out = tmp_path / "out"
        run(cfg, out_dir=str(out))
        ref = np.genfromtxt(out / "p2_reference.csv", delimiter=",", names=True)
        exact = exact_series(cfg.bath_spec(), cfg.potential_obj(), cfg.schedule_obj(),
                             cfg.statistics, "p2")
        assert ref["estimate"].tolist() == exact.estimates.tolist()
        assert np.all(ref["standard_error"] == 0.0) and np.all(np.isinf(ref["effective_n"]))
        p_value = cfg.preparation["p_value"]
        at = ref["time"] == cfg.preparation["time"]
        assert ref["estimate"][at].tolist() == [p_value**2] * np.count_nonzero(at)

    def test_trajectory_dump_round_trip(self, tmp_path):
        from qbm.dynamics import run_ensemble
        from qbm.noise import load_ensemble
        # a lab-mode gaussian weights its trajectories; batch_size 3 does not
        # divide 8
        cfg = parse_config(write_config(tmp_path, n_traj=8, prep="gaussian",
                                        prep_extra="sigma0 = 1.0",
                                        run_extra="batch_size = 3"))
        out = tmp_path / "out"
        run(cfg, out_dir=str(out), dump_trajectories=True)
        tmeta, tvals = load_ensemble(out / "trajectories.bin")
        assert tmeta["kind"] == "trajectories"
        assert tmeta["row_layout"] == "weight, x(times), p(times)"
        k = len(tmeta["times"])
        assert tvals.shape == (8, 1 + 2 * k)
        # the rows are the stacked ensemble of one whole run, in id order
        ens = run_ensemble(cfg.bath_spec(), cfg.potential_obj(), cfg.schedule_obj(),
                           cfg.n_traj, cfg.statistics, cfg.master_seed)
        assert tmeta["times"] == list(ens.times)
        assert (ens.weights != 1.0).any()
        assert tvals[:, 0].tobytes() == ens.weights.tobytes()
        assert tvals[:, 1:1 + k].tobytes() == ens.x.tobytes()
        assert tvals[:, 1 + k:].tobytes() == ens.p.tobytes()

    @pytest.mark.parametrize("dump_trajectories", [False, True])
    def test_run_streams_every_batch_to_a_consumer(self, tmp_path, monkeypatch,
                                                   dump_trajectories):
        from qbm import dynamics
        consumers = []
        real = dynamics.run_ensemble

        def recording(*args, consumer=None, **kwargs):
            consumers.append(consumer)
            return real(*args, consumer=consumer, **kwargs)

        monkeypatch.setattr(dynamics, "run_ensemble", recording)
        run(parse_config(write_config(tmp_path, n_traj=8)), out_dir=str(tmp_path / "out"),
            dump_trajectories=dump_trajectories)
        assert len(consumers) == 1 and consumers[0] is not None

    def test_failed_run_leaves_no_trajectory_dump(self, tmp_path):
        # an inverted quartic: every trajectory runs off to infinity
        cfg = parse_config(write_config(
            tmp_path, n_traj=16, run_extra="batch_size = 4",
            potential="form = polynomial\ncoefficients = 0 0 0 0 -100"))
        out = tmp_path / "out"
        with pytest.raises(IntegrationFailure):
            run(cfg, out_dir=str(out), dump_trajectories=True)
        assert not (out / "trajectories.bin").exists()

    def test_out_dir_env_var(self, tmp_path, monkeypatch):
        cfg = parse_config(write_config(tmp_path))
        target = tmp_path / "envout"
        monkeypatch.setenv("QBM_OUT_DIR", str(target))
        run(cfg)
        assert (target / "x2.csv").exists()


class TestNoiseCheck:
    def test_quantum_statistics_pass(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, n_traj=3000))
        report, ok = noise_check(cfg, out_dir=str(tmp_path / "nc"))
        assert ok and report["status"] == "pass"
        assert report["max_abs_z"] <= 4.0
        assert (tmp_path / "nc" / "noise_check.json").exists()

    def test_dump_flag_writes_ensemble(self, tmp_path):
        from qbm.noise import load_ensemble
        cfg = parse_config(write_config(tmp_path, n_traj=16))
        out = tmp_path / "nc"
        noise_check(cfg, out_dir=str(out), dump=True)
        meta, vals = load_ensemble(out / "noise_paths.bin")
        assert meta["kind"] == "noise" and vals.shape[0] == 16

    def test_dump_equals_whole_ensemble_dump(self, tmp_path):
        # batch_size 3 does not divide 8: the streamed rows and header must
        # equal one whole-ensemble synthesis of the run's streams (tag 0)
        # written at once
        from qbm.dynamics import _traj_stream
        cfg = parse_config(write_config(tmp_path, n_traj=8, run_extra="batch_size = 3"))
        out = tmp_path / "out"
        noise_check(cfg, out_dir=str(out), dump=True)
        spec, sched = cfg.bath_spec(), cfg.schedule_obj()
        grid = qnoise.FrequencyGrid.for_times(spec, sched.dt, sched.n_steps + 1)
        whole = qnoise.synthesize_batch(spec, grid, cfg.statistics,
                                        [_traj_stream(cfg.master_seed, 0, i) for i in range(8)])
        ref = tmp_path / "whole.bin"
        qnoise.dump_ensemble(ref, {"kind": "noise", "config": cfg.to_dict(),
                                   "t_step": sched.dt}, whole)
        assert (out / "noise_paths.bin").read_bytes() == ref.read_bytes()

    def test_dump_is_the_noise_the_run_integrates(self, tmp_path):
        # identity preparation: a trajectory depends on its noise path alone,
        # so each dumped path, integrated, gives the run's row bit for bit
        from qbm.dynamics import integrate
        cfg = parse_config(write_config(tmp_path, kT=0.2, n_traj=70,
                                        run_extra="batch_size = 32"))
        noise_check(cfg, out_dir=str(tmp_path / "nc"), dump=True)
        run(cfg, out_dir=str(tmp_path / "run"), dump_trajectories=True)
        meta, paths = qnoise.load_ensemble(tmp_path / "nc" / "noise_paths.bin")
        _, rows = qnoise.load_ensemble(tmp_path / "run" / "trajectories.bin")
        spec, pot, sched = cfg.bath_spec(), cfg.potential_obj(), cfg.schedule_obj()
        times = meta["t_step"] * np.arange(paths.shape[1])
        for i, values in enumerate(paths):
            traj = integrate(spec, pot, sched,
                             qnoise.NoisePath(seed=(i,), times=times, values=values))
            assert np.hstack([traj.weight, traj.x, traj.p]).tobytes() == rows[i].tobytes()

    def test_estimates_independent_of_batch_size(self, tmp_path):
        n = 150
        reports = []
        for batch_size in (7, 64, n):
            cfg = parse_config(write_config(tmp_path, kT=0.2, n_traj=n,
                                            run_extra=f"batch_size = {batch_size}"))
            out = tmp_path / f"b{batch_size}"
            report, _ = noise_check(cfg, out_dir=str(out), dump=True)
            _, vals = qnoise.load_ensemble(out / "noise_paths.bin")
            reports.append((report, vals))
        (first, first_vals), *rest = reports
        for report, vals in rest:
            for key in ("estimates", "standard_errors", "targets", "z_scores"):
                assert report[key] == first[key]
            assert vals.tobytes() == first_vals.tobytes()

    def test_peak_memory_bounded_by_batch_size(self, tmp_path, monkeypatch):
        # two noise threads, each holding one block at a time: from two
        # blocks on, more paths add only their lag products
        monkeypatch.setattr(qnoise, "usable_cores", lambda: 2)
        path = write_config(tmp_path, kT=0.2, run_extra="batch_size = 64")
        path.write_text(path.read_text().replace("t_end = 2.0", "t_end = 20.0"))
        cfg = parse_config(path)

        def peak(n_traj):
            cfg.n_traj = n_traj
            tracemalloc.start()
            try:
                noise_check(cfg, out_dir=str(tmp_path / "nc"))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2 * 64)  # warm up one-time allocations (FFT plan cache, imports)
        assert peak(8 * 64) <= 1.25 * peak(2 * 64)

    def test_report_does_not_depend_on_openblas_num_threads(self, tmp_path):
        # a fresh interpreter per setting: OpenBLAS reads it when it loads.
        # 52,001 samples: the lag products are dots of about 52,000 terms,
        # which 2 unpinned OpenBLAS threads split and sum differently
        path = write_config(tmp_path, kT=0.2, n_traj=4)
        path.write_text(path.read_text().replace("t_eq = 4.0", "t_eq = 1300.0")
                        .replace("t_end = 2.0", "t_end = 1300.0"))
        assert parse_config(path).schedule_obj().n_steps + 1 > 50_000
        src = os.path.dirname(os.path.dirname(os.path.abspath(qbm.__file__)))
        reports = {}
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
            blas = subprocess.run([sys.executable, "-c", "from qbm import dynamics; "
                                   "print(dynamics.blas_threads())"], env=env,
                                  capture_output=True, text=True, timeout=300, check=True)
            assert blas.stdout.strip() in ("None", threads)
            out = tmp_path / threads
            # exit 1 is a failed check, which writes its report too
            done = subprocess.run([sys.executable, "-m", "qbm.cli", "noise-check", str(path),
                                   "--out-dir", str(out)], env=env, capture_output=True,
                                  timeout=300)
            assert done.returncode in (0, 1) and not done.stderr
            reports[threads] = (out / "noise_check.json").read_bytes()
        assert reports["1"] == reports["2"]

    def test_report_and_dump_identical_at_any_batch_size(self, tmp_path):
        # 1 and 17 cut the ensemble into odd pieces, 1024 exceeds it
        outputs = {}
        for batch_size in (1, 17, 64, 1024):
            cfg = parse_config(write_config(tmp_path, kT=0.2, n_traj=150,
                                            run_extra=f"batch_size = {batch_size}"))
            out = tmp_path / f"b{batch_size}"
            noise_check(cfg, out_dir=str(out), dump=True)
            meta, values = qnoise.load_ensemble(out / "noise_paths.bin")
            # the header records the config, batch_size included
            del meta["config"]["batch_size"]
            outputs[batch_size] = ((out / "noise_check.json").read_bytes(), meta,
                                   values.tobytes())
        assert outputs[1] == outputs[17] == outputs[64] == outputs[1024]

    def test_lag_products_do_not_depend_on_where_a_row_sits(self, tmp_path):
        # noise-check reduces each group of four paths where it is drawn, in
        # a workspace whose rows are 2 (N+1) = 12,002 floats apart; a report
        # built from synthesize_batch over each whole 64-path block, rows
        # 4001 floats apart, has its bits.  150 paths end on a short block
        from qbm.dynamics import _one_blas_thread, _traj_streams
        with resources.as_file(preset_path("fig2")) as p:
            cfg = parse_config(p)
        cfg.n_traj = 150
        report, _ = noise_check(cfg, out_dir=str(tmp_path / "nc"))
        spec, sched = cfg.bath_spec(), cfg.schedule_obj()
        grid = qnoise.FrequencyGrid.for_times(spec, sched.dt, sched.n_steps + 1)
        assert 2 * (grid.n_modes + 1) != grid.n_times
        shifts = qnoise.lag_shifts(report["lags"], sched.dt, grid.n_times)
        products = np.empty((len(shifts), cfg.n_traj))
        with _one_blas_thread():
            for lo in range(0, cfg.n_traj, 64):
                ids = range(lo, min(lo + 64, cfg.n_traj))
                rows = qnoise.synthesize_batch(spec, grid, cfg.statistics,
                                               _traj_streams(cfg.master_seed, 0, ids))
                assert rows.flags.c_contiguous
                qnoise.lag_products(rows, shifts, products[:, lo:lo + len(ids)])
        est, se = qnoise.lag_statistics(products)
        assert np.array(report["estimates"]).tobytes() == est.tobytes()
        assert np.array(report["standard_errors"]).tobytes() == se.tobytes()

    def test_peak_memory_flat_in_batch_size(self, tmp_path):
        # fig2's grid (4001 samples of a 12000-point period): paths are
        # synthesised and reduced a 64-path block at a time, whatever the batch
        with resources.as_file(preset_path("fig2")) as p:
            cfg = parse_config(p)
        cfg.n_traj = 256

        def peak(batch_size):
            cfg.batch_size = batch_size
            tracemalloc.start()
            try:
                noise_check(cfg, out_dir=str(tmp_path / "nc"))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(64)  # warm up one-time allocations (imports, first-call set-up)
        assert peak(1024) <= 1.25 * peak(64)

    def test_fig2_preset_checks_without_warnings(self, tmp_path):
        # the finite-temperature target must not leak quadrature warnings
        with resources.as_file(preset_path("fig2")) as p:
            cfg = parse_config(p)
        cfg.n_traj = 32
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report, _ = noise_check(cfg, out_dir=str(tmp_path / "nc"))
        assert np.isfinite(report["targets"]).all()

    @pytest.mark.parametrize("preset", ["fig2", "classical_limit", "fig2_white"])
    def test_target_is_the_bath_correlation_bit_for_bit(self, tmp_path, preset):
        # one preset per statistics tag, on the lag grid noise-check scores
        with resources.as_file(preset_path(preset)) as p:
            cfg = parse_config(p)
        cfg.n_traj = 2
        report, _ = noise_check(cfg, out_dir=str(tmp_path / "nc"))
        spec, dt = cfg.bath_spec(), cfg.schedule["dt"]
        lags = np.array(report["lags"])
        target = qnoise.target_correlation(spec, cfg.statistics, lags, dt)
        assert list(target) == report["targets"]
        if cfg.statistics == qnoise.QUANTUM:
            expected = quantum_correlation(spec, lags)
        elif cfg.statistics == qnoise.CLASSICAL:
            expected = classical_correlation(spec, lags)
        else:
            expected = np.zeros_like(lags)
            expected[0] = 2.0 * spec.mass * spec.gamma * spec.kT / dt
        assert lags[0] == 0.0 and lags[1] > 0.0
        assert target.tobytes() == expected.tobytes()

    def test_gamma_zero_degenerate_pass(self, tmp_path):
        path = write_config(tmp_path)
        path.write_text(path.read_text().replace(
            "gamma = 1.5707963267948966", "gamma = 0.0"))
        report, ok = noise_check(parse_config(path), out_dir=str(tmp_path / "nc"))
        # zero noise scored as any other: every estimate, target and z is 0
        assert ok and report["status"] == "pass" and "degenerate" not in report
        assert not any(report["estimates"] + report["targets"] + report["z_scores"])
        assert report["max_abs_z"] == 0.0 and report["runs_test_pvalue"] == 1.0

    @pytest.mark.parametrize("statistics", ["classical", "white"])
    def test_zero_temperature_classical_noise_passes(self, tmp_path, statistics):
        # classical and white noise vanish at kT = 0: no residual has a sign
        cfg = parse_config(write_config(tmp_path, statistics=statistics))
        report, ok = noise_check(cfg, out_dir=str(tmp_path / "nc"))
        assert ok and report["max_abs_z"] == 0.0 and report["runs_test_pvalue"] == 1.0

    def test_runs_test_drops_zero_residuals(self):
        signs = np.array([1.0, -1, 1, 1, -1, -1, 1, -1, 1, 1, -1, 1])
        assert _runs_test_pvalue(np.insert(signs, [0, 3, 3, 7, 12], 0.0)) \
            == _runs_test_pvalue(signs) < 1.0
        assert _runs_test_pvalue(np.zeros(20)) == 1.0
        assert _runs_test_pvalue(np.array([0.0, 1.0, 0.0])) == 1.0

    def test_gamma_zero_dump_holds_the_zero_paths(self, tmp_path):
        path = write_config(tmp_path, n_traj=70)
        path.write_text(path.read_text().replace(
            "gamma = 1.5707963267948966", "gamma = 0.0"))
        cfg = parse_config(path)
        report, ok = noise_check(cfg, out_dir=str(tmp_path / "nc"), dump=True)
        assert ok and report["max_abs_z"] == 0.0
        meta, vals = qnoise.load_ensemble(tmp_path / "nc" / "noise_paths.bin")
        assert meta["kind"] == "noise" and meta["t_step"] == cfg.schedule["dt"]
        assert vals.shape == (70, cfg.schedule_obj().n_steps + 1)
        assert not vals.any()

    def test_mismatched_target_fails(self, tmp_path):
        # generate classical noise at kT=2 but score it against the kT=0.2
        # bath: z-scores blow past 4 at small lags by construction
        cfg = parse_config(write_config(tmp_path, kT=2.0, statistics="classical",
                                        n_traj=2000))
        from qbm.bath import BathSpec, classical_correlation
        spec = cfg.bath_spec()
        sched = cfg.schedule_obj()
        grid = qnoise.FrequencyGrid.for_times(spec, sched.dt, sched.n_steps + 1)
        from qbm.dynamics import _traj_stream
        vals = qnoise.synthesize_batch(
            spec, grid, "classical",
            [_traj_stream(3, 2, i) for i in range(2000)])
        times = sched.dt * np.arange(sched.n_steps + 1)
        paths = [qnoise.NoisePath(seed=(i,), times=times, values=v) for i, v in enumerate(vals)]
        lags = spec.eps * np.arange(6)
        est, se = qnoise.empirical_autocorrelation(paths, lags)
        wrong = BathSpec(gamma=spec.gamma, eps=spec.eps, kT=0.2)
        z = (est - np.array([classical_correlation(wrong, l) for l in lags])) / se
        assert np.abs(z).max() > 4.0


class TestMain:
    def test_presets_list(self, capsys):
        assert main(["presets", "list"]) == 0
        out = capsys.readouterr().out.split()
        assert "fig1" in out and "fig3_classical" in out

    def test_run_and_noise_check_exit_codes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n_traj=32)
        assert main(["run", str(cfg), "--out-dir", str(tmp_path / "o1")]) == 0
        assert main(["noise-check", str(cfg), "--n-traj", "400",
                     "--out-dir", str(tmp_path / "o2")]) == 0

    @pytest.mark.parametrize("command, flag", [("run", "--dump-noise"),
                                               ("noise-check", "--workers")])
    def test_flag_the_command_does_not_read_rejected(self, tmp_path, capsys, command, flag):
        cfg = write_config(tmp_path, n_traj=8)
        args = [command, str(cfg), flag, *(["2"] if flag == "--workers" else []),
                "--out-dir", str(tmp_path / "o")]
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_config_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "missing.cfg"
        assert main(["run", str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    # one process integrates every batch: run reads no --workers of any size
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_override_below_one_rejected(self, tmp_path, capsys, workers):
        cfg = write_config(tmp_path, n_traj=8)
        with pytest.raises(SystemExit) as exc:
            main(["run", str(cfg), "--workers", workers, "--out-dir", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    # a standard error needs two trajectories
    @pytest.mark.parametrize("command, n_traj, message", [
        ("run", "0", "--n-traj must be >= 2, got 0"),
        ("noise-check", "-4", "--n-traj must be >= 2, got -4"),
        ("noise-check", "1", "--n-traj must be >= 2, got 1"),
    ], ids=["run-0", "noise-check-negative", "noise-check-1"])
    def test_too_few_trajectories_rejected(self, tmp_path, capsys, command, n_traj, message):
        cfg = write_config(tmp_path, n_traj=8)
        dump = ["--dump-noise"] if command == "noise-check" else []
        assert main([command, str(cfg), "--n-traj", n_traj, *dump,
                     "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert re.search(message, err) and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["run", "noise-check"])
    @pytest.mark.parametrize("seed, flags, message", [
        (-1, [], r"\[run\] master_seed must be >= 0, got -1"),
        (7, ["--seed", "-2"], "--seed must be >= 0, got -2"),
    ], ids=["config", "flag"])
    def test_negative_seed_rejected(self, tmp_path, capsys, command, seed, flags, message):
        cfg = write_config(tmp_path, n_traj=8, seed=seed)
        assert main([command, str(cfg), *flags, "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert re.search(message, err) and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["run", "noise-check"])
    @pytest.mark.parametrize("kw, edit, message", REJECTED)
    def test_rejected_input_is_one_error_line(self, tmp_path, capsys, command, kw, edit,
                                              message):
        path = write_edited(tmp_path, kw, edit)
        assert main([command, str(path), "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert re.search(message, err) and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    # without t_eq the default span reads the bath and dt: a bad value among
    # them still ends on one line naming its key
    @pytest.mark.parametrize("command", ["run", "noise-check"])
    @pytest.mark.parametrize("old, new, key", [
        ("gamma = 1.5707963267948966", "gamma = -1", "gamma"),
        ("eps = 0.5", "eps = 0", "eps"),
        ("kT = 0.0", "kT = -1", "kT"),
        ("dt = 0.05", "dt = 0", "dt"),
    ], ids=["gamma", "eps", "kT", "dt"])
    def test_bad_value_without_t_eq_is_one_error_line(self, tmp_path, capsys, command, old,
                                                       new, key):
        path = write_config(tmp_path)
        path.write_text(path.read_text().replace("t_eq = 4.0\n", "").replace(old, new))
        assert main([command, str(path), "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert re.search(rf"\b{key} must be >", err) and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["run", "noise-check"])
    def test_n_traj_override_beyond_memory_is_one_error_line(self, tmp_path, capsys,
                                                            command):
        cfg = write_config(tmp_path)
        out = tmp_path / "o"
        assert main([command, str(cfg), "--n-traj", str(10**14), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [run] n_traj = 100000000000000 over 120 steps needs")
        assert len(err.splitlines()) == 1 and not out.exists()

    @pytest.mark.parametrize("command", ["run", "noise-check"])
    def test_n_traj_override_replaces_the_files_before_its_memory_check(
            self, tmp_path, capsys, command):
        # the file's n_traj alone would exceed physical memory; the run
        # integrates the flag's
        cfg = write_config(tmp_path, n_traj=10**14)
        out = tmp_path / "o"
        assert main([command, str(cfg), "--n-traj", "100", "--out-dir", str(out)]) == 0
        assert capsys.readouterr().err.count("error") == 0
        if command == "run":
            manifest = json.loads((out / "run_manifest.json").read_text())
            assert manifest["config"]["n_traj"] == 100
        else:
            assert json.loads((out / "noise_check.json").read_text())["n_paths"] == 100

    def test_msd_n_traj_override_below_two_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, observables="msd = default")
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--n-traj", "1", "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --n-traj must be >= 2, got 1")
        assert len(err.splitlines()) == 1 and not out.exists()

    def test_one_trajectory_preset_run_is_one_error_line(self, tmp_path, capsys):
        # one trajectory has no standard error, whatever the observable
        out = tmp_path / "o"
        assert main(["run", "fig1", "--n-traj", "1", "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: --n-traj must be >= 2, got 1\n"
        assert not out.exists()

    def test_noise_check_span_shorter_than_its_lags_rejected(self, tmp_path, capsys):
        # 3 nodes against the 20 lags: rejected before the output directory
        path = write_config(tmp_path)
        path.write_text(path.read_text().replace("t_eq = 4.0", "t_eq = 0.05")
                        .replace("t_end = 2.0", "t_end = 0.05")
                        .replace("record_stride = 4", "record_stride = 1"))
        out = tmp_path / "o"
        assert main(["noise-check", str(path), "--dump-noise", "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert re.match(r"error: \[schedule\] t_eq \+ t_end = 0\.1 is too short: "
                        r"noise-check's 20 lags need a span of at least 19 dt = 0\.95", err)
        assert len(err.splitlines()) == 1 and not out.exists()

    @pytest.mark.parametrize("command", ["run", "noise-check"])
    def test_out_dir_naming_a_file_is_one_error_line(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, n_traj=8)
        taken = tmp_path / "taken"
        taken.write_text("a file\n")
        assert main([command, str(cfg), "--out-dir", str(taken)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot make output directory {str(taken)!r}")
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert taken.read_text() == "a file\n"

    @pytest.mark.parametrize("command, name, flags", [
        ("run", "sigma2.csv", []),
        ("run", "run_manifest.json", []),
        ("run", "trajectories.bin", ["--dump-trajectories"]),
        ("noise-check", "noise_check.json", []),
        ("noise-check", "noise_paths.bin", ["--dump-noise"]),
    ])
    def test_output_name_taken_by_a_directory_is_one_error_line(self, tmp_path, capsys,
                                                                command, name, flags):
        cfg = write_config(tmp_path, n_traj=8, observables="x2 = sigma2.csv")
        out = tmp_path / "o"
        (out / name).mkdir(parents=True)
        assert main([command, str(cfg), "--out-dir", str(out), *flags]) == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot write {str(out / name)!r}: it is a directory\n"
        # rejected before anything ran: nothing written beside it
        assert os.listdir(out) == [name]

    def test_file_error_no_check_foresees_is_one_error_line(self, tmp_path, capsys):
        # a config path naming a directory fails when it is opened
        assert main(["run", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {tmp_path}: Is a directory\n"

    def test_diverging_run_ends_the_progress_line_before_its_error(self, tmp_path, capsys):
        # an inverted quartic at kT = 1: the first batch crosses the 0.1% bound
        cfg = write_config(tmp_path, kT=1.0, n_traj=256, run_extra="batch_size = 64",
                           potential="form = polynomial\ncoefficients = 0 0 0 0 -1")
        assert main(["run", str(cfg), "--out-dir", str(tmp_path / "o")]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines[-2:-1] == ["64/256 trajectories"]
        assert re.fullmatch(r"error: \d+ of the first 64 trajectories diverged; "
                            r"192 of 256 were not integrated", lines[-1])

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path, n_traj=32)
        main(["run", str(cfg), "--out-dir", str(tmp_path / "s1")])
        main(["run", str(cfg), "--seed", "8", "--out-dir", str(tmp_path / "s2")])
        a = (tmp_path / "s1" / "x2.csv").read_bytes()
        b = (tmp_path / "s2" / "x2.csv").read_bytes()
        assert a != b


class TestImportPath:
    def test_run_and_noise_check_load_no_scipy_subpackage(self, tmp_path):
        # a fresh interpreter: the test session itself has scipy loaded
        script = textwrap.dedent("""
            import json
            import os
            import sys
            from importlib import resources
            from qbm import cli

            loaded = {}
            for preset, command in (("fig1", cli.run), ("fig2", cli.noise_check),
                                    ("fig3", cli.run)):
                with resources.as_file(cli.preset_path(preset)) as p:
                    cfg = cli.parse_config(p)
                cfg.n_traj = 64
                command(cfg, out_dir=os.path.join(sys.argv[1], preset))
                # the manifest's top-level import of scipy loads only
                # scipy.version and private modules
                loaded[preset] = [m for m in sys.modules if m == "numpy.ma" or (
                    m.startswith("scipy.") and not m.startswith("scipy._")
                    and m != "scipy.version")]
            print(json.dumps(loaded))
        """)
        src = os.path.dirname(os.path.dirname(os.path.abspath(qbm.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        out = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                             capture_output=True, text=True, timeout=300, check=True)
        loaded = json.loads(out.stdout.strip().splitlines()[-1])
        # every command needs numpy only, fig3's exact p2 reference included;
        # nor numpy.ma, which costs every run its import
        for preset, modules in loaded.items():
            assert modules == [], (preset, modules)


class TestBenchmarkSpans:
    def test_every_attribute_the_benchmark_wraps_is_called_through(self, tmp_path):
        # perfbench/spans.py times a traced run by replacing the module
        # attributes through which qbm's layers call each other; a renamed
        # attribute would fail its instrument() or leave its span empty
        path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                            "perfbench", "spans.py")
        module_spec = importlib.util.spec_from_file_location("perfbench_spans", path)
        spans = importlib.util.module_from_spec(module_spec)
        module_spec.loader.exec_module(spans)
        with resources.as_file(preset_path("fig1")) as p:
            cfg = parse_config(p)
        cfg.n_traj = 128
        recorder = spans.Recorder()
        try:
            spans.instrument(recorder)
            run(cfg, out_dir=str(tmp_path))
        finally:
            recorder.restore()
        names = [span["name"] for span in recorder.spans]
        assert names.count("preparation.sample") == 128
        assert "noise.synthesize_batch" in names
