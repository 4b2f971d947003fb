import json
import os
import tracemalloc
import warnings
from importlib import resources

import numpy as np
import pytest

from qbm import noise as qnoise
from qbm.cli import (
    main,
    noise_check,
    parse_config,
    preset_names,
    preset_path,
    run,
)
from qbm.errors import ConfigurationError

TINY = """
[bath]
gamma = 1.5707963267948966
eps = 0.5
kT = {kT}

[potential]
form = free

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
    defaults = dict(kT=0.0, statistics="quantum", prep="identity", prep_extra="",
                    observables="x2 = default", n_traj=64, seed=7, run_extra="")
    defaults.update(kw)
    path = tmp_path / name
    path.write_text(TINY.format(**defaults))
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

    @pytest.mark.parametrize("mode, prep, prep_extra, observables", [
        ("sigma2", "gaussian", "sigma0 = 1.0", "p2 = default"),   # sigma2 describes x2
        ("p2", "identity", "", "x2 = default"),                    # p2 describes p2
        ("sigma2", "cat", "x0 = 0.6\nsigma = 0.3", "x2 = default"),  # needs gaussian
    ])
    def test_reference_it_cannot_write_rejected(self, tmp_path, mode, prep, prep_extra,
                                                observables):
        path = write_config(tmp_path, prep=prep, prep_extra=prep_extra,
                            observables=observables)
        path.write_text(path.read_text() + f"\n[reference]\nmode = {mode}\n")
        with pytest.raises(ConfigurationError, match=r"\[reference\] mode"):
            parse_config(path)

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
        text = cfg_path.read_text() + "\n[reference]\nmode = sigma2\nn_traj = 64\n"
        cfg_path.write_text(text)
        out = tmp_path / "out"
        written = run(parse_config(cfg_path), out_dir=str(out))
        names = sorted(os.path.basename(w) for w in written)
        assert "sigma2.csv" in names and "sigma2_reference.csv" in names
        ref = np.genfromtxt(out / "sigma2_reference.csv", delimiter=",", names=True)
        assert ref["estimate"][0] == pytest.approx(1.0)

    def test_reference_runs_once_beside_its_observable(self, tmp_path, monkeypatch):
        from qbm import dynamics
        cfg_path = write_config(
            tmp_path, prep="gaussian",
            prep_extra="sigma0 = 1.0\nmode = translate",
            observables="x2 = default\np2 = default", n_traj=16)
        cfg_path.write_text(cfg_path.read_text()
                            + "\n[reference]\nmode = sigma2\nn_traj = 16\n")
        tags = []
        real = dynamics.run_ensemble

        def recording(*args, stream_tag=0, **kwargs):
            tags.append(stream_tag)
            return real(*args, stream_tag=stream_tag, **kwargs)

        monkeypatch.setattr(dynamics, "run_ensemble", recording)
        out = tmp_path / "out"
        run(parse_config(cfg_path), out_dir=str(out))
        assert tags == [0, 1]
        assert (out / "x2_reference.csv").exists()
        assert not (out / "p2_reference.csv").exists()

    def test_dump_noise_and_trajectories_round_trip(self, tmp_path):
        from qbm.noise import load_ensemble
        cfg = parse_config(write_config(tmp_path, n_traj=8))
        out = tmp_path / "out"
        run(cfg, out_dir=str(out), dump_noise=True, dump_trajectories=True)
        meta, vals = load_ensemble(out / "noise_paths.bin")
        assert meta["kind"] == "noise"
        assert vals.shape[0] == 8
        tmeta, tvals = load_ensemble(out / "trajectories.bin")
        assert tmeta["kind"] == "trajectories"
        assert tvals.shape[0] == 2 and tvals.shape[1] == 8  # x and p stacks
        assert len(tmeta["weights"]) == 8

    def test_dump_noise_equals_whole_ensemble_dump(self, tmp_path):
        # batch_size 3 does not divide 8: the streamed rows and header must
        # equal one whole-ensemble synthesis written at once
        from qbm.dynamics import _traj_stream
        cfg = parse_config(write_config(tmp_path, n_traj=8, run_extra="batch_size = 3"))
        out = tmp_path / "out"
        run(cfg, out_dir=str(out), dump_noise=True)
        spec, sched = cfg.bath_spec(), cfg.schedule_obj()
        grid = qnoise.FrequencyGrid.for_times(spec, sched.dt, sched.n_steps + 1)
        whole = qnoise.synthesize_batch(spec, grid, cfg.statistics,
                                        [_traj_stream(cfg.master_seed, 0, i) for i in range(8)])
        ref = tmp_path / "whole.bin"
        qnoise.dump_ensemble(ref, {"kind": "noise", "config": cfg.to_dict(),
                                   "t_step": sched.dt}, whole)
        assert (out / "noise_paths.bin").read_bytes() == ref.read_bytes()

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

    def test_peak_memory_bounded_by_batch_size(self, tmp_path):
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

        peak(64)  # warm up one-time allocations (FFT plan cache, imports)
        assert peak(4 * 64) <= 1.25 * peak(64)

    def test_fig2_preset_checks_without_warnings(self, tmp_path):
        # the finite-temperature target must not leak quadrature warnings
        with resources.as_file(preset_path("fig2")) as p:
            cfg = parse_config(p)
        cfg.n_traj = 32
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report, _ = noise_check(cfg, out_dir=str(tmp_path / "nc"))
        assert np.isfinite(report["targets"]).all()

    def test_gamma_zero_degenerate_pass(self, tmp_path):
        path = write_config(tmp_path)
        path.write_text(path.read_text().replace(
            "gamma = 1.5707963267948966", "gamma = 0.0"))
        report, ok = noise_check(parse_config(path), out_dir=str(tmp_path / "nc"))
        assert ok and report.get("degenerate")

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

    def test_bad_config_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "missing.cfg"
        assert main(["run", str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path, n_traj=32)
        main(["run", str(cfg), "--out-dir", str(tmp_path / "s1")])
        main(["run", str(cfg), "--seed", "8", "--out-dir", str(tmp_path / "s2")])
        a = (tmp_path / "s1" / "x2.csv").read_bytes()
        b = (tmp_path / "s2" / "x2.csv").read_bytes()
        assert a != b
