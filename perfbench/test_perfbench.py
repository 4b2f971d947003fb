"""Self-tests of the benchmark harness: python3 -m pytest perfbench"""

import json
import os
import re
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from qbm.cli import write_series_csv  # noqa: E402
from qbm.observables import ObservableSeries  # noqa: E402

SPEC = run.load_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_self_time_of_overlapping_and_overhanging_children():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 10.0])
    rec = spans.Recorder(clock=lambda: next(ticks))
    with rec.span("root"):                      # [0, 10]
        with rec.span("a"):                     # [1, 4]
            with rec.span("a.inner"):           # [2, 3]
                pass
    # b overlaps a; c starts before the root ends and ends after it
    rec.spans.append({"id": 3, "name": "b", "start": 3.0, "end": 6.0, "parent": 0, "counts": {}})
    rec.spans.append({"id": 4, "name": "c", "start": 8.0, "end": 12.0, "parent": 0, "counts": {}})
    assert [s["parent"] for s in rec.spans] == [None, 0, 1, 0, 0]
    own = spans.self_times(rec.spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 2.0)   # [1, 6] and [8, 10] covered
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[2] == pytest.approx(1.0)
    assert own[4] == pytest.approx(4.0)


def test_warnings_are_counted_on_the_innermost_span():
    import warnings

    rec = spans.Recorder()
    with rec.capture_warnings(), rec.span("outer"):
        with rec.span("inner"):
            warnings.warn("twice")
            warnings.warn("twice")
    assert [s["counts"].get("warnings", 0) for s in rec.spans] == [0, 2]


def test_names_and_workloads_match_the_harness():
    names = [w["name"] for w in SPEC["workloads"]] + \
        [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)
    assert {m["name"] for m in SPEC["end_to_end"]} == \
        set(run.end_to_end(workloads.WORKLOADS["gauss-fig1"], []))
    root = {"id": 0, "name": "qbm.run", "start": 0.0, "end": 1.0, "parent": None, "counts": {}}
    layers = set(spans.layer_metrics([root], 0)) | {"cli.bytes_written", "trace.overhead_s"}
    assert {m["name"] for m in SPEC["per_layer"]} == layers


def test_run_seeds_are_reproducible_and_start_at_the_given_seed():
    gauss, noise = workloads.WORKLOADS["gauss-fig1"], workloads.WORKLOADS["noise-check-fig2"]
    seeds = [workloads.run_seed(gauss, 7, k) for k in range(20)]
    assert seeds[0] == 7 and len(set(seeds)) == 20
    assert seeds == [workloads.run_seed(gauss, 7, k) for k in range(20)]
    assert {workloads.run_seed(noise, 7, k) for k in range(20)} == {7}


def write_x2_outputs(out_dir, cfg, offset=0.0):
    """x2 and its sigma2 reference, equal but for ``offset`` added to x2 at one time."""
    times = cfg.schedule_obj().record_times()
    stem, ext = os.path.splitext(cfg.observables["x2"])
    for name, shift in ((cfg.observables["x2"], offset), (f"{stem}_reference{ext}", 0.0)):
        est = np.full(len(times), 0.5)
        est[7] += shift
        series = ObservableSeries(times=times, estimates=est,
                                  standard_errors=np.full(len(times), 0.03),
                                  effective_sample_size=np.full(len(times), 4096.0))
        write_series_csv(os.path.join(out_dir, name), series)


def passing_report(wall_s=5.0):
    return {"ok": True, "traced": False, "wall_s": wall_s, "traj_steps": 1e7,
            "peak_rss_mb": 300.0, "setup_s": 0.5, "primary_se": 0.03}


def test_corrupted_output_fails_the_check_and_counts_as_failed(tmp_path):
    workload = workloads.WORKLOADS["gauss-fig1"]
    cfg = workloads.load_config(workload, workloads.DEFAULT_SEED)
    write_x2_outputs(tmp_path, cfg)
    ok, _, primary_se = workloads.check_outputs(workload, cfg, tmp_path)
    assert ok and primary_se == pytest.approx(0.03)

    path = tmp_path / cfg.observables["x2"]
    lines = path.read_text().splitlines()
    lines[5] = lines[5].split(",", 1)[0] + ",x,0.03,4096"
    path.write_text("\n".join(lines) + "\n")
    ok, detail, _ = workloads.check_outputs(workload, cfg, tmp_path)
    assert not ok and cfg.observables["x2"] in detail["error"]

    write_x2_outputs(tmp_path, cfg, offset=0.5)  # 12 combined SE off the reference
    ok, detail, _ = workloads.check_outputs(workload, cfg, tmp_path)
    assert not ok and "exceeds" in detail["error"]

    bad = {"ok": False, "traced": False, "detail": detail}
    result, _ = run.summarize(workload, [passing_report(), bad, passing_report(6.0)],
                              trace=0, spec=SPEC)
    assert (result["attempted"], result["failed"], result["correct"]) == (3, 1, False)
    assert result["metrics"]["wall_s"]["value"] == pytest.approx(5.5)


def test_failed_noise_check_status_fails(tmp_path):
    workload = workloads.WORKLOADS["noise-check-fig2"]
    cfg = workloads.load_config(workload, workloads.DEFAULT_SEED)
    report = {"status": "fail", "max_abs_z": 9.0, "standard_errors": [4.0]}
    (tmp_path / "noise_check.json").write_text(json.dumps(report))
    ok, detail, _ = workloads.check_outputs(workload, cfg, tmp_path)
    assert not ok and "fail" in detail["error"]
