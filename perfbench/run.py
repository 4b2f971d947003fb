"""Benchmark of qbm: closed-loop runs of one workload, one client, one run at a time.

    python3 perfbench/run.py --workload gauss-fig1 --seed 20260808 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/``.  Each run is a fresh process (``child.py``) that sets up, calls
``qbm.cli.run`` or ``qbm.cli.noise_check`` once and checks the outputs
against the package's own baselines.  Runs repeat until ``--seconds`` is
spent; the first uses ``--seed``, later ones that seed or seeds derived from
it (``workloads.run_seed``).  With ``--trace 0`` the result holds the
end-to-end metrics of BENCHMARK.json (medians over the runs); with
``--trace 1`` it holds the per-layer metrics, from runs that alternate
between traced and untraced (both forced to one worker) so that the tracing
overhead shows.

Lines before the last one report each metric's median, maximum and sample
count, the error rate, the environment and the output digests; the last line
is the JSON result.  Details, and the spans of the last traced run, go to
``.bench_out/``.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

MIN_RUNS = 3          # a median and an alternating traced/untraced pair need this many
STOP_STARTING_S = 120  # no run starts after this, so the command ends within 180 s
RUN_TIMEOUT_S = 170


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def git_commit():
    """HEAD of the checkout, or None when the checkout is not itself a git work tree."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != ROOT:
        return None
    return lines[1]


def run_child(request, timeout):
    """Start one run, wait for it, and return its report (``ok`` False on failure)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"),
                             json.dumps(request)], cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        out, err = "", f"timed out after {timeout:.0f} s"
    finally:
        try:  # also ends any worker the run left behind in its process group
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0 or not out.strip():
        tail = err.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return {"ok": False, "traced": request["trace"], "seed": request["seed"],
                "detail": {"error": tail[0]}}
    report = json.loads(out.strip().splitlines()[-1])
    report["traced"] = request["trace"]
    report["seed"] = request["seed"]
    report["setup_s"] = report.pop("t_first") - spawned
    return report


def closed_loop(workload, seed, seconds, trace, scratch):
    """Run until the next run would overrun ``seconds``; at least MIN_RUNS runs."""
    start = time.monotonic()
    reports, last = [], 0.0
    while len(reports) < MIN_RUNS or time.monotonic() - start + last <= seconds:
        elapsed = time.monotonic() - start
        if elapsed > STOP_STARTING_S:
            break
        k = len(reports)
        out_dir = os.path.join(scratch, f"run{k}")
        os.makedirs(out_dir)
        request = {"workload": workload.name, "seed": workloads.run_seed(workload, seed, k),
                   "out_dir": out_dir,
                   "trace": bool(trace) and k % 2 == 1,  # run 0 warms the caches
                   "spans": os.path.join(scratch, "spans.json")}
        t0 = time.monotonic()
        reports.append(run_child(request, RUN_TIMEOUT_S - elapsed))
        last = time.monotonic() - t0
        shutil.rmtree(out_dir)
    return reports


def end_to_end(workload, reports):
    """Samples of each end-to-end metric over the runs that passed."""
    return {
        "wall_s": [r["wall_s"] for r in reports],
        "traj_steps_per_s": [r["traj_steps"] / r["wall_s"] for r in reports],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reports],
        "setup_s": [r["setup_s"] for r in reports],
        "time_to_se_s": [r["wall_s"] * (r["primary_se"] / workload.target_se) ** 2
                         for r in reports],
    }


def per_layer(reports):
    """Samples of each per-layer metric from the traced runs.

    The tracing overhead pairs each traced run with the untraced run after it,
    so that drift in the machine's speed over the window cancels.
    """
    traced = [r for r in reports if r["traced"]]
    untraced = [r for r in reports if not r["traced"]]
    samples = {}
    for r in traced:
        for key, value in r["layers"].items():
            samples.setdefault(key, []).append(value)
    samples["trace.overhead_s"] = [t["wall_s"] - u["wall_s"]
                                   for t, u in zip(traced, untraced[1:])]
    return samples


def summarize(workload, reports, trace, spec):
    """The result object and its samples; (None, {}) when no passing run measured it."""
    passed = [r for r in reports if r["ok"]]
    samples = per_layer(passed) if trace else end_to_end(workload, passed)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if any(not samples.get(m["name"]) for m in wanted):
        return None, {}
    metrics = {m["name"]: {"value": statistics.median(samples[m["name"]]), "unit": m["unit"]}
               for m in wanted}
    failed = len(reports) - len(passed)
    return {"correct": failed == 0, "attempted": len(reports), "failed": failed,
            "metrics": metrics}, samples


def main(argv=None):
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                    help=f"master_seed of the first run; later runs reuse it or derive "
                         f"theirs from it (default {workloads.DEFAULT_SEED}; "
                         f"{workloads.HELDOUT_SEED} is kept back to re-check claims)")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "qbm", "__init__.py")):
        print(f"error: no qbm sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    # a terminated benchmark still ends the run in progress (see run_child)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    out_base = os.path.join(ROOT, ".bench_out")
    scratch = os.path.join(out_base, f"scratch-{os.getpid()}")
    os.makedirs(scratch)
    workload = workloads.WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        reports = closed_loop(workload, args.seed, args.seconds, args.trace, scratch)
        result, samples = summarize(workload, reports, args.trace, spec)
        if args.trace and os.path.exists(os.path.join(scratch, "spans.json")):
            os.replace(os.path.join(scratch, "spans.json"),
                       os.path.join(out_base, f"spans-{tag}.json"))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    env = next((r["env"] for r in reports if "env" in r), {})
    env["git_commit"] = git_commit()
    failed = [r for r in reports if not r["ok"]]
    with open(os.path.join(out_base, f"result-{tag}.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "env": env, "samples": samples, "runs": reports, "result": result},
                  fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"runs {len(reports)}")
    for r in failed:
        print(f"FAILED run: {r['detail']}")
    if result is None:
        print("error: no run passed its output check; nothing to report", file=sys.stderr)
        return 1
    for name, m in result["metrics"].items():
        values = samples[name]
        print(f"  {name:32s} median {m['value']:.6g} {m['unit']}  "
              f"max {max(values):.6g}  n={len(values)}")  # too few runs for a p90
    print(f"  {'error_rate':32s} {len(failed) / len(reports):.6g} ratio  "
          f"({len(failed)} of {len(reports)} runs failed)")
    print(f"env {json.dumps(env, sort_keys=True)}")
    digests = [r["digests"] for r in reports if r.get("seed") == args.seed and "digests" in r]
    same = all(d == digests[0] for d in digests)
    print(f"digests at seed {args.seed} ({'identical' if same else 'DIFFERENT'} across "
          f"{len(digests)} runs) {json.dumps(digests[0] if digests else {}, sort_keys=True)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
