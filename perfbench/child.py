"""One benchmark run in a fresh process: set up, call qbm once, check, report.

``run.py`` starts this script once per run with a JSON argument
``{"workload", "seed", "out_dir", "trace", "spans"}`` and reads the JSON
object it prints on its last line.  A fresh process per run makes the peak
resident set and the set-up time (interpreter start, ``import qbm``, preset
resolution and ``parse_config``) belong to that run alone.
"""

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def environment():
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        vendor = None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": vendor, "blas_threads": blas_threads(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "nproc": len(os.sched_getaffinity(0))}


def main(args):
    import qbm
    if os.path.dirname(os.path.dirname(os.path.abspath(qbm.__file__))) != SRC:
        raise SystemExit(f"qbm imported from {qbm.__file__}, not from {SRC}")
    from qbm import cli
    from qbm.errors import IntegrationFailure, SignProblemError

    import spans
    import workloads

    workload = workloads.WORKLOADS[args["workload"]]
    recorder = spans.Recorder()
    if args["trace"]:
        spans.instrument(recorder)
    cfg = workloads.load_config(workload, args["seed"])
    if args["trace"]:
        cfg.workers = 1  # spans recorded in worker processes would be lost
    out_dir = args["out_dir"]

    error = None
    t_first = time.monotonic()
    with recorder.capture_warnings(), recorder.span("qbm." + workload.command) as root:
        try:
            if workload.command == "run":
                cli.run(cfg, out_dir=out_dir)
            else:
                cli.noise_check(cfg, out_dir=out_dir)
        except (IntegrationFailure, SignProblemError) as exc:
            error = f"{type(exc).__name__}: {exc}"
    recorder.restore()
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    if error is None:
        ok, detail, primary_se = workloads.check_outputs(workload, cfg, out_dir)
    else:
        ok, detail, primary_se = False, {"error": error}, None
    result = {
        "ok": ok, "detail": detail, "t_first": t_first,
        "wall_s": root["end"] - root["start"],
        "peak_rss_mb": (self_rss + child_rss) / 1024.0,
        "traj_steps": workloads.traj_steps(workload, cfg),
        "primary_se": primary_se,
        "warnings": sum(s["counts"].get("warnings", 0) for s in recorder.spans),
        "digests": workloads.digests(out_dir),
        "env": environment(),
    }
    if args["trace"]:
        layers = spans.layer_metrics(recorder.spans, root["id"])
        layers["cli.bytes_written"] = sum(os.path.getsize(os.path.join(out_dir, f))
                                          for f in os.listdir(out_dir))
        result["layers"] = layers
        with open(args["spans"], "w") as fh:
            json.dump(recorder.spans, fh)
    print(json.dumps(result))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
