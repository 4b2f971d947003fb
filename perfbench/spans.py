"""In-memory span recorder for the benchmark's traced runs.

Spans are taken around calls into ``qbm``'s public functions by replacing the
module attributes the package itself calls through with timing wrappers, so
nothing inside ``src/`` changes.  Each span records its name, start, end,
parent and counts; spans stay in memory until the run ends.
"""

import contextlib
import functools
import time
import warnings


class Recorder:
    """Collects nested spans and attributes warnings to the innermost one."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []
        self._patched = []

    @contextlib.contextmanager
    def span(self, name, **counts):
        span = {"id": len(self.spans), "name": name, "start": self.clock(),
                "end": None, "parent": self._stack[-1]["id"] if self._stack else None,
                "counts": counts}
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span["end"] = self.clock()
            self._stack.pop()

    def wrap(self, module, attr, name, before=None, after=None):
        """Replace ``module.attr`` by a wrapper that records one span per call.

        ``before(*args, **kwargs)`` returns the span's initial counts and
        ``after(result, *args, **kwargs)`` counts to add once the call returns.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def timed(*args, **kwargs):
            counts = before(*args, **kwargs) if before else {}
            with self.span(name, **counts) as span:
                result = original(*args, **kwargs)
            if after:
                span["counts"].update(after(result, *args, **kwargs))
            return result

        self.patch(module, attr, timed)

    def patch(self, module, attr, replacement):
        """Set ``module.attr`` to ``replacement`` until :meth:`restore`."""
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def capture_warnings(self):
        """Count every warning on the innermost open span instead of printing it."""
        def record(message, category, filename, lineno, file=None, line=None):
            if self._stack:
                counts = self._stack[-1]["counts"]
                counts["warnings"] = counts.get("warnings", 0) + 1

        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = record
            yield


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total, reach = 0.0, lo
    for a, b in clipped:
        if b <= reach:
            continue
        total += b - max(a, reach)
        reach = b
    return total


def self_times(spans):
    """Span id -> duration minus the part of it that child spans cover."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"])
            - covered(children.get(s["id"], ()), s["start"], s["end"])
            for s in spans}


def layer_metrics(spans, root_id):
    """Per-layer metrics of one traced run, keyed by the names in BENCHMARK.json.

    ``root_id`` is the span around the whole ``qbm`` call; its coverage by
    named child spans is reported as ``trace.coverage``.
    """
    own = self_times(spans)

    def of(*names):
        return [s for s in spans if s["name"] in names]

    def dur(items):
        return sum(s["end"] - s["start"] for s in items)

    def count(items, key):
        return sum(s["counts"].get(key, 0) for s in items)

    ensembles = of("dynamics.run_ensemble")
    steps = count(ensembles, "traj_steps")
    dyn_self = sum(own[s["id"]] for s in ensembles)
    samples = of("preparation.sample")
    estimators = of("observables.estimate", "observables.msd")
    synth = of("noise.synthesize_batch")
    quad = of("bath.quantum_correlation")
    root = spans[root_id]
    top = [(s["start"], s["end"]) for s in spans if s["parent"] == root_id]
    root_dur = root["end"] - root["start"]
    return {
        "cli.parse_config_s": dur(of("cli.parse_config")),
        "cli.write_s": dur(of("cli.write_series_csv", "noise.dump_ensemble")),
        "bath.quantum_correlation_s": dur(quad),
        "bath.quantum_correlation_calls": len(quad),
        "bath.quad_warnings": count(quad, "warnings"),
        "noise.synthesize_s": dur(synth),
        "noise.paths": count(synth, "paths"),
        "noise.fft_length": max((s["counts"]["fft_length"] for s in synth), default=0),
        "noise.autocorr_s": dur(of("noise.empirical_autocorrelation")),
        "dynamics.run_ensemble_s": dur(ensembles),
        "dynamics.self_s": dyn_self,
        "dynamics.traj_steps": steps,
        "dynamics.ns_per_traj_step": 1e9 * dyn_self / steps if steps else 0.0,
        "dynamics.failed_trajectories": count(ensembles, "failed"),
        "preparation.sample_s": dur(samples),
        "preparation.samples": len(samples),
        "preparation.us_per_sample": 1e6 * dur(samples) / len(samples) if samples else 0.0,
        "observables.estimate_s": dur(estimators),
        "observables.ess_fraction": min((s["counts"]["ess_fraction"] for s in estimators),
                                        default=0.0),
        "reference.ensemble_s": dur([s for s in ensembles
                                     if s["counts"]["stream_tag"] == 1]),
        "reference.response_s": dur(of("reference.response")),
        "trace.coverage": covered(top, root["start"], root["end"]) / root_dur,
    }


def instrument(recorder):
    """Wrap the module attributes through which ``qbm``'s layers call each other."""
    from qbm import bath, cli, dynamics, noise, observables, preparation, reference

    def ensemble_in(spec, pot, sched, n_traj, *args, stream_tag=0, **kwargs):
        return {"stream_tag": stream_tag, "traj_steps": n_traj * sched.n_steps}

    def ess_out(series, ensemble, *args):
        return {"ess_fraction": float(min(series.effective_sample_size)) / ensemble.n_traj}

    wrap = recorder.wrap
    wrap(noise, "synthesize_batch", "noise.synthesize_batch",
         before=lambda spec, grid, statistics, rngs: {
             "paths": len(rngs), "fft_length": grid.fft_length})
    wrap(noise, "empirical_autocorrelation", "noise.empirical_autocorrelation")
    wrap(noise, "dump_ensemble", "noise.dump_ensemble")
    wrap(dynamics, "run_ensemble", "dynamics.run_ensemble", before=ensemble_in,
         after=lambda ensemble, *args, **kwargs: {"failed": len(ensemble.failed_ids)})
    wrap(observables, "estimate", "observables.estimate", after=ess_out)
    wrap(observables, "msd", "observables.msd", after=ess_out)
    wrap(reference, "response", "reference.response")
    wrap(reference, "p2_quadrature", "reference.p2_quadrature")
    wrap(reference, "sigma_analytical", "reference.sigma_analytical")
    wrap(bath, "quantum_correlation", "bath.quantum_correlation")
    wrap(cli, "parse_config", "cli.parse_config")
    wrap(cli, "write_series_csv", "cli.write_series_csv")

    # the sampler runs once per trajectory inside the callback that
    # as_intervention returns, so that callback is what gets timed
    as_intervention = preparation.as_intervention

    def traced_as_intervention(*args, **kwargs):
        callback = as_intervention(*args, **kwargs)

        def traced_callback(*cargs):
            with recorder.span("preparation.sample"):
                return callback(*cargs)
        return traced_callback

    recorder.patch(preparation, "as_intervention", traced_as_intervention)
