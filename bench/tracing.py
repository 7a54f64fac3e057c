"""Layer trace for the sgdlab benchmark, recorded from outside the package.

``install(tracer)`` replaces the public functions of each sgdlab module with
span-recording wrappers *in every module namespace that holds them*, because
the package looks names up in different places: ``sgdlab.cli`` imports
``hitting_time_mc`` by name while ``exit_times`` calls
``streams.path_streams`` through the module.  ``uninstall`` restores the
originals.

Two kinds of record are kept in memory and written out when the run ends:

* spans, one per call of a public function: name, start, end, parent span
  and a few work counts read from the call's arguments and result;
* leaf accumulators for calls made once per simulation step (gradients,
  noise draws, boundary tests, oracle samples).  A span per step would cost
  more than the step, so these add their call count, rows and time to a
  per-kind total and to the enclosing span, whose self time excludes them.

Worker processes of ``sgdlab.cli.Pool`` are forked, so they inherit the
wrappers.  ``Pool._scatter`` is wrapped so that every chunk runs inside a
``cli.chunk`` span and ships its spans and leaf totals back to the parent
with its result.
"""

from __future__ import annotations

import dataclasses
import math
import os
import sys
import time
from collections import defaultdict

import numpy as np

# The tracer that wrappers record into.  Forked pool workers inherit it,
# which is how a chunk's records reach the copy that ships them back.
_ACTIVE = None

LEAF_KINDS = ("grad", "noise", "contains", "sample")


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs", "leaf_s")

    def __init__(self, name, start, parent, attrs=None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = attrs or {}
        self.leaf_s = 0.0  # time of top-level leaf calls made inside this span

    def as_tuple(self):
        return (self.name, self.start, self.end, self.parent, self.attrs, self.leaf_s)

    @classmethod
    def from_tuple(cls, t):
        span = cls(t[0], t[1], t[3], t[4])
        span.end = t[2]
        span.leaf_s = t[5]
        return span


class Tracer:
    """In-memory spans plus per-kind leaf totals ``[calls, rows, seconds]``."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.leaves = {kind: [0, 0, 0.0] for kind in LEAF_KINDS}
        self.leaf_depth = 0

    def open(self, name, attrs=None) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent, attrs))
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self.stack.pop()

    def add_leaf(self, kind, rows, seconds) -> None:
        acc = self.leaves[kind]
        acc[0] += 1
        acc[1] += rows
        acc[2] += seconds
        if self.leaf_depth == 0 and self.stack:
            self.spans[self.stack[-1]].leaf_s += seconds

    def to_json(self) -> dict:
        return {
            "spans": [list(s.as_tuple()) for s in self.spans],
            "leaves": {k: list(v) for k, v in self.leaves.items()},
        }


def _grad_rows(args, out) -> int:
    shape = np.shape(args[0])
    return int(shape[0]) if len(shape) >= 2 else 1


def _out_size(args, out) -> int:
    return int(np.size(out))


def _one(args, out) -> int:
    return 1


def _timed_leaf(kind, fn, rows_of, args, kwargs):
    tracer = _ACTIVE
    if tracer is None:
        return fn(*args, **kwargs)
    tracer.leaf_depth += 1
    t0 = time.perf_counter()
    try:
        out = fn(*args, **kwargs)
    finally:
        seconds = time.perf_counter() - t0
        tracer.leaf_depth -= 1
    tracer.add_leaf(kind, rows_of(args, out), seconds)
    return out


class TracedGradient:
    """Picklable stand-in for ``PotentialSpec.gradient`` that records a leaf."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, *args, **kwargs):
        return _timed_leaf("grad", self.fn, _grad_rows, args, kwargs)


def traced_potential(spec):
    """A copy of a PotentialSpec or FiniteSumSpec whose gradient is traced."""
    if hasattr(spec, "component_gradients"):
        return dataclasses.replace(spec, base=traced_potential(spec.base))
    if isinstance(spec.gradient, TracedGradient):
        return spec
    return dataclasses.replace(spec, gradient=TracedGradient(spec.gradient))


class CountingGenerator:
    """Delegating proxy around a path's ``numpy.random.Generator``.

    Draws are timed as ``noise`` leaves; the samples count is the number of
    values drawn.
    """

    def __init__(self, gen):
        self._gen = gen

    def _draw(self, method, args, kwargs):
        return _timed_leaf("noise", getattr(self._gen, method), _out_size, args, kwargs)

    def standard_normal(self, *args, **kwargs):
        return self._draw("standard_normal", args, kwargs)

    def choice(self, *args, **kwargs):
        return self._draw("choice", args, kwargs)

    def integers(self, *args, **kwargs):
        return self._draw("integers", args, kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


# ---------------------------------------------------------------------------
# Work counts read at span boundaries.
# ---------------------------------------------------------------------------


def _exit_attrs(args, kwargs, records):
    process = args[0]
    horizon = args[3] if len(args) > 3 else kwargs["horizon"]
    step = getattr(process, "dt", None) or process.eta
    max_steps = int(math.ceil(horizon / step - 1e-12))
    steps = [max_steps if r.censored else int(round(r.exit_time / step)) for r in records]
    return {
        "paths": len(records),
        "path_steps": int(sum(steps)),
        "lockstep_steps": max(steps, default=0),
        "censored": int(sum(r.censored for r in records)),
    }


def _anneal_attrs(args, kwargs, result):
    T = args[2] if len(args) > 2 else kwargs["T"]
    dt = kwargs.get("dt", 0.01)
    return {"path_steps": result.n_paths * int(math.ceil(T / dt - 1e-12))}


def _em_attrs(args, kwargs, endpoints):
    cfg = args[0]
    n, d = endpoints.shape
    steps = int(math.ceil(cfg.T / cfg.dt - 1e-12))
    return {"path_steps": n * steps, "noise_bytes": n * steps * d * 8}


def _ensemble_attrs(args, kwargs, result):
    from sgdlab.oracles import AdditiveGaussianOracle

    cfg = args[0]
    n, d = result.endpoints.shape
    fast = (
        isinstance(cfg.oracle, AdditiveGaussianOracle)
        and not callable(cfg.oracle.covariance)
        and cfg.schedule is None
    )
    return {
        "path_steps": n * cfg.steps,
        "noise_bytes": n * cfg.steps * d * 8 if fast else 0,
    }


def _run_sgd_attrs(args, kwargs, traj):
    return {"path_steps": args[0].steps}


def _enumerate_attrs(args, kwargs, out):
    fs, m = args[0], args[2]
    mode = args[3] if len(args) > 3 else kwargs.get("mode", "without_replacement")
    count = math.comb(fs.M, m) if mode == "without_replacement" else fs.M**m
    return {"batches": count}


def resolvable(points) -> list:
    """Ladder points that pass ``order_fit``'s noise-floor filter."""
    return [p for p in points if p.max_error > 0 and p.max_stderr <= 0.3 * p.max_error]


def _ladder_attrs(args, kwargs, report):
    return {"rungs": len(report.points), "resolvable": len(resolvable(report.points))}


def _write_attrs(args, kwargs, path):
    return {"bytes": os.path.getsize(path)}


def _streams_post(out):
    return [CountingGenerator(g) for g in out], {"paths": len(out)}


# (module, function, span name, attrs from (args, kwargs, result))
SPAN_TARGETS = (
    ("sgdlab.exit_times", "hitting_time_mc", "exit_times.mc", _exit_attrs),
    ("sgdlab.exit_times", "log_mean_exit_bvp_1d", "exit_times.bvp", None),
    ("sgdlab.exit_times", "anneal_experiment", "exit_times.anneal", _anneal_attrs),
    ("sgdlab.exit_times", "saddle_scaling_fit", "exit_times.scaling_fit", None),
    ("sgdlab.exit_times", "minimizer_scaling_fit", "exit_times.scaling_fit", None),
    ("sgdlab.exit_times", "kramers_predictor", "exit_times.kramers", None),
    ("sgdlab.sde", "em_endpoints", "sde.em", _em_attrs),
    ("sgdlab.sde", "flow_knots", "sde.flow", None),
    ("sgdlab.sde", "deviation_covariance", "sde.lyapunov", None),
    ("sgdlab.sde", "deviation_empirical", "sde.deviation", None),
    ("sgdlab.sde", "flow_sup_gap", "sde.sup_gap", None),
    ("sgdlab.sgd", "run_sgd_ensemble", "sgd.ensemble", _ensemble_attrs),
    ("sgdlab.sgd", "run_sgd", "sgd.run_sgd", _run_sgd_attrs),
    ("sgdlab.oracles", "covariance_report", "oracles.covariance_report", None),
    ("sgdlab.oracles", "enumerate_covariance", "oracles.enumerate", _enumerate_attrs),
    ("sgdlab.weak_error", "weak_error_mc", "weak_error.ladder", _ladder_attrs),
    ("sgdlab.weak_error", "weak_error_ladder_linear", "weak_error.ladder", _ladder_attrs),
    ("sgdlab.config", "parse_config_text", "config.parse", None),
    ("sgdlab.config", "validate_config", "config.parse", None),
    ("sgdlab.cli", "main", "cli.main", None),
) + tuple(
    ("sgdlab.reporting", name, "reporting.write", _write_attrs)
    for name in (
        "write_csv",
        "write_summary_csv",
        "write_gnuplot_dat",
        "write_exit_records_csv",
        "write_scaling_csv",
        "write_weak_error_csv",
        "write_deviation_csv",
        "write_anneal_csv",
    )
)


def _span_wrapper(fn, name, attrs_of, post=None):
    def wrapper(*args, **kwargs):
        tracer = _ACTIVE
        if tracer is None:
            return fn(*args, **kwargs)
        idx = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
            extra = {}
            if post is not None:
                out, extra = post(out)
            if attrs_of is not None:
                extra.update(attrs_of(args, kwargs, out))
            tracer.spans[idx].attrs.update(extra)
            return out
        finally:
            tracer.close(idx)

    return wrapper


class TracedChunk:
    """Picklable chunk runner: resolves the chunk function by name in the
    worker, runs it in a ``cli.chunk`` span and returns its records."""

    def __init__(self, module: str, name: str):
        self.module = module
        self.name = name

    def __call__(self, *args):
        fn = getattr(sys.modules[self.module], self.name)
        tracer = _ACTIVE
        mark = len(tracer.spans)
        leaves0 = {k: list(v) for k, v in tracer.leaves.items()}
        idx = tracer.open("cli.chunk", {"paths": args[-1] - args[-2]})
        try:
            result = fn(*args)
        finally:
            tracer.close(idx)
        if os.getpid() == tracer.pid:
            return result, None
        spans = [s.as_tuple() for s in tracer.spans[mark:]]
        leaves = {
            k: [v[i] - leaves0[k][i] for i in range(3)] for k, v in tracer.leaves.items()
        }
        return result, {"spans": spans, "mark": mark, "leaves": leaves}


def _merge_chunk(tracer: Tracer, payload, scatter_idx: int) -> None:
    """Append a worker chunk's records, re-rooted under the scatter span."""
    base = len(tracer.spans)
    mark = payload["mark"]
    for t in payload["spans"]:
        span = Span.from_tuple(t)
        span.parent = base + (span.parent - mark) if span.parent >= mark else scatter_idx
        tracer.spans.append(span)
    for kind, (calls, rows, seconds) in payload["leaves"].items():
        acc = tracer.leaves[kind]
        acc[0] += calls
        acc[1] += rows
        acc[2] += seconds


def _scatter_wrapper(orig):
    def _scatter(self, fn, n, *args):
        tracer = _ACTIVE
        if tracer is None:
            return orig(self, fn, n, *args)
        idx = tracer.open("cli.scatter", {"workers": self.workers, "paths": n})
        try:
            parts = orig(self, TracedChunk(fn.__module__, fn.__name__), n, *args)
            results = []
            for result, payload in parts:
                if payload is not None:
                    _merge_chunk(tracer, payload, idx)
                results.append(result)
            return results
        finally:
            tracer.close(idx)

    return _scatter


def _leaf_method(kind, orig, rows_of):
    def method(self, *args, **kwargs):
        return _timed_leaf(kind, orig, rows_of, (self,) + args, kwargs)

    return method


class Installation:
    """Patched attributes and their originals, restored by ``uninstall``."""

    def __init__(self):
        self.patches: list[tuple[object, str, object]] = []

    def patch(self, owner, attr, new):
        self.patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)


def install(tracer: Tracer) -> Installation:
    """Wrap sgdlab's public functions wherever they are looked up."""
    global _ACTIVE
    from sgdlab import cli, config, exit_times, oracles, potentials, streams

    inst = Installation()
    modules = [m for n, m in sorted(sys.modules.items()) if n == "sgdlab" or n.startswith("sgdlab.")]

    def patch_everywhere(orig, new):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    inst.patch(mod, attr, new)

    orig = streams.path_streams
    patch_everywhere(orig, _span_wrapper(orig, "streams.path_streams", None, _streams_post))
    for mod_name, fn_name, span_name, attrs_of in SPAN_TARGETS:
        orig = getattr(sys.modules[mod_name], fn_name)
        patch_everywhere(orig, _span_wrapper(orig, span_name, attrs_of))

    orig_builtin = potentials.builtin

    def builtin(*args, **kwargs):
        return traced_potential(orig_builtin(*args, **kwargs))

    inst.patch(config, "builtin", builtin)
    inst.patch(cli.Pool, "_scatter", _scatter_wrapper(cli.Pool._scatter))
    inst.patch(
        exit_times.Domain,
        "contains",
        _leaf_method("contains", exit_times.Domain.contains, _out_size),
    )
    for cls in (oracles.MinibatchOracle, oracles.AdditiveGaussianOracle):
        inst.patch(cls, "sample", _leaf_method("sample", cls.sample, _one))
    _ACTIVE = tracer
    return inst


def uninstall(inst: Installation) -> None:
    global _ACTIVE
    _ACTIVE = None
    for owner, attr, orig in reversed(inst.patches):
        setattr(owner, attr, orig)


# ---------------------------------------------------------------------------
# Layer metrics from one traced round.
# ---------------------------------------------------------------------------


def _covered(intervals) -> float:
    """Length of the union of intervals (pool chunks run side by side)."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts, busy time and self time.

    Busy time of a name sums its outermost spans (a name nested in itself,
    like ``reporting.write`` calling ``write_csv``, counts once); chunks that
    ran side by side in pool workers each add their own busy time.  Self
    time of a span is its duration minus the part of it that child spans
    cover and minus its top-level leaf calls.
    """
    spans = tracer.spans
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    child_s = [_covered(children[i]) for i in range(len(spans))]
    def inside(span, same):
        """Whether an ancestor of span satisfies same(ancestor)."""
        p = span.parent
        while p >= 0:
            if same(spans[p]):
                return True
            p = spans[p].parent
        return False

    busy = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    attrs = defaultdict(lambda: defaultdict(int))
    for i, s in enumerate(spans):
        dur = s.end - s.start
        self_s[s.name] += dur - child_s[i] - s.leaf_s
        if inside(s, lambda a: a.name == s.name):
            continue
        busy[s.name] += dur
        calls[s.name] += 1
        for k, v in s.attrs.items():
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                attrs[s.name][k] += v

    def module_times(prefix):
        def in_module(span):
            return span.name.split(".")[0] == prefix

        outer = sum(s.end - s.start for s in spans if in_module(s) and not inside(s, in_module))
        return outer, sum(v for n, v in self_s.items() if n.startswith(prefix + "."))

    leaves = tracer.leaves
    m: dict[str, float] = {}

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    m["streams.paths"] = attrs["streams.path_streams"]["paths"]
    m["streams.setup_s"] = busy["streams.path_streams"]
    m["streams.us_per_path"] = ratio(m["streams.setup_s"], m["streams.paths"], 1e6)
    m["streams.noise_samples"] = leaves["noise"][1]
    m["streams.noise_s"] = leaves["noise"][2]
    m["streams.ns_per_sample"] = ratio(leaves["noise"][2], leaves["noise"][1], 1e9)

    m["potentials.grad_calls"] = leaves["grad"][0]
    m["potentials.grad_rows"] = leaves["grad"][1]
    m["potentials.grad_s"] = leaves["grad"][2]
    m["potentials.ns_per_grad_row"] = ratio(leaves["grad"][2], leaves["grad"][1], 1e9)

    mc = attrs["exit_times.mc"]
    m["exit_times.mc_calls"] = calls["exit_times.mc"]
    m["exit_times.mc_s"] = busy["exit_times.mc"]
    m["exit_times.path_steps"] = mc["path_steps"]
    m["exit_times.lockstep_steps"] = mc["lockstep_steps"]
    m["exit_times.ns_per_path_step"] = ratio(m["exit_times.mc_s"], mc["path_steps"], 1e9)
    m["exit_times.us_per_lockstep_step"] = ratio(
        m["exit_times.mc_s"], mc["lockstep_steps"], 1e6
    )
    m["exit_times.contains_calls"] = leaves["contains"][0]
    m["exit_times.contains_s"] = leaves["contains"][2]
    m["exit_times.mc_self_s"] = self_s["exit_times.mc"]
    m["exit_times.censored_frac"] = ratio(mc["censored"], mc["paths"])
    m["exit_times.bvp_solves"] = calls["exit_times.bvp"]
    m["exit_times.bvp_s"] = busy["exit_times.bvp"]
    m["exit_times.ms_per_bvp"] = ratio(busy["exit_times.bvp"], calls["exit_times.bvp"], 1e3)
    m["exit_times.anneal_path_steps"] = attrs["exit_times.anneal"]["path_steps"]
    m["exit_times.anneal_s"] = busy["exit_times.anneal"]

    m["sde.em_path_steps"] = attrs["sde.em"]["path_steps"]
    m["sde.em_s"] = busy["sde.em"]
    m["sde.em_noise_mb_computed"] = attrs["sde.em"]["noise_bytes"] / 1e6
    m["sde.flow_s"] = busy["sde.flow"]

    m["sgd.ensemble_path_steps"] = attrs["sgd.ensemble"]["path_steps"]
    m["sgd.ensemble_s"] = busy["sgd.ensemble"]
    m["sgd.fallback_path_steps"] = attrs["sgd.run_sgd"]["path_steps"]
    m["sgd.fallback_s"] = busy["sgd.run_sgd"]
    m["sgd.noise_mb_computed"] = attrs["sgd.ensemble"]["noise_bytes"] / 1e6

    m["oracles.sample_calls"] = leaves["sample"][0]
    m["oracles.sample_s"] = leaves["sample"][2]
    m["oracles.enumerated_batches"] = attrs["oracles.enumerate"]["batches"]
    m["oracles.enumerate_s"] = busy["oracles.enumerate"]

    m["weak_error.rungs"] = attrs["weak_error.ladder"]["rungs"]
    m["weak_error.resolvable_rungs"] = attrs["weak_error.ladder"]["resolvable"]
    m["weak_error.s"] = busy["weak_error.ladder"]

    m["cli.runs"] = calls["cli.main"]
    m["cli.s"] = busy["cli.main"]
    scatters = [i for i, s in enumerate(spans) if s.name == "cli.scatter"]
    chunks_by_scatter = defaultdict(list)
    for s in spans:
        if s.name == "cli.chunk" and s.parent in scatters:
            chunks_by_scatter[s.parent].append(s)
    chunk_times = [s.end - s.start for i in scatters for s in chunks_by_scatter[i]]
    m["cli.pool_scatters"] = len(scatters)
    m["cli.pools_started"] = sum(1 for i in scatters if spans[i].attrs["workers"] > 1)
    m["cli.chunks"] = len(chunk_times)
    m["cli.min_chunk_paths"] = min(
        (s.attrs["paths"] for i in scatters for s in chunks_by_scatter[i]), default=0
    )
    m["cli.scatter_s"] = busy["cli.scatter"]
    m["cli.chunk_busy_s"] = sum(chunk_times)
    longest = [max((s.end - s.start for s in chunks_by_scatter[i]), default=0.0) for i in scatters]
    mean = [
        sum(s.end - s.start for s in chunks_by_scatter[i]) / len(chunks_by_scatter[i])
        for i in scatters
        if chunks_by_scatter[i]
    ]
    m["cli.pool_wait_s"] = sum(
        (spans[i].end - spans[i].start) - lo for i, lo in zip(scatters, longest)
    )
    m["cli.chunk_imbalance"] = ratio(sum(longest), sum(mean))

    m["config.parse_s"] = busy["config.parse"]
    m["reporting.files"] = calls["reporting.write"]
    m["reporting.bytes"] = attrs["reporting.write"]["bytes"]
    m["reporting.write_s"] = busy["reporting.write"]

    for prefix in ("exit_times", "sde", "sgd", "oracles", "weak_error", "cli"):
        outer, own = module_times(prefix)
        m[f"{prefix}.busy_s"] = outer
        m[f"{prefix}.self_s"] = own
    m["trace.spans"] = len(spans)
    return m
