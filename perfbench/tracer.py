"""In-memory span tracer that wraps the names cbara's layers call into.

Tracing is installed from outside the package: every module attribute
of a loaded ``cbara.*`` module that *is* a traced function is replaced
by a wrapper, so a call resolved through any importing module (for
example ``cbara.engine.next_theta`` and ``cbara.adapt.next_theta``)
records a span. Methods are wrapped on their class and the process pool
through the ``multiprocessing`` name that ``cbara.harness`` uses.

A span is (name, start, end, parent): four compact arrays that stay in
memory and are written out by ``dump`` at the end. A span's self time is
its duration minus the durations of its direct children.

Forked pool workers restore the original functions, so they run
untraced; their spans are not recorded.
"""
from __future__ import annotations

import functools
import os
import resource
import statistics
import sys
import types
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# Functions wrapped by identity wherever a cbara module binds them:
# (span name, defining module, attribute, counter hook or None).
_FUNCTIONS = (
    ("datagen.draw_unit_arrays", "cbara.datagen", "draw_unit_arrays", "_after_draw"),
    ("policy.target_ratio_from_x1", "cbara.policy", "target_ratio_from_x1", None),
    ("policy.allocation_prob_raw", "cbara.policy", "_allocation_prob_raw", None),
    ("policy.derive_constants", "cbara.policy", "derive_constants", None),
    ("adapt.next_theta", "cbara.adapt", "next_theta", "_after_next_theta"),
    ("engine.run_trial", "cbara.engine", "run_trial", "_after_run_trial"),
    ("harness.collect", "cbara.harness", "collect", None),
    ("harness.summarize", "cbara.harness", "summarize", None),
    ("harness.run_replications", "cbara.harness", "run_replications", None),
    ("harness.aggregate_grid", "cbara.harness", "aggregate_grid", None),
    ("oracle.oracle_theta_star", "cbara.oracle", "oracle_theta_star", "_after_oracle"),
    ("oracle.balance_coeff_a", "cbara.oracle", "balance_coeff_a", "_after_oracle"),
    ("oracle.sigma_z_sq", "cbara.oracle", "sigma_z_sq", "_after_oracle"),
    ("oracle.ipw_asym_var", "cbara.oracle", "ipw_asym_var", "_after_oracle"),
    ("oracle.mest_covariance", "cbara.oracle", "mest_covariance", "_after_oracle"),
    ("oracle.asymptotic_report", "cbara.oracle", "asymptotic_report", None),
    ("oracle.invariant_pi_g_check", "cbara.oracle", "invariant_pi_g_check", None),
    ("cli.parse_config", "cbara.cli", "parse_config", None),
    ("cli.grid_plans", "cbara.cli", "grid_plans", None),
    ("cli.emit_tables", "cbara.cli", "emit_tables", None),
)

# Methods wrapped on their class: (span name, module, class, method, hook).
_METHODS = (
    ("estimator.FitAccumulator.add", "cbara.estimator", "FitAccumulator", "add", None),
    ("estimator.FitAccumulator.fit", "cbara.estimator", "FitAccumulator", "fit", "_after_fit"),
    ("oracle.PopulationSample", "cbara.oracle", "PopulationSample", "__init__",
     "_after_oracle"),
)

_POOL_SPAN = "harness.pool"


def _population_nbytes(pop) -> int:
    return sum(getattr(pop, f).nbytes for f in ("x1", "x2", "x3", "y1", "y0", "zstar"))


class Tracer:
    """Records spans and counters while installed; inert otherwise."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.pool_open_close_s: list[float] = []
        self.pool_child_cpu_s = 0.0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------
    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        nid = self._id(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack
        )
        clock = perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(clock())
            end.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- counter hooks (run outside the span they follow) ----------------
    def _after_draw(self, args, kwargs, result) -> None:
        self.counts["datagen.units_drawn"] += int(result[0].shape[0])

    def _after_next_theta(self, args, kwargs, result) -> None:
        mech, eta = args[0], args[3]
        if mech.kind.value == "clipped" and result is not eta:
            self.counts["adapt.next_theta.clip_binding"] += 1

    def _after_run_trial(self, args, kwargs, result) -> None:
        self.counts["engine.steps"] += args[0].n_units
        self.counts["engine.step_records"] += len(result.log)

    def _after_fit(self, args, kwargs, result) -> None:
        if not result.rank_ok:
            self.counts["estimator.fit.rank_fallback"] += 1

    def _after_oracle(self, args, kwargs, result) -> None:
        # computed, not measured: the population arrays PopulationSample
        # writes, or that an oracle quantity is handed (args[0] is the pop)
        self.counts["oracle.bytes_computed"] += _population_nbytes(args[0])

    # -- installation ----------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced name in the loaded cbara modules."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "cbara" or k.startswith("cbara."))]
        for name, mod_name, attr, hook in _FUNCTIONS:
            fn = getattr(sys.modules[mod_name], attr)
            wrapper = self.wrap(name, fn, getattr(self, hook) if hook else None)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, key, wrapper)
        for name, mod_name, cls_name, meth, hook in _METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            fn = cls.__dict__[meth]
            self._set(cls, meth, self.wrap(name, fn, getattr(self, hook) if hook else None))
        harness = sys.modules["cbara.harness"]
        real_mp = harness.multiprocessing
        tracer = self

        def pool(*args, **kwargs):
            return _TracedPool(tracer, real_mp.Pool, args, kwargs)

        self._set(harness, "multiprocessing", types.SimpleNamespace(Pool=pool))
        os.register_at_fork(after_in_child=self.restore)

    def restore(self) -> None:
        """Put the original functions back (idempotent)."""
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- output ----------------------------------------------------------
    def dump(self, path: str) -> None:
        """Write every span as arrays (names, name_id, parent, start, end)."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, durations."""
        n = len(self.start)
        out: dict[str, dict] = {}
        if n == 0:
            return out
        ids = np.frombuffer(self.name_id, dtype=np.uint16).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        has_parent = parent >= 0
        child_sum = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        # time of run_trial children per parent span (for the probe loop)
        rt = self._ids.get("engine.run_trial", -1)
        is_rt = has_parent & (ids == rt)
        rt_child = np.bincount(parent[is_rt], weights=dur[is_rt], minlength=n)
        for nid, name in enumerate(self.names):
            sel = ids == nid
            if not sel.any():
                continue
            d = dur[sel]
            out[name] = {
                "calls": int(sel.sum()),
                "total_s": float(d.sum()),
                "self_s": float((d - child_sum[sel]).sum()),
                "minus_run_trial_s": float((d - rt_child[sel]).sum()),
                "durations": d,
            }
        return out


class _TracedPool:
    """Context manager around a real pool: one span from creation to
    exit, plus open/close cost and the CPU time of reaped workers."""

    def __init__(self, tracer: Tracer, factory, args, kwargs) -> None:
        self._tracer = tracer
        self._span = tracer.begin(_POOL_SPAN)
        self._cpu0 = _children_cpu_s()
        t0 = perf_counter()
        try:
            self._pool = factory(*args, **kwargs)
        except BaseException:
            tracer.finish(self._span)
            raise
        self._open_s = perf_counter() - t0
        tracer.counts["harness.pool.created"] += 1

    def __enter__(self):
        return self._pool.__enter__()

    def __exit__(self, *exc):
        t0 = perf_counter()
        try:
            return self._pool.__exit__(*exc)
        finally:
            tr = self._tracer
            tr.pool_open_close_s.append(self._open_s + perf_counter() - t0)
            tr.pool_child_cpu_s += _children_cpu_s() - self._cpu0
            tr.finish(self._span)


def _children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _per_call(summary: dict, name: str, scale: float) -> float:
    s = summary.get(name)
    return s["total_s"] / s["calls"] * scale if s else 0.0


def quantile(values, q: int) -> float:
    """The q-th percentile (inclusive method); 0.0 for no values."""
    if len(values) < 2:
        return float(values[0]) if len(values) else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _span_quantile(summary: dict, name: str, q: int, scale: float) -> float:
    s = summary.get(name)
    return quantile(s["durations"].tolist(), q) * scale if s else 0.0


def layer_metrics(tracer: Tracer, overhead_frac: float) -> dict:
    """Every per-layer metric as {name: (value, unit)}."""
    s = tracer.summary()
    c = tracer.counts

    def calls(name: str) -> int:
        return s[name]["calls"] if name in s else 0

    def frac(num: float, den: float) -> float:
        return num / den if den else 0.0

    rt = s.get("engine.run_trial")
    pools = tracer.pool_open_close_s
    check = s.get("oracle.invariant_pi_g_check")
    fit, add = "estimator.FitAccumulator.fit", "estimator.FitAccumulator.add"
    m = {
        f"{fit}.calls": (calls(fit), "count"),
        f"{fit}.us_per_call": (_per_call(s, fit, 1e6), "us"),
        "estimator.fit.rank_fallback_frac":
            (frac(c["estimator.fit.rank_fallback"], calls(fit)), "frac"),
        f"{add}.calls": (calls(add), "count"),
        f"{add}.us_per_call": (_per_call(s, add, 1e6), "us"),
        "adapt.next_theta.calls": (calls("adapt.next_theta"), "count"),
        "adapt.next_theta.us_per_call": (_per_call(s, "adapt.next_theta", 1e6), "us"),
        "adapt.next_theta.clip_binding_frac":
            (frac(c["adapt.next_theta.clip_binding"], calls("adapt.next_theta")), "frac"),
    }
    for layer in ("policy.target_ratio_from_x1", "policy.allocation_prob_raw",
                  "policy.derive_constants", "datagen.draw_unit_arrays"):
        m[f"{layer}.calls"] = (calls(layer), "count")
        m[f"{layer}.us_per_call"] = (_per_call(s, layer, 1e6), "us")
    m.update({
        "datagen.units_drawn": (c["datagen.units_drawn"], "count"),
        "engine.run_trial.calls": (calls("engine.run_trial"), "count"),
        "engine.run_trial.us_per_step":
            (frac(rt["total_s"] * 1e6, c["engine.steps"]) if rt else 0.0, "us"),
        "engine.run_trial.self_frac":
            (frac(rt["self_s"], rt["total_s"]) if rt else 0.0, "frac"),
        "engine.run_trial.ms_p50": (_span_quantile(s, "engine.run_trial", 50, 1e3), "ms"),
        "engine.run_trial.ms_p90": (_span_quantile(s, "engine.run_trial", 90, 1e3), "ms"),
        "engine.step_records": (c["engine.step_records"], "count"),
        "harness.collect.s": (_per_call(s, "harness.collect", 1.0), "s"),
        "harness.cell_s_p50":
            (_span_quantile(s, "harness.run_replications", 50, 1.0), "s"),
        "harness.pool.created": (c["harness.pool.created"], "count"),
        "harness.pool.lifecycle_s": (_per_call(s, _POOL_SPAN, 1.0), "s"),
        "harness.pool.open_close_ms": (frac(sum(pools) * 1e3, len(pools)), "ms"),
        "harness.pool.child_cpu_s": (tracer.pool_child_cpu_s, "s"),
        "harness.summarize.us_per_call": (_per_call(s, "harness.summarize", 1e6), "us"),
    })
    for q in ("PopulationSample", "oracle_theta_star", "balance_coeff_a", "sigma_z_sq",
              "ipw_asym_var", "mest_covariance"):
        m[f"oracle.{q}.s"] = (_per_call(s, f"oracle.{q}", 1.0), "s")
    m["oracle.bytes_computed"] = (c["oracle.bytes_computed"], "bytes")
    m["oracle.invariant_pi_g_check.probe_s"] = (
        frac(check["minus_run_trial_s"], check["calls"]) if check else 0.0, "s")
    m["cli.parse_config.us"] = (_per_call(s, "cli.parse_config", 1e6), "us")
    m["cli.grid_plans.ms"] = (_per_call(s, "cli.grid_plans", 1e3), "ms")
    m["cli.emit_tables.ms"] = (_per_call(s, "cli.emit_tables", 1e3), "ms")
    m["trace.overhead_frac"] = (overhead_frac, "frac")
    return m
