"""Span tracing installed from outside the program.

`Tracer.installed()` replaces public functions of the soilrct modules
with wrappers that record a span per call (name, start, end, parent,
thread id, thread CPU time) and restores the originals on exit.  Spans
stay in memory; `layer_metrics` reduces one traced pass to per-layer
numbers.  Nothing is installed unless a caller asks for it, so untraced
runs execute the program unmodified.
"""

import functools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from soilrct import design, estimators, harness, kernels, policy, population

#: (owner, attribute, span name).  Owners are looked up at call time by the
#: program, so patching the attribute reroutes every in-package caller.
#: `harness.generate_population` is the name harness imported, so that is
#: where the call is intercepted.
WRAPPED = (
    (harness, "run_grid", "harness.run_grid"),
    (harness, "generate_population", "population.generate_population"),
    (harness, "build_bundle", "harness.build_bundle"),
    (harness, "run_scenario", "harness.run_scenario"),
    (kernels, "scenario_kernel", "kernels.scenario_kernel"),
    (harness, "metrics_rows", "harness.metrics_rows"),
    (harness, "policy_summary", "harness.policy_summary"),
    (harness, "power_table", "harness.power_table"),
    (harness, "attenuation_table", "harness.attenuation_table"),
    (harness, "metrics_to_csv", "harness.metrics_to_csv"),
    (design.ObservedStudy, "from_csv", "design.ObservedStudy.from_csv"),
    (population.Population, "from_csv", "population.Population.from_csv"),
    (estimators, "diff_in_means", "estimators.diff_in_means"),
    (estimators, "diff_in_diffs", "estimators.diff_in_diffs"),
    (estimators, "ols_interaction", "estimators.ols_interaction"),
    (estimators, "naive_moderator", "estimators.naive_moderator"),
    (policy, "fit_per_arm", "policy.fit_per_arm"),
    (policy, "impute_population", "policy.impute_population"),
    (policy, "optimal_budgeted", "policy.optimal_budgeted"),
)

REDUCTIONS = ("harness.metrics_rows", "harness.policy_summary",
              "harness.power_table", "harness.attenuation_table")


@dataclass
class Span:
    name: str
    start: float
    parent: int
    thread: int
    end: float = 0.0
    cpu: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from every thread of one process.

    A span opened on a thread with no open span of its own (a worker of
    `run_grid`'s pool) takes as parent the innermost span open on the
    thread that created the tracer, which is the `run_grid` span.
    """

    def __init__(self, on_kernel=None):
        self.spans = []
        self._lock = threading.Lock()
        self._stacks = {}
        self._home = threading.get_ident()
        self._on_kernel = on_kernel

    def _stack(self):
        return self._stacks.setdefault(threading.get_ident(), [])

    def open(self, name) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            home = self._stacks.get(self._home, [])
            parent = home[-1] if home else -1
        span = Span(name=name, start=0.0, parent=parent,
                    thread=threading.get_ident())
        with self._lock:
            sid = len(self.spans)
            self.spans.append(span)
        stack.append(sid)
        span.cpu = time.thread_time()
        span.start = time.perf_counter()
        return sid

    def close(self, sid: int) -> None:
        span = self.spans[sid]
        span.end = time.perf_counter()
        span.cpu = time.thread_time() - span.cpu
        self._stack().pop()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if name == "kernels.scenario_kernel":
                perm = args[8]
                self.spans[sid].info.update(
                    reps=perm.shape[0], n=perm.shape[1],
                    n_pop=args[0].shape[0])
                if self._on_kernel is not None:
                    self._on_kernel(args, result)
            return result
        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name in WRAPPED:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                if isinstance(original, classmethod):
                    setattr(owner, attr,
                            classmethod(self._wrap(name, original.__func__)))
                else:
                    setattr(owner, attr, self._wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of it its child spans cover.

    Children that ran in parallel on other threads are merged first, so a
    parent waiting on a pool is charged only for time no child covers.
    """
    children = [[] for _ in spans]
    for sp in spans:
        if sp.parent >= 0:
            children[sp.parent].append(sp)
    out = []
    for sp, kids in zip(spans, children):
        covered = _union_length((max(k.start, sp.start), min(k.end, sp.end))
                                for k in kids)
        out.append(sp.dur - covered)
    return out


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]; 0.0 when empty."""
    vals = sorted(values)
    if not vals:
        return 0.0
    pos = (len(vals) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


#: Sample sizes of the `figure3` grid; one kernel metric each.
KERNEL_SIZES = (14, 140)


def layer_metrics(spans, dp_requests=(), lp_requests=()) -> dict:
    """Per-layer numbers for one traced pass.

    Roots are the CLI calls the benchmark opened (`cli.<command>`).
    `dp_requests` / `lp_requests` are the root span ids of policy requests
    that take the exact DP or the LP path, with `cells` / `gap` info.
    """
    own = self_times(spans)

    def total(name):
        return sum(s.dur for s in spans if s.name == name)

    def self_of(names):
        return sum(t for s, t in zip(spans, own) if s.name in names)

    kern = [s for s in spans if s.name == "kernels.scenario_kernel"]
    reps = sum(s.info["reps"] for s in kern)
    busy = sum(s.cpu for s in kern)
    m = {
        "kernels.busy_s": busy,
        "kernels.wait_s": sum(s.dur for s in kern) - busy,
        "kernels.replicates": reps,
    }
    for n in KERNEL_SIZES:
        sub = [s for s in kern if s.info["n"] == n]
        sub_reps = sum(s.info["reps"] for s in sub)
        m[f"kernels.us_per_replicate.n{n}"] = (
            sum(s.cpu for s in sub) / sub_reps * 1e6 if sub_reps else 0.0)
    scen = [s.dur for s in spans if s.name == "harness.run_scenario"]
    drawn = sum(s.info["reps"] * s.info["n_pop"] for s in kern)
    m.update({
        "harness.draw_s": self_of({"harness.run_scenario"}),
        "harness.draw_useful_ratio": (
            sum(s.info["reps"] * s.info["n"] for s in kern) / drawn
            if drawn else 0.0),
        "harness.scenario_s_p50": percentile(scen, 50),
        "harness.scenario_s_p90": percentile(scen, 90),
        "harness.reduce_s": self_of(set(REDUCTIONS)),
        "harness.bundle_s": total("harness.build_bundle"),
        "population.generate_s": total("population.generate_population"),
        "population.from_csv_s": total("population.Population.from_csv"),
        "design.from_csv_s": total("design.ObservedStudy.from_csv"),
        "estimators.dim_s": total("estimators.diff_in_means"),
        "estimators.did_s": total("estimators.diff_in_diffs"),
        "estimators.ols_s": total("estimators.ols_interaction"),
        "estimators.naive_s": total("estimators.naive_moderator"),
        "policy.fit_s": total("policy.fit_per_arm"),
        "policy.impute_s": total("policy.impute_population"),
    })
    budgeted = [s for s in spans if s.name == "policy.optimal_budgeted"]

    def under(roots):
        roots = set(roots)
        return sum(s.dur for s in budgeted if s.parent in roots)

    m["policy.dp_s"] = under(dp_requests)
    m["policy.dp_cells"] = sum(spans[r].info["cells"] for r in dp_requests)
    m["policy.lp_s"] = under(lp_requests)
    gaps = [spans[r].info["gap"] for r in lp_requests]
    m["policy.lp_gap_mean"] = sum(gaps) / len(gaps) if gaps else 0.0
    roots = [i for i, s in enumerate(spans) if s.name.startswith("cli.")]
    m["cli.write_s"] = (sum(own[i] for i in roots)
                        + self_of({"harness.metrics_to_csv"}))
    root_time = sum(spans[i].dur for i in roots)
    m["trace.self_frac"] = sum(own) / root_time if root_time else 0.0
    return m
