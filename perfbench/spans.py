"""Span recorder for the traced benchmark run.

The tracer wraps public netsde callables, from outside the package, at the
names their callers look up, and records one span per call with its name,
start, end and parent.  Calls made once per time step (``Stepper.step``,
``IncrementSampler.__call__`` and the drift and diffusion callables a
``Stepper`` holds) are aggregated in memory per name: count, durations and
self times.  ``uninstall`` puts every original back.
"""

from __future__ import annotations

import resource
import statistics
import time
from array import array

# a span's children may not cover more than its own duration; allow for the
# clock's resolution when comparing the two
_CLOCK_SLACK_S = 1e-6


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Frame:
    __slots__ = ("name", "index", "child_s")

    def __init__(self, name, index):
        self.name = name
        self.index = index
        self.child_s = 0.0


class Tracer:
    """Records spans at the layer boundaries it is asked to wrap."""

    def __init__(self):
        self.spans = []      # full spans: dicts with name, start, end, parent, child_s, ...
        self.per_step = {}   # name -> {"durations": array, "self": array}
        self.violations = []
        self._stack = []
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name, per_step=False, on_result=None):
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            if per_step:
                index = None
            else:
                index = len(tracer.spans)
                tracer.spans.append({
                    "name": name, "parent": parent.index if parent else None,
                    "rss_before_mb": _maxrss_mb()})
            frame = _Frame(name, index)
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer._close(frame, parent, start, end)
            if on_result is not None:
                tracer.spans[index].update(on_result(result))
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, frame, parent, start, end):
        duration = end - start
        if parent is not None:
            parent.child_s += duration
        if frame.child_s > duration + _CLOCK_SLACK_S:
            self.violations.append(
                f"{frame.name}: children cover {frame.child_s:.6g} s of {duration:.6g} s")
        if frame.index is None:
            agg = self.per_step.get(frame.name)
            if agg is None:
                agg = self.per_step[frame.name] = {"durations": array("d"), "self": array("d")}
            agg["durations"].append(duration)
            agg["self"].append(duration - frame.child_s)
        else:
            self.spans[frame.index].update(
                start=start, end=end, child_s=frame.child_s,
                rss_after_mb=_maxrss_mb())

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` as a recorded span (the root span of a traced run)."""
        return self._wrap(fn, name)(*args, **kwargs)

    # -- installation ------------------------------------------------------

    def patch(self, owner, attr, name, per_step=False, on_result=None):
        original = getattr(owner, attr)
        setattr(owner, attr, self._wrap(original, name, per_step, on_result))
        self._undo.append((owner, attr, original))

    def install(self):
        """Wrap the netsde boundaries the per-layer metrics are built from."""
        import netsde.analysis as analysis
        import netsde.cli as cli
        import netsde.config as config
        from netsde.noise import IncrementSampler
        from netsde.sde import Stepper

        snapshot = lambda trajs: {"snapshot_bytes": sum(t.states.nbytes for t in trajs)}
        self.patch(cli, "parse_config", "config.parse_config")
        self.patch(cli, "build_model", "config.build_model")
        self.patch(config, "assemble_form", "assembly.assemble_form")
        self.patch(config, "white_noise_model", "noise.factor")
        self.patch(config, "colored_noise_operator", "noise.factor")
        for module in (cli, analysis):
            self.patch(module, "run_trajectories", "analysis.run_trajectories",
                       on_result=snapshot)
        self.patch(cli, "estimate_holder_exponent", "analysis.estimate_holder_exponent")
        self.patch(cli, "estimate_strong_order", "analysis.estimate_strong_order")
        self.patch(analysis, "holder_exponent_from_paths", "analysis.holder_exponent_from_paths")
        self.patch(Stepper, "step", "sde.step", per_step=True)
        self.patch(IncrementSampler, "__call__", "noise.draw", per_step=True)

        tracer = self
        original_init = Stepper.__init__

        def init(stepper, *args, **kwargs):
            original_init(stepper, *args, **kwargs)
            # the callables a Stepper holds are per-instance attributes
            if stepper.drift is not None:
                stepper.drift = tracer._wrap(stepper.drift, "sde.drift", per_step=True)
            if stepper.diffusion is not None:
                stepper.diffusion = tracer._wrap(stepper.diffusion, "sde.diffusion",
                                                 per_step=True)

        Stepper.__init__ = init
        self._undo.append((Stepper, "__init__", original_init))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reduction ---------------------------------------------------------

    def _full(self, *names):
        return [s for s in self.spans if s["name"] in names]

    def _count(self, name):
        return len(self.per_step.get(name, {"durations": []})["durations"])

    def _median_us(self, name, key="durations"):
        values = self.per_step.get(name, {}).get(key)
        return (statistics.median(values) * 1e6 if values else 0.0), len(values or ())

    def layer_metrics(self) -> dict:
        """Per-layer values with their base counts, as ``name -> (value, count)``.

        ``analysis.march_self_s`` and ``cli.write_s`` are self times: the
        span's duration minus the part its child spans cover.
        """
        def total(spans, key=None):
            return sum(((s["end"] - s["start"]) - (s[key] if key else 0.0) for s in spans), 0.0)

        factor = self._full("noise.factor")
        # steps and draws are the march spans' only recorded children
        march = self._full("analysis.run_trajectories", "analysis.estimate_strong_order")
        root = self._full("cli.run_command")
        snapshots = self._full("analysis.run_trajectories")
        return {
            "config.parse_s": (total(self._full("config.parse_config")),
                               len(self._full("config.parse_config"))),
            "assembly.assemble_s": (total(self._full("assembly.assemble_form")),
                                    len(self._full("assembly.assemble_form"))),
            "noise.factor_s": (total(factor), len(factor)),
            "noise.factor_peak_mb": (max((s["rss_after_mb"] - s["rss_before_mb"]
                                          for s in factor), default=0.0), len(factor)),
            "noise.draws": (self._count("noise.draw"), self._count("noise.draw")),
            "noise.draw_us": self._median_us("noise.draw"),
            "sde.steps": (self._count("sde.step"), self._count("sde.step")),
            "sde.step_us": self._median_us("sde.step"),
            "sde.drift_us": self._median_us("sde.drift"),
            "sde.diffusion_us": self._median_us("sde.diffusion"),
            "sde.step_self_us": self._median_us("sde.step", key="self"),
            "analysis.march_self_s": (total(march, key="child_s"), len(march)),
            "analysis.reduce_s": (total(self._full("analysis.holder_exponent_from_paths")),
                                  len(self._full("analysis.holder_exponent_from_paths"))),
            "analysis.snapshot_mb": (sum(s.get("snapshot_bytes", 0) for s in snapshots)
                                     / 2 ** 20, len(snapshots)),
            "cli.write_s": (total(root, key="child_s"), len(root)),
        }
