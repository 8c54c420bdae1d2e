"""In-memory span tracer that wraps lbsim's layer-boundary calls from outside.

Each wrapped call records a span (name, parent span, start, end) and adds
its duration to the parent's child time, so a span's self time is its
duration minus the part its child spans cover.  Calls made once per task
(policy ``select``) are aggregated only: a record for each would hold
millions of spans in memory.  Nothing under ``src/`` is modified; the
wrappers are set on the imported modules and classes and removed again by
``uninstall``.
"""
from __future__ import annotations

import json
import sys
import time


def boundary_calls() -> list:
    """(span name, owner, attribute) for every traced call.

    The first part of a span name is its layer, one of lbsim's modules.
    These are the calls one layer makes into another.  Helpers called per
    event inside the engine (``advance_server``, ``dispatch``, ...) stay
    unwrapped on purpose: wrapping them would bury the engine's own time
    under wrapper cost.
    """
    from lbsim import agent, engine, harness, metrics, nets, policies, traffic

    policy_classes = [policies.Policy, *policies.BASELINE_POLICIES.values(), agent.SacPolicy]
    calls = [("traffic.generate", traffic, "generate"),
             ("traffic.routing_stream", traffic, "routing_stream"),
             ("engine.run_episode", engine, "run_episode")]
    calls += [(f"policies.{hook}", cls, hook) for cls in policy_classes
              for hook in ("select", "on_step", "on_episode_end") if hook in vars(cls)]
    calls += [("agent.observe", agent, "observe")]
    calls += [(f"agent.{method}", agent.SacAgent, method) for method in (
        "step", "episode_end", "train_step", "critic_update", "actor_update",
        "alpha_update", "soft_update")]
    calls += [(f"nets.{cls.__name__}.{method}", cls, method) for cls, method in (
        (nets.DenseNet, "forward"), (nets.DenseNet, "backward"), (nets.Adam, "step"),
        (nets.InputNormalizer, "normalize"), (nets.InputNormalizer, "update"))]
    calls += [(f"metrics.{fn}", metrics, fn) for fn in ("reduce_arrays", "reward", "jain")]
    calls += [(f"harness.{fn}", harness, fn) for fn in (
        "run_sweep", "run_experiment", "build_policies")]
    return calls


AGGREGATE_ONLY = {"policies.select"}


class Tracer:
    """Spans and per-name totals for one traced pass.

    ``totals[name]`` is ``[calls, total_s, self_s, raised]``.  ``observers``
    maps a span name to ``fn(args, result)``; an observer runs after its
    span closes, and its time is charged to no layer.
    """

    def __init__(self, observers=None):
        self.spans: list = []
        self.totals: dict = {}
        self.observers = observers or {}
        self._stack: list = []
        self._saved: list = []

    def install(self) -> None:
        for name, owner, attr in boundary_calls():
            fn = vars(owner)[attr]
            wrapper = self._wrap(name, fn)
            for target, key in _aliases(owner, attr, fn):
                self._saved.append((target, key, fn))
                setattr(target, key, wrapper)

    def uninstall(self) -> None:
        for target, key, fn in reversed(self._saved):
            setattr(target, key, fn)
        self._saved.clear()

    def _wrap(self, name, fn):
        stack = self._stack
        spans = self.spans
        totals = self.totals.setdefault(name, [0, 0.0, 0.0, 0])
        record = name not in AGGREGATE_ONLY
        observer = self.observers.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = len(spans) if record else -1
            if record:
                spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[1]
                totals[3] += raised
                if record:
                    spans[index] = (name, parent[0] if parent else -1, start, end)
                if observer is not None and not raised:
                    observer(args, result)
                    duration += clock() - end
                if parent is not None:
                    parent[1] += duration

        traced.__wrapped__ = fn
        return traced

    def calls(self, name: str) -> int:
        return self.totals[name][0] if name in self.totals else 0

    def total_s(self, name: str) -> float:
        return self.totals[name][1] if name in self.totals else 0.0

    def self_s(self, name: str) -> float:
        return self.totals[name][2] if name in self.totals else 0.0

    def raised(self, name: str) -> int:
        return self.totals[name][3] if name in self.totals else 0

    def layer_self_s(self) -> dict:
        """Self time summed per layer over all spans, aggregated ones included."""
        out: dict = {}
        for name, (_, _, self_time, _) in self.totals.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + self_time
        return out

    def write(self, path: str) -> None:
        """Write the recorded spans as JSON lines: id, parent, name, start, end."""
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                if span is not None:
                    name, parent, start, end = span
                    fh.write(json.dumps({"id": i, "parent": parent, "name": name,
                                         "start": start, "end": end}) + "\n")


def _aliases(owner, attr, fn):
    """The owner itself plus every lbsim module that imported ``fn`` by name."""
    yield owner, attr
    if isinstance(owner, type):
        return
    for mod_name, module in list(sys.modules.items()):
        if module is owner or (mod_name != "lbsim" and not mod_name.startswith("lbsim.")):
            continue
        for key, value in list(vars(module).items()):
            if value is fn:
                yield module, key
