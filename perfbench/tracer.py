"""Span tracer that wraps qfairdeploy's public functions from outside.

Nothing under src/ knows about it: `install` replaces each traced function in
every module namespace that looks the name up (the table below), and
`leftover_references` proves afterwards that no loaded qfairdeploy module or
class still holds an unwrapped original. Spans stay in memory; the worker
writes them out when the run ends.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

# span name -> (defining module, attribute, other modules that look it up).
# A class method is "Class.method" and is patched on the class.
TRACED = {
    "pipeline.synthesize": ("pipeline", "synthesize", ("cli",)),
    "synthesis.generate_candidates": ("synthesis", "generate_candidates", ("pipeline", "toys", "")),
    "synthesis.fit_template": ("synthesis", "fit_template", ()),
    "synthesis.save_candidate_lists": ("synthesis", "save_candidate_lists", ("pipeline",)),
    "synthesis.load_candidate_lists": ("synthesis", "load_candidate_lists", ("pipeline",)),
    "agent.run_search": ("agent", "run_search", ("pipeline",)),
    "agent.step": ("agent", "DeploymentEnv.step", ()),
    "agent.train_step": ("agent", "train_step", ()),
    "agent.reward": ("agent", "DeploymentEnv.reward", ()),
    "qnn.accuracy": ("qnn", "accuracy", ("agent", "pipeline")),
    "qnn.output_distribution": ("qnn", "output_distribution", ("fairness",)),
    "device.estimate_p": ("device", "estimate_p", ("agent", "pipeline", "")),
    "device.simulate_noisy": ("device", "simulate_noisy", ("qnn",)),
    "quantum.circuit_unitary": ("quantum", "circuit_unitary", ("agent", "partition", "synthesis")),
    "quantum.simulate_state": ("quantum", "simulate_state", ("qnn", "fairness")),
    "partition.recombine": ("partition", "recombine", ("agent", "")),
    "fairness.find_bias_pairs": ("fairness", "find_bias_pairs", ("cli", "")),
    "fairness.estimate_lipschitz": ("fairness", "estimate_lipschitz", ("cli", "")),
}
LAYERS = tuple(TRACED)
FIT_K_BUCKETS = range(4)  # toy4 runs k_max 3


def _module(short: str):
    return importlib.import_module("qfairdeploy" + (f".{short}" if short else ""))


def _loaded_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "qfairdeploy" or name.startswith("qfairdeploy."))]


def _annotate(name: str, args, result) -> dict | None:
    if name == "synthesis.fit_template":
        return {"k": args[0].k_cnots, "accepted": result is not None}
    if name == "fairness.estimate_lipschitz":
        return {"pairs": result.pairs_examined}
    return None


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name, start, parent):
        self.name, self.start, self.end, self.parent, self.info = name, start, None, parent, None


class Tracer:
    """Records nested spans while `active`; one thread, so a stack gives parents."""

    def __init__(self):
        self.runs: list[list[Span]] = []
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.active = False
        self._originals: dict[str, object] = {}

    def begin(self) -> None:
        """Start recording a new traced call; earlier ones stay in `runs`."""
        self.spans, self._stack = [], []
        self.runs.append(self.spans)

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn under a span called `name` and return its result."""
        if not self.active:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        rec = Span(name, time.perf_counter(), self._stack[-1] if self._stack else None)
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            rec.end = time.perf_counter()
        rec.info = _annotate(name, args, result)
        return result

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    def install(self) -> None:
        """Wrap every function in TRACED at its definition and lookup sites."""
        for home, _, sites in TRACED.values():  # import first: an import copies names
            for site in (home, *sites):
                _module(site)
        for name, (home, attr, sites) in TRACED.items():
            owner = _module(home)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._originals[name] = orig
                setattr(cls, meth, self._wrap(name, orig))
                continue
            orig = getattr(owner, attr)
            self._originals[name] = orig
            wrapped = self._wrap(name, orig)
            for site in (home, *sites):
                mod = _module(site)
                if getattr(mod, attr, None) is not orig:
                    raise RuntimeError(f"trace table is stale: qfairdeploy.{site}.{attr} "
                                       f"is not {home}.{attr}")
                setattr(mod, attr, wrapped)

    def leftover_references(self) -> list[str]:
        """Every loaded qfairdeploy namespace or class attribute that still
        refers to an unwrapped traced function."""
        originals = {id(f): n for n, f in self._originals.items()}
        found = []
        for mod in _loaded_modules():
            for key, value in vars(mod).items():
                if id(value) in originals:
                    found.append(f"{mod.__name__}.{key} ({originals[id(value)]})")
                if inspect.isclass(value) and value.__module__.startswith("qfairdeploy"):
                    for ckey, cval in vars(value).items():
                        cval = getattr(cval, "__func__", cval)
                        if id(cval) in originals:
                            found.append(f"{mod.__name__}.{key}.{ckey} ({originals[id(cval)]})")
        return sorted(set(found))

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for run, spans in enumerate(self.runs):
                for i, s in enumerate(spans):
                    fh.write(json.dumps({"run": run, "id": i, "name": s.name, "start": s.start,
                                         "end": s.end, "parent": s.parent, "info": s.info}) + "\n")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer calls, total and self time, plus the derived counters."""
    dur = [s.end - s.start for s in spans]
    child_time = [0.0] * len(spans)
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            child_time[s.parent] += dur[i]
            children[s.parent].append(s.name)
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.s"] = 0.0
        out[f"{layer}.self_s"] = 0.0
    for k in FIT_K_BUCKETS:
        out[f"synthesis.fit_template.k{k}.s"] = 0.0
    accepted = misses = cache_hits = pairs = 0
    miss_s = 0.0
    for i, s in enumerate(spans):
        if s.name not in TRACED:
            continue
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.s"] += dur[i]
        out[f"{s.name}.self_s"] += dur[i] - child_time[i]
        if s.name == "synthesis.fit_template":
            accepted += s.info["accepted"]
            out[f"synthesis.fit_template.k{s.info['k']}.s"] += dur[i]
        elif s.name == "agent.reward" and children[i]:
            misses += 1  # a cached reward returns without touching any layer
            miss_s += dur[i]
        elif s.name == "pipeline.synthesize" and "synthesis.load_candidate_lists" in children[i]:
            cache_hits += 1
        elif s.name == "fairness.estimate_lipschitz":
            pairs += s.info["pairs"]
    fits, rewards = out["synthesis.fit_template.calls"], out["agent.reward.calls"]
    out["pipeline.synthesize.cache_hits"] = cache_hits
    out["pipeline.reevaluations"] = out["qnn.accuracy.calls"] - misses
    out["synthesis.fit_template.accepted"] = accepted
    out["synthesis.fit_template.accept_ratio"] = accepted / fits if fits else 0.0
    out["agent.reward.misses"] = misses
    out["agent.reward.hit_ratio"] = (rewards - misses) / rewards if rewards else 0.0
    out["agent.reward.miss_s"] = miss_s
    out["fairness.pairs_examined"] = pairs
    return out
