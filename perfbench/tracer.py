"""Layer tracing from outside the program.

`Tracer.install` replaces every public function of homsum's layer modules
with a timing wrapper on the module itself, and `DistributionSpec.sample`
on its class, so calls across modules and within one module are both seen.
Each call becomes a span (name, start, end, parent, work) kept in compact
arrays; `work` is the amount of input the call processed (entries, rows,
values), from which the per-layer rates are computed.  `uninstall` puts
the original functions back.

Worker processes do not see wrappers installed in the parent, so a traced
pass runs its commands with one worker.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import weakref
from array import array

import numpy as np

LAYERS = ("kernels", "contractions", "moments", "bounds", "simulate", "diagnose", "reportio", "cli")
SAMPLE = "simulate.DistributionSpec.sample"
EVAL = "kernels.evaluate_sum_batch"
DENSE = "kernels.dense_tensor"


def _result_entries(args, kwargs, result):
    return result.entry_count


# work extractors: (args, kwargs, result) -> amount processed by the call
WORK = {
    "kernels.read_kernel": _result_entries,
    "kernels.generate_family": _result_entries,
    EVAL: lambda args, kwargs, result: args[0].entry_count * len(args[1]),
    SAMPLE: lambda args, kwargs, result: args[2],
    "simulate.sample_sums": lambda args, kwargs, result: args[2].n,
    "simulate.sample_vector_sums": lambda args, kwargs, result: args[2].n,
    "simulate.ks_normal": lambda args, kwargs, result: args[0].n,
    "simulate.ks_chi2": lambda args, kwargs, result: args[0].n,
    "contractions.contract": lambda args, kwargs, result: result.values.size,
    "contractions.symmetrize": lambda args, kwargs, result: args[0].values.size,
    "contractions.influence_profile": lambda args, kwargs, result: args[0].entry_count,
    "moments.exact_rademacher_distribution": lambda args, kwargs, result: (
        args[0].entry_count * 2 ** args[0].N
    ),
}


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.work = array("d")
        self._stack: list = []
        self._saved: list = []
        self._dense_seen = weakref.WeakValueDictionary()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def install(self) -> None:
        for layer in LAYERS:
            module = importlib.import_module(f"homsum.{layer}")
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    self._replace(module, attr, f"{layer}.{attr}")
        simulate = importlib.import_module("homsum.simulate")
        self._replace(simulate.DistributionSpec, "sample", SAMPLE)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _replace(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name))

    def _wrap(self, fn, name: str):
        nid = self._id(name)
        work_of = WORK.get(name)
        stack, clock = self._stack, time.perf_counter_ns
        starts, ends, parents, names, works = self.start, self.end, self.parent, self.name_id, self.work
        if name == DENSE:
            work_of = self._dense_build
        elif name == EVAL:
            tensor_id, sparse_id, dense_id = self._id(DENSE), self._id(EVAL + ".sparse"), self._id(EVAL + ".dense")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            works.append(0.0)
            ends.append(0)
            starts.append(clock())
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if work_of is not None:
                works[idx] = work_of(args, kwargs, result)
            if name == EVAL:  # the dense (GEMM) path is the one that asks for the dense tensor
                dense = any(parents[j] == idx and names[j] == tensor_id for j in range(idx + 1, len(starts)))
                names[idx] = dense_id if dense else sparse_id
                if dense:
                    works[idx] = len(args[1])
            return result

        return traced

    def _dense_build(self, args, kwargs, result) -> float:
        """1 when dense_tensor built a new array, 0 when it returned a cached one."""
        key = id(result)
        if self._dense_seen.get(key) is result:
            return 0.0
        self._dense_seen[key] = result
        return 1.0

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int64).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "work": np.frombuffer(self.work, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        """Write the spans as an .npz file; `names` maps name_id to span name."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class Spans:
    """Aggregates over the spans of one or more tracers."""

    def __init__(self, tracers):
        cols = {k: [] for k in ("name", "layer", "dur", "self", "work", "outer")}
        for t in tracers:
            a = t.arrays()
            dur = (a["end_ns"] - a["start_ns"]).astype(np.float64) * 1e-9
            has_parent = a["parent"] >= 0
            child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
            names = np.array(t.names + [""], dtype=object)[a["name_id"]]
            layer = np.array([n.split(".", 1)[0] for n in names], dtype=object)
            cols["name"].append(names)
            cols["layer"].append(layer)
            cols["dur"].append(dur)
            cols["self"].append(dur - child)
            cols["work"].append(a["work"])
            # not nested in a span of its own layer
            cols["outer"].append(~has_parent | (layer[np.maximum(a["parent"], 0)] != layer))
        self.c = {k: np.concatenate(v) for k, v in cols.items()}

    def _mask(self, name: str):
        return self.c["name"] == name

    def calls(self, name: str) -> int:
        return int(self._mask(name).sum())

    def seconds(self, name: str) -> float:
        return float(self.c["dur"][self._mask(name)].sum())

    def work(self, name: str) -> float:
        return float(self.c["work"][self._mask(name)].sum())

    def rate(self, name: str, scale: float) -> float:
        """Seconds per unit of work times `scale`; 0 when the layer did no work."""
        w = self.work(name)
        return self.seconds(name) / w * scale if w else 0.0

    def self_seconds(self, name: str) -> float:
        return float(self.c["self"][self._mask(name)].sum())

    def layer_self(self, layer: str) -> float:
        return float(self.c["self"][self.c["layer"] == layer].sum())

    def layer_outer(self, layer: str) -> float:
        """Time inside the layer, counting nested calls of the layer once."""
        return float(self.c["dur"][(self.c["layer"] == layer) & self.c["outer"]].sum())

    def dense_builds(self) -> tuple:
        m = self._mask(DENSE) & (self.c["work"] > 0)
        return int(m.sum()), float(self.c["dur"][m].sum())


def layer_metrics(pass_spans: Spans, setup_spans: Spans, passes: int) -> dict:
    """Per-layer metrics of the traced passes; counts and seconds are per pass.
    `kernels.generate_family.us_per_entry` also counts the traced set-up,
    where the workload's kernel files are generated."""
    s, p = pass_spans, float(passes)
    draws = s.work("simulate.sample_sums") + s.work("simulate.sample_vector_sums")
    stream_self = s.self_seconds("simulate.sample_sums") + s.self_seconds("simulate.sample_vector_sums")
    ks_samples = s.work("simulate.ks_normal") + s.work("simulate.ks_chi2")
    ks_seconds = s.seconds("simulate.ks_normal") + s.seconds("simulate.ks_chi2")
    gen_work = s.work("kernels.generate_family") + setup_spans.work("kernels.generate_family")
    gen_s = s.seconds("kernels.generate_family") + setup_spans.seconds("kernels.generate_family")
    builds, build_s = s.dense_builds()
    return {
        "kernels.read_kernel.us_per_entry": s.rate("kernels.read_kernel", 1e6),
        "kernels.generate_family.us_per_entry": gen_s / gen_work * 1e6 if gen_work else 0.0,
        "kernels.normalize_to_variance.s": s.seconds("kernels.normalize_to_variance") / p,
        "kernels.evaluate_sum_batch.sparse.ns_per_entry_row": s.rate(EVAL + ".sparse", 1e9),
        "kernels.evaluate_sum_batch.dense.us_per_row": s.rate(EVAL + ".dense", 1e6),
        "kernels.dense_tensor.builds": builds / p,
        "kernels.dense_tensor.s": build_s / p,
        "simulate.draws": draws / p,
        "simulate.stream_setup.us_per_draw": stream_self / draws * 1e6 if draws else 0.0,
        "simulate.law_sample.ns_per_value": s.rate(SAMPLE, 1e9),
        "simulate.ks.ns_per_sample": ks_seconds / ks_samples * 1e9 if ks_samples else 0.0,
        "contractions.contraction_norm.calls": s.calls("contractions.contraction_norm") / p,
        "contractions.contraction_norm.s": s.seconds("contractions.contraction_norm") / p,
        "contractions.contract.ns_per_value": s.rate("contractions.contract", 1e9),
        "contractions.symmetrize.calls": s.calls("contractions.symmetrize") / p,
        "contractions.symmetrize.ns_per_value": s.rate("contractions.symmetrize", 1e9),
        "contractions.chi_square_defect.s": s.seconds("contractions.chi_square_defect") / p,
        "contractions.influence_profile.us_per_entry": s.rate("contractions.influence_profile", 1e6),
        "moments.exact_rademacher_distribution.ns_per_entry_pattern": s.rate(
            "moments.exact_rademacher_distribution", 1e9
        ),
        "moments.gaussian_fourth_moment.calls": s.calls("moments.gaussian_fourth_moment") / p,
        "moments.gaussian_fourth_moment.s": s.seconds("moments.gaussian_fourth_moment") / p,
        "bounds.self_s": s.layer_self("bounds") / p,
        "diagnose.self_s": s.layer_self("diagnose") / p,
        "reportio.s": s.layer_outer("reportio") / p,
        "cli.self_s": s.layer_self("cli") / p,
    }
