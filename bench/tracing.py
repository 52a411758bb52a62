"""Spans around calls into the nkm modules, for the traced benchmark run.

Every nkm module imports its collaborators by name (``from .linalg import
spectral_scale``), so a span must be installed wherever that name is looked
up: a patched function is rebound in every loaded ``nkm`` module that holds
it, and a patched method is replaced on its class. Spans stay in memory as
``[name, start, end, parent, phase]`` lists and are reduced to per-layer
metrics when the run ends. Nothing under ``src/`` is modified on disk; the
patches live only in the benchmark process.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute inside it, span name). Methods are "Class.method".
TARGETS = [
    ("synthetic", "generate_synthetic", "synthetic.generate_synthetic"),
    ("data", "materialize_fold", "data.materialize_fold"),
    ("data", "build_windows", "data.build_windows"),
    ("data", "Preprocessor.transform", "data.transform"),
    ("model", "NkmModel.encode_rows", "model.encode_rows"),
    ("model", "NkmModel.refine", "model.refine"),
    ("model", "NkmModel.temporal_context", "model.temporal_context"),
    ("model", "NkmModel.feature_context", "model.feature_context"),
    ("model", "NkmModel.control", "model.control"),
    ("model", "NkmModel.koopman_step", "model.koopman_step"),
    ("model", "NkmModel.decode", "model.decode"),
    ("model", "NkmModel.forward", "model.forward"),
    ("model", "NkmModel.predict", "model.predict"),
    ("tensor", "Tensor.backward", "tensor.backward"),
    ("training", "train", "training.train"),
    ("training", "composite_loss", "training.composite_loss"),
    ("training", "koopman_covariances", "training.koopman_covariances"),
    ("training", "koopman_grad_closed_form", "training.koopman_grad_closed_form"),
    ("optim", "AdamW.step", "optim.adamw_step"),
    ("optim", "clip_global_norm", "optim.clip_global_norm"),
    ("optim", "ParamStore.zero_grad", "optim.zero_grad"),
    ("optim", "ParamStore.copy_values", "optim.copy_values"),
    ("linalg", "spectral_norm_differentiable", "linalg.spectral_norm_differentiable"),
    ("linalg", "spectral_scale", "linalg.spectral_scale"),
    ("linalg", "pinv", "linalg.pinv"),
    ("linalg", "power_iteration_norm", "linalg.power_iteration_norm"),
    ("edmd", "fit_dictionary", "edmd.fit_dictionary"),
    ("edmd", "RbfDictionary.lift", "edmd.lift"),
    ("edmd", "fit_edmd", "edmd.fit_edmd"),
    ("edmd", "EdmdModel.fit", "edmd.fit"),
    ("edmd", "EdmdModel.predict_windows", "edmd.predict"),
    ("analysis", "verify_bound", "analysis.verify_bound"),
]

# Per-call self time in ms: metric -> (span name, phase whose spans count).
# Layers that set-up exercises are read from the set-up phase, training
# layers from the training phase, scoring layers from the scoring phase.
PER_CALL_MS = {
    "tensor.backward_ms": ("tensor.backward", "train"),
    "model.encode_rows_ms": ("model.encode_rows", "train"),
    "model.refine_ms": ("model.refine", "train"),
    "model.temporal_context_ms": ("model.temporal_context", "train"),
    "model.feature_context_ms": ("model.feature_context", "train"),
    "model.control_ms": ("model.control", "train"),
    "model.koopman_step_ms": ("model.koopman_step", "train"),
    "model.decode_ms": ("model.decode", "train"),
    "model.forward_ms": ("model.forward", "train"),
    "training.composite_loss_ms": ("training.composite_loss", "train"),
    "training.val_loss_ms": ("training.val_loss", "train"),
    "optim.adamw_step_ms": ("optim.adamw_step", "train"),
    "optim.clip_global_norm_ms": ("optim.clip_global_norm", "train"),
    "optim.zero_grad_ms": ("optim.zero_grad", "train"),
    "optim.copy_values_ms": ("optim.copy_values", "train"),
    "linalg.spectral_norm_differentiable_ms":
        ("linalg.spectral_norm_differentiable", "train"),
    "linalg.spectral_scale_ms": ("linalg.spectral_scale", "train"),
    "linalg.pinv_ms": ("linalg.pinv", "score"),
    "linalg.power_iteration_norm_ms": ("linalg.power_iteration_norm", "score"),
    "data.transform_ms": ("data.transform", "score"),
    "data.materialize_fold_ms": ("data.materialize_fold", "setup"),
    "data.build_windows_ms": ("data.build_windows", "setup"),
    "synthetic.generate_synthetic_ms": ("synthetic.generate_synthetic", "setup"),
    "edmd.fit_dictionary_ms": ("edmd.fit_dictionary", "score"),
    "edmd.lift_ms": ("edmd.lift", "score"),
    "edmd.fit_edmd_ms": ("edmd.fit_edmd", "score"),
    "edmd.fit_ms": ("edmd.fit", "score"),
    "edmd.predict_ms": ("edmd.predict", "score"),
    "analysis.verify_bound_ms": ("analysis.verify_bound", "score"),
}

# Counts that must repeat exactly between runs with the same seed.
EXACT_COUNTS = ("tensor.tape_nodes_per_step", "tensor.tape_nodes_per_predict",
                "data.imputed_cells", "training.steps")

# metric -> unit, in the order they are printed
PER_LAYER_UNITS = {
    **{name: "ms" for name in PER_CALL_MS},
    "training.koopman_update_ms": "ms",
    "tensor.tape_nodes_per_step": "count",
    "tensor.tape_nodes_per_predict": "count",
    "model.encode_rows_calls": "count",
    "training.steps": "count",
    "data.imputed_cells": "count",
    "analysis.forward_calls": "count",
    "trace.overhead_pct": "%",
}


def tape_nodes(root) -> int:
    """Nodes reachable from `root` through the tape's parent links."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    """Records nested spans while enabled; `phase` tags each span."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, list[int]] = defaultdict(list)
        self.enabled = False
        self.phase = "setup"
        self._open: list[int] = []
        self._undo: list[tuple] = []

    def _parent_name(self) -> str | None:
        return self.spans[self._open[-1]][0] if self._open else None

    def _wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span_name = name
            if name == "training.composite_loss" and not kwargs.get("train", False):
                span_name = "training.val_loss"
            if observe is not None:
                observe(self, "before", args, None)
            parent = self._open[-1] if self._open else -1
            idx = len(self.spans)
            self.spans.append([span_name, time.perf_counter(), 0.0, parent,
                               self.phase])
            self._open.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                self._open.pop()
            if observe is not None:
                observe(self, "after", args, out)
            return out

        return traced

    def install(self) -> None:
        """Patch every target, in its defining module and in every loaded
        nkm module that imported it by name."""
        loaded = [m for n, m in list(sys.modules.items())
                  if n == "nkm" or n.startswith("nkm.")]
        for mod_name, attr, span_name in TARGETS:
            module = sys.modules[f"nkm.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._wrap(span_name, original))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(span_name, original)
            for mod in loaded:
                if getattr(mod, attr, None) is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # ---- reduction -------------------------------------------------------

    def metrics(self, overhead_pct: float) -> tuple[dict[str, float], list[str]]:
        """(per-layer metrics, list of exact counts that did not repeat)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[tuple[str, str], float] = defaultdict(float)
        calls: dict[tuple[str, str], int] = defaultdict(int)
        for i, (name, start, end, _, phase) in enumerate(self.spans):
            self_s[name, phase] += (end - start) - child[i]
            calls[name, phase] += 1

        def per_call_ms(name, phase):
            n = calls[name, phase]
            return 1e3 * self_s[name, phase] / n if n else 0.0

        out = {m: per_call_ms(*key) for m, key in PER_CALL_MS.items()}
        steps = calls["optim.adamw_step", "train"]
        koop = (self_s["training.koopman_covariances", "train"]
                + self_s["training.koopman_grad_closed_form", "train"])
        out["training.koopman_update_ms"] = 1e3 * koop / steps if steps else 0.0
        forwards = calls["model.forward", "train"]
        out["model.encode_rows_calls"] = (
            calls["model.encode_rows", "train"] / forwards if forwards else 0.0)

        # steps per traced train() call, and forwards per verify_bound call
        steps_per_call: dict[int, int] = defaultdict(int)
        forwards_per_bound: dict[int, int] = defaultdict(int)
        for name, _, _, parent, phase in self.spans:
            if parent < 0:
                continue
            parent_name = self.spans[parent][0]
            if (name == "optim.adamw_step" and parent_name == "training.train"
                    and phase == "train"):
                steps_per_call[parent] += 1
            elif name == "model.forward" and parent_name == "analysis.verify_bound":
                forwards_per_bound[parent] += 1
        self.counts["training.steps"] = list(steps_per_call.values())
        bounds = list(forwards_per_bound.values())
        out["analysis.forward_calls"] = float(np.mean(bounds)) if bounds else 0.0

        unsteady = []
        for name in EXACT_COUNTS:
            seen = self.counts.get(name, [])
            if len(set(seen)) > 1:
                unsteady.append(name)
            out[name] = float(seen[0]) if seen else 0.0
        out["trace.overhead_pct"] = overhead_pct
        return {m: out[m] for m in PER_LAYER_UNITS}, unsteady


# ---- observers: counts taken at layer boundaries, outside the span --------

def _observe_backward(tracer: Tracer, when: str, args, out) -> None:
    if when == "before" and tracer.phase == "train":
        tracer.counts["tensor.tape_nodes_per_step"].append(tape_nodes(args[0]))


def _observe_forward(tracer: Tracer, when: str, args, out) -> None:
    if when == "after" and tracer._parent_name() == "model.predict":
        tracer.counts["tensor.tape_nodes_per_predict"].append(tape_nodes(out.pred))


def _observe_transform(tracer: Tracer, when: str, args, out) -> None:
    if when == "before" and tracer.phase == "score":
        cells = int(np.count_nonzero(np.isnan(np.asarray(args[1], dtype=float))))
        tracer.counts["data.imputed_cells"].append(cells)


_OBSERVERS = {
    "tensor.backward": _observe_backward,
    "model.forward": _observe_forward,
    "data.transform": _observe_transform,
}
