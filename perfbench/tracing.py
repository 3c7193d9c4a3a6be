"""Span tracing installed from outside the tqsf source.

`Tracer.install()` replaces functions at each layer boundary, in every
``tqsf.*`` module namespace that holds them and on class attributes, with
wrappers that record a span: name, start, end, parent span and request id.
`Tracer.uninstall()` restores the originals. Spans stay in memory until
`write()`; `end()` reduces one request's spans to per-layer figures. A
layer is named by its module (``tqsf.spin`` -> ``spin``); a span's self
time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "states", "filtering", "evolution", "spin", "statevector", "verification")

# Functions wrapped with a span, by module. "Class.method" patches the class.
SPANNED = {
    "cli": ("run_experiment", "_sample_register_counts", "_run_sequential",
            "write_json", "write_csv"),
    "states": ("preset_state", "load_amplitudes", "random_state"),
    "filtering": ("run_qpe", "qft", "_check_register", "_embed", "_extract_system",
                  "method_a", "method_b", "method_c_deferred", "method_c_counts",
                  "method_a_final_state", "method_b_final_state",
                  "method_c_deferred_final_state", "decode_outcome", "_decode_b",
                  "SequentialPathSampler.sample"),
    "evolution": ("apply_controlled_phase_unitary", "apply_exact", "apply_trotter",
                  "apply_swap_rotation", "_controlled_swap_rotation", "_hamming_phases",
                  "_dense_unitary", "_support_operator", "controlled_step_gate"),
    "spin": ("spectrum", "eigen_oracle", "project_SM", "_joint_projectors",
             "TranspositionSum.to_dense", "TranspositionSum.dense_on_support"),
    "statevector": ("_apply_matrix", "apply_gate", "apply_controlled", "_marginal",
                    "sample_counts", "measure"),
}
GENERATORS = {"filtering": ("_enumerate_register_outcomes",)}

# lru_caches whose cache_info() deltas are reported per request.
CACHES = {
    "spin.eigen_oracle": ("spin", "eigen_oracle"),
    "spin.spectrum": ("spin", "spectrum"),
    "evolution.dense_unitary": ("evolution", "_dense_unitary"),
}

# Inclusive-time metrics: the outermost spans of these names, per request.
INCLUSIVE = {
    "cli.resample_s": ("cli._sample_register_counts",),
    "cli.write_s": ("cli.write_json", "cli.write_csv"),
    "states.load_s": ("states.load_amplitudes", "states.preset_state"),
    "filtering.enumerate_decode_s": ("filtering._enumerate_register_outcomes",
                                     "filtering.decode_outcome", "filtering._decode_b"),
    "filtering.sampler_s": ("filtering.SequentialPathSampler.sample",),
    "spin.spectrum_s": ("spin.spectrum",),
    "spin.eigen_oracle_s": ("spin.eigen_oracle",),
    "spin.project_SM_s": ("spin.project_SM",),
    "statevector.marginal_s": ("statevector._marginal",),
}

# Count metrics: number of spans of these names, per request.
COUNTED = {
    "filtering.final_state_sims": ("filtering.method_a_final_state",
                                   "filtering.method_b_final_state",
                                   "filtering.method_c_deferred_final_state"),
    "filtering.qpe_blocks": ("filtering.run_qpe",),
    "filtering.sampler_shots": ("filtering.SequentialPathSampler.sample",),
    "evolution.controlled_unitary_calls": ("evolution.apply_controlled_phase_unitary",),
    "statevector.calls": ("statevector._apply_matrix", "statevector._marginal"),
}

BYTES_PER_AMPLITUDE_PASS = 16 * 2  # complex128 read once and written once


def _apply_matrix_bytes(amps, num_qubits, matrix, targets, controls=(), control_values=()):
    return (1 << (num_qubits - len(controls))) * BYTES_PER_AMPLITUDE_PASS


def _marginal_bytes(state, qubits):
    return (1 << state.num_qubits) * BYTES_PER_AMPLITUDE_PASS


BYTES = {"statevector._apply_matrix": _apply_matrix_bytes,
         "statevector._marginal": _marginal_bytes}


class Tracer:
    """Records spans from wrappers around tqsf functions, one request at a time."""

    def __init__(self):
        # span: (parent index, request id, name, start, end, bytes moved)
        self.spans: list = []
        self._stack: list[int] = []
        self._request = None
        self._patches: list = []
        self.branch = Counter()  # (request, "calls" | "misses")
        self.caches = {}
        for key, (mod, attr) in CACHES.items():
            fn = getattr(importlib.import_module(f"tqsf.{mod}"), attr, None)
            if hasattr(fn, "cache_info"):
                self.caches[key] = fn

    # -- spans ---------------------------------------------------------------

    def _open(self):
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid

    def _close(self, sid, name, start, nbytes=0):
        end = perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[sid] = (parent, self._request, name, start, end, nbytes)

    def _spanned(self, name, fn):
        size = BYTES.get(name)

        def traced(*args, **kwargs):
            sid = self._open()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid, name, start, size(*args, **kwargs) if size else 0)

        return functools.update_wrapper(traced, fn)

    def _generator(self, name, fn):
        step = self._spanned(name, next)

        def traced(*args, **kwargs):
            gen = iter(fn(*args, **kwargs))
            while True:
                try:
                    item = step(gen)
                except StopIteration:
                    return
                yield item

        return functools.update_wrapper(traced, fn)

    def _branch_counter(self, name, fn):
        def traced(sampler, prefix, node):
            self.branch[(self._request, "calls")] += 1
            if prefix not in getattr(sampler, "_children", ()):
                self.branch[(self._request, "misses")] += 1
            return fn(sampler, prefix, node)

        return functools.update_wrapper(traced, fn)

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        """Replace every traced function wherever a tqsf module refers to it.

        Names the program no longer defines are skipped; their figures read 0.
        """
        if self._patches:
            return
        verification = importlib.import_module("tqsf.verification")
        targets = [(layer, name, self._spanned)
                   for layer, names in SPANNED.items() for name in names]
        targets += [("verification", name, self._spanned) for name in vars(verification)
                    if name.startswith("check_") or name == "run_verification"]
        targets += [(layer, name, self._generator)
                    for layer, names in GENERATORS.items() for name in names]
        targets.append(("filtering", "SequentialPathSampler._branch", self._branch_counter))
        replacements = {}  # id(original) -> (original, wrapper)
        for layer, name, wrap in targets:
            owner = importlib.import_module(f"tqsf.{layer}")
            *path, attr = name.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = None if owner is None else vars(owner).get(attr)
            if original is None:
                continue
            wrapper = wrap(f"{layer}.{name}", original)
            if path:
                self._patch(owner, attr, wrapper)
            else:
                replacements[id(original)] = (original, wrapper)
        modules = [importlib.import_module(f"tqsf.{m}") for m in LAYERS]
        for module in [importlib.import_module("tqsf"), *modules]:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- requests ------------------------------------------------------------

    def begin(self, request_id) -> None:
        """Open the root span of a request; every span until `end` belongs to it."""
        self._request = request_id
        self._cache_start = self._cache_counts()
        self._root = self._open()
        self._root_start = perf_counter()

    def end(self) -> dict:
        """Close the request's root span and return its per-layer figures."""
        self._close(self._root, "request", self._root_start)
        cache_end = self._cache_counts()
        request_id, self._request = self._request, None
        spans = dict(enumerate(self.spans[self._root:], self._root))
        child_time = defaultdict(float)
        for parent, _, _, start, end, _ in spans.values():
            child_time[parent] += end - start
        out: dict = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        names = Counter()
        moved = 0
        wall = covered = 0.0
        for sid, (parent, _, name, start, end, nbytes) in spans.items():
            names[name] += 1
            moved += nbytes
            if name == "request":
                wall = end - start
                covered = child_time[sid]
                continue
            out[name.split(".", 1)[0] + ".self_s"] += end - start - child_time[sid]
        for metric, group in INCLUSIVE.items():
            out[metric] = sum(
                end - start for sid, (parent, _, name, start, end, _) in spans.items()
                if name in group and not self._has_ancestor(spans, parent, group)
            )
        for metric, group in COUNTED.items():
            out[metric] = sum(names[name] for name in group)
        out["verification.checks"] = sum(
            c for name, c in names.items() if name.startswith("verification.check_")
        )
        out["statevector.gib_moved"] = moved / 2**30
        out["filtering.branch_calls"] = self.branch[(request_id, "calls")]
        out["filtering.branch_misses"] = self.branch[(request_id, "misses")]
        for key in CACHES:
            before, after = self._cache_start.get(key), cache_end.get(key)
            out[f"{key}_hits"] = after.hits - before.hits if after else 0
            out[f"{key}_misses"] = after.misses - before.misses if after else 0
        out["trace.coverage_ratio"] = covered / wall if wall else 0.0
        out["trace.spans"] = len(spans)
        return out

    def _cache_counts(self) -> dict:
        return {key: fn.cache_info() for key, fn in self.caches.items()}

    @staticmethod
    def _has_ancestor(spans, sid, group) -> bool:
        while sid in spans:
            parent, _, name, _, _, _ = spans[sid]
            if name in group:
                return True
            sid = parent
        return False

    def write(self, path, header: dict) -> None:
        """One JSON header line, then one line per span: [id, parent, request,
        name, start, end, bytes]."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, span in enumerate(self.spans):
                if span is not None:
                    fh.write(json.dumps([sid, *span]) + "\n")
