"""Span tracer for the per-layer numbers, installed from outside `blockenc`.

`install()` replaces the public functions listed in LAYERS, wherever a
`blockenc` module holds a reference to them, with wrappers that record a span
(name, layer, parent span, start, end, operation).  It also counts calls to
a few numeric kernels.  Nothing under `src/` changes; the wrappers only
observe arguments and return values.

A layer's self time is the time its spans cover minus the time covered by
their direct child spans, so the self times of one operation add up to its
root span (`harness.run_experiment`).
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

import numpy as np
import scipy.linalg

import blockenc.harness  # noqa: F401  (imports every blockenc module)
from blockenc import vtime
from blockenc.encoding import BlockEncoding
from blockenc.kptree import KPTree

# layer metric -> (module, public name) pairs whose spans it owns
LAYERS = {
    "harness.self_s": [("harness", "run_experiment")],
    "mmio.read_s": [("mmio", "read_matrix"), ("mmio", "read_vector")],
    "kptree.build_s": [("kptree", "KPTree.from_matrix"), ("kptree", "KPTree.from_matrix_market"),
                       ("kptree", "power_trees")],
    "encoding.from_kp_s": [("encoding", "from_kp"), ("encoding", "from_kp_weighted")],
    "encoding.encode_s": [("encoding", "encode"), ("encoding", "from_sparse_access")],
    "encoding.compose_s": [("encoding", n) for n in (
        "product", "amplify", "preamplified_product", "complement", "lcu", "compact", "restrict")],
    "encoding.apply_s": [("encoding", "apply_to_state")],
    "linalg.dilation_s": [("linalg", "unitary_dilation")],
    "linalg.norm_s": [("linalg", "spectral_norm")],
    "hamsim.self_s": [("hamsim", "block_ham_sim"), ("hamsim", "negative_power"),
                      ("hamsim", "positive_power")],
    "vtime.vtaa_s": [("vtime", "build_vtaa")],
    "vtime.mindful_s": [("vtime", "mindful_amplify")],
    "vtime.ae_s": [("vtime", "ae_multiplicative"), ("vtime", "amplitude_estimate")],
    "solvers.self_s": [("solvers", n) for n in (
        "qls_solve", "naive_solve", "qls_norm_estimate", "variable_time_apply",
        "pseudoinverse_state", "negative_power_solve", "singular_value_estimation",
        "qls_from_data_structure")],
    "regression.self_s": [("regression", "wls_solve"), ("regression", "gls_solve"),
                          ("regression", "classical_beta"),
                          ("regression", "RegressionProblem.from_json")],
    "network.self_s": [("network", n) for n in (
        "dissipated_power", "effective_resistance", "reference_dissipated_power",
        "parse_edge_list", "build_network")],
}

# call counts reported per operation: metric -> layer whose spans are counted
SPAN_COUNTS = {
    "linalg.dilation_calls": "linalg.dilation_s",
    "linalg.norm_calls": "linalg.norm_s",
    "hamsim.calls": "hamsim.self_s",
    "vtime.ae_calls": "vtime.ae_s",
}

_MB = 1024.0 * 1024.0


class Tracer:
    """Records spans; with `ae_memory`, also tracemalloc around amplitude estimation.

    tracemalloc traces every allocation and slows amplitude estimation several
    times over, so run.py measures `vtime.ae_retained_mb` in a process of its
    own and takes every other layer metric from a process without it.
    """

    def __init__(self, ae_memory: bool = False):
        self.ae_memory = ae_memory
        self.spans = []  # [op, name, layer, parent, start, end]
        self.open = []  # indices of spans still running
        self.op = -1
        self.kernel_calls = Counter()
        self.unitary_bytes = 0
        self.node_touches = 0
        self.ae_retained_bytes = 0
        self._seen = {}  # id -> object, for the current operation
        self._gpe = None

    # -- instrumentation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "blockenc" or name.startswith("blockenc.")]
        # a target a later version of blockenc no longer has is skipped, and
        # its layer then reads 0
        for layer, targets in LAYERS.items():
            for module, name in targets:
                owner = sys.modules.get(f"blockenc.{module}")
                if "." in name:
                    cls_name, attr = name.split(".")
                    method = vars(getattr(owner, cls_name, object)).get(attr)
                    if isinstance(method, classmethod):
                        setattr(getattr(owner, cls_name), attr,
                                classmethod(self._wrap(layer, name, method.__func__)))
                elif callable(getattr(owner, name, None)):
                    fn = getattr(owner, name)
                    self._replace(modules, fn, self._wrap(layer, name, fn))
        self._gpe = getattr(vtime, "gpe_split", None)
        if self._gpe is not None:
            self._replace(modules, self._gpe, self._count("gpe_split", self._gpe))
        np.linalg.eigh = self._count("eigh", np.linalg.eigh)
        scipy.linalg.null_space = self._count("null_space", scipy.linalg.null_space)

    @staticmethod
    def _replace(modules, original, replacement) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)

    def _count(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.kernel_calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _wrap(self, layer, name, fn):
        is_ae = self.ae_memory and layer == "vtime.ae_s"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self.open[-1] if self.open else -1
            span = [self.op, name, layer, parent, 0.0, 0.0]
            self.spans.append(span)
            self.open.append(idx)
            measure_ae = is_ae and not tracemalloc.is_tracing()
            if measure_ae:
                tracemalloc.start()
            span[4] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                self.open.pop()
                if measure_ae:
                    self.ae_retained_bytes += tracemalloc.get_traced_memory()[0]
                    tracemalloc.stop()
            self._observe(out)
            return out
        return traced

    def _observe(self, out) -> None:
        for item in out if isinstance(out, tuple) else (out,):
            if id(item) in self._seen:
                continue
            if isinstance(item, BlockEncoding):
                # a stored array only: reading a computed property would
                # build the array the metric is meant to price
                stored = getattr(item, "__dict__", {}).get("unitary")
                self.unitary_bytes += getattr(stored, "nbytes", 0)
            elif isinstance(item, KPTree):
                self.node_touches += item.node_touches
            else:
                continue
            self._seen[id(item)] = item

    def begin_op(self, op: int) -> None:
        self.op = op
        self._seen.clear()

    # -- results --------------------------------------------------------------

    def gpe_cache(self) -> tuple[int, int]:
        if not hasattr(self._gpe, "cache_info"):
            return 0, 0
        info = self._gpe.cache_info()
        return info.hits, info.misses

    def metrics(self, ops: int, gpe_before: tuple[int, int]) -> dict:
        """Per-operation layer metrics over every span recorded so far."""
        self_s = defaultdict(float)
        calls = Counter()
        for _op, _name, layer, parent, start, end in self.spans:
            dur = end - start
            self_s[layer] += dur
            calls[layer] += 1
            if parent >= 0:
                self_s[self.spans[parent][2]] -= dur
        out = {layer: self_s[layer] / ops for layer in LAYERS}
        out.update({m: calls[layer] / ops for m, layer in SPAN_COUNTS.items()})
        hits, misses = self.gpe_cache()
        lookups = (hits - gpe_before[0]) + (misses - gpe_before[1])
        out.update({
            "kptree.node_touches": self.node_touches / ops,
            "encoding.null_space_calls": self.kernel_calls["null_space"] / ops,
            "encoding.unitary_mb": self.unitary_bytes / _MB / ops,
            "linalg.eigh_calls": self.kernel_calls["eigh"] / ops,
            "vtime.gpe_calls": self.kernel_calls["gpe_split"] / ops,
            "vtime.gpe_hit_ratio": (hits - gpe_before[0]) / lookups if lookups else 0.0,
            "vtime.ae_retained_mb": self.ae_retained_bytes / _MB / ops,
        })
        return out

    def span_records(self) -> list[dict]:
        return [dict(zip(("op", "name", "layer", "parent", "start", "end"), s))
                for s in self.spans]
