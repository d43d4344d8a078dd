"""Outside-in tracing of the walshlab layers.

`Tracer.install` replaces every public function of the layer modules, in
every loaded walshlab module namespace that binds it and in
`experiments.RUNNERS`, with a wrapper that times the call on a shared stack;
`uninstall` puts the originals back.  Nothing under `src/` is edited.

Each wrapped call adds its duration to its caller's child time, so a
function's self time is its duration minus the time spent in wrapped
callees.  Calls into the layers above `dyadic` also record a span
(name, start, end, parent) in flat in-memory arrays; the `dyadic` helpers
are tiny and called hundreds of thousands of times, so they only add to
their function's counters.  Operation counts are computed from argument
shapes at the call boundary, before the call's clock starts, and that
bookkeeping time is kept out of every self time.

Layer self times plus the unattributed time add up to the traced wall time
by construction, so that sum is no check.  `Tracer.accounting_checks` makes
the checks that can fail.
"""

from __future__ import annotations

import gzip
import inspect
import math
import sys
import time
from array import array

import numpy as np

LAYERS = ("dyadic", "walsh", "intervals", "operators", "lattice", "experiments")
UNSPANNED_LAYERS = ("dyadic",)
# Largest share of a traced pass that may fall outside every layer: the
# harness's own loops and the top-level wrappers' bookkeeping.  It is under
# 0.1 on every full-size workload; a step whose calls go around the
# wrappers leaves far more.
UNATTRIBUTED_MAX_SHARE = 0.25

# Sub-groups of the experiments layer, by public function name.
EXPERIMENT_GROUPS = {
    "generate": (
        "random_function",
        "random_lattice_function",
        "random_interval_family",
        "rng_for",
    ),
    "driver": (
        "run_scalar_lpr",
        "run_pointwise",
        "run_vector_lpr",
        "run_lemma_square",
        "run_weak11",
        "run_adjointness",
    ),
    "basis_check": ("exhaustive_pointwise_basis_check",),
    "report": ("report_json_lines", "report_csv", "write_report"),
}

# Stat slots: calls, self time (ns), computed ops, live count, total count.
CALLS, SELF_NS, OPS, LIVE, TOTAL = range(5)


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _fwht_ops(stat, args, kwargs):
    shape = np.shape(args[0])
    n = shape[0]
    stat[OPS] += n * int(math.log2(n)) * math.prod(shape[1:]) if n > 1 else 0


def _synthesize_live(stat, args, kwargs):
    coeffs = args[0]
    stat[LIVE] += int(np.count_nonzero(coeffs))
    stat[TOTAL] += int(np.size(coeffs))


def _rad_norm_ops(stat, args, kwargs):
    components = args[0]
    mode = _arg(args, kwargs, 2, "mode", "exact")
    count = len(components)
    rows = 1 << count if mode == "exact" else int(mode.split(":", 1)[1])
    cells, dim = components[0].values.shape
    stat[OPS] += rows * count * cells * dim


def _verify_elements(stat, args, kwargs):
    stat[OPS] += _arg(args, kwargs, 2, "b") - _arg(args, kwargs, 1, "a")


def _basis_families(stat, result):
    stat[OPS] += int(result["families"])


BEFORE = {
    "walsh.fwht": _fwht_ops,
    "walsh.synthesize_values": _synthesize_live,
    "lattice.rad_norm_values": _rad_norm_ops,
    "intervals.verify_decomposition": _verify_elements,
}
AFTER = {"experiments.exhaustive_pointwise_basis_check": _basis_families}


def public_functions(module):
    """Public functions defined in `module` (not imported into it, not classes)."""
    out = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            out[name] = obj
    return out


class Spans:
    """Flat span arrays of one traced pass: name id, start, end, parent index."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")

    def __len__(self):
        return len(self.name)

    def write(self, path, names, origin_ns):
        """Write the spans as gzipped TSV, times in ns from `origin_ns`."""
        with gzip.open(path, "wt") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\n")
            for i in range(len(self.name)):
                fh.write(
                    f"{i}\t{names[self.name[i]]}\t{self.start[i] - origin_ns}\t"
                    f"{self.end[i] - origin_ns}\t{self.parent[i]}\n"
                )


class Tracer:
    """Per-function counters and spans for every public walshlab layer function."""

    def __init__(self):
        import walshlab  # noqa: F401  (loads every layer module)

        self.modules = {layer: sys.modules[f"walshlab.{layer}"] for layer in LAYERS}
        self.targets = {}  # original function object -> qualified name
        for layer, module in self.modules.items():
            for name, fn in public_functions(module).items():
                self.targets[fn] = f"{layer}.{name}"
        self.names = sorted(self.targets.values())
        self.stats = {q: [0, 0, 0, 0, 0] for q in self.names}
        self.spans = Spans()
        self.top_ns = 0
        self.top_unspanned_ns = 0
        self.nested_bookkeeping_ns = 0
        self._stack = []
        # keyed by id: namespaces hold arrays and other objects that do not hash
        self._wrappers = {id(fn): self._wrap(fn, q) for fn, q in self.targets.items()}
        self._saved = []

    def reset(self):
        """Zero every counter and start a fresh span buffer."""
        for stat in self.stats.values():
            stat[:] = [0, 0, 0, 0, 0]
        self.spans = Spans()
        self.top_ns = 0
        self.top_unspanned_ns = 0
        self.nested_bookkeeping_ns = 0

    def _wrap(self, fn, qualname):
        clock = time.perf_counter_ns
        stat = self.stats[qualname]
        stack = self._stack
        before = BEFORE.get(qualname)
        after = AFTER.get(qualname)
        spanned = qualname.split(".", 1)[0] not in UNSPANNED_LAYERS
        name_id = self.names.index(qualname)
        tracer = self

        def wrapper(*args, **kwargs):
            t_pre = clock()
            if before is not None:
                before(stat, args, kwargs)
            parent = stack[-1] if stack else None
            parent_span = parent[1] if parent is not None else -1
            spans = tracer.spans
            if spanned:
                span = len(spans.name)
                spans.name.append(name_id)
                spans.parent.append(parent_span)
                spans.start.append(0)
                spans.end.append(0)
            else:
                span = parent_span
            frame = [0, span]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stat[CALLS] += 1
                stat[SELF_NS] += dur - frame[0]
                if parent is not None:
                    bookkeeping = t0 - t_pre
                    parent[0] += dur + bookkeeping
                    tracer.nested_bookkeeping_ns += bookkeeping
                else:
                    tracer.top_ns += dur
                    if not spanned:
                        tracer.top_unspanned_ns += dur
                if spanned:
                    spans.start[span] = t0
                    spans.end[span] = t1
            if after is not None:
                after(stat, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qualname)
        return wrapper

    def install(self):
        """Bind the wrappers wherever a walshlab namespace binds a target."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for modname, module in list(sys.modules.items()):
            if modname != "walshlab" and not modname.startswith("walshlab."):
                continue
            namespace = vars(module)
            for name, obj in list(namespace.items()):
                wrapper = self._wrappers.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._saved.append((namespace, name, obj))
                    namespace[name] = wrapper
        runners = self.modules["experiments"].RUNNERS
        for kind, fn in list(runners.items()):
            wrapper = self._wrappers.get(id(fn))
            if wrapper is not None and wrapper.__wrapped__ is fn:
                self._saved.append((runners, kind, fn))
                runners[kind] = wrapper

    def uninstall(self):
        for namespace, name, obj in reversed(self._saved):
            namespace[name] = obj
        self._saved = []

    def layer_self_ns(self):
        out = {layer: 0 for layer in LAYERS}
        for qualname, stat in self.stats.items():
            out[qualname.split(".", 1)[0]] += stat[SELF_NS]
        return out

    def unattributed_ns(self, wall_ns):
        """Traced time no layer owns: outside every top-level call, plus the
        operation-count bookkeeping done inside a caller's span."""
        return wall_ns - self.top_ns + self.nested_bookkeeping_ns

    def accounting_checks(self, wall_ns):
        """Checks of one traced pass that fail when time is misattributed:

        - no function has negative self time;
        - the top-level calls fit in the wall time;
        - the top-level spans, read back from the span arrays, last as long
          as the counters say the spanned top-level calls did;
        - at most UNATTRIBUTED_MAX_SHARE of the wall time is unattributed.
        """
        spans = self.spans
        top_span_ns = sum(
            spans.end[i] - spans.start[i] for i in range(len(spans)) if spans.parent[i] < 0
        )
        return {
            "self_nonnegative": all(stat[SELF_NS] >= 0 for stat in self.stats.values()),
            "top_within_wall": 0 <= self.top_ns <= wall_ns,
            "spans_match_counters": top_span_ns + self.top_unspanned_ns == self.top_ns,
            "unattributed_share": (
                self.unattributed_ns(wall_ns) <= UNATTRIBUTED_MAX_SHARE * wall_ns
            ),
        }
