"""Traced mode: spans around rrkit's public phase functions.

The tracer wraps each function in PHASES and rebinds the wrapper under
every name an `rrkit` module holds for it (modules import one another's
functions with `from .automata import X`, so each binding is patched).
Each call records a span: function, op id, parent span, start, end, a
size read from the return value, and whether an exception left it. Spans
stay in memory; the run writes them out when it ends. Nothing inside
`src/rrkit` changes. Tiny hot helpers (`word_to_text`, `merge_alphabets`,
`widen_*`, `run`) stay unwrapped to keep the overhead small.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

PHASES = {
    "cli": ("main",),
    "classify": ("classify", "verify_easy", "verify_witness"),
    "cover": ("cover", "surjection_to_star", "verify_cover", "cover_gap"),
    "transducer": ("compose_dfst", "image_nfa", "dfst_to_text"),
    "rr": ("solve_rr", "solve_rr_nfa", "solve_rr_bounded_detail"),
    "automata": ("trim", "condense", "determinize", "product_intersect", "shortest_word",
                 "complement", "inclusion_counterexample", "separating_word",
                 "canonical_nfa", "canonical_dfa", "parse_automaton", "dfa_to_text"),
}


def _states(result, args):
    return len(result.states)


# Sizes read from return values, for the functions whose size a metric uses.
SIZES = {
    "determinize": lambda result, args: (len(args[0].states), len(result.states)),
    "condense": lambda result, args: len(result.components),
    "classify": lambda result, args: (len(getattr(result, "decomposition", ())),
                                      len(getattr(result, "envelope", ()))),
    "product_intersect": _states,
    "trim": _states,
    "cover": _states,
    "compose_dfst": _states,
    "image_nfa": _states,
}

# Inclusive time of a function's spans, in ms per op.
TIME_METRICS = {
    "main": "cli.main_ms",
    "classify": "classify.classify_ms",
    "verify_easy": "classify.verify_easy_ms",
    "verify_witness": "classify.verify_witness_ms",
    "cover": "cover.cover_ms",
    "surjection_to_star": "cover.surjection_ms",
    "verify_cover": "cover.verify_cover_ms",
    "compose_dfst": "transducer.compose_ms",
    "image_nfa": "transducer.image_ms",
    "dfst_to_text": "transducer.to_text_ms",
    "solve_rr": "rr.solve_ms",
    "solve_rr_nfa": "rr.solve_nfa_ms",
    "solve_rr_bounded_detail": "rr.bounded_ms",
    "product_intersect": "automata.product_ms",
    "shortest_word": "automata.shortest_word_ms",
    "complement": "automata.complement_ms",
    "inclusion_counterexample": "automata.inclusion_ms",
    "separating_word": "automata.separating_word_ms",
    "determinize": "automata.determinize_ms",
    "trim": "automata.trim_ms",
    "condense": "automata.condense_ms",
    "canonical_nfa": "automata.canonical_ms",
    "canonical_dfa": "automata.canonical_ms",
    "parse_automaton": "automata.parse_ms",
    "dfa_to_text": "automata.to_text_ms",
}

# Number of calls, per op.
CALL_METRICS = {
    "classify": "classify.calls",
    "product_intersect": "automata.product_calls",
    "inclusion_counterexample": "automata.inclusion_calls",
    "separating_word": "automata.separating_word_calls",
    "determinize": "automata.determinize_calls",
}

# Sizes summed over calls, per op.
SIZE_METRICS = {
    "product_intersect": "automata.product_states",
    "trim": "automata.trimmed_states",
    "condense": "automata.sccs",
    "cover": "cover.transducer_states",
    "compose_dfst": "transducer.compose_states",
    "image_nfa": "transducer.image_states",
}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    names = {name: "ms/op" for name in TIME_METRICS.values()}
    names.update({f"{layer}.self_ms": "ms/op" for layer in PHASES})
    counts = [*CALL_METRICS.values(), *SIZE_METRICS.values(),
              *(f"{layer}.errors" for layer in PHASES),
              "classify.witness_checks", "classify.exprs", "classify.envelope_words",
              "classify.easy_subset_states", "cover.image_checks", "automata.subset_states"]
    names.update({name: "count/op" for name in counts})
    names["classify.witness_check_ms"] = "ms/op"
    names["automata.subset_blowup"] = "ratio"
    names["trace.ops_per_s"] = "1/s"
    return sorted(names.items())


class Tracer:
    """Records spans for calls into rrkit while installed."""

    def __init__(self):
        self.names: list[tuple[str, str]] = []  # (layer, function) per index
        self.spans: list[list] = []  # [function index, op, parent, start, end, size, failed]
        self.stack: list[int] = []
        self.op = -1
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "rrkit" or name.startswith("rrkit."))]
        for layer, functions in PHASES.items():
            home = sys.modules[f"rrkit.{layer}"]
            for fn in functions:
                original = getattr(home, fn)
                wrapped = self._wrap(len(self.names), fn, original)
                self.names.append((layer, fn))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)
                            self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def _wrap(self, index: int, fn_name: str, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter
        size_of = SIZES.get(fn_name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [index, self.op, stack[-1] if stack else -1, 0.0, 0.0, None, False]
            stack.append(len(spans))
            spans.append(span)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[6] = True
                raise
            finally:
                span[4] = clock()
                stack.pop()
            if size_of is not None:
                span[5] = size_of(result, args)
            return result

        return wrapper

    def layer_metrics(self, ops: int, busy_s: float) -> dict[str, float]:
        """Per-layer metrics averaged over `ops` traced ops that took
        `busy_s` seconds in all."""
        spans, names = self.spans, self.names
        child = [0.0] * len(spans)
        for span in spans:
            if span[2] >= 0:
                child[span[2]] += span[4] - span[3]
        total: dict[str, float] = defaultdict(float)
        subset_in = 0

        def under(i: int, fn: str) -> bool:
            while i >= 0:
                if names[spans[i][0]][1] == fn:
                    return True
                i = spans[i][2]
            return False

        for i, (index, _, parent, start, end, size, failed) in enumerate(spans):
            layer, fn = names[index]
            ms = (end - start) * 1000
            total[f"{layer}.self_ms"] += ms - child[i] * 1000
            total[f"{layer}.errors"] += failed
            if fn in TIME_METRICS:
                total[TIME_METRICS[fn]] += ms
            if fn in CALL_METRICS:
                total[CALL_METRICS[fn]] += 1
            if size is None:
                continue
            if fn in SIZE_METRICS:
                total[SIZE_METRICS[fn]] += size
            elif fn == "classify":
                total["classify.exprs"] += size[0]
                total["classify.envelope_words"] += size[1]
            elif fn == "determinize":
                subset_in += size[0]
                total["automata.subset_states"] += size[1]
                if under(parent, "verify_easy"):
                    total["classify.easy_subset_states"] += size[1]
        for i, span in enumerate(spans):
            parent = span[2]
            if parent < 0:
                continue
            fn, (parent_layer, parent_fn) = names[span[0]][1], names[spans[parent][0]]
            if fn == "inclusion_counterexample" and parent_fn == "classify":
                total["classify.witness_checks"] += 1
                total["classify.witness_check_ms"] += (span[4] - span[3]) * 1000
            elif fn == "image_nfa" and parent_layer == "cover":
                total["cover.image_checks"] += 1

        out = {}
        for name, unit in metric_names():
            if unit == "ratio":
                continue
            out[name] = total[name] / ops
        out["automata.subset_blowup"] = total["automata.subset_states"] / max(1, subset_in)
        out["trace.ops_per_s"] = ops / busy_s
        return out

    def layers_by_op(self) -> dict[int, dict[str, int]]:
        """Span counts per op and function, for isolation checks."""
        per_op: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for index, op, parent, *_ in self.spans:
            layer, fn = self.names[index]
            per_op[op][f"{layer}.{fn}"] += 1
            if fn == "image_nfa" and parent >= 0 \
                    and self.names[self.spans[parent][0]][0] == "cover":
                per_op[op]["cover.image_checks"] += 1
        return per_op

    def dump(self) -> dict:
        return {"names": [f"{layer}.{fn}" for layer, fn in self.names],
                "fields": ["function", "op", "parent", "start", "end", "size", "failed"],
                "spans": self.spans}
