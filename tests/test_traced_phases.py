"""The benchmark's traced run (`bench/spans.py`) looks up each phase
function in `PHASES` by name in its rrkit module and stops on a missing
one, so pruning the library must keep every name listed there."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_traced_phase_is_a_library_name(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read bench/ only
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    pairs = [(layer, fn) for layer, fns in spans.PHASES.items() for fn in fns]
    assert len(pairs) > 20
    missing = [(layer, fn) for layer, fn in pairs
               if not hasattr(importlib.import_module(f"rrkit.{layer}"), fn)]
    assert missing == []
