"""The CLI's output on every op of the benchmark's pools (the three
workloads at seeds 1, 5 and 9), pinned by `tests/pool_digest.py`'s digest.
A change that means to alter what the CLI prints re-pins `EXPECTED` and
says why; any other change must leave it as it is."""

import importlib.util
import sys
from pathlib import Path

POOL_DIGEST = Path(__file__).resolve().parent / "pool_digest.py"
EXPECTED = "a0c1476618fabd15f544ecdb9cd4cda5409470c6e79ae8caf7874a5e2ebbba2d"
BENCH_MODULES = ("pool_digest", "workloads", "gen", "oracle")


def test_pool_output_is_unchanged(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read bench/ only
    monkeypatch.setattr(sys, "path", list(sys.path))  # pool_digest puts bench/ on it
    spec = importlib.util.spec_from_file_location("pool_digest", POOL_DIGEST)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
        digest, count = module.pool_digest(list(module.workloads.WORKLOADS), [1, 5, 9])
    finally:
        for name in BENCH_MODULES:
            sys.modules.pop(name, None)
    assert (digest, count) == (EXPECTED, 630)
