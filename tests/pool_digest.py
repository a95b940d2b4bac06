"""Digest of every benchmark pool op's CLI result, to show that a change
leaves the program's output unchanged.

For each workload and seed, the pool is built by `bench/workloads.py`
with its files in a fresh temporary directory, and each op runs
in-process through `rrkit.cli.main` from this checkout's `src/`. One
sha256 covers (workload, seed, op index, exit code, stdout, stderr) of
every op, with the temporary directory written as `<workdir>`, so two
checkouts can be compared by their digest alone:

    python tests/pool_digest.py                       # all workloads, seeds 1 5 9
    python tests/pool_digest.py --workload hard-cover --seed 5 --per-op
    python tests/pool_digest.py --expect HEX          # exit 1 unless the digest is HEX

`--per-op` also prints one line per op (its index, kind, exit code and
the sha256 of its own stdout and stderr), to find the op that differs.
`--expect` compares the digest with one taken at another checkout (with
the same workloads and seeds) and, when they differ, prints both and exits
with status 1. pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402
from rrkit.cli import main as rrkit_main  # noqa: E402


def run_op(argv: list[str]) -> tuple[int | str, str, str]:
    """Exit code, stdout and stderr of one CLI call; an exception that
    escapes `main` takes the exit code's place as its type and message."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = rrkit_main(argv)
    except (Exception, SystemExit) as exc:
        rc = f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue()


def _field(digest, value) -> None:
    data = str(value).encode("utf-8")
    digest.update(len(data).to_bytes(8, "big"))
    digest.update(data)


def pool_digest(names, seeds, per_op=False) -> tuple[str, int]:
    """The sha256 over every op of the given pools, and the number of ops."""
    total = hashlib.sha256()
    count = 0
    for name in names:
        for seed in seeds:
            with tempfile.TemporaryDirectory(prefix="pool_digest-") as workdir:
                for index, op in enumerate(workloads.build(name, seed, Path(workdir))):
                    rc, out, err = run_op(op.argv)
                    out, err = (text.replace(workdir, "<workdir>") for text in (out, err))
                    for value in (name, seed, index, rc, out, err):
                        _field(total, value)
                    count += 1
                    if per_op:
                        own = hashlib.sha256()
                        for value in (rc, out, err):
                            _field(own, value)
                        print(f"{name} {seed} {index} {op.kind} {rc} {own.hexdigest()}")
    return total.hexdigest(), count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS),
                        help="repeatable; default: every workload")
    parser.add_argument("--seed", type=int, action="append",
                        help="repeatable; default: 1, 5 and 9")
    parser.add_argument("--per-op", action="store_true", help="also print one line per op")
    parser.add_argument("--expect", metavar="HEX",
                        help="exit 1, printing both digests, unless the digest is HEX")
    args = parser.parse_args(argv)
    names = args.workload or list(workloads.WORKLOADS)
    seeds = args.seed or [1, 5, 9]
    digest, count = pool_digest(names, seeds, args.per_op)
    print(f"{digest}  {count} ops; workloads {' '.join(names)}; "
          f"seeds {' '.join(map(str, seeds))}")
    if args.expect is not None and args.expect.lower() != digest:
        print(f"digest differs: expected {args.expect}, got {digest}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
