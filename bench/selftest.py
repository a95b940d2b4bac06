"""Self-test of the benchmark at tiny size.

    python3 bench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted for every
workload, that the seed code passes every output check with no failed op,
that the traced run shows the isolation each workload claims, and that
the oracles reject deliberately corrupted outputs. Exits 1 on the first
failed expectation.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

import run

SEED = 7


def expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"selftest: FAIL: {message}", file=sys.stderr)
        sys.exit(1)


def tiny_run(workload: str, trace: int) -> dict:
    import workloads

    args = run.parse_args(["--workload", workload, "--seed", str(SEED),
                           "--seconds", "0.5", "--trace", str(trace)])
    with contextlib.redirect_stdout(io.StringIO()):
        return run.benchmark(args, workloads.TINY)


def check_emitted_metrics(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = tiny_run(workload, trace)
            expect(result["correct"] and result["failed"] == 0,
                   f"{workload} trace={trace}: failed ops on seed code")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == want, f"{workload} trace={trace}: metrics differ from "
                                f"BENCHMARK.json: {sorted(set(got) ^ set(want))}")
            if trace:
                check_isolation(workload, result)
    print("selftest: every metric emitted for every workload; no failed op")


def check_isolation(workload: str, result: dict) -> None:
    per_op = result["tracer"].layers_by_op()
    for i, (index, _, _) in enumerate(result["records"]):
        kind = result["pool"][index].kind
        counts = per_op[i]
        if workload == "solve-equiv":
            touched = [name for name in counts if name.split(".")[0] in
                       ("classify", "cover", "transducer")]
            expect(not touched, f"solve-equiv op {i} entered {touched}")
        if workload == "hard-cover" and kind == "cover":
            expect(counts["classify.classify"] == 2 and counts["cover.image_checks"] == 3,
                   f"cover op {i}: {counts['classify.classify']} classify calls, "
                   f"{counts['cover.image_checks']} image checks")


def cli_output(argv: list[str]) -> tuple[int, str]:
    status, rc, out = run.run_op(run.import_rrkit().main, argv)
    expect(status == "ok", f"{argv}: {status} {out}")
    return rc, out


def check_corruptions() -> None:
    import gen
    import oracle
    import workloads

    rng = random.Random(SEED)
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        work = Path(tmp)
        (work / "s").mkdir()
        (work / "h").mkdir()
        solve = workloads.build("solve-equiv", SEED, work / "s", workloads.TINY)
        hard = workloads.build("hard-cover", SEED, work / "h", workloads.TINY)

        # A YES witness with one letter flipped.
        yes = next(op for op in solve if op.kind == "solve-yes"
                   and cli_output(op.argv)[1].split()[1] != "-")
        rc, out = cli_output(yes.argv)
        expect(yes.check(rc, out, rng) is None, "true YES output rejected")
        word = out.split()[1]
        flipped = ("b" if word[0] == "a" else "a") + word[1:]
        expect(yes.check(rc, f"YES {flipped}\n", rng) is not None,
               "YES witness with a flipped letter accepted")

        # EQUIVALENT printed for a DIFFER pair.
        differ = next(op for op in solve if op.kind == "equiv-differ")
        rc, out = cli_output(differ.argv)
        expect(differ.check(rc, out, rng) is None, "true DIFFER output rejected")
        expect(differ.check(0, "EQUIVALENT\n", rng) is not None,
               "EQUIVALENT accepted for a DIFFER pair")

        # HARD lines: swapping u and v leaves a valid witness (the definition
        # is symmetric); cycles swapped in from another filter's witness do not.
        first, second = [op for op in hard if op.kind == "classify"][:2]
        lines = [cli_output(op.argv)[1] for op in (first, second)]
        fields = [dict(tok.split("=", 1) for tok in line.split()[1:]) for line in lines]
        expect(first.check(0, lines[0], rng) is None, "true HARD output rejected")
        mine, other = fields
        swapped = f"HARD q={mine['q']} p={mine['p']} u={mine['v']} v={mine['u']} s={mine['s']}\n"
        expect(first.check(0, swapped, rng) is None, "HARD line with u and v swapped rejected")
        foreign = f"HARD q={mine['q']} p={mine['p']} u={other['u']} v={other['v']} s={mine['s']}\n"
        expect(first.check(0, foreign, rng) is not None,
               "HARD line with another filter's cycles accepted")

        # A cover with one output letter changed, onto the target (ab)*c.
        f = gen.planted_hard(rng, 12)
        target = gen.Dfa(gen.ABC, 3, 0, frozenset({2}), {(0, "a"): 1, (1, "b"): 0, (0, "c"): 2})
        paths = []
        for i, machine in enumerate((f, target)):
            path = work / f"cover{i}.txt"
            path.write_text(gen.dfa_text(machine))
            paths.append(str(path))
        rc, out = cli_output(["cover", *paths])
        expect(oracle.check_cover(f, target, rc, out, rng) is None, "true cover rejected")
        lines = out.splitlines()
        k = next(i for i, line in enumerate(lines)
                 if line.startswith("trans") and line.split()[3] != "-")
        toks = lines[k].split()
        toks[3] = {"a": "b", "b": "c", "c": "a"}[toks[3][0]] + toks[3][1:]
        lines[k] = " ".join(toks)
        corrupted = "\n".join(lines) + "\n"
        expect(oracle.check_cover(f, target, rc, corrupted, rng) is not None,
               "cover with a changed output letter accepted")
    print("selftest: every corrupted output rejected")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_emitted_metrics(spec)
    check_corruptions()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
