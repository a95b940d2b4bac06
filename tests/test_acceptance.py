"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete. Every check is exact; there are no tolerances to tune.
"""

import random
import sys
import time

from helpers import (
    bfs_reachable_oracle,
    dfa_as_nfa,
    enumerate_dfas,
    oracle_noncommuting_cycles,
    random_dfa,
    random_dfst,
    trim_dfas_upto,
    words_upto,
)
from rrkit import (
    Digraph,
    Easy,
    Hard,
    apply,
    classify,
    cover,
    determinize,
    dfa_to_text,
    image_nfa,
    parse_dfa,
    parse_dfst,
    parse_nfa,
    preimage_automaton,
    reachability_gadget,
    reduce_rr,
    regex_to_nfa,
    run,
    run_nfa,
    separating_word,
    solve_rr,
    solve_rr_bounded_detail,
    solve_rr_nfa,
    trim,
    universal_dfa,
    verify_cover,
    verify_easy,
    verify_witness,
)
from rrkit.cli import main as cli_main


def report(number: int, name: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {number} ({name}): {status}", file=sys.stderr)
    assert not failures, f"criterion {number}: {failures[:5]}"


def test_criterion_1_certificates_verify():
    started = time.monotonic()
    failures = []
    machines = list(trim_dfas_upto(3))
    rng = random.Random(2024)
    machines += [random_dfa(rng, rng.randint(4, 6)) for _ in range(500)]
    for d in machines:
        try:
            verdict = classify(d)
            if isinstance(verdict, Hard):
                verify_witness(d, verdict.witness)
                w = verdict.witness
                t = trim(d)
                ok = (t.walk(t.initial, w.access) == w.state
                      and t.walk(w.state, w.cycle_a) == w.state
                      and t.walk(w.state, w.cycle_b) == w.state
                      and t.walk(w.state, w.exit_word) in t.accepting
                      and not w.cycle_a.startswith(w.cycle_b)
                      and not w.cycle_b.startswith(w.cycle_a))
                if not ok:
                    failures.append(("replay", d.transitions))
            else:
                verify_easy(d, verdict.decomposition, verdict.envelope)
        except Exception as exc:  # noqa: BLE001 - collect, report, fail
            failures.append((repr(exc), d.transitions))
    elapsed = time.monotonic() - started
    if elapsed >= 300:
        failures.append(("runtime budget exceeded", elapsed))
    report(1, "dichotomy certificates verify", failures)


def test_criterion_2_classifier_matches_brute_force():
    failures = []
    for d in trim_dfas_upto(3):
        got = isinstance(classify(d), Hard)
        want = oracle_noncommuting_cycles(d)
        if got != want:
            failures.append((d.transitions, d.accepting, "oracle", want))
    report(2, "classifier completeness cross-check", failures)


def test_criterion_3_covering():
    started = time.monotonic()
    failures = []
    rng = random.Random(303)
    sigma = universal_dfa(("a", "b"))
    for k in range(20):
        target = random_dfa(rng, rng.randint(1, 4))
        try:
            t = cover(sigma, target)
            if not verify_cover(t, sigma, target):
                failures.append(("sigma", k))
        except Exception as exc:  # noqa: BLE001
            failures.append(("sigma", k, repr(exc)))
    hard_filters = []
    while len(hard_filters) < 10:
        d = random_dfa(rng, rng.randint(3, 5))
        if isinstance(classify(d), Hard):
            hard_filters.append(d)
    for i, filt in enumerate(hard_filters):
        for k in range(5):
            target = random_dfa(rng, rng.randint(1, 4))
            try:
                t = cover(filt, target)
                if not verify_cover(t, filt, target):
                    failures.append(("random", i, k))
            except Exception as exc:  # noqa: BLE001
                failures.append(("random", i, k, repr(exc)))
    elapsed = time.monotonic() - started
    if elapsed >= 120:
        failures.append(("runtime budget exceeded", elapsed))
    report(3, "hard filters cover arbitrary targets", failures)


def test_criterion_4_counter_solver_agreement():
    failures = []
    filters = {
        "a*b*": parse_dfa(
            "dfa\nalphabet a b\nstates 0 1\ninitial 0\naccept 0 1\n"
            "trans 0 a 0\ntrans 0 b 1\ntrans 1 b 1\n"),
        "(ab)*": parse_dfa(
            "dfa\nalphabet a b\nstates 0 1\ninitial 0\naccept 0\n"
            "trans 0 a 1\ntrans 1 b 0\n"),
        "a*ba*": determinize(regex_to_nfa("a*ba*")),
    }
    for name, filt in filters.items():
        verdict = classify(filt)
        assert isinstance(verdict, Easy)
        exprs = verdict.decomposition
        for n in (1, 2, 3):
            for a in enumerate_dfas(n):
                hit = solve_rr_bounded_detail(exprs, a)
                got = None if hit is None else hit[0]
                want = solve_rr(filt, a)
                if (got is None) != (want is None):
                    failures.append((name, a.transitions, a.accepting))
                    continue
                if got is not None and not (run(a, got) and run(filt, got)):
                    failures.append((name, "bad witness", got))
                if want is not None and not (run(a, want) and run(filt, want)):
                    failures.append((name, "bad product witness", want))
    report(4, "counter solver agrees with product solver", failures)


def test_criterion_5_reduction_soundness():
    failures = []
    rng = random.Random(505)
    for k in range(100):
        f2 = random_dfa(rng, rng.randint(1, 3))
        t = random_dfst(rng, rng.randint(1, 3))
        a = random_dfa(rng, rng.randint(1, 4))
        f1 = determinize(image_nfa(t, f2))
        direct = solve_rr(f1, a)
        reduced = solve_rr(f2, reduce_rr(t, a))
        if (direct is None) != (reduced is None):
            failures.append((k, t.transitions))
    report(5, "instance reduction preserves emptiness", failures)


def test_criterion_6_gadget_matches_reachability():
    failures = []
    rng = random.Random(606)
    word_filter = regex_to_nfa("ab")
    star_filter = regex_to_nfa("(a|b)*")
    for k in range(100):
        n = rng.randint(1, 20)
        edges = tuple((u, v) for u in range(n) for v in range(n)
                      if rng.random() < 0.2)
        g = Digraph(n, edges, rng.randrange(n), rng.randrange(n))
        gadget = reachability_gadget(g, "ab", ("a", "b"))
        want = bfs_reachable_oracle(g)
        got_word = solve_rr_nfa(word_filter, gadget) is not None
        got_star = solve_rr_nfa(star_filter, gadget) is not None
        if got_word != want or got_star != want:
            failures.append((k, n, want, got_word, got_star))
    report(6, "reachability gadget matches graph search", failures)


def test_criterion_7_transducer_algebra():
    from helpers import image_member, naive_apply

    failures = []
    rng = random.Random(707)
    for k in range(50):
        t1 = random_dfst(rng, rng.randint(1, 3))
        t2 = random_dfst(rng, rng.randint(1, 3))
        a = random_dfa(rng, rng.randint(1, 3))
        from rrkit import compose_dfst

        composed = compose_dfst(t1, t2)
        pre = preimage_automaton(t1, a)
        img = image_nfa(t1, a)
        for x in words_upto(("a", "b"), 5):
            mid = naive_apply(t1, x)
            chained = None if mid is None else naive_apply(t2, mid)
            if apply(composed, x) != chained:
                failures.append((k, "compose", x))
            want_pre = mid is not None and run(a, mid)
            if run(pre, x) != want_pre:
                failures.append((k, "preimage", x))
            if run_nfa(img, x) != image_member(t1, a, x):
                failures.append((k, "image", x))
    report(7, "transducer algebra semantics", failures)


def test_criterion_8_cli_round_trip_and_determinism(tmp_path, capsys):
    failures = []
    filt_path = tmp_path / "filter.txt"
    filt_path.write_text(dfa_to_text(universal_dfa(("a", "b"))))
    easy_path = tmp_path / "easy.txt"
    easy_path.write_text(
        "dfa\nalphabet a b\nstates 0 1\ninitial 0\naccept 0 1\n"
        "trans 0 a 0\ntrans 0 b 1\ntrans 1 b 1\n")
    target_path = tmp_path / "target.txt"
    target_path.write_text(
        "dfa\nalphabet a b\nstates 0 1\ninitial 0\naccept 0\n"
        "trans 0 a 1\ntrans 1 b 0\n")
    ident_path = tmp_path / "ident.dfst"
    ident_path.write_text(
        "dfst\nin_alphabet a b\nout_alphabet a b\nstates 0\ninitial 0\n"
        "accept 0\ntrans 0 a a 0\ntrans 0 b b 0\n")
    graph_path = tmp_path / "graph.txt"
    graph_path.write_text("graph\nnodes 3\nsource 0\ntarget 2\nedge 0 1\nedge 1 2\n")

    runs = [
        ["classify", str(filt_path)],
        ["classify", str(easy_path)],
        ["cover", str(filt_path), str(target_path)],
        ["solve", str(easy_path), str(target_path)],
        ["solve", str(easy_path), str(target_path), "--counters"],
        ["reduce", str(ident_path), str(target_path)],
        ["gadget", str(graph_path), "--word", "ab"],
        ["compose", str(ident_path), str(ident_path)],
        ["image", str(ident_path), str(target_path)],
        ["equiv", str(target_path), str(target_path)],
    ]
    outputs = []
    for argv in runs:
        code = cli_main(argv)
        out = capsys.readouterr().out
        if code != 0:
            failures.append(("exit", argv, code))
        outputs.append(out)
    for argv, first in zip(runs, outputs):
        code = cli_main(argv)
        out = capsys.readouterr().out
        if code != 0 or out != first:
            failures.append(("determinism", argv))

    target = parse_dfa(target_path.read_text())
    sigma = parse_dfa(filt_path.read_text())
    checks = [
        ("cover", [str(filt_path), str(target_path)],
         lambda text: verify_cover(parse_dfst(text), sigma, target)),
        ("reduce", [str(ident_path), str(target_path)],
         lambda text: separating_word(dfa_as_nfa(parse_dfa(text)), dfa_as_nfa(target)) is None),
        ("gadget", [str(graph_path), "--word", "ab"],
         lambda text: separating_word(parse_nfa(text), regex_to_nfa("ab")) is None),
        ("image", [str(ident_path), str(target_path)],
         lambda text: separating_word(parse_nfa(text), dfa_as_nfa(target)) is None),
        ("compose", [str(ident_path), str(ident_path)],
         lambda text: all(apply(parse_dfst(text), w) == apply(parse_dfst(ident_path.read_text()), w)
                          for w in words_upto(("a", "b"), 4))),
    ]
    for name, argv, check in checks:
        out_path = tmp_path / f"{name}.artifact"
        code = cli_main([name, *argv, "--out", str(out_path)])
        capsys.readouterr()
        if code != 0 or not check(out_path.read_text()):
            failures.append(("round-trip", name))
    report(8, "cli round-trip and determinism", failures)
