import random

import pytest

from helpers import (
    bfs_reachable_oracle,
    count_calls,
    dfa_as_nfa,
    diamond_filter,
    enumerate_dfas,
    identity_transducer,
    lang_upto,
    looped_chain,
    naive_nfa_accepts,
    oracle_preimage_nfa,
    oracle_solve_rr_bounded_detail,
    random_dfa,
    random_dfst,
    random_nfa,
)
from rrkit import (
    AlphabetError,
    BoundedExpr,
    Digraph,
    Easy,
    FormatError,
    classify,
    determinize,
    dfa_to_text,
    dfst_to_text,
    image_nfa,
    parse_dfa,
    parse_dfst,
    parse_digraph,
    reachability_gadget,
    reduce_rr,
    regex_to_nfa,
    run,
    run_nfa,
    separating_word,
    solve_rr,
    solve_rr_bounded_detail,
    solve_rr_nfa,
    universal_dfa,
    Dfst,
)
from rrkit.cli import main

A_STAR_B_STAR = parse_dfa(
    "dfa\nalphabet a b\nstates 0 1\ninitial 0\naccept 0 1\n"
    "trans 0 a 0\ntrans 0 b 1\ntrans 1 b 1\n")
AB_STAR = parse_dfa(
    "dfa\nalphabet a b\nstates 0 1\ninitial 0\naccept 0\ntrans 0 a 1\ntrans 1 b 0\n")
CANONICAL_BLOCKS = (BoundedExpr("", (("a", ""), ("b", ""))),)


class TestSolveRr:
    def test_epsilon_meets_both(self):
        assert solve_rr(A_STAR_B_STAR, AB_STAR) == ""

    def test_shortest_joint_word(self):
        a = determinize(regex_to_nfa("a(a|b)*"))
        assert solve_rr(AB_STAR, a) == "ab"

    def test_disjoint_languages(self):
        filt = determinize(regex_to_nfa("a*"))
        a = determinize(regex_to_nfa("b(a|b)*"))
        assert solve_rr(filt, a) is None

    def test_witness_in_both_languages(self):
        rng = random.Random(97)
        for _ in range(50):
            filt = random_dfa(rng, rng.randint(1, 3))
            a = random_dfa(rng, rng.randint(1, 3))
            w = solve_rr(filt, a)
            if w is not None:
                assert run(filt, w) and run(a, w)


class TestSolveRrNfa:
    def test_agrees_with_deterministic_solver(self):
        rng = random.Random(101)
        for _ in range(200):
            filt = random_nfa(rng, rng.randint(1, 3))
            a = random_nfa(rng, rng.randint(1, 3))
            got = solve_rr_nfa(filt, a)
            want = solve_rr(determinize(filt), determinize(a))
            assert (got is None) == (want is None)
            if got is not None:
                assert naive_nfa_accepts(filt, got) and naive_nfa_accepts(a, got)

    def test_epsilon_filter(self):
        filt = regex_to_nfa("")
        a = regex_to_nfa("a*")
        assert solve_rr_nfa(filt, a) == ""

    def test_empty_filter(self):
        from rrkit import empty_dfa
        filt = dfa_as_nfa(empty_dfa(("a",)))
        assert solve_rr_nfa(filt, regex_to_nfa("a*")) is None


class TestSolveRrBounded:
    def test_epsilon_witness(self):
        hit = solve_rr_bounded_detail(CANONICAL_BLOCKS, AB_STAR)
        assert hit == ("", 0, [0, 0])

    def test_exponent_search_on_singleton(self):
        aab_only = determinize(regex_to_nfa("aab"))
        hit = solve_rr_bounded_detail(CANONICAL_BLOCKS, aab_only)
        assert hit == ("aab", 0, [2, 1])

    def test_agrees_with_product_solver_exhaustively(self):
        exprs = classify(A_STAR_B_STAR).decomposition
        for n in (1, 2, 3):
            for a in enumerate_dfas(n):
                hit = solve_rr_bounded_detail(exprs, a)
                got = None if hit is None else hit[0]
                want = solve_rr(A_STAR_B_STAR, a)
                assert (got is None) == (want is None)
                if got is not None:
                    assert run(a, got) and run(A_STAR_B_STAR, got)

    def test_empty_loop_rejected(self):
        with pytest.raises(ValueError):
            solve_rr_bounded_detail((BoundedExpr("", (("", "a"),)),), AB_STAR)

    def test_expression_symbols_outside_machine(self):
        exprs = (BoundedExpr("", (("c", ""),)),)  # loops on a foreign symbol
        assert solve_rr_bounded_detail(exprs, AB_STAR)[0] == ""


def _easy_decompositions(rng):
    """Decompositions of seeded random easy filters, diamonds with a loop,
    and looped chains."""
    found = []
    while len(found) < 40:
        verdict = classify(random_dfa(rng, rng.randint(2, 7), density=0.5))
        if isinstance(verdict, Easy) and verdict.decomposition:
            found.append(verdict.decomposition)
    found += [classify(diamond_filter(3, loop_at=(i, i % 2))).decomposition for i in range(3)]
    found += [classify(looped_chain(n)).decomposition for n in (1, 2, 5, 9)]
    return found


class TestBoundedSolverStack:
    """The explicit-stack counter search against the recursive one it
    replaced: the same witness, expression and exponents, or both None."""

    def test_agrees_with_recursive_oracle(self):
        rng = random.Random(139)
        yes = 0
        for exprs in _easy_decompositions(rng):
            for _ in range(6):
                a = random_dfa(rng, rng.randint(1, 6))
                want = oracle_solve_rr_bounded_detail(exprs, a)
                assert solve_rr_bounded_detail(exprs, a) == want
                yes += want is not None
        assert yes > 50

    def test_dead_pairs_are_per_block(self):
        # state 1 is exhausted at block 1 (no `a` there) but, entered at
        # block 2 after `abb`, it accepts
        a = parse_dfa("dfa\nalphabet a b\nstates 0 1 2\ninitial 0\naccept 1\n"
                      "trans 0 a 1\ntrans 0 b 1\ntrans 1 b 2\ntrans 2 b 1\n")
        exprs = classify(looped_chain(3)).decomposition
        assert solve_rr_bounded_detail(exprs, a) == ("abb", 0, [1, 0, 0])
        assert oracle_solve_rr_bounded_detail(exprs, a) == ("abb", 0, [1, 0, 0])

    def test_deep_decomposition(self):
        exprs = classify(looped_chain(1101)).decomposition
        assert len(exprs) == 1 and len(exprs[0].blocks) == 1101
        hit = solve_rr_bounded_detail(exprs, universal_dfa(("a", "b")))
        assert hit == ("b" * 1100, 0, [0] * 1101)

    def test_deep_decomposition_no_instance(self):
        # an odd number of b's: the chain's words all have 1100
        odd_b = parse_dfa("dfa\nalphabet a b\nstates 0 1\ninitial 0\naccept 1\n"
                          "trans 0 a 0\ntrans 0 b 1\ntrans 1 a 1\ntrans 1 b 0\n")
        assert solve_rr_bounded_detail(classify(looped_chain(1101)).decomposition, odd_b) is None


class TestReduceRr:
    def test_identity_reduction_preserves_language(self):
        from rrkit import universal_dfa
        t = identity_transducer(universal_dfa(("a", "b")))
        red = reduce_rr(t, AB_STAR)
        assert separating_word(dfa_as_nfa(red), dfa_as_nfa(AB_STAR)) is None

    def test_expanding_rewriter(self):
        t = Dfst(("a",), ("a", "b"), frozenset({0}), 0, frozenset({0}),
                 {(0, "a"): ("ab", 0)}, {})
        red = reduce_rr(t, AB_STAR)
        assert separating_word(dfa_as_nfa(red), regex_to_nfa("a*")) is None
        filt = determinize(regex_to_nfa("a*"))
        image_filter = determinize(image_nfa(t, filt))
        assert (solve_rr(image_filter, AB_STAR) is None) == (solve_rr(filt, red) is None)

    def test_empty_input_machine(self):
        from rrkit import empty_dfa, universal_dfa
        t = identity_transducer(universal_dfa(("a",)))
        red = reduce_rr(t, empty_dfa(("a",)))
        assert lang_upto(red, 3) == set()

    def test_alphabet_mismatch(self):
        t = Dfst(("a",), ("c",), frozenset({0}), 0, frozenset({0}),
                 {(0, "a"): ("c", 0)}, {})
        with pytest.raises(AlphabetError):
            reduce_rr(t, AB_STAR)

    def test_reduction_soundness_random(self):
        rng = random.Random(103)
        for _ in range(30):
            f2 = random_dfa(rng, rng.randint(1, 3))
            t = random_dfst(rng, rng.randint(1, 3))
            a = random_dfa(rng, rng.randint(1, 4))
            f1 = determinize(image_nfa(t, f2))
            direct = solve_rr(f1, a)
            reduced = solve_rr(f2, reduce_rr(t, a))
            assert (direct is None) == (reduced is None)

    def test_cli_matches_determinized_oracle(self, tmp_path, capsys):
        rng = random.Random(109)
        alphabets = [("a", "b"), ("b", "a"), ("a",), ("a", "b", "c")]
        t_path, a_path = tmp_path / "t.txt", tmp_path / "a.txt"
        for _ in range(120):
            in_alpha, out_alpha = rng.choice(alphabets), rng.choice(alphabets)
            t_path.write_text(dfst_to_text(random_dfst(
                rng, rng.randint(1, 4), in_alpha, out_alpha, max_out=3)))
            a_path.write_text(dfa_to_text(random_dfa(
                rng, rng.randint(1, 6), out_alpha, density=rng.choice((0.5, 0.8, 1.0)))))
            assert main(["reduce", str(t_path), str(a_path)]) == 0
            want = oracle_preimage_nfa(parse_dfst(t_path.read_text()),
                                       parse_dfa(a_path.read_text()))
            assert capsys.readouterr() == (dfa_to_text(determinize(want)), "")

    def test_cli_makes_no_dfa(self, tmp_path, monkeypatch, capsys):
        rng = random.Random(113)
        t_path, a_path = tmp_path / "t.txt", tmp_path / "a.txt"
        t_path.write_text(dfst_to_text(random_dfst(rng, 6)))
        a_path.write_text(dfa_to_text(random_dfa(rng, 12)))
        calls = count_calls(monkeypatch, ["determinize"])
        assert main(["reduce", str(t_path), str(a_path)]) == 0
        assert capsys.readouterr().out.startswith("dfa\n")
        assert calls == {"determinize": 0}


class TestDigraph:
    def test_parse_round(self):
        g = parse_digraph("graph\nnodes 3\nsource 0\ntarget 2\nedge 0 1\nedge 1 2\n")
        assert g == Digraph(3, ((0, 1), (1, 2)), 0, 2)

    def test_bad_header(self):
        with pytest.raises(FormatError):
            parse_digraph("digraph\nnodes 1\nsource 0\ntarget 0\n")

    def test_edge_out_of_range(self):
        with pytest.raises(FormatError):
            parse_digraph("graph\nnodes 2\nsource 0\ntarget 1\nedge 0 5\n")

    def test_source_out_of_range(self):
        with pytest.raises(FormatError):
            parse_digraph("graph\nnodes 2\nsource 9\ntarget 1\n")

    @pytest.mark.parametrize("text, message, line", [
        ("graph\nnodes 2\n", "missing `source` line", None),
        ("graph\nnodes 2\nnodes 2\ntarget 1\n", "expected `source`, got `nodes`", 3),
        ("graph\nnodes x\nsource 0\ntarget 1\n", "want `nodes <number>`", 2),
        ("graph\nnodes 1 2\nsource 0\ntarget 1\n", "want `nodes <number>`", 2),
    ])
    def test_header_messages(self, text, message, line):
        with pytest.raises(FormatError) as err:
            parse_digraph(text)
        assert str(err.value) == (message if line is None else f"line {line}: {message}")
        assert err.value.line == line

    def test_constructor_validates(self):
        with pytest.raises(ValueError):
            Digraph(2, ((0, 3),), 0, 1)


class TestReachabilityGadget:
    def test_two_hop_path(self):
        g = Digraph(3, ((0, 1), (1, 2)), 0, 2)
        gadget = reachability_gadget(g, "ab", ("a", "b"))
        assert lang_upto(gadget, 4) == {"ab"}
        assert solve_rr_nfa(regex_to_nfa("(a|b)*"), gadget) == "ab"

    def test_unreachable_target(self):
        g = Digraph(3, ((1, 2),), 0, 2)
        gadget = reachability_gadget(g, "ab", ("a", "b"))
        assert lang_upto(gadget, 4) == set()
        assert solve_rr_nfa(regex_to_nfa("(a|b)*"), gadget) is None

    def test_source_is_target_empty_word(self):
        g = Digraph(1, (), 0, 0)
        gadget = reachability_gadget(g, "", ())
        assert run_nfa(gadget, "")
        assert solve_rr_nfa(regex_to_nfa(""), gadget) == ""

    def test_states_cover_all_nodes(self):
        g = Digraph(4, ((0, 1),), 0, 1)
        gadget = reachability_gadget(g, "ab", ("a", "b"))
        assert len(gadget.states) == 4 + 2

    def test_word_symbols_checked(self):
        g = Digraph(2, ((0, 1),), 0, 1)
        with pytest.raises(AlphabetError):
            reachability_gadget(g, "ab", ("a",))

    def test_matches_bfs_on_random_graphs(self):
        rng = random.Random(107)
        word_filter = regex_to_nfa("ab")
        star_filter = regex_to_nfa("(a|b)*")
        for _ in range(40):
            n = rng.randint(1, 12)
            edges = tuple(
                (u, v) for u in range(n) for v in range(n)
                if rng.random() < 0.2)
            g = Digraph(n, edges, rng.randrange(n), rng.randrange(n))
            gadget = reachability_gadget(g, "ab", ("a", "b"))
            want = bfs_reachable_oracle(g)
            assert (solve_rr_nfa(word_filter, gadget) is not None) == want
            assert (solve_rr_nfa(star_filter, gadget) is not None) == want
