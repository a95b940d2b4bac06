import random

import pytest

from helpers import (
    dfa_as_nfa,
    lang_upto,
    naive_dfa_accepts,
    naive_nfa_accepts,
    nfa_union,
    random_dfa,
    random_nfa,
    widen_dfa,
    widen_nfa,
    words_upto,
)
from rrkit import (
    AlphabetError,
    Dfa,
    FormatError,
    Nfa,
    canonical_dfa,
    complement,
    condense,
    determinize,
    dfa_to_text,
    empty_dfa,
    inclusion_counterexample,
    merge_alphabets,
    nfa_to_text,
    parse_automaton,
    parse_dfa,
    parse_nfa,
    product_intersect,
    regex_to_nfa,
    run,
    run_nfa,
    separating_word,
    shortest_word,
    trim,
    universal_dfa,
)
from rrkit.automata import _index

A_STAR = """dfa
alphabet a
states 0
initial 0
accept 0
trans 0 a 0
"""

AB_STAR = """dfa
alphabet a b
states 0 1
initial 0
accept 0
trans 0 a 1
trans 1 b 0
"""


def make(text):
    return parse_automaton(text)


class TestConstructors:
    """A repeated alphabet symbol is refused, as every parser refuses it,
    so no writer prints text that cannot be read back."""

    def test_dfa_rejects_repeated_symbol(self):
        with pytest.raises(ValueError, match="duplicate alphabet symbol"):
            Dfa(("a", "b", "a"), frozenset({0}), 0, frozenset({0}), {(0, "a"): 0})
        with pytest.raises(FormatError, match="duplicate alphabet symbol"):
            parse_dfa("dfa\nalphabet a b a\nstates 0\ninitial 0\naccept 0\n")

    def test_nfa_rejects_repeated_symbol(self):
        with pytest.raises(ValueError, match="duplicate alphabet symbol"):
            Nfa(("a", "a"), frozenset({0}), frozenset({0}), frozenset({0}), ((0, "a", 0),))
        with pytest.raises(FormatError, match="duplicate alphabet symbol"):
            parse_nfa("nfa\nalphabet a a\nstates 0\ninitial 0\naccept 0\n")


class TestParseDfa:
    def test_minimal_loop(self):
        d = parse_dfa(A_STAR)
        assert d.alphabet == ("a",)
        assert d.states == frozenset({0})
        assert d.accepting == frozenset({0})
        assert run(d, "") and run(d, "aaa")

    def test_duplicate_transition_rejected(self):
        text = A_STAR + "trans 0 a 0\n"
        with pytest.raises(FormatError) as err:
            parse_dfa(text)
        assert "duplicate transition" in str(err.value)
        assert err.value.line == 7

    def test_two_state_ab_star(self):
        d = parse_dfa(AB_STAR)
        for word, expected in [("", True), ("ab", True), ("abab", True),
                               ("a", False), ("ba", False)]:
            assert run(d, word) is expected

    def test_undeclared_symbol(self):
        with pytest.raises(FormatError, match="undeclared symbol"):
            parse_dfa("dfa\nalphabet a\nstates 0\ninitial 0\naccept 0\ntrans 0 b 0\n")

    def test_undeclared_state(self):
        with pytest.raises(FormatError, match="undeclared state"):
            parse_dfa("dfa\nalphabet a\nstates 0\ninitial 0\naccept 0\ntrans 0 a 7\n")

    def test_eps_rejected_in_dfa(self):
        with pytest.raises(FormatError, match="eps"):
            parse_dfa("dfa\nalphabet a\nstates 0\ninitial 0\naccept 0\ntrans 0 eps 0\n")

    def test_error_carries_line_number(self):
        with pytest.raises(FormatError, match="line 3"):
            parse_dfa("dfa\nalphabet a\nstatez 0\n")

    def test_comments_and_blanks_ignored(self):
        d = parse_dfa("# top\ndfa\nalphabet a  # trailing\n\nstates 0\ninitial 0\naccept 0\n")
        assert run(d, "")


class TestParseNfa:
    def test_eps_edge_accepts_only_empty(self):
        n = parse_nfa("nfa\nalphabet a\nstates 0 1\ninitial 0\naccept 1\ntrans 0 eps 1\n")
        assert run_nfa(n, "")
        assert not run_nfa(n, "a")

    def test_two_initial_states(self):
        n = parse_nfa("nfa\nalphabet a\nstates 0 1\ninitial 0 1\naccept 0 1\n")
        assert run_nfa(n, "")

    def test_union_gadget(self):
        n = parse_nfa(
            "nfa\nalphabet a b\nstates 0 1 2\ninitial 0\naccept 1 2\n"
            "trans 0 a 1\ntrans 0 b 2\n")
        assert run_nfa(n, "a") and run_nfa(n, "b")
        assert not run_nfa(n, "")


class TestRegex:
    def test_ab_star(self):
        n = regex_to_nfa("(ab)*")
        assert all(run_nfa(n, w) for w in ["", "ab", "abab"])
        assert not any(run_nfa(n, w) for w in ["a", "ba"])

    def test_alternation(self):
        n = regex_to_nfa("a|b")
        assert run_nfa(n, "a") and run_nfa(n, "b")
        assert not run_nfa(n, "") and not run_nfa(n, "ab")

    def test_empty_pattern_is_epsilon(self):
        n = regex_to_nfa("")
        assert run_nfa(n, "")
        assert n.alphabet == ()

    def test_unbalanced_parens(self):
        with pytest.raises(FormatError):
            regex_to_nfa("(ab")
        with pytest.raises(FormatError):
            regex_to_nfa("ab)")

    def test_dangling_star(self):
        with pytest.raises(FormatError, match="dangling"):
            regex_to_nfa("*a")


class TestDeterminize:
    def test_preserves_alternation(self):
        n = regex_to_nfa("a|b")
        assert separating_word(dfa_as_nfa(determinize(n)), regex_to_nfa("a|b")) is None

    def test_eps_only_machine(self):
        n = parse_nfa("nfa\nalphabet a\nstates 0 1\ninitial 0\naccept 1\ntrans 0 eps 1\n")
        d = determinize(n)
        assert len(d.states) <= 2
        assert run(d, "") and not run(d, "a")

    def test_matches_naive_simulation_on_short_words(self):
        n = parse_nfa(
            "nfa\nalphabet a b\nstates 0 1 2\ninitial 0\naccept 2\n"
            "trans 0 eps 1\ntrans 1 eps 2\ntrans 2 a 0\ntrans 1 b 2\n")
        d = determinize(n)
        for w in words_upto(("a", "b"), 4):
            assert run(d, w) == naive_nfa_accepts(n, w)

    def test_random_agreement(self):
        rng = random.Random(7)
        for _ in range(40):
            n = random_nfa(rng, rng.randint(1, 4))
            d = determinize(n)
            for w in words_upto(n.alphabet, 6):
                assert naive_dfa_accepts(d, w) == naive_nfa_accepts(n, w)


class TestIndex:
    def test_successors_in_transition_order(self):
        rng = random.Random(11)
        for n in range(1, 10):
            m = random_nfa(rng, n, edge_count=4 * n)
            want_eps, want_moves = {}, {}
            for q, sym, t in m.transitions:
                if sym is None:
                    want_eps.setdefault(q, []).append(t)
                else:
                    want_moves.setdefault((q, sym), []).append(t)
            for got, want in zip(_index(m), (want_eps, want_moves)):
                assert {key: list(ts) for key, ts in got.items()} == want
                # a lone successor is a tuple, which the collector untracks
                assert all(type(ts) is tuple for ts in got.values() if len(ts) == 1)


class TestTrim:
    def test_removes_unreachable(self):
        d = parse_dfa(
            "dfa\nalphabet a\nstates 0 1\ninitial 0\naccept 0\n"
            "trans 0 a 0\ntrans 1 a 0\n")
        t = trim(d)
        assert t.states == frozenset({0})
        assert separating_word(dfa_as_nfa(t), dfa_as_nfa(d)) is None

    def test_empty_language_collapses(self):
        d = parse_dfa("dfa\nalphabet a\nstates 0 1\ninitial 0\naccept 1\ntrans 0 a 0\n")
        t = trim(d)
        assert t.accepting == frozenset()
        assert t.transitions == {}
        assert len(t.states) == 1

    def test_all_states_live_after_trim(self):
        rng = random.Random(11)
        for _ in range(30):
            d = random_dfa(rng, 5)
            t = trim(d)
            assert separating_word(dfa_as_nfa(t), dfa_as_nfa(d)) is None
            fwd, back = {}, {}
            for (q, _), dst in t.transitions.items():
                fwd.setdefault(q, set()).add(dst)
                back.setdefault(dst, set()).add(q)

            def sweep(seeds, adj):
                seen, stack = set(seeds), list(seeds)
                while stack:
                    q = stack.pop()
                    for s in adj.get(q, ()):
                        if s not in seen:
                            seen.add(s)
                            stack.append(s)
                return seen

            if not t.accepting:
                continue  # canonical empty machine
            assert sweep({t.initial}, fwd) == t.states
            assert sweep(set(t.accepting), back) == t.states


class TestProductIntersect:
    def test_disjoint_loops_meet_at_epsilon(self):
        a = widen_nfa(dfa_as_nfa(parse_automaton(A_STAR)), ("a", "b"))
        b = widen_nfa(dfa_as_nfa(determinize(regex_to_nfa("b*"))), ("a", "b"))
        meet = product_intersect(a, b)
        assert lang_upto(meet, 3) == {""}

    def test_membership_matches_both_sides(self):
        a = regex_to_nfa("(ab)*")
        b = regex_to_nfa("a(a|b)*")
        alpha = merge_alphabets(a.alphabet, b.alphabet)
        meet = product_intersect(widen_nfa(a, alpha), widen_nfa(b, alpha))
        for w in words_upto(alpha, 4):
            assert naive_nfa_accepts(meet, w) == (
                naive_nfa_accepts(a, w) and naive_nfa_accepts(b, w))

    def test_empty_side_kills_product(self):
        x = regex_to_nfa("(a|b)*")
        nothing = widen_nfa(dfa_as_nfa(empty_dfa(("a", "b"))), ("a", "b"))
        assert shortest_word(product_intersect(x, nothing)) is None

    def test_alphabet_mismatch_raises(self):
        with pytest.raises(AlphabetError):
            product_intersect(regex_to_nfa("a"), regex_to_nfa("b"))


class TestShortestWord:
    def test_initial_accepting_gives_epsilon(self):
        assert shortest_word(dfa_as_nfa(parse_dfa(AB_STAR))) == ""

    def test_bfs_finds_ab(self):
        assert shortest_word(regex_to_nfa("a(a|b)*b")) == "ab"

    def test_empty_language(self):
        assert shortest_word(dfa_as_nfa(empty_dfa(("a",)))) is None

    def test_is_shortest_and_lex_least(self):
        rng = random.Random(3)
        for _ in range(40):
            n = random_nfa(rng, rng.randint(1, 4))
            got = shortest_word(n)
            accepted = sorted(lang_upto(n, 5), key=lambda w: (len(w), w))
            if got is None:
                assert not accepted
            else:
                assert naive_nfa_accepts(n, got)
                if accepted:
                    assert (len(got), got) <= (len(accepted[0]), accepted[0])


class TestComplement:
    def test_full_unary_language(self):
        c = complement(parse_dfa(A_STAR))
        assert lang_upto(c, 4) == set()

    def test_involution(self):
        rng = random.Random(5)
        for _ in range(20):
            d = random_dfa(rng, 4)
            assert separating_word(dfa_as_nfa(complement(complement(d))), dfa_as_nfa(d)) is None

    def test_ab_star_complement_members(self):
        c = complement(parse_dfa(AB_STAR))
        for w in ["a", "b", "ba"]:
            assert run(c, w)
        for w in ["", "ab"]:
            assert not run(c, w)

    def test_partition_of_all_words(self):
        rng = random.Random(9)
        for _ in range(20):
            d = random_dfa(rng, 3)
            c = complement(d)
            for w in words_upto(d.alphabet, 4):
                assert naive_dfa_accepts(d, w) != naive_dfa_accepts(c, w)


class TestIncludesEquivalent:
    def test_word_in_star_product(self):
        sup = determinize(regex_to_nfa("a*b*"))
        assert inclusion_counterexample(sup, regex_to_nfa("ab")) is None

    def test_counterexample_is_shortest(self):
        sup = determinize(regex_to_nfa("(ab)*"))
        assert inclusion_counterexample(sup, regex_to_nfa("a*")) == "a"

    def test_empty_language_always_included(self):
        rng = random.Random(1)
        d = random_dfa(rng, 3)
        assert inclusion_counterexample(d, dfa_as_nfa(empty_dfa(d.alphabet))) is None

    def test_equivalence_of_regex_and_determinization(self):
        n = regex_to_nfa("(ab)*")
        assert separating_word(n, dfa_as_nfa(determinize(n))) is None

    def test_separator_found(self):
        a = regex_to_nfa("a*")
        b = regex_to_nfa("a*b*")
        assert separating_word(a, b) is not None
        assert separating_word(a, b) == "b"

    def test_empty_vs_epsilon(self):
        assert separating_word(dfa_as_nfa(empty_dfa(())), regex_to_nfa("")) == ""

    def test_separator_accepted_by_exactly_one(self):
        rng = random.Random(13)
        for _ in range(30):
            a = random_nfa(rng, 3)
            b = random_nfa(rng, 3)
            alpha = merge_alphabets(a.alphabet, b.alphabet)
            w = separating_word(a, b)
            if w is None:
                for word in words_upto(alpha, 4):
                    assert naive_nfa_accepts(a, word) == naive_nfa_accepts(b, word)
            else:
                assert naive_nfa_accepts(a, w) != naive_nfa_accepts(b, w)

    def test_reflexive_and_symmetric(self):
        rng = random.Random(19)
        for _ in range(10):
            a = random_nfa(rng, 3)
            b = random_nfa(rng, 3)
            assert separating_word(a, a) is None
            assert (separating_word(a, b) is None) == (separating_word(b, a) is None)


class TestCondense:
    def test_self_loop_is_nontrivial(self):
        c = condense(parse_dfa(A_STAR))
        assert len(c.components) == 1
        assert c.nontrivial == (True,)

    def test_acyclic_chain(self):
        d = parse_dfa(
            "dfa\nalphabet a\nstates 0 1 2\ninitial 0\naccept 2\n"
            "trans 0 a 1\ntrans 1 a 2\n")
        c = condense(d)
        assert len(c.components) == 3
        assert c.nontrivial == (False, False, False)

    def test_two_loop_structure(self):
        d = parse_dfa(
            "dfa\nalphabet a b\nstates 0 1\ninitial 0\naccept 0 1\n"
            "trans 0 a 0\ntrans 0 b 1\ntrans 1 b 1\n")
        c = condense(d)
        assert len(c.components) == 2
        assert all(c.nontrivial)
        assert c.scc_of[0] != c.scc_of[1]


class TestRun:
    def test_ab_star_words(self):
        d = parse_dfa(AB_STAR)
        assert run(d, "")
        assert not run(d, "aba")

    def test_out_of_alphabet_raises(self):
        with pytest.raises(AlphabetError):
            run(parse_dfa(A_STAR), "x")
        with pytest.raises(AlphabetError):
            run_nfa(regex_to_nfa("a"), "z")

    def test_nfa_agrees_with_determinized_run(self):
        rng = random.Random(23)
        for _ in range(200):
            n = random_nfa(rng, rng.randint(1, 4))
            d = determinize(n)
            k = rng.randint(0, 5)
            w = "".join(rng.choice(n.alphabet) for _ in range(k))
            assert run_nfa(n, w) == run(d, w)


class TestCanonicalAndText:
    def test_serialization_round_trip(self):
        rng = random.Random(29)
        for _ in range(20):
            d = random_dfa(rng, 4)
            text = dfa_to_text(d)
            again = parse_dfa(text)
            assert separating_word(dfa_as_nfa(d), dfa_as_nfa(again)) is None
            assert dfa_to_text(again) == text

    def test_nfa_round_trip(self):
        rng = random.Random(31)
        for _ in range(20):
            n = random_nfa(rng, 4)
            text = nfa_to_text(n)
            again = parse_nfa(text)
            assert separating_word(n, again) is None
            assert nfa_to_text(again) == text

    def test_canonical_reindexes_from_zero(self):
        d = parse_dfa(
            "dfa\nalphabet a\nstates 3 5\ninitial 5\naccept 3\ntrans 5 a 3\n")
        c = canonical_dfa(d)
        assert c.initial == 0
        assert c.states == frozenset({0, 1})

    def test_widen_adds_no_words(self):
        d = parse_dfa(A_STAR)
        w = widen_dfa(d, ("a", "b"))
        assert lang_upto(w, 3) == {x for x in words_upto(("a",), 3)}

    def test_union_covers_both(self):
        u = nfa_union([regex_to_nfa("a"), regex_to_nfa("b")], ("a", "b"))
        assert lang_upto(u, 2) == {"a", "b"}

    def test_universal_dfa(self):
        u = universal_dfa(("a", "b"))
        assert all(run(u, w) for w in words_upto(("a", "b"), 3))
