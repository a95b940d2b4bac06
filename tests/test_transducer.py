import random

import pytest

from helpers import (
    count_calls,
    dfa_as_nfa,
    identity_transducer,
    image_member,
    lang_upto,
    naive_apply,
    naive_dfa_accepts,
    naive_nfa_accepts,
    oracle_compose_dfst,
    oracle_preimage_nfa,
    random_dfa,
    random_dfst,
    words_upto,
)
from rrkit import (
    AlphabetError,
    Dfa,
    Dfst,
    FormatError,
    apply,
    classify,
    compose_dfst,
    cover,
    dfst_to_text,
    image_nfa,
    parse_dfa,
    parse_dfst,
    preimage_automaton,
    regex_to_nfa,
    separating_word,
    surjection_to_star,
    universal_dfa,
)
from rrkit.transducer import _restrict

AB_STAR = parse_dfa(
    "dfa\nalphabet a b\nstates 0 1\ninitial 0\naccept 0\ntrans 0 a 1\ntrans 1 b 0\n")
A_STAR = parse_dfa(
    "dfa\nalphabet a\nstates 0\ninitial 0\naccept 0\ntrans 0 a 0\n")


def rewriter(src, dst):
    """One-state machine mapping each `src` symbol to the word `dst`."""
    return Dfst((src,), tuple(sorted(set(dst))) or (src,), frozenset({0}), 0,
                frozenset({0}), {(0, src): (dst, 0)}, {})


class TestApply:
    def test_identity_on_unary_star(self):
        t = identity_transducer(A_STAR)
        assert apply(t, "aa") == "aa"

    def test_rewrite_each_letter(self):
        t = rewriter("a", "b")
        assert apply(t, "aaa") == "bbb"

    def test_missing_transition_is_undefined(self):
        t = identity_transducer(AB_STAR)
        assert apply(t, "aa") is None

    def test_nonaccepting_end_is_undefined(self):
        t = identity_transducer(AB_STAR)
        assert apply(t, "a") is None

    def test_final_output_appended(self):
        t = Dfst(("a",), ("a", "b"), frozenset({0}), 0, frozenset({0}),
                 {(0, "a"): ("a", 0)}, {0: "bb"})
        assert apply(t, "") == "bb"
        assert apply(t, "aa") == "aabb"

    def test_out_of_alphabet_raises(self):
        with pytest.raises(AlphabetError):
            apply(identity_transducer(A_STAR), "x")


class TestCompose:
    def test_identity_twice_is_identity(self):
        ident = identity_transducer(A_STAR)
        both = compose_dfst(ident, ident)
        for w in words_upto(("a",), 4):
            assert apply(both, w) == w

    def test_two_rewrites_chain(self):
        ab = rewriter("a", "b")
        bc = rewriter("b", "c")
        t = compose_dfst(ab, bc)
        assert apply(t, "aa") == "cc"

    def test_partiality_propagates(self):
        first = rewriter("a", "b")
        second = identity_transducer(parse_dfa(
            "dfa\nalphabet b\nstates 0 1\ninitial 0\naccept 1\ntrans 0 b 1\n"))
        t = compose_dfst(first, second)
        assert apply(t, "a") == "b"
        assert apply(t, "aa") is None

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetError):
            compose_dfst(rewriter("a", "b"), rewriter("c", "d"))

    def test_random_semantics_with_final_outputs(self):
        rng = random.Random(41)
        for _ in range(30):
            t1 = random_dfst(rng, rng.randint(1, 3))
            t2 = random_dfst(rng, rng.randint(1, 3))
            t = compose_dfst(t1, t2)
            for w in words_upto(("a", "b"), 4):
                mid = naive_apply(t1, w)
                want = None if mid is None else naive_apply(t2, mid)
                assert apply(t, w) == want


class TestPreimage:
    def test_identity_preimage_is_the_language(self):
        t = identity_transducer(universal_dfa(("a", "b")))
        pre = preimage_automaton(t, AB_STAR)
        assert separating_word(pre, dfa_as_nfa(AB_STAR)) is None

    def test_expanding_rewriter(self):
        t = Dfst(("a",), ("a", "b"), frozenset({0}), 0, frozenset({0}),
                 {(0, "a"): ("ab", 0)}, {})
        pre = preimage_automaton(t, AB_STAR)
        assert separating_word(pre, regex_to_nfa("a*")) is None

    def test_empty_target(self):
        from rrkit import empty_dfa
        t = identity_transducer(universal_dfa(("a", "b")))
        pre = preimage_automaton(t, empty_dfa(("a", "b")))
        assert lang_upto(pre, 3) == set()

    def test_pointwise_semantics(self):
        rng = random.Random(43)
        for _ in range(30):
            t = random_dfst(rng, rng.randint(1, 3))
            a = random_dfa(rng, rng.randint(1, 3))
            pre = preimage_automaton(t, a)
            for x in words_upto(("a", "b"), 4):
                y = naive_apply(t, x)
                want = y is not None and naive_nfa_accepts(dfa_as_nfa(a), y)
                assert naive_dfa_accepts(pre, x) == want


LABELS = (lambda q: q, lambda q: -q, lambda q: 3 * q + 2, lambda q: 10**40 + 7 * q)


def _relabel(m, label):
    """The Dfst or Dfa m with each state q renamed label(q)."""
    if isinstance(m, Dfa):
        return Dfa(m.alphabet, frozenset(map(label, m.states)), label(m.initial),
                   frozenset(map(label, m.accepting)),
                   {(label(q), sym): label(d) for (q, sym), d in m.transitions.items()})
    return Dfst(m.in_alphabet, m.out_alphabet, frozenset(map(label, m.states)),
                label(m.initial), frozenset(map(label, m.accepting)),
                {(label(q), sym): (out, label(d)) for (q, sym), (out, d) in m.transitions.items()},
                {label(q): out for q, out in m.final_output.items()})


class TestRestrict:
    """`_restrict` is the one in-step construction of a transducer and a
    DFA reading its output; the preimage is its pairs."""

    def _cases(self):
        rng = random.Random(61)
        for _ in range(60):
            t = random_dfst(rng, rng.randint(1, 5), out_alphabet=("a", "b", "c"),
                            max_out=3, final_prob=0.5)
            a = random_dfa(rng, rng.randint(1, 5), ("a", "b", "c"),
                           density=rng.choice((0.5, 0.8)))
            for label in LABELS:
                yield t, _relabel(t, label), _relabel(a, label)

    def test_same_text_as_composing_with_the_copy_machine(self):
        for t, _, a in self._cases():
            assert dfst_to_text(_restrict(t, a)) \
                == dfst_to_text(oracle_compose_dfst(t, identity_transducer(a)))

    def test_preimage_numbers_pairs_like_the_oracle(self):
        for _, t, a in self._cases():
            pre = preimage_automaton(t, a)
            want = oracle_preimage_nfa(t, a)
            assert (pre.states, frozenset({pre.initial}), pre.accepting) \
                == (want.states, want.initial, want.accepting)
            assert tuple((i, sym, j) for (i, sym), j in pre.transitions.items()) \
                == want.transitions

    def test_one_call_per_construction(self, monkeypatch):
        sigma_star = universal_dfa(("a", "b"))
        calls = count_calls(monkeypatch, ["_restrict"])
        cover(sigma_star, AB_STAR)
        assert calls == {"_restrict": 1}
        surjection_to_star(sigma_star, classify(sigma_star).witness, ("a", "b", "c"))
        assert calls == {"_restrict": 2}
        preimage_automaton(identity_transducer(sigma_star), AB_STAR)
        assert calls == {"_restrict": 3}


class TestImage:
    def test_identity_image(self):
        t = identity_transducer(universal_dfa(("a", "b")))
        assert separating_word(image_nfa(t, AB_STAR), dfa_as_nfa(AB_STAR)) is None

    def test_letter_rewrite_image(self):
        t = rewriter("a", "b")
        img = image_nfa(t, A_STAR)
        assert separating_word(img, regex_to_nfa("b*")) is None

    def test_empty_source(self):
        from rrkit import empty_dfa
        t = identity_transducer(universal_dfa(("a", "b")))
        assert lang_upto(image_nfa(t, empty_dfa(("a", "b"))), 3) == set()

    def test_membership_against_configuration_search(self):
        rng = random.Random(47)
        for _ in range(30):
            t = random_dfst(rng, rng.randint(1, 3))
            a = random_dfa(rng, rng.randint(1, 3))
            img = image_nfa(t, a)
            for y in words_upto(("a", "b"), 4):
                assert naive_nfa_accepts(img, y) == image_member(t, a, y)


class TestIdentityTransducer:
    def test_copies_accepted_word(self):
        t = identity_transducer(AB_STAR)
        assert apply(t, "ab") == "ab"

    def test_undefined_outside_language(self):
        t = identity_transducer(AB_STAR)
        assert apply(t, "a") is None

    def test_image_over_universal_reproduces_language(self):
        rng = random.Random(53)
        for _ in range(15):
            a = random_dfa(rng, rng.randint(1, 4))
            t = identity_transducer(a)
            img = image_nfa(t, universal_dfa(a.alphabet))
            assert separating_word(img, dfa_as_nfa(a)) is None

    def test_idempotent_under_composition(self):
        t = identity_transducer(AB_STAR)
        twice = compose_dfst(t, t)
        for w in words_upto(("a", "b"), 5):
            assert apply(twice, w) == apply(t, w)


class TestDfstText:
    def test_constructor_rejects_repeated_symbol(self):
        # the writer would print `in_alphabet a a`, which no parser reads back
        with pytest.raises(ValueError, match="duplicate alphabet symbol"):
            Dfst(("a", "a"), ("a",), frozenset({0, 1}), 0, frozenset({1}),
                 {(0, "a"): ("a", 1)}, {})
        with pytest.raises(ValueError, match="duplicate alphabet symbol"):
            Dfst(("a",), ("b", "b"), frozenset({0}), 0, frozenset({0}), {(0, "a"): ("b", 0)}, {})
        with pytest.raises(FormatError, match="duplicate alphabet symbol"):
            parse_dfst("dfst\nin_alphabet a a\nout_alphabet a\nstates 0\ninitial 0\naccept 0\n")

    def test_round_trip(self):
        rng = random.Random(59)
        for _ in range(20):
            t = random_dfst(rng, rng.randint(1, 4))
            text = dfst_to_text(t)
            again = parse_dfst(text)
            for w in words_upto(("a", "b"), 4):
                assert naive_apply(t, w) == naive_apply(again, w)
            assert dfst_to_text(again) == text

    def test_parse_rejects_duplicate_input_edge(self):
        text = ("dfst\nin_alphabet a\nout_alphabet a\nstates 0\ninitial 0\n"
                "accept 0\ntrans 0 a a 0\ntrans 0 a - 0\n")
        with pytest.raises(FormatError, match="duplicate"):
            parse_dfst(text)

    def test_parse_rejects_eps_input(self):
        text = ("dfst\nin_alphabet a\nout_alphabet a\nstates 0\ninitial 0\n"
                "accept 0\ntrans 0 eps a 0\n")
        with pytest.raises(FormatError):
            parse_dfst(text)

    def test_parse_rejects_final_on_nonaccepting(self):
        text = ("dfst\nin_alphabet a\nout_alphabet a\nstates 0 1\ninitial 0\n"
                "accept 1\ntrans 0 a a 1\nfinal 0 a\n")
        with pytest.raises(FormatError, match="non-accepting"):
            parse_dfst(text)

    def test_empty_output_dash(self):
        text = ("dfst\nin_alphabet a\nout_alphabet b\nstates 0\ninitial 0\n"
                "accept 0\ntrans 0 a - 0\n")
        t = parse_dfst(text)
        assert apply(t, "aaa") == ""
