import random
import re

import pytest

from helpers import (
    dfa_as_nfa,
    lang_upto,
    nfa_union,
    oracle_noncommuting_cycles,
    random_dfa,
    trim_dfas_upto,
    words_upto,
)
from rrkit import (
    BoundedExpr,
    CertificateError,
    Dfa,
    Easy,
    FormatError,
    Hard,
    HardnessWitness,
    classification_from_text,
    classification_to_text,
    classify,
    determinize,
    empty_dfa,
    expr_to_nfa,
    normalize_witness,
    parse_dfa,
    primitive_root,
    regex_to_nfa,
    run_nfa,
    separating_word,
    trim,
    universal_dfa,
    verify_easy,
    verify_witness,
)

SIGMA_STAR = universal_dfa(("a", "b"))
A_STAR_B_STAR = parse_dfa(
    "dfa\nalphabet a b\nstates 0 1\ninitial 0\naccept 0 1\n"
    "trans 0 a 0\ntrans 0 b 1\ntrans 1 b 1\n")
AB_STAR = parse_dfa(
    "dfa\nalphabet a b\nstates 0 1\ninitial 0\naccept 0\ntrans 0 a 1\ntrans 1 b 0\n")
AB_OR_BA_STAR = parse_dfa(
    "dfa\nalphabet a b\nstates 0 1 2\ninitial 0\naccept 0\n"
    "trans 0 a 1\ntrans 1 b 0\ntrans 0 b 2\ntrans 2 a 0\n")


class TestPrimitiveRoot:
    def test_square(self):
        assert primitive_root("abab") == "ab"

    def test_primitive_word(self):
        assert primitive_root("aba") == "aba"

    def test_single_letter(self):
        assert primitive_root("b") == "b"

    def test_sixth_power(self):
        # independent check: try every divisor of 6 by hand
        assert all("aaaaaa" != ("a" * d) * (6 // d) or d >= 1 for d in (1, 2, 3, 6))
        assert primitive_root("aaaaaa") == "a"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            primitive_root("")


class TestNormalizeWitness:
    def test_single_letters(self):
        assert normalize_witness("a", "b") == ("ab", "ba")

    def test_two_letter_cycles(self):
        assert normalize_witness("ab", "ba") == ("abba", "baab")

    def test_commuting_pair_rejected(self):
        with pytest.raises(ValueError):
            normalize_witness("a", "aa")

    def test_outputs_equal_length_and_distinct(self):
        rng = random.Random(61)
        for _ in range(50):
            u = "".join(rng.choice("ab") for _ in range(rng.randint(1, 4)))
            v = "".join(rng.choice("ab") for _ in range(rng.randint(1, 4)))
            if u + v == v + u:
                continue
            big_u, big_v = normalize_witness(u, v)
            assert len(big_u) == len(big_v)
            assert big_u != big_v


class TestClassifyVerdicts:
    def test_full_binary_language_is_hard(self):
        verdict = classify(SIGMA_STAR)
        assert isinstance(verdict, Hard)
        w = verdict.witness
        assert w.state == 0 and w.access == "" and w.exit_word == ""
        # normalized from the one-letter loops found in alphabet order
        assert (w.cycle_a, w.cycle_b) == ("ab", "ba")
        verify_witness(SIGMA_STAR, w)

    def test_a_star_b_star_is_easy(self):
        verdict = classify(A_STAR_B_STAR)
        assert isinstance(verdict, Easy)
        assert verdict.envelope == ("a", "b")
        verify_easy(A_STAR_B_STAR, verdict.decomposition, verdict.envelope)

    def test_two_block_shuffle_is_hard(self):
        verdict = classify(AB_OR_BA_STAR)
        assert isinstance(verdict, Hard)
        w = verdict.witness
        assert w.state == 0 and w.access == "" and w.exit_word == ""
        assert (w.cycle_a, w.cycle_b) == ("abba", "baab")
        assert "abba" != "baab" and "ab" + "ba" != "ba" + "ab"

    def test_ab_star_is_easy_with_single_loop(self):
        verdict = classify(AB_STAR)
        assert isinstance(verdict, Easy)
        assert verdict.envelope == ("ab",)
        assert verdict.decomposition == (BoundedExpr("", (("ab", ""),)),)

    def test_empty_language_is_easy_and_bare(self):
        verdict = classify(empty_dfa(("a", "b")))
        assert verdict == Easy((), ())

    def test_epsilon_language(self):
        d = parse_dfa("dfa\nalphabet a\nstates 0\ninitial 0\naccept 0\n")
        verdict = classify(d)
        assert verdict == Easy((BoundedExpr("", ()),), ())

    def test_untrimmed_input_is_fine(self):
        d = parse_dfa(
            "dfa\nalphabet a b\nstates 0 1 2\ninitial 0\naccept 0\n"
            "trans 0 a 1\ntrans 1 b 0\ntrans 0 b 2\n")  # state 2 is a dead end
        verdict = classify(d)
        assert isinstance(verdict, Easy)

    def test_power_loop_language(self):
        # (aa)*: bounded, its only loop word is imprimitive as a word
        d = parse_dfa(
            "dfa\nalphabet a\nstates 0 1\ninitial 0\naccept 0\n"
            "trans 0 a 1\ntrans 1 a 0\n")
        verdict = classify(d)
        assert isinstance(verdict, Easy)
        assert verdict.decomposition == (BoundedExpr("", (("aa", ""),)),)
        assert verdict.envelope == ("aa",)


class TestClassifyMatchesBruteForce:
    def test_exhaustive_two_states(self):
        for d in trim_dfas_upto(2):
            assert isinstance(classify(d), Hard) == oracle_noncommuting_cycles(d)

    def test_random_small_machines(self):
        rng = random.Random(67)
        for _ in range(60):
            d = trim(random_dfa(rng, rng.randint(1, 4)))
            assert isinstance(classify(d), Hard) == oracle_noncommuting_cycles(d)


class TestCertificateSoundness:
    def test_hard_witness_replays(self):
        rng = random.Random(71)
        found = 0
        while found < 15:
            d = random_dfa(rng, rng.randint(2, 5))
            verdict = classify(d)
            if not isinstance(verdict, Hard):
                continue
            found += 1
            w = verdict.witness
            t = trim(d)
            assert t.walk(t.initial, w.access) == w.state
            assert t.walk(w.state, w.cycle_a) == w.state
            assert t.walk(w.state, w.cycle_b) == w.state
            assert t.walk(w.state, w.exit_word) in t.accepting
            assert not w.cycle_a.startswith(w.cycle_b)
            assert not w.cycle_b.startswith(w.cycle_a)

    def test_easy_union_equals_language(self):
        rng = random.Random(73)
        found = 0
        while found < 15:
            d = random_dfa(rng, rng.randint(1, 4), density=0.5)
            verdict = classify(d)
            if not isinstance(verdict, Easy):
                continue
            found += 1
            union = nfa_union(
                [expr_to_nfa(e, d.alphabet) for e in verdict.decomposition],
                d.alphabet)
            assert separating_word(union, dfa_as_nfa(d)) is None
            for w in words_upto(d.alphabet, 4):
                in_lang = run_nfa(dfa_as_nfa(d), w)
                in_union = run_nfa(union, w) if union.states else False
                assert in_lang == in_union

    def test_tampered_witness_rejected(self):
        bad = HardnessWitness(0, "", "ab", "abab", "")  # one cycle prefixes the other
        with pytest.raises(CertificateError):
            verify_witness(SIGMA_STAR, bad)

    def test_wrong_state_rejected(self):
        with pytest.raises(CertificateError):
            verify_witness(SIGMA_STAR, HardnessWitness(5, "", "ab", "ba", ""))

    def test_broken_cycle_rejected(self):
        with pytest.raises(CertificateError):
            verify_witness(AB_OR_BA_STAR, HardnessWitness(0, "", "aa", "ba", ""))

    def test_tampered_decomposition_rejected(self):
        verdict = classify(A_STAR_B_STAR)
        with pytest.raises(CertificateError):
            verify_easy(A_STAR_B_STAR, verdict.decomposition[:1], verdict.envelope)

    def test_tampered_envelope_rejected(self):
        verdict = classify(A_STAR_B_STAR)
        with pytest.raises(CertificateError):
            verify_easy(A_STAR_B_STAR, verdict.decomposition, ("a",))

    def test_empty_loop_word_rejected_as_certificate_error(self):
        a_star = parse_dfa(
            "dfa\nalphabet a\nstates 0\ninitial 0\naccept 0\ntrans 0 a 0\n")
        bad = (BoundedExpr("", (("", "a"),)),)
        with pytest.raises(CertificateError, match="empty loop word"):
            verify_easy(a_star, bad, ("a",))


def chain_filter(n):
    """Machine accepting only a^n: a chain of n + 1 states."""
    return Dfa(("a",), frozenset(range(n + 1)), 0, frozenset({n}),
               {(q, "a"): q + 1 for q in range(n)})


class TestLongWalks:
    def test_chain_1200_decomposes_without_recursion(self):
        verdict = classify(chain_filter(1200))
        assert isinstance(verdict, Easy)
        assert verdict.decomposition == (BoundedExpr("a" * 1200, ()),)
        assert classification_to_text(verdict).splitlines()[1] == f"expr p={'a' * 1200} blocks="


class TestDecomposeEnvelope:
    def test_finite_language_gives_loop_free_exprs(self):
        d = determinize(regex_to_nfa("ab|ba"))
        exprs = classify(d).decomposition
        assert sorted(e.prefix for e in exprs) == ["ab", "ba"]
        assert all(e.blocks == () for e in exprs)

    def test_envelope_star_product_includes_language(self):
        d = determinize(regex_to_nfa("ab|aab"))
        words = classify(d).envelope
        # letter-wise inclusion, checked by hand against both members
        remaining = {"ab", "aab"}
        for target in list(remaining):
            i = 0
            for factor in words:
                while i < len(target) and target[i:i + len(factor)] == factor:
                    i += len(factor)
            if i == len(target):
                remaining.discard(target)
        assert not remaining


class TestExprToNfa:
    def test_single_loop(self):
        n = expr_to_nfa(BoundedExpr("", (("a", ""),)), ("a",))
        assert lang_upto(n, 3) == {"", "a", "aa", "aaa"}

    def test_prefix_loop_bridge(self):
        n = expr_to_nfa(BoundedExpr("c", (("ab", "d"),)), ("a", "b", "c", "d"))
        for w in ["cd", "cabd", "cababd"]:
            assert run_nfa(n, w)
        for w in ["c", "cab", "abd"]:
            assert not run_nfa(n, w)

    def test_bare_prefix(self):
        n = expr_to_nfa(BoundedExpr("ba", ()), ("a", "b"))
        assert lang_upto(n, 4) == {"ba"}

    def test_empty_loop_rejected(self):
        with pytest.raises(ValueError):
            expr_to_nfa(BoundedExpr("", (("", "a"),)), ("a",))

    def test_loops_after_an_empty_bridge_keep_their_order(self):
        n = expr_to_nfa(BoundedExpr("", (("a", ""), ("b", ""))), ("a", "b"))
        assert lang_upto(n, 3) == {"", "a", "b", "aa", "ab", "bb",
                                   "aaa", "aab", "abb", "bbb"}

    @staticmethod
    def _random_expr(rng, alphabet) -> BoundedExpr:
        def word(lo, hi):
            return "".join(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))

        blocks = []
        for _ in range(rng.randint(0, 4)):
            # repeat the previous loop now and then, and leave about half
            # of the bridges empty
            loop = blocks[-1][0] if blocks and rng.random() < 0.3 else word(1, 3)
            bridge = "" if rng.random() < 0.5 else word(1, 2)
            blocks.append((loop, bridge))
        return BoundedExpr(word(0, 2), tuple(blocks))

    @pytest.mark.parametrize("alphabet", [("a", "b"), ("a", "b", "c")])
    def test_matches_the_expressions_regex(self, alphabet):
        rng = random.Random(167 + len(alphabet))
        for _ in range(60):
            e = self._random_expr(rng, alphabet)
            pattern = re.compile(re.escape(e.prefix) + "".join(
                f"(?:{re.escape(x)})*{re.escape(y)}" for x, y in e.blocks))
            want = {w for w in words_upto(alphabet, 6) if pattern.fullmatch(w)}
            assert lang_upto(expr_to_nfa(e, alphabet), 6) == want, e


class TestStarChainCertificates:
    # a*b* as two loops with an empty bridge between them
    A_THEN_B = (BoundedExpr("", (("a", ""), ("b", ""))),)

    def test_forged_easy_certificate_for_sigma_star_rejected(self):
        with pytest.raises(CertificateError) as err:
            verify_easy(universal_dfa("ab"), self.A_THEN_B, ("a", "b"))
        assert str(err.value) == "decomposition differs from the filter on 'ba'"

    def test_valid_certificate_for_a_star_b_star_accepted(self):
        verify_easy(A_STAR_B_STAR, self.A_THEN_B, ("a", "b"))

    def test_envelope_in_the_wrong_order_is_rejected(self):
        # the factors do not embed, so the exact check reads the envelope
        # as b*a*, which misses `ab`
        with pytest.raises(CertificateError) as err:
            verify_easy(A_STAR_B_STAR, self.A_THEN_B, ("b", "a"))
        assert str(err.value) == "envelope star product misses the filter word 'ab'"


class TestCertificateText:
    def test_hard_round_trip(self):
        verdict = classify(SIGMA_STAR)
        text = classification_to_text(verdict)
        assert text == "hard q=0 p=- u=ab v=ba s=-\n"
        assert classification_from_text(text) == verdict

    def test_easy_round_trip(self):
        verdict = classify(A_STAR_B_STAR)
        text = classification_to_text(verdict)
        lines = text.splitlines()
        assert lines[0] == "easy"
        assert lines[-1] == "envelope a b"
        assert classification_from_text(text) == verdict

    def test_empty_certificate_round_trip(self):
        verdict = classify(empty_dfa(("a",)))
        text = classification_to_text(verdict)
        assert text == "easy\nenvelope\n"
        assert classification_from_text(text) == verdict

    def test_upper_case_head_accepted(self):
        verdict = classify(SIGMA_STAR)
        text = classification_to_text(verdict).replace("hard", "HARD", 1)
        assert classification_from_text(text) == verdict

    def test_tokens_after_easy_header_rejected(self):
        with pytest.raises(FormatError) as err:
            classification_from_text("easy extra tokens\nenvelope a\n")
        assert str(err.value) == "line 1: unexpected tokens after header"
        assert err.value.line == 1

    def test_block_with_two_commas_rejected(self):
        with pytest.raises(FormatError) as err:
            classification_from_text("easy\nexpr p=- blocks=(a,-);(a,b,c)\nenvelope a\n")
        assert str(err.value) == "line 2: bad block `(a,b,c)`"
        assert err.value.line == 2
