import importlib
import random
import sys

import pytest

from helpers import (
    count_calls,
    dfa_as_nfa,
    identity_transducer,
    oracle_cover,
    outcome,
    planted_hard_filter,
    random_dfa,
    words_upto,
)
from rrkit import (
    CertificateError,
    ClassificationMismatch,
    Dfa,
    Dfst,
    Hard,
    HardnessWitness,
    apply,
    classify,
    cover,
    cover_gap,
    determinize,
    dfa_to_text,
    dfst_to_text,
    empty_dfa,
    image_nfa,
    parse_dfa,
    parse_dfst,
    plan_cover,
    regex_to_nfa,
    run,
    separating_word,
    surjection_to_star,
    universal_dfa,
    verify_cover,
)
from rrkit.cli import main

# the package re-exports functions under their modules' names
cover_module = importlib.import_module("rrkit.cover")
cli_module = importlib.import_module("rrkit.cli")
classify_module = importlib.import_module("rrkit.classify")

SIGMA_STAR = universal_dfa(("a", "b"))
LETTER_WITNESS = HardnessWitness(state=0, access="", cycle_a="a", cycle_b="b",
                                 exit_word="")


class TestCoverPlan:
    def test_binary_codes(self):
        plan = plan_cover(LETTER_WITNESS, ("a", "b"))
        assert (plan.zero_word, plan.one_word, plan.stop_word) == ("ab", "ba", "aa")
        assert plan.bits_per_letter == 1
        assert plan.letter_codes == (("a", "0"), ("b", "1"))

    def test_dispatch_words_prefix_incomparable(self):
        rng = random.Random(79)
        for _ in range(50):
            u = "".join(rng.choice("ab") for _ in range(rng.randint(1, 3)))
            v = "".join(rng.choice("ab") for _ in range(rng.randint(1, 3)))
            if u + v == v + u:
                continue
            s = "".join(rng.choice("ab") for _ in range(rng.randint(0, 3)))
            w = HardnessWitness(0, "", u + v, v + u, s)
            plan = plan_cover(w, ("a", "b", "c"))
            words = [plan.zero_word, plan.one_word, plan.stop_word]
            for i, x in enumerate(words):
                for y in words[i + 1:]:
                    assert not x.startswith(y) and not y.startswith(x)

    def test_wide_alphabet_uses_block_code(self):
        plan = plan_cover(LETTER_WITNESS, ("a", "b", "c"))
        assert plan.bits_per_letter == 2
        assert dict(plan.letter_codes) == {"a": "00", "b": "01", "c": "10"}

    def test_empty_target_alphabet_rejected(self):
        with pytest.raises(ValueError):
            plan_cover(LETTER_WITNESS, ())


class TestSurjection:
    def test_traced_applications(self):
        t = surjection_to_star(SIGMA_STAR, LETTER_WITNESS, ("a", "b"))
        # codes: ab -> bit 0 -> letter a, ba -> bit 1 -> letter b, aa -> stop
        assert apply(t, "abaa") == "a"
        assert apply(t, "baaa") == "b"
        assert apply(t, "abbaaa") == "ab"
        assert apply(t, "aa") == ""

    def test_stop_required_and_terminal(self):
        t = surjection_to_star(SIGMA_STAR, LETTER_WITNESS, ("a", "b"))
        assert apply(t, "ab") is None        # no stop word read
        assert apply(t, "aaab") is None      # input after the stop word
        assert apply(t, "bb") is None        # not a code word

    def test_image_is_all_words(self):
        t = surjection_to_star(SIGMA_STAR, LETTER_WITNESS, ("a", "b"))
        assert separating_word(image_nfa(t, SIGMA_STAR),
                               dfa_as_nfa(universal_dfa(("a", "b")))) is None

    def test_unary_target(self):
        t = surjection_to_star(SIGMA_STAR, LETTER_WITNESS, ("c",))
        assert separating_word(image_nfa(t, SIGMA_STAR), regex_to_nfa("c*")) is None
        assert apply(t, "abaa") == "c"
        assert apply(t, "baaa") == "c"

    def test_three_letter_target_uses_two_bit_blocks(self):
        t = surjection_to_star(SIGMA_STAR, LETTER_WITNESS, ("a", "b", "c"))
        # two code words per letter: 00 -> a, 01 -> b, 10 -> c, 11 -> c
        assert apply(t, "ababaa") == "a"
        assert apply(t, "abbaaa") == "b"
        assert apply(t, "baabaa") == "c"
        assert apply(t, "babaaa") == "c"
        assert apply(t, "abaa") is None  # half a block before the stop word
        assert separating_word(image_nfa(t, SIGMA_STAR),
                               dfa_as_nfa(universal_dfa(("a", "b", "c")))) is None

    def test_cover_onto_three_letter_target(self):
        target = determinize(regex_to_nfa("c(a|b|c)*"))
        assert len(target.alphabet) == 3
        t = cover(SIGMA_STAR, target)
        assert verify_cover(t, SIGMA_STAR, target)

    def test_domain_lies_inside_filter(self):
        rng = random.Random(83)
        hard = []
        while len(hard) < 5:
            d = random_dfa(rng, rng.randint(2, 4))
            verdict = classify(d)
            if isinstance(verdict, Hard):
                hard.append((d, verdict.witness))
        for d, witness in hard:
            t = surjection_to_star(d, witness, ("a", "b"))
            plan = plan_cover(witness, ("a", "b"))
            for _ in range(20):
                blocks = "".join(
                    rng.choice([plan.zero_word, plan.one_word])
                    for _ in range(rng.randint(0, 3) * plan.bits_per_letter))
                word = witness.access + blocks + plan.stop_word
                assert apply(t, word) is not None
                assert run(d, word)

    def test_invalid_witness_rejected(self):
        bad = HardnessWitness(0, "", "ab", "ba", "")
        ab_star = parse_dfa(
            "dfa\nalphabet a b\nstates 0 1\ninitial 0\naccept 0\n"
            "trans 0 a 1\ntrans 1 b 0\n")
        with pytest.raises(CertificateError):
            surjection_to_star(ab_star, bad, ("a", "b"))


class TestCover:
    def test_full_filter_onto_ab_star(self):
        target = determinize(regex_to_nfa("(ab)*"))
        t = cover(SIGMA_STAR, target)
        assert verify_cover(t, SIGMA_STAR, target)

    def test_empty_target(self):
        target = empty_dfa(("a", "b"))
        t = cover(SIGMA_STAR, target)
        assert verify_cover(t, SIGMA_STAR, target)

    def test_cover_self(self):
        t = cover(SIGMA_STAR, SIGMA_STAR)
        assert verify_cover(t, SIGMA_STAR, SIGMA_STAR)

    def test_easy_filter_refused(self):
        a_star = determinize(regex_to_nfa("a*"))
        with pytest.raises(ClassificationMismatch) as err:
            cover(a_star, SIGMA_STAR)
        assert err.value.verdict == classify(a_star)

    def test_epsilon_only_target(self):
        target = determinize(regex_to_nfa(""))
        t = cover(SIGMA_STAR, target)
        assert verify_cover(t, SIGMA_STAR, target)

    def test_random_hard_filters_cover_random_targets(self):
        rng = random.Random(89)
        hard = []
        while len(hard) < 3:
            d = random_dfa(rng, rng.randint(3, 5))
            if isinstance(classify(d), Hard):
                hard.append(d)
        for d in hard:
            for _ in range(2):
                target = random_dfa(rng, rng.randint(1, 3))
                t = cover(d, target)
                assert verify_cover(t, d, target)


class TestVerifyCover:
    def test_surjection_passes(self):
        t = surjection_to_star(SIGMA_STAR, LETTER_WITNESS, ("a", "b"))
        assert verify_cover(t, SIGMA_STAR, universal_dfa(("a", "b")))

    def test_wrong_target_reports_image_side(self):
        a_star = parse_dfa("dfa\nalphabet a\nstates 0\ninitial 0\naccept 0\ntrans 0 a 0\n")
        b_star = determinize(regex_to_nfa("b*"))
        t = identity_transducer(a_star)
        assert not verify_cover(t, a_star, b_star)
        assert cover_gap(t, a_star, b_star) == ("a", "image")

    def test_empty_vs_empty(self):
        t = identity_transducer(empty_dfa(("a",)))
        assert verify_cover(t, empty_dfa(("a",)), empty_dfa(("a",)))

    def test_serialized_artifact_still_verifies(self):
        target = determinize(regex_to_nfa("(ab)*"))
        t = cover(SIGMA_STAR, target)
        again = parse_dfst(dfst_to_text(t))
        assert verify_cover(again, SIGMA_STAR, target)
        for w in words_upto(("a", "b"), 5):
            assert apply(t, w) == apply(again, w)


# ---------------------------------------------------------------------------
# one classify and one image check per cover


def _hard_filters(rng):
    found = [SIGMA_STAR]
    while len(found) < 12:
        d = random_dfa(rng, rng.randint(2, 6))
        if isinstance(classify(d), Hard):
            found.append(d)
    found += [planted_hard_filter(rng, n) for n in (3, 8, 20)]
    return found


def _targets(rng):
    targets = [random_dfa(rng, rng.randint(1, 4), alphabet)
               for alphabet in (("a", "b"), ("a", "b", "c"), ("b", "a"), ("c",))
               for _ in range(3)]
    # an empty target alphabet: the cover writes the filter's letters
    epsilon_only = Dfa((), frozenset({0}), 0, frozenset({0}), {})
    return targets + [empty_dfa(("a", "b")), epsilon_only]


class TestCoverMatchesOracle:
    def test_random_hard_filters_and_targets(self):
        rng = random.Random(149)
        targets = _targets(rng)
        for f in _hard_filters(rng):
            for r in rng.sample(targets, 5):
                assert dfst_to_text(cover(f, r)) == dfst_to_text(oracle_cover(f, r))

    def test_easy_filter_same_error(self):
        a_star = determinize(regex_to_nfa("a*"))
        assert outcome(cover, a_star, SIGMA_STAR) == outcome(oracle_cover, a_star, SIGMA_STAR)

    @pytest.mark.parametrize("kind", ["partial", "unreachable states", "no accepting state",
                                      "empty alphabet", "unused letter"])
    def test_edge_case_targets(self, kind):
        rng = random.Random(163)
        filters = _hard_filters(rng)
        for f in filters:
            for _ in range(3):
                r = _special_target(rng, kind)
                got, want = cover(f, r), oracle_cover(f, r)
                assert dfst_to_text(got) == dfst_to_text(want)
                assert len(got.states) == len(want.states)


def _special_target(rng, kind):
    """A target DFA of the named kind, over {a, b, c} unless it has none."""
    alphabet = ("a", "b", "c")
    if kind == "empty alphabet":
        # the cover then writes the filter's letters
        return Dfa((), frozenset({0, 1}), 0, frozenset({rng.randrange(2)}), {})
    r = random_dfa(rng, rng.randint(1, 6), alphabet,
                   density=0.4 if kind == "partial" else 1.0)
    states, transitions, accepting = set(r.states), dict(r.transitions), r.accepting
    if kind == "unreachable states":
        # two states that nothing enters; one accepts and leads back in
        n = len(states)
        states |= {n, n + 1}
        transitions.update({(n, "a"): 0, (n, "b"): n + 1, (n + 1, "c"): n})
        accepting |= {n}
    elif kind == "no accepting state":
        accepting = frozenset()
    elif kind == "unused letter":
        # `c` is one of the plan's letters, but r reads it nowhere
        transitions = {edge: t for edge, t in transitions.items() if edge[1] != "c"}
    return Dfa(alphabet, frozenset(states), r.initial, frozenset(accepting), transitions)


def test_cover_builds_no_composition(monkeypatch):
    calls = count_calls(monkeypatch, ["compose_dfst"])
    f = planted_hard_filter(random.Random(167), 40)
    cover(f, determinize(regex_to_nfa("c(a|b|c)*")))
    assert calls == {"compose_dfst": 0}
    assert not any(hasattr(module, "identity_transducer")
                   for name, module in sys.modules.items() if name.startswith("rrkit"))


class TestCoverChecksOnce:
    GUARDED = ("classify", "image_nfa", "surjection_to_star", "verify_cover")

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = dict.fromkeys(self.GUARDED, 0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module in (cover_module, cli_module, classify_module):
            for name in self.GUARDED:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        return counts

    WANT = {"classify": 1, "image_nfa": 0, "surjection_to_star": 0, "verify_cover": 0}

    def test_library_cover(self, calls):
        f = planted_hard_filter(random.Random(151), 40)
        t = cover(f, determinize(regex_to_nfa("c(a|b|c)*")))
        assert calls == self.WANT
        assert isinstance(t, Dfst)

    def test_cli_cover(self, calls, tmp_path, capsys):
        f = tmp_path / "f.txt"
        f.write_text(dfa_to_text(planted_hard_filter(random.Random(157), 40)))
        r = tmp_path / "r.txt"
        r.write_text(dfa_to_text(determinize(regex_to_nfa("(ab)*"))))
        assert main(["cover", str(f), str(r)]) == 0
        assert capsys.readouterr().out.endswith("VERIFIED image == target\n")
        assert calls == self.WANT

    def test_cli_cover_on_easy_filter(self, calls, tmp_path, capsys):
        f = tmp_path / "f.txt"
        f.write_text("dfa\nalphabet a b\nstates 0 1\ninitial 0\naccept 0 1\n"
                     "trans 0 a 0\ntrans 0 b 1\ntrans 1 b 1\n")
        r = tmp_path / "r.txt"
        r.write_text(dfa_to_text(determinize(regex_to_nfa("(ab)*"))))
        assert main(["cover", str(f), str(r)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ("EASY\nexpr p=- blocks=(a,-)\n"
                                "expr p=- blocks=(a,b);(b,-)\nenvelope a b\n")
        assert captured.err == "easy filter: it does not cover arbitrary languages\n"
        assert calls["classify"] == 1

    def test_wrong_composition_is_caught(self, monkeypatch):
        # a construction that copies the filter instead of mapping it onto
        # (ab)*: its image is Σ*, and `a` is the first word outside (ab)*
        monkeypatch.setattr(cover_module, "_restrict",
                            lambda trie, r: identity_transducer(SIGMA_STAR))
        target = determinize(regex_to_nfa("(ab)*"))
        with pytest.raises(CertificateError) as err:
            cover(SIGMA_STAR, target)
        assert str(err.value) == "cover image differs from the target on 'a'"

    def test_refused_cover_checks_once(self, calls, monkeypatch):
        monkeypatch.setattr(cover_module, "_restrict",
                            lambda trie, r: identity_transducer(SIGMA_STAR))
        with pytest.raises(CertificateError):
            cover(SIGMA_STAR, determinize(regex_to_nfa("(ab)*")))
        assert calls == {**self.WANT, "image_nfa": 1}
