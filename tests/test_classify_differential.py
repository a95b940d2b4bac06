"""The classifier's structural fast paths against the reference searches in
helpers: identical certificate text, identical `verify_easy` outcomes and
messages, the shared-prefix recognizer against the union of one chain per
expression, and call counts that pin the easy path's complexity."""

import ast
import importlib
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rrkit
from helpers import (
    count_calls,
    diamond_filter,
    enumerate_dfas,
    lang_upto,
    oracle_bounded_nfa,
    oracle_classification_text,
    oracle_find_witness,
    oracle_union_nfa,
    oracle_verify_easy,
    outcome,
    planted_hard_filter,
    random_dfa,
    random_easy_filter,
    reached_pairs,
    ring_filter,
)
from rrkit import (
    EPS,
    AlphabetError,
    BoundedExpr,
    CertificateError,
    Easy,
    Hard,
    bounded_nfa,
    classification_to_text,
    classify,
    condense,
    determinize,
    dfa_to_text,
    parse_dfa,
    run_nfa,
    separating_word,
    trim,
    universal_dfa,
    verify_easy,
)
from rrkit.classify import _envelope_of, _forced_ring, _shortest_word
from rrkit.cli import main

# the package re-exports the function `classify` under the module's name
classify_module = importlib.import_module("rrkit.classify")
automata_module = importlib.import_module("rrkit.automata")

SIGMA_STAR = universal_dfa(("a", "b"))


def _assert_same_text(d):
    assert classification_to_text(classify(d)) == oracle_classification_text(d)


class TestClassifyTextMatchesOracle:
    def test_every_two_state_machine(self):
        for d in enumerate_dfas(2):
            _assert_same_text(d)

    @pytest.mark.parametrize("alphabet", [("a", "b"), ("a", "b", "c")])
    def test_random_machines(self, alphabet):
        rng = random.Random(83 + len(alphabet))
        for _ in range(120):
            density = rng.choice((0.3, 0.45, 0.6, 0.8))
            _assert_same_text(random_dfa(rng, rng.randint(1, 8), alphabet,
                                         density=density))

    def test_rings(self):
        rng = random.Random(89)
        for n in (1, 2, 3, 5, 8, 13, 21, 30):
            for accepts in {1, min(2, n), min(3, n)}:
                _assert_same_text(ring_filter(rng, n, accepts))
        _assert_same_text(ring_filter(rng, 12, 4, ("a", "b", "c")))

    def test_diamonds(self):
        for k in range(1, 6):
            _assert_same_text(diamond_filter(k))
            for i in range(k):
                _assert_same_text(diamond_filter(k, loop_at=(i, (i + k) % 2)))

    def test_planted_hard(self):
        rng = random.Random(97)
        for _ in range(25):
            d = planted_hard_filter(rng, rng.randint(2, 30))
            assert isinstance(classify(d), Hard)
            _assert_same_text(d)


def _envelope_mutants(words, alphabet):
    words = tuple(words)
    yield words
    yield ()
    yield words[::-1]
    for i in range(len(words)):
        yield words[:i] + words[i + 1:]
        yield words[:i] + (words[i] * 2,) + words[i + 1:]
        half = len(words[i]) // 2
        if half and words[i] == words[i][:half] * 2:
            yield words[:i] + (words[i][:half],) + words[i + 1:]
        if i + 1 < len(words):
            yield words[:i] + (words[i] + words[i + 1],) + words[i + 2:]
    for i in range(len(words) + 1):
        for c in alphabet:
            yield words[:i] + (c,) + words[i:]
    yield words + ("z",)
    yield ("z",) + words
    if words:
        yield (words[0] + "z",) + words[1:]


EASY_FILTERS = [
    parse_dfa("dfa\nalphabet a b\nstates 0 1\ninitial 0\naccept 0 1\n"
              "trans 0 a 0\ntrans 0 b 1\ntrans 1 b 1\n"),           # a*b*
    parse_dfa("dfa\nalphabet a b\nstates 0 1\ninitial 0\naccept 0\n"
              "trans 0 a 1\ntrans 1 b 0\n"),                         # (ab)*
    parse_dfa("dfa\nalphabet a\nstates 0 1\ninitial 0\naccept 0\n"
              "trans 0 a 1\ntrans 1 a 0\n"),                         # (aa)*
    parse_dfa("dfa\nalphabet a b\nstates 0 1 2\ninitial 0\naccept 2\n"
              "trans 0 a 1\ntrans 1 b 2\n"),                         # ab
    diamond_filter(2),
    diamond_filter(3, loop_at=(1, 0)),
    ring_filter(random.Random(101), 6, 2),
    ring_filter(random.Random(103), 9, 3, ("a", "b", "c")),
]


class TestVerifyEasyMatchesOracle:
    @pytest.mark.parametrize("index", range(len(EASY_FILTERS)))
    def test_mutated_envelopes(self, index):
        f = EASY_FILTERS[index]
        verdict = classify(f)
        assert isinstance(verdict, Easy)
        ft = trim(f)
        seen = set()
        for words in _envelope_mutants(verdict.envelope, f.alphabet):
            if words in seen:
                continue
            seen.add(words)
            args = (ft, verdict.decomposition, words)
            assert outcome(verify_easy, *args) == outcome(oracle_verify_easy, *args), words

    def test_random_easy_filters(self):
        rng = random.Random(107)
        checked = 0
        while checked < 12:
            f = trim(random_dfa(rng, rng.randint(2, 5), density=0.45))
            verdict = classify(f)
            if not isinstance(verdict, Easy) or len(verdict.envelope) > 12:
                continue
            checked += 1
            for words in _envelope_mutants(verdict.envelope, f.alphabet):
                args = (f, verdict.decomposition, words)
                assert outcome(verify_easy, *args) == outcome(oracle_verify_easy, *args)

    def test_envelope_needing_the_exact_check_is_accepted(self):
        # "ab" absorbs the language {ab} although neither letter alone is a
        # power of it, so the inclusion is decided without the embedding
        f = EASY_FILTERS[3]
        verdict = classify(f)
        assert verdict.envelope == ("a", "b")
        assert outcome(verify_easy, f, verdict.decomposition, ("ab",)) is None

    def test_empty_envelope_word_is_a_certificate_error(self):
        f = EASY_FILTERS[0]
        verdict = classify(f)
        with pytest.raises(CertificateError, match="empty word"):
            verify_easy(f, verdict.decomposition, ("a", "", "b"))


# ---------------------------------------------------------------------------
# the shared-prefix recognizer against the union of one chain per expression

# few loop and bridge words, so that loops repeat and bridges are often empty
LOOPS = st.sampled_from(["a", "b", "ab", "ba", "aab"])
BRIDGES = st.sampled_from(["", "", "", "a", "b", "ab"])
BLOCKS = st.lists(st.tuples(LOOPS, BRIDGES), max_size=3).map(tuple)
EXPRS = st.one_of(
    st.just(BoundedExpr("", ())),
    st.builds(BoundedExpr, st.sampled_from(["", "", "a", "b", "ab", "ba"]), BLOCKS),
)


@st.composite
def decompositions(draw):
    """0 to 6 expressions; most after the first share a token prefix with
    an earlier one (its prefix letters, or its prefix and first blocks), and
    some repeat an earlier one outright."""
    exprs: list[BoundedExpr] = []
    for _ in range(draw(st.integers(0, 6))):
        how = draw(st.sampled_from(["fresh", "prefix", "blocks", "copy"])) if exprs else "fresh"
        if how == "fresh":
            exprs.append(draw(EXPRS))
            continue
        base = draw(st.sampled_from(exprs))
        if how == "copy":
            exprs.append(base)
        elif how == "prefix":
            cut = draw(st.integers(0, len(base.prefix)))
            tail = draw(st.sampled_from(["", "a", "b"]))
            exprs.append(BoundedExpr(base.prefix[:cut] + tail, draw(BLOCKS)))
        else:
            keep = draw(st.integers(0, len(base.blocks)))
            exprs.append(BoundedExpr(base.prefix, base.blocks[:keep] + draw(BLOCKS)))
    return tuple(exprs)


AB = ("a", "b")
WXYZ = ("w", "x", "y", "z")


class TestSharedPrefixRecognizer:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(decompositions())
    def test_same_language_as_the_union_of_chains(self, exprs):
        trie = bounded_nfa(exprs, AB)
        union = oracle_union_nfa(exprs, AB)
        assert lang_upto(trie, 6) == lang_upto(union, 6)
        assert separating_word(trie, union) is None

    def test_empty_decomposition_and_empty_word(self):
        assert lang_upto(bounded_nfa((), AB), 3) == set()
        assert lang_upto(bounded_nfa((BoundedExpr("", ()),), AB), 3) == {""}

    def test_diamond_7_state_count(self):
        # (ab|ba)^7: 128 expressions of 14 letters each. Their trie has
        # 509 nodes; merging equal subtries leaves the filter's own shape,
        # a hub and two middle states per branch and the last hub, so
        # 3 * 7 + 1 = 22 states, against 128 chains of 15 states and a root
        verdict = classify(diamond_filter(7))
        assert isinstance(verdict, Easy) and len(verdict.decomposition) == 128
        assert len(bounded_nfa(verdict.decomposition, AB).states) == 22
        assert len(oracle_union_nfa(verdict.decomposition, AB).states) == 1921


def _merged(exprs, alphabet):
    """`bounded_nfa` of the expressions, checked against the union of one
    chain per expression by every word up to 5 letters and by one pair
    search."""
    merged = bounded_nfa(exprs, alphabet)
    union = oracle_union_nfa(exprs, alphabet)
    assert lang_upto(merged, 5) == lang_upto(union, 5)
    assert separating_word(merged, union) is None
    return merged


class TestMergedSubtries:
    def test_equal_suffixes_after_different_prefixes_merge(self):
        # a (ab)* b and b (ab)* b: the loop nodes after a and after b merge,
        # and with them the cycle and the accepting leaf; each node that
        # only hops into the loop is the loop's node, so the states are the
        # root, the two cycle states and the leaf
        merged = _merged((BoundedExpr("a", (("ab", "b"),)),
                          BoundedExpr("b", (("ab", "b"),))), AB)
        assert len(merged.states) == 4

    def test_loop_entered_node_never_merges_with_a_letter_entered_one(self):
        # x y* z and w z: the leaves after z merge, but the y-loop's node
        # and the node after w, each with one z-edge to that leaf, do not,
        # so no cycle reaches the w branch; the node after x is the loop's
        merged = _merged((BoundedExpr("x", (("y", "z"),)), BoundedExpr("wz", ())), WXYZ)
        assert len(merged.states) == 4
        assert run_nfa(merged, "wz") and run_nfa(merged, "xyyz")
        assert not run_nfa(merged, "wyz")

    @pytest.mark.parametrize("prefixes, states", [(("a", "b"), 6), (("", ""), 3)],
                             ids=["different-prefixes", "shared-prefix"])
    def test_equal_loops_with_different_bridges_stay_apart(self, prefixes, states):
        # p (ab)* a and q (ab)* b: the bridge a ends on the cycle's second
        # state and b leaves from its first, so the loops differ and only
        # the accepting leaf is shared; with p = q = "" the trie already
        # shares the loop, and the root is the loop's node
        first, second = prefixes
        merged = _merged((BoundedExpr(first, (("ab", "a"),)),
                          BoundedExpr(second, (("ab", "b"),))), AB)
        assert len(merged.states) == states

    @pytest.mark.parametrize("k, loop_at", [(7, None), (10, None), (7, (3, 1))],
                             ids=["diamond-7", "diamond-10", "diamond-7-looped"])
    def test_verify_search_reaches_one_pair_per_filter_state(self, k, loop_at, monkeypatch):
        # the pair search of the trie without merging reached one pair per
        # trie node: 509 on diamond-7
        f = trim(diamond_filter(k, loop_at))
        verdict = classify(f)
        pairs = reached_pairs(monkeypatch)
        verify_easy(f, verdict.decomposition, verdict.envelope)
        assert len(pairs) == 1 and pairs[0] <= len(f.states) + 1


def _with_recognizer(build):
    """A stand-in for `classify._recognizer` whose recognizer is
    `build(exprs, alphabet)`; whether the envelope embeds is still read off
    the library's own trie walk, which also raises its errors first."""
    real = classify_module._recognizer

    def recognizer(exprs, alphabet, envelope):
        _, embedded = real(exprs, alphabet, envelope)
        return build(exprs, alphabet), embedded
    return recognizer


def _tampered(exprs, words):
    """(label, decomposition, envelope) triples: each expression dropped,
    one extra expression, a foreign letter in the prefix, a loop or a
    bridge, and an envelope reversed, cut short, or given a foreign or an
    empty word."""
    for i in range(len(exprs)):
        yield f"drop {i}", exprs[:i] + exprs[i + 1:], words
    yield "extra", exprs + (BoundedExpr("bb", (("a", "b"),)),), words
    yield "extra epsilon", exprs + (BoundedExpr("", ()),), words
    e = exprs[-1]
    yield "foreign prefix", exprs[:-1] + (BoundedExpr(e.prefix + "z", e.blocks),), words
    if e.blocks:
        (x, y), rest = e.blocks[0], e.blocks[1:]
        yield "foreign loop", exprs[:-1] + (BoundedExpr(e.prefix, ((x + "z", y),) + rest),), words
        yield ("foreign bridge",
               exprs[:-1] + (BoundedExpr(e.prefix, ((x, y + "z"),) + rest),), words)
    yield "envelope reversed", exprs, words[::-1]
    yield "envelope cut short", exprs, words[1:]
    yield "envelope foreign word", exprs, words + ("z",)
    yield "envelope empty word", exprs, ("",) + words


class TestTamperedCertificates:
    """`verify_easy` on the trie raises what it raised on the union of
    chains: the same exception type and message."""

    @pytest.fixture
    def previous(self, monkeypatch):
        def run(*args):
            with monkeypatch.context() as patch:
                patch.setattr(classify_module, "_recognizer", _with_recognizer(oracle_union_nfa))
                return outcome(verify_easy, *args)
        return run

    @pytest.mark.parametrize("index", range(len(EASY_FILTERS)))
    def test_same_outcome_as_the_union_of_chains(self, index, previous):
        f = trim(EASY_FILTERS[index])
        verdict = classify(f)
        kinds = set()
        for label, exprs, words in _tampered(verdict.decomposition, verdict.envelope):
            got = outcome(verify_easy, f, exprs, words)
            assert got == previous(f, exprs, words), label
            if got is not None:
                kinds.add(got[0])
        assert kinds == {"CertificateError", "AlphabetError"}

    def test_pinned_messages(self):
        f = diamond_filter(2)
        exprs = classify(f).decomposition
        assert outcome(verify_easy, f, exprs[1:], ("ab", "ba")) == (
            "CertificateError", f"decomposition differs from the filter on {exprs[0].prefix!r}")
        assert outcome(verify_easy, f, exprs + (BoundedExpr("", ()),), ("ab", "ba")) == (
            "CertificateError", "decomposition differs from the filter on '-'")
        with pytest.raises(AlphabetError, match="symbol 'z' not in the alphabet"):
            verify_easy(f, exprs + (BoundedExpr("z", ()),), ("ab", "ba"))


class TestOneRecognizerPerClassify:
    @pytest.mark.parametrize("make", [
        lambda: diamond_filter(6),
        lambda: diamond_filter(4, loop_at=(2, 1)),
        lambda: ring_filter(random.Random(191), 60, 3),
        lambda: parse_dfa("dfa\nalphabet a\nstates 0\ninitial 0\naccept\n"),
    ], ids=["diamond-6", "diamond-4-looped", "ring-60", "empty"])
    def test_one_build_and_one_search(self, make, monkeypatch):
        calls = count_calls(monkeypatch, ["_recognizer", "separating_word"])
        assert isinstance(classify(make()), Easy)
        assert calls == {"_recognizer": 1, "separating_word": 1}


# ---------------------------------------------------------------------------
# the deterministic recognizer against the construction it replaced, which
# hung every bridge beside its loop's cycle as a letter chain of its own


def _word(rng, lo, hi):
    return "".join(rng.choice(AB) for _ in range(rng.randint(lo, hi)))


def _random_block(rng):
    """A loop of 1 to 4 letters and a bridge that runs 0 to |x| + 1 letters
    along it and then, half the time, one or two letters more."""
    loop = _word(rng, 1, 4)
    along = (loop * 2)[:rng.randint(0, len(loop) + 1)]
    return loop, along + (_word(rng, 1, 2) if rng.random() < 0.5 else "")


def _random_decomposition(rng):
    """1 to 5 expressions over {a, b}; after the first, most share a
    prefix of tokens with an earlier one (its prefix and first blocks) or a
    suffix (its last blocks after another prefix), and some repeat one."""
    exprs: list[BoundedExpr] = []
    for _ in range(rng.randint(1, 5)):
        how = rng.choice(["fresh", "prefix", "suffix", "copy"]) if exprs else "fresh"
        fresh = tuple(_random_block(rng) for _ in range(rng.randint(0, 3)))
        if how == "fresh":
            exprs.append(BoundedExpr(_word(rng, 0, 2), fresh))
            continue
        base = rng.choice(exprs)
        cut = rng.randint(0, len(base.blocks))
        if how == "prefix":
            exprs.append(BoundedExpr(base.prefix, base.blocks[:cut] + fresh))
        elif how == "suffix":
            exprs.append(BoundedExpr(_word(rng, 0, 2), fresh[:1] + base.blocks[cut:]))
        else:
            exprs.append(base)
    return tuple(exprs)


def _is_deterministic(n) -> bool:
    """One initial state, no epsilon edge, at most one edge per state and
    symbol."""
    keys = {(q, sym) for q, sym, _ in n.transitions if sym is not EPS}
    return len(n.initial) == 1 and len(keys) == len(n.transitions)


class TestDeterministicRecognizer:
    def test_same_language_and_outcomes_as_the_chain_construction(self, monkeypatch):
        rng = random.Random(211)
        old = _with_recognizer(oracle_bounded_nfa)
        kinds, deterministic = set(), 0
        for _ in range(300):
            exprs = _random_decomposition(rng)
            trie = bounded_nfa(exprs, AB)
            reference = oracle_bounded_nfa(exprs, AB)
            assert separating_word(trie, reference) is None, exprs
            deterministic += _is_deterministic(trie)
            f = trim(determinize(reference))
            cases = [("valid", exprs, _envelope_of(exprs)),
                     *_tampered(exprs, _envelope_of(exprs))]
            for label, tampered, words in cases:
                got = outcome(verify_easy, f, tampered, words)
                with monkeypatch.context() as patch:
                    patch.setattr(classify_module, "_recognizer", old)
                    assert got == outcome(verify_easy, f, tampered, words), (exprs, label)
                kinds.add(got and got[0])
        # both pair-search sides ran, and every kind of outcome came up
        assert 0 < deterministic < 300
        assert kinds == {None, "CertificateError", "AlphabetError"}

    @pytest.mark.parametrize("exprs, deterministic", [
        ((BoundedExpr("", (("ab", "a"), ("b", ""))),), False),    # stops on a cycle state
        ((BoundedExpr("", (("ab", "abb"),)),), False),            # |x| letters along x
        ((BoundedExpr("", (("ab", "ab"),)),), False),
        ((BoundedExpr("", (("a", ""), ("b", ""))),), False),      # empty bridge between loops
        ((BoundedExpr("", (("aab", "aaa"), ("b", ""))),), True),  # two letters along, exit a
        ((BoundedExpr("a", (("b", "a"),)), BoundedExpr("b", (("b", "a"),))), True),
        ((BoundedExpr("b", (("a", "b"),)), BoundedExpr("", (("a", "b"),))), False),
    ], ids=["stop-then-loop", "past-the-cycle", "whole-loop", "empty-bridge", "exit",
            "shared-suffix", "loop-beside-a-letter"])
    def test_hand_made_decompositions(self, exprs, deterministic):
        trie = bounded_nfa(exprs, AB)
        assert separating_word(trie, oracle_bounded_nfa(exprs, AB)) is None
        assert _is_deterministic(trie) is deterministic


def _classified_filters():
    yield from (ring_filter(random.Random(n), n, accepts)
                for n in (1, 2, 7, 60, 200) for accepts in (1, 3) if accepts <= n)
    yield from (diamond_filter(k) for k in range(1, 8))
    yield from (diamond_filter(k, (i, i % 2)) for k in (2, 5, 7) for i in range(k))


class TestClassifiedRecognizersAreDeterministic:
    """Every decomposition `classify` builds has an epsilon-free
    deterministic recognizer, so `verify_easy` walks two Dfas."""

    def test_rings_and_diamonds(self):
        for f in _classified_filters():
            verdict = classify(f)
            assert isinstance(verdict, Easy)
            assert _is_deterministic(bounded_nfa(verdict.decomposition, f.alphabet))

    def test_random_easy_filters(self):
        rng = random.Random(223)
        for _ in range(2000):
            f = random_easy_filter(rng, rng.choice([AB, ("a", "b", "c")]))
            verdict = classify(f)
            assert isinstance(verdict, Easy)
            assert _is_deterministic(bounded_nfa(verdict.decomposition, f.alphabet)), \
                classification_to_text(verdict)

    @pytest.mark.parametrize("make", [lambda: ring_filter(random.Random(227), 200, 3),
                                      lambda: diamond_filter(7)], ids=["ring-200", "diamond-7"])
    def test_verify_builds_no_nfa_side(self, make, monkeypatch):
        f = trim(make())
        verdict = classify(f)
        calls = count_calls(monkeypatch, ["_index"])
        pairs = reached_pairs(monkeypatch)
        verify_easy(f, verdict.decomposition, verdict.envelope)
        assert calls == {"_index": 0}
        assert len(pairs) == 1 and pairs[0] <= len(f.states) + 1


class TestEasyPathCallCounts:
    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"inclusion": 0, "determinize": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        # under every module binding that holds the function
        for attr, name in (("inclusion_counterexample", "inclusion"),
                           ("determinize", "determinize")):
            for module in (classify_module, automata_module):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, counting(name, getattr(module, attr)))
        return counts

    def test_ring_400_makes_no_inclusion_check(self, calls):
        verdict = classify(ring_filter(random.Random(109), 400, 3))
        assert isinstance(verdict, Easy)
        assert calls == {"inclusion": 0, "determinize": 0}

    def test_diamond_8_makes_no_inclusion_check(self, calls):
        verdict = classify(diamond_filter(8))
        assert isinstance(verdict, Easy) and len(verdict.decomposition) == 256
        assert calls == {"inclusion": 0, "determinize": 0}

    def test_sigma_star_makes_one_check(self, calls):
        assert isinstance(classify(SIGMA_STAR), Hard)
        assert calls["inclusion"] == 1

    def test_planted_hard_makes_one_check(self, calls):
        assert isinstance(classify(planted_hard_filter(random.Random(113), 200)), Hard)
        assert calls["inclusion"] == 1

    # a(ba)*: its expression's factors `a`, `ba` do not embed into these
    # envelopes, so the inclusion is decided exactly
    A_BA_STAR = parse_dfa("dfa\nalphabet a b\nstates 0 1 2\ninitial 0\naccept 1\n"
                          "trans 0 a 1\ntrans 1 b 2\ntrans 2 a 1\n")

    @pytest.mark.parametrize("words, message", [
        (("ab", "a"), None),
        (("ab", "b"), ("CertificateError",
                       "envelope star product misses the filter word 'a'")),
    ])
    def test_exact_envelope_check_builds_no_determinization(self, calls, words, message):
        f = self.A_BA_STAR
        verdict = classify(f)
        assert isinstance(verdict, Easy)
        got = outcome(verify_easy, f, verdict.decomposition, words)
        assert calls["determinize"] == 0
        assert got == message == outcome(oracle_verify_easy, f, verdict.decomposition, words)


class TestClassifyBuildsOnce:
    """One trim and one condensation per classify, hard or easy."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"trim": 0, "condense": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in counts:
            for module in (classify_module, automata_module):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        return counts

    @pytest.mark.parametrize("make, kind", [
        (lambda: SIGMA_STAR, Hard),
        (lambda: planted_hard_filter(random.Random(173), 200), Hard),
        (lambda: ring_filter(random.Random(179), 80, 3), Easy),
        (lambda: diamond_filter(5), Easy),
        (lambda: parse_dfa("dfa\nalphabet a\nstates 0\ninitial 0\naccept\n"), Easy),
    ], ids=["sigma-star", "planted-hard-200", "ring-80", "diamond-5", "empty"])
    def test_one_trim_and_one_condense(self, calls, make, kind):
        f = make()
        assert isinstance(classify(f), kind)
        assert calls == {"trim": 1, "condense": 1}


class TestHardPathWalksDfas:
    """The witness check compares two Dfas, so a hard `classify` and a
    `cover` step no subsets."""

    HARD_TEXT = dfa_to_text(planted_hard_filter(random.Random(181), 150))
    TARGET_TEXT = "dfa\nalphabet a b c\nstates 0 1\ninitial 0\naccept 0\ntrans 0 a 1\ntrans 1 c 0\n"

    @pytest.mark.parametrize("command", ["classify", "cover"])
    def test_no_subset_steps(self, command, monkeypatch, tmp_path, capsys):
        calls = count_calls(monkeypatch, ["_subset_step", "inclusion_counterexample"])
        (tmp_path / "f.txt").write_text(self.HARD_TEXT)
        (tmp_path / "r.txt").write_text(self.TARGET_TEXT)
        argv = [command, str(tmp_path / "f.txt")]
        if command == "cover":
            argv.append(str(tmp_path / "r.txt"))
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("HARD" if command == "classify" else "dfst")
        assert calls == {"_subset_step": 0, "inclusion_counterexample": 1}


class TestNoLibraryAsserts:
    def test_forced_ring_rejects_branching_component(self):
        cond = condense(SIGMA_STAR)
        with pytest.raises(CertificateError):
            _forced_ring(SIGMA_STAR, 0, cond.scc_of)

    def test_shortest_word_finds_no_cycle_at_acyclic_state(self):
        chain = parse_dfa("dfa\nalphabet a\nstates 0 1\ninitial 0\naccept 1\ntrans 0 a 1\n")
        assert _shortest_word(chain, 0, {0}) is None
        assert _shortest_word(chain, 1, {1}) is None
        assert _shortest_word(chain, 0, {1}) == "a"

    def test_no_assert_statements_in_library(self):
        root = pathlib.Path(rrkit.__file__).parent
        found = []
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)
                      or (isinstance(node, ast.Name) and node.id == "AssertionError")]
        assert not found, ("library code must not rely on assert or AssertionError: "
                           + ", ".join(found))


def _pinned_dfa(alphabet, states, accept, trans):
    return parse_dfa(f"dfa\nalphabet {alphabet}\nstates {states}\ninitial 0\naccept {accept}\n"
                     + "".join(f"trans {t}\n" for t in trans.split(";")))


# certificate texts pinned as the classifier printed them before it searched
# the whole trimmed machine and built expressions from flat word tuples; the
# easy ones are the only check of `_easy_exprs` that does not run it
PINNED = [
    ("ring-ab", lambda: _pinned_dfa("a b", "0 1", "0", "0 a 1;1 b 0"),
     "easy\nexpr p=- blocks=(ab,-)\nenvelope ab\n"),
    ("ring-5", lambda: _pinned_dfa("a b", "0 1 2 3 4", "0 3",
                                   "0 a 1;1 a 2;2 b 3;3 a 4;4 b 0"),
     "easy\nexpr p=- blocks=(aabab,-)\nexpr p=- blocks=(aabab,aab)\nenvelope aabab a b\n"),
    ("ring-tail", lambda: _pinned_dfa("a b", "0 1 2 3", "3",
                                      "0 a 1;1 b 2;2 b 0;1 a 3;3 b 3"),
     "easy\nexpr p=- blocks=(abb,aa);(b,-)\nenvelope abb a b\n"),
    ("diamond-2", lambda: diamond_filter(2),
     "easy\nexpr p=abab blocks=\nexpr p=abba blocks=\nexpr p=baab blocks=\n"
     "expr p=baba blocks=\nenvelope a b a b a b a b a b a b a\n"),
    ("diamond-2-looped", lambda: diamond_filter(2, loop_at=(0, 1)),
     "easy\nexpr p=abab blocks=\nexpr p=abba blocks=\nexpr p=b blocks=(b,aab)\n"
     "expr p=b blocks=(b,aba)\nenvelope a b a b a b a b a b a b a\n"),
    ("diamond-3-looped", lambda: diamond_filter(3, loop_at=(1, 0)),
     "easy\nexpr p=aba blocks=(a,bab)\nexpr p=aba blocks=(a,bba)\nexpr p=abbaab blocks=\n"
     "expr p=abbaba blocks=\nexpr p=baa blocks=(a,bab)\nexpr p=baa blocks=(a,bba)\n"
     "expr p=babaab blocks=\nexpr p=bababa blocks=\n"
     "envelope" + " a b" * 18 + " a\n"),
    ("a*b*", lambda: _pinned_dfa("a b", "0 1", "0 1", "0 a 0;0 b 1;1 b 1"),
     "easy\nexpr p=- blocks=(a,-)\nexpr p=- blocks=(a,b);(b,-)\nenvelope a b\n"),
    ("two-rings", lambda: _pinned_dfa("a b c", "0 1 2 3", "2 3",
                                      "0 a 1;1 b 0;0 c 2;2 b 3;3 a 2"),
     "easy\nexpr p=- blocks=(ab,c);(ba,-)\nexpr p=- blocks=(ab,c);(ba,b)\n"
     "envelope ab c ba ab c ba b\n"),
    ("finite", lambda: _pinned_dfa("a b", "0 1 2", "2", "0 a 1;1 b 2;0 b 2"),
     "easy\nexpr p=ab blocks=\nexpr p=b blocks=\nenvelope a b\n"),
    ("sigma-star", lambda: SIGMA_STAR, "hard q=0 p=- u=ab v=ba s=-\n"),
    ("ab-or-ba-star", lambda: _pinned_dfa("a b", "0 1 2", "0", "0 a 1;1 b 0;0 b 2;2 a 0"),
     "hard q=0 p=- u=abba v=baab s=-\n"),
    ("hard-inner-pivot", lambda: _pinned_dfa("a b c", "0 1 2 3 4", "3 4",
                                             "0 c 1;1 a 1;1 b 2;2 a 1;2 c 3;1 c 4;4 a 4"),
     "hard q=1 p=c u=aba v=baa s=c\n"),
    ("planted-hard-12", lambda: planted_hard_filter(random.Random(7), 12),
     "hard q=0 p=- u=baababa v=abababa s=a\n"),
]


@pytest.mark.parametrize("make, text", [(make, text) for _, make, text in PINNED],
                         ids=[name for name, _, _ in PINNED])
def test_pinned_certificate_text(make, text):
    assert classification_to_text(classify(make())) == text


def _leaves_pivot_component(ft, q):
    scc_of = condense(ft).scc_of
    return any(scc_of[src] == scc_of[q] != scc_of[dst]
               for (src, _), dst in ft.transitions.items())


def test_witness_matches_oracle_when_edges_leave_the_pivot_component():
    """The cycle searches run on the whole trimmed machine; the oracle keeps
    them inside the pivot's component. Hard filters whose pivot component
    has outgoing edges must get the oracle's witness all the same."""
    rng = random.Random(191)
    kept = 0
    for _ in range(4000):
        alphabet = ("a", "b", "c")[:rng.randint(1, 3)]
        d = random_dfa(rng, rng.randint(2, 12), alphabet,
                       density=rng.choice((0.4, 0.6, 0.8, 1.0)),
                       accept_prob=rng.choice((0.2, 0.5, 0.8)))
        verdict = classify(d)
        if not isinstance(verdict, Hard):
            continue
        ft = trim(d)
        if not _leaves_pivot_component(ft, verdict.witness.state):
            continue
        kept += 1
        assert verdict.witness == oracle_find_witness(ft)
    assert kept >= 100
