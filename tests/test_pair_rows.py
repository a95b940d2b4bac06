"""The pair search on integer successor rows against the word-per-pair
search it replaced (`helpers.oracle_pair_search`, kept verbatim): the same
result tuple in every mode on hypothesis-drawn and seeded machines of up to
150 states; machines whose state numerals are sparse, negative or hundreds
of digits long; and a 20,000-state DFA whose transitions the search may
read only where it goes."""

import contextlib
import io
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    dfa_as_nfa,
    oracle_inclusion_counterexample,
    oracle_pair_search,
    oracle_separating_word,
    oracle_solve_rr,
    random_dfa,
    random_nfa,
)
from rrkit import (
    Dfa,
    Nfa,
    dfa_to_text,
    inclusion_counterexample,
    merge_alphabets,
    parse_dfa,
    run,
    separating_word,
    solve_rr,
)
from rrkit.automata import _DIFF, _LEFT, _MEET, _pair_search
from rrkit.cli import main

MODES = {"meet": _MEET, "left": _LEFT, "diff": _DIFF}


def _agree(a, b, alphabet):
    for mode in MODES.values():
        assert _pair_search(a, b, alphabet, mode) == oracle_pair_search(a, b, alphabet, mode)


def _search_alphabets(a, b):
    """Alphabets to search two machines over: both orders of the merged
    alphabet, one with a symbol neither machine has, each machine's own
    alphabet alone, and the empty alphabet."""
    merged = merge_alphabets(a.alphabet, b.alphabet)
    return {merged, merge_alphabets(b.alphabet, a.alphabet), tuple(reversed(merged)),
            merged + ("z",), a.alphabet, b.alphabet, ()}


def _renumbered(m, name):
    """m with each state q renamed name(q)."""
    if isinstance(m, Dfa):
        return Dfa(m.alphabet, frozenset(map(name, m.states)), name(m.initial),
                   frozenset(map(name, m.accepting)),
                   {(name(q), sym): name(t) for (q, sym), t in m.transitions.items()})
    return Nfa(m.alphabet, frozenset(map(name, m.states)), frozenset(map(name, m.initial)),
               frozenset(map(name, m.accepting)),
               tuple((name(q), sym, name(t)) for q, sym, t in m.transitions))


# state numberings: the machines' own 0..n-1 and ones a Dfa side cannot
# use as row indices (gaps, negatives including -1, huge numerals)
NUMBERINGS = {
    "dense": lambda q: q,
    "one-based": lambda q: q + 1,
    "gapped": lambda q: 3 * q + 2,
    "negative": lambda q: -q - 1,
    "mirrored": lambda q: -q,
    "huge": lambda q: 10**40 + 7 * q,
}


# ---------------------------------------------------------------------------
# hypothesis properties

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)
SYMBOLS = ("a", "b", "c")


@st.composite
def alphabets(draw):
    return tuple(draw(st.permutations(SYMBOLS))[:draw(st.integers(0, 3))])


@st.composite
def machines(draw):
    alphabet = draw(alphabets())
    n = draw(st.integers(1, 6))
    state = st.integers(0, n - 1)
    accepting = draw(st.frozensets(state))
    if draw(st.booleans()):
        trans = {}
        for q in range(n):
            for sym in alphabet:
                t = draw(st.none() | state)
                if t is not None:
                    trans[(q, sym)] = t
        m = Dfa(alphabet, frozenset(range(n)), draw(state), accepting, trans)
    else:
        labels = st.sampled_from((None, *alphabet))
        triples = draw(st.lists(st.tuples(state, labels, state), max_size=3 * n, unique=True))
        # the initial set may be empty: that side is dead from the start
        m = Nfa(alphabet, frozenset(range(n)), draw(st.frozensets(state)), accepting,
                tuple(triples))
    return _renumbered(m, NUMBERINGS[draw(st.sampled_from(sorted(NUMBERINGS)))])


class TestProperties:
    @PROPERTY
    @given(machines(), machines(), st.data())
    def test_every_mode_matches_the_oracle(self, a, b, data):
        alphabet = data.draw(st.sampled_from(sorted(_search_alphabets(a, b))))
        _agree(a, b, alphabet)

    @PROPERTY
    @given(machines())
    def test_machine_against_itself(self, m):
        # the same object on both sides, numbered however it is
        for alphabet in (m.alphabet, tuple(reversed(m.alphabet)), ()):
            _agree(m, m, alphabet)
        assert _pair_search(m, m, m.alphabet, _DIFF) == (None, None)


# ---------------------------------------------------------------------------
# seeded machines of up to 150 states

ALPHABETS = [("a", "b"), ("b", "a"), ("a",), ("c", "a", "b")]
SIZES = [1, 2, 5, 20, 60, 150]


@pytest.mark.parametrize("n", SIZES)
class TestSeeded:
    def test_dfa_pairs(self, n):
        rng = random.Random(f"dfa pairs {n}")
        for _ in range(6):
            left, right = rng.choice(ALPHABETS), rng.choice(ALPHABETS)
            a = random_dfa(rng, n, left, density=rng.choice((0.5, 0.8, 1.0)),
                           accept_prob=rng.choice((0.05, 0.5)))
            b = random_dfa(rng, rng.randint(1, n), right, density=rng.choice((0.5, 1.0)),
                           accept_prob=rng.choice((0.05, 0.5)))
            for alphabet in _search_alphabets(a, b):
                _agree(a, b, alphabet)

    def test_nfa_and_mixed_pairs(self, n):
        rng = random.Random(f"nfa pairs {n}")
        size = min(n, 40)  # subsets, not states, bound this search
        for _ in range(4):
            left, right = rng.choice(ALPHABETS), rng.choice(ALPHABETS)
            a = random_nfa(rng, size, left, eps_prob=rng.choice((0.0, 0.2)))
            b = random_dfa(rng, n, right, density=0.7)
            for alphabet in (merge_alphabets(left, right), merge_alphabets(right, left)):
                _agree(a, b, alphabet)
                _agree(b, a, alphabet)

    def test_renumbered_sides(self, n):
        rng = random.Random(f"renumbered {n}")
        a = random_dfa(rng, n, ("a", "b"), density=0.8)
        b = random_dfa(rng, n, ("b", "a"), density=0.8)
        want = {name: _pair_search(a, b, ("a", "b"), mode) for name, mode in MODES.items()}
        for numbering in NUMBERINGS.values():
            ra = _renumbered(a, numbering)
            for rb in (b, _renumbered(b, numbering)):
                for name, mode in MODES.items():
                    assert _pair_search(ra, rb, ("a", "b"), mode) == want[name]
                    assert _pair_search(rb, ra, ("a", "b"), mode) == \
                        oracle_pair_search(rb, ra, ("a", "b"), mode)


# ---------------------------------------------------------------------------
# pinned cases


class TestPinned:
    def test_symbol_outside_one_alphabet_kills_that_side(self):
        a = Dfa(("a",), frozenset({0}), 0, frozenset({0}), {(0, "a"): 0})
        b = Dfa(("a", "b"), frozenset({0, 1}), 0, frozenset({1}),
                {(0, "a"): 0, (0, "b"): 1, (1, "b"): 1})
        assert _pair_search(a, b, ("a", "b"), _DIFF) == ("", None)
        assert _pair_search(b, a, ("a", "b"), _LEFT) == ("b",)
        assert _pair_search(b, a, ("b", "a"), _MEET) == (None,)
        _agree(a, b, ("a", "b"))
        _agree(b, a, ("b", "a"))

    def test_nfa_without_initial_state(self):
        dead = Nfa(("a",), frozenset({0}), frozenset(), frozenset({0}), ((0, "a", 0),))
        plus = Dfa(("a",), frozenset({0, 1}), 0, frozenset({1}), {(0, "a"): 1, (1, "a"): 1})
        assert _pair_search(dead, plus, ("a",), _MEET) == (None,)
        assert _pair_search(plus, dead, ("a",), _LEFT) == ("a",)
        assert _pair_search(dead, plus, ("a",), _DIFF) == (None, "a")
        assert _pair_search(dead, dead, ("a",), _DIFF) == (None, None)
        _agree(dead, plus, ("a",))
        _agree(plus, dead, ("a",))

    def test_empty_alphabet(self):
        eps = Dfa((), frozenset({0}), 0, frozenset({0}), {})
        nothing = Dfa((), frozenset({0}), 0, frozenset(), {})
        assert _pair_search(eps, nothing, (), _DIFF) == ("", None)
        assert _pair_search(nothing, nothing, (), _DIFF) == (None, None)
        assert _pair_search(eps, eps, (), _MEET) == ("",)
        for x in (eps, nothing):
            for y in (eps, nothing):
                _agree(x, y, ())

    def test_unsorted_alphabet_reads_in_declared_order(self):
        ab = Dfa(("b", "a"), frozenset({0, 1}), 0, frozenset({1}), {(0, "a"): 1, (0, "b"): 1})
        full = Dfa(("b", "a"), frozenset({0}), 0, frozenset({0}), {(0, "a"): 0, (0, "b"): 0})
        assert _pair_search(ab, full, ("b", "a"), _MEET) == ("b",)
        assert _pair_search(ab, full, ("a", "b"), _MEET) == ("a",)
        assert _pair_search(full, ab, ("b", "a"), _DIFF) == ("", None)
        _agree(ab, full, ("b", "a"))

    def test_unreached_state_numbered_minus_one(self):
        # -1 is also the dead side's id; an accepting state -1 that the
        # search never reaches must not make the dead side accept
        m = Dfa(("a",), frozenset({0, -1}), 0, frozenset({-1}), {})
        one_a = Dfa(("a",), frozenset({0, 1}), 0, frozenset({1}), {(0, "a"): 1})
        assert _pair_search(m, one_a, ("a",), _DIFF) == (None, "a")
        assert _pair_search(one_a, m, ("a",), _LEFT) == ("a",)
        assert _pair_search(m, one_a, ("a",), _MEET) == (None,)
        for x, y in ((m, one_a), (one_a, m), (m, m)):
            _agree(x, y, ("a",))

    def test_pair_keys_do_not_collide(self):
        # b numbers its states 1 and 2, so its largest id is its state
        # count; the pair (0, 2) and the pair (1, dead) need distinct keys
        a = Dfa(("a", "b"), frozenset({0, 1}), 0, frozenset({1}),
                {(0, "a"): 0, (0, "b"): 1, (1, "a"): 1})
        b = Dfa(("a", "b"), frozenset({1, 2}), 1, frozenset({2}), {(1, "a"): 2, (2, "a"): 2})
        assert _pair_search(a, b, ("a", "b"), _DIFF) == ("b", "a")
        _agree(a, b, ("a", "b"))
        _agree(b, a, ("a", "b"))

    def test_start_pair_fills_a_slot(self):
        star = Dfa(("a",), frozenset({0}), 0, frozenset({0}), {(0, "a"): 0})
        odd = Dfa(("a",), frozenset({0, 1}), 0, frozenset({1}), {(0, "a"): 1, (1, "a"): 0})
        assert _pair_search(star, star, ("a",), _MEET) == ("",)
        assert _pair_search(star, odd, ("a",), _LEFT) == ("",)
        # one slot fills at length 0, so the search stops with the other empty
        assert _pair_search(star, odd, ("a",), _DIFF) == ("", None)
        _agree(star, odd, ("a",))
        _agree(odd, star, ("a",))

    def test_partial_dfas(self):
        # a chain that dies after "ab" against one that dies after "a"
        ab = Dfa(("a", "b"), frozenset({0, 1, 2}), 0, frozenset({2}), {(0, "a"): 1, (1, "b"): 2})
        a = Dfa(("a", "b"), frozenset({0, 1}), 0, frozenset({0, 1}), {(0, "a"): 1})
        assert _pair_search(ab, a, ("a", "b"), _MEET) == (None,)
        assert _pair_search(ab, a, ("a", "b"), _DIFF) == (None, "")
        assert _pair_search(ab, a, ("a", "b"), _LEFT) == ("ab",)
        assert _pair_search(a, ab, ("a", "b"), _LEFT) == ("",)
        _agree(ab, a, ("a", "b"))
        _agree(a, ab, ("a", "b"))


# ---------------------------------------------------------------------------
# sparse state numerals: the same answers, and memory that does not grow
# with a numeral's value


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _numeral_text(d: Dfa, name) -> str:
    """`dfa` text of d with state q written as the numeral name(q), states
    listed in the order of q."""
    idx = {sym: k for k, sym in enumerate(d.alphabet)}
    lines = ["dfa", "alphabet " + " ".join(d.alphabet),
             "states " + " ".join(name(q) for q in sorted(d.states)),
             f"initial {name(d.initial)}",
             "accept " + " ".join(name(q) for q in sorted(d.accepting))]
    for (q, sym), t in sorted(d.transitions.items(), key=lambda e: (e[0][0], idx[e[0][1]])):
        lines.append(f"trans {name(q)} {sym} {name(t)}")
    return "\n".join(lines) + "\n"


def _numeral_300(seed):
    rng = random.Random(seed)
    digits = {}

    def name(q):
        if q not in digits:
            digits[q] = str(rng.randint(1, 9)) + "".join(rng.choice("0123456789")
                                                          for _ in range(299))
        return digits[q]
    return name


class TestSparseNumerals:
    BIG = 10**40

    def test_two_states_far_apart(self):
        big = self.BIG
        sparse = Dfa(("a", "b"), frozenset({0, big}), 0, frozenset({big}),
                     {(0, "a"): big, (big, "b"): 0, (big, "a"): big})
        rng = random.Random(11)
        for _ in range(20):
            other = random_dfa(rng, rng.randint(1, 8), rng.choice(ALPHABETS), density=0.7)
            for a, b in ((sparse, other), (other, sparse)):
                assert solve_rr(a, b) == oracle_solve_rr(a, b)
                assert separating_word(a, b) == oracle_separating_word(dfa_as_nfa(a),
                                                                       dfa_as_nfa(b))
                assert inclusion_counterexample(a, b) == \
                    oracle_inclusion_counterexample(a, dfa_as_nfa(b))
                _agree(a, b, merge_alphabets(a.alphabet, b.alphabet))

    def test_parsed_300_digit_numerals(self, tmp_path):
        rng = random.Random(13)
        for case in range(6):
            a = random_dfa(rng, rng.randint(1, 30), ("a", "b"), density=0.8)
            b = random_dfa(rng, rng.randint(1, 30), ("b", "a"), density=0.8)
            texts = {}
            for label, m, seed in (("a", a, case), ("b", b, 100 + case)):
                texts[label] = _numeral_text(m, _numeral_300(seed))
                texts[label + "0"] = dfa_to_text(m)
            for label, text in texts.items():
                (tmp_path / label).write_text(text)
            pa, pb = parse_dfa(texts["a"]), parse_dfa(texts["b"])
            assert max(pa.states, default=0) > 10**298
            assert solve_rr(pa, pb) == oracle_solve_rr(pa, pb) == solve_rr(a, b)
            assert separating_word(pa, pb) == oracle_separating_word(dfa_as_nfa(pa),
                                                                     dfa_as_nfa(pb))
            assert inclusion_counterexample(pa, pb) == \
                oracle_inclusion_counterexample(pa, dfa_as_nfa(pb))
            _agree(pa, pb, ("a", "b"))
            for cmd in ("solve", "equiv"):
                far = _cli([cmd, str(tmp_path / "a"), str(tmp_path / "b")])
                near = _cli([cmd, str(tmp_path / "a0"), str(tmp_path / "b0")])
                assert far == near

    def test_memory_does_not_grow_with_the_numeral(self):
        rng = random.Random(17)
        a = random_dfa(rng, 40, ("a", "b"), density=0.9)
        b = random_dfa(rng, 40, ("a", "b"), density=0.9)

        def peak(name):
            ra, rb = _renumbered(a, name), _renumbered(b, name)
            tracemalloc.start()
            try:
                word = separating_word(ra, rb), solve_rr(ra, rb), inclusion_counterexample(ra, rb)
                return tracemalloc.get_traced_memory()[1], word
            finally:
                tracemalloc.stop()

        small, want = peak(lambda q: q)
        for exponent in (40, 400, 4000):
            big, got = peak(lambda q: 10**exponent + q)
            assert got == want
            assert big < 2 * small + 100_000


# ---------------------------------------------------------------------------
# early exit: a large machine is read only where the search goes


class ReadCounter(dict):
    """A transitions dict that, once armed, counts each lookup and refuses
    to be walked as a whole."""

    armed = False
    reads = 0

    def get(self, key, default=None):
        if self.armed:
            self.reads += 1
        return super().get(key, default)

    def __getitem__(self, key):
        if self.armed:
            self.reads += 1
        return super().__getitem__(key)

    def _whole(self, method):
        if self.armed:
            raise AssertionError(f"the search called {method}() on the transitions")

    def items(self):
        self._whole("items")
        return super().items()

    def keys(self):
        self._whole("keys")
        return super().keys()

    def values(self):
        self._whole("values")
        return super().values()

    def __iter__(self):
        self._whole("iter")
        return super().__iter__()


class TestEarlyExit:
    N = 20_000

    def _big(self, seed):
        """A complete 20,000-state DFA over {a, b} accepting one word of
        length at most 2, with its counting transitions dict armed, and
        that word."""
        rng = random.Random(seed)
        trans = ReadCounter()
        for q in range(self.N):
            for sym in "ab":
                trans[(q, sym)] = rng.randrange(self.N)
        word = rng.choice(["", "a", "b", "ab", "ba", "bb"])
        q = 0
        for c in word:
            q = trans[(q, c)]
        d = Dfa(("a", "b"), frozenset(range(self.N)), 0, frozenset({q}), trans)
        want = next(w for w in ("", "a", "b", "aa", "ab", "ba", "bb") if run(d, w))
        trans.armed = True
        return d, trans, want

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_solve_reads_a_few_transitions(self, seed):
        d, trans, want = self._big(seed)
        star = Dfa(("a", "b"), frozenset({0}), 0, frozenset({0}), {(0, "a"): 0, (0, "b"): 0})
        assert solve_rr(d, star) == want
        assert solve_rr(star, d) == want
        assert 0 < trans.reads <= 200, trans.reads

    def test_word_spelled_from_parent_links(self):
        d, trans, want = self._big(4)
        ab = Dfa(("b", "a"), frozenset({0, 1, 2}), 0, frozenset({2}),
                 {(0, "a"): 1, (1, "b"): 2, (0, "b"): 1})
        got = solve_rr(ab, d)
        assert trans.reads <= 200, trans.reads
        trans.armed = False
        assert got == oracle_pair_search(ab, d, ("b", "a"), _MEET)[0]
