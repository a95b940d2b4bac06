"""The on-the-fly pair search against the full-product pipelines it replaced
(kept in helpers as oracles): identical words on seeded random machines and
on hypothesis-drawn ones, pinned tie-break cases, and call counts showing
that no determinization, complement, product or renumbering is built, also
by `rrkit solve` on DFA, NFA and regex input, with or without `--nfa`."""

import contextlib
import importlib
import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    count_calls,
    dfa_as_nfa,
    identity_transducer,
    oracle_cover_gap,
    oracle_inclusion_counterexample,
    oracle_separating_word,
    oracle_solve_rr,
    oracle_solve_rr_nfa,
    random_dfa,
    random_dfst,
    random_nfa,
)
from rrkit import (
    Dfa,
    Dfst,
    Nfa,
    cover_gap,
    dfa_to_text,
    inclusion_counterexample,
    nfa_to_text,
    regex_to_nfa,
    separating_word,
    solve_rr,
    solve_rr_nfa,
)
from rrkit.automata import word_to_text
from rrkit.cli import main

automata_module = importlib.import_module("rrkit.automata")
rr_module = importlib.import_module("rrkit.rr")
cover_module = importlib.import_module("rrkit.cover")

ALPHABETS = [("a", "b"), ("b", "a"), ("a",), ("c", "a", "b"), ("b", "c")]
ALPHABET_PAIRS = [(x, x) for x in ALPHABETS] + [
    (("a", "b"), ("b", "c")),
    (("b", "a"), ("c", "a", "b")),
    (("a",), ("b", "a")),
    (("c", "a", "b"), ("a",)),
]
PAIR_IDS = ["-".join("".join(x) for x in pair) for pair in ALPHABET_PAIRS]


def _dfa(rng, alphabet):
    return random_dfa(rng, rng.randint(1, 6), alphabet,
                      density=rng.choice((0.4, 0.7, 1.0)))


def _nfa(rng, alphabet):
    n = rng.randint(1, 6)
    return random_nfa(rng, n, alphabet, edge_count=rng.randint(0, 3 * n),
                      eps_prob=rng.choice((0.0, 0.2, 0.4)))


def _single_word_nfa(word, alphabet) -> Nfa:
    """Recognizer of {word}: a chain of len(word) + 1 states."""
    triples = tuple((i, c, i + 1) for i, c in enumerate(word))
    return Nfa(tuple(alphabet), frozenset(range(len(word) + 1)), frozenset({0}),
               frozenset({len(word)}), triples)


EMPTY_NFA = Nfa(("a", "b"), frozenset({0}), frozenset(), frozenset({0}), ())
EMPTY_DFA = Dfa(("a", "b"), frozenset({0}), 0, frozenset(), {})


# ---------------------------------------------------------------------------
# seeded random machines


@pytest.mark.parametrize("left,right", ALPHABET_PAIRS, ids=PAIR_IDS)
class TestAgreesWithOracle:
    CASES = 60

    def test_solve_rr(self, left, right):
        rng = random.Random(f"solve_rr {left} {right}")
        for _ in range(self.CASES):
            f, a = _dfa(rng, left), _dfa(rng, right)
            assert solve_rr(f, a) == oracle_solve_rr(f, a)

    def test_solve_rr_nfa(self, left, right):
        rng = random.Random(f"solve_rr_nfa {left} {right}")
        for _ in range(self.CASES):
            f, a = _nfa(rng, left), _nfa(rng, right)
            assert solve_rr_nfa(f, a) == oracle_solve_rr_nfa(f, a)

    def test_inclusion_counterexample(self, left, right):
        rng = random.Random(f"inclusion {left} {right}")
        for _ in range(self.CASES):
            sup, sub = _dfa(rng, left), _nfa(rng, right)
            assert inclusion_counterexample(sup, sub) == oracle_inclusion_counterexample(sup, sub)

    def test_separating_word(self, left, right):
        rng = random.Random(f"separating {left} {right}")
        for _ in range(self.CASES):
            a, b = _nfa(rng, left), _nfa(rng, right)
            assert separating_word(a, b) == oracle_separating_word(a, b)
            # languages that do agree: a machine against its own DFA form
            da = _dfa(rng, left)
            assert separating_word(dfa_as_nfa(da), b) == oracle_separating_word(dfa_as_nfa(da), b)
            assert separating_word(a, a) is None

    def test_cover_gap(self, left, right):
        rng = random.Random(f"cover_gap {left} {right}")
        for _ in range(self.CASES):
            f = _dfa(rng, left)
            t = random_dfst(rng, rng.randint(1, 4), left, right, max_out=2)
            r = _dfa(rng, right)
            assert cover_gap(t, f, r) == oracle_cover_gap(t, f, r)


# ---------------------------------------------------------------------------
# pinned cases


class TestPinned:
    def test_unsorted_alphabet_tie_goes_to_code_point_order(self):
        # alphabet order reads b before a; the (length, word) rule picks a
        only_b = _single_word_nfa("b", ("b", "a"))
        only_a = _single_word_nfa("a", ("b", "a"))
        assert separating_word(only_b, only_a) == "a"
        assert separating_word(only_a, only_b) == "a"
        assert oracle_separating_word(only_b, only_a) == "a"

    def test_cover_gap_tie_rule_on_unsorted_alphabet(self):
        f = Dfa(("a",), frozenset({0, 1}), 0, frozenset({1}), {(0, "a"): 1})
        emits_b = Dfst(("a",), ("b", "a"), frozenset({0, 1}), 0, frozenset({1}),
                       {(0, "a"): ("b", 1)}, {})
        emits_a = Dfst(("a",), ("b", "a"), frozenset({0, 1}), 0, frozenset({1}),
                       {(0, "a"): ("a", 1)}, {})
        just_a = Dfa(("b", "a"), frozenset({0, 1}), 0, frozenset({1}), {(0, "a"): 1})
        just_b = Dfa(("b", "a"), frozenset({0, 1}), 0, frozenset({1}), {(0, "b"): 1})
        assert cover_gap(emits_b, f, just_a) == ("a", "target")
        assert cover_gap(emits_a, f, just_b) == ("a", "image")
        for t, r in ((emits_b, just_a), (emits_a, just_b)):
            assert cover_gap(t, f, r) == oracle_cover_gap(t, f, r)

    def test_separation_on_the_empty_word(self):
        with_eps = Nfa(("a", "b"), frozenset({0}), frozenset({0}), frozenset({0}),
                       ((0, "a", 0),))
        plus = _single_word_nfa("a", ("a", "b"))
        assert separating_word(with_eps, plus) == ""
        assert separating_word(plus, with_eps) == ""
        assert inclusion_counterexample(EMPTY_DFA, with_eps) == ""
        assert solve_rr_nfa(with_eps, with_eps) == ""

    def test_both_sides_empty(self):
        assert separating_word(EMPTY_NFA, dfa_as_nfa(EMPTY_DFA)) is None
        assert separating_word(EMPTY_NFA, EMPTY_NFA) is None
        assert inclusion_counterexample(EMPTY_DFA, EMPTY_NFA) is None
        assert solve_rr(EMPTY_DFA, EMPTY_DFA) is None
        assert solve_rr_nfa(EMPTY_NFA, EMPTY_NFA) is None
        assert cover_gap(identity_transducer(EMPTY_DFA), EMPTY_DFA, EMPTY_DFA) is None

    def test_one_side_empty(self):
        plus = _single_word_nfa("ab", ("a", "b"))
        assert separating_word(EMPTY_NFA, plus) == "ab"
        assert separating_word(plus, EMPTY_NFA) == "ab"
        assert inclusion_counterexample(EMPTY_DFA, plus) == "ab"
        assert solve_rr_nfa(EMPTY_NFA, plus) is None


# ---------------------------------------------------------------------------
# hypothesis properties

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)


@st.composite
def dfas(draw):
    alphabet = draw(st.sampled_from(ALPHABETS))
    n = draw(st.integers(1, 5))
    trans = {}
    for q in range(n):
        for sym in alphabet:
            t = draw(st.none() | st.integers(0, n - 1))
            if t is not None:
                trans[(q, sym)] = t
    accepting = draw(st.frozensets(st.integers(0, n - 1)))
    return Dfa(alphabet, frozenset(range(n)), 0, accepting, trans)


@st.composite
def nfas(draw):
    alphabet = draw(st.sampled_from(ALPHABETS))
    n = draw(st.integers(1, 5))
    state = st.integers(0, n - 1)
    triples = draw(st.lists(st.tuples(state, st.sampled_from((None, *alphabet)), state),
                            max_size=3 * n, unique=True))
    initial = draw(st.frozensets(state, min_size=1))
    accepting = draw(st.frozensets(state))
    return Nfa(alphabet, frozenset(range(n)), initial, accepting, tuple(triples))


@st.composite
def cover_cases(draw):
    f = draw(dfas())
    out_alphabet = draw(st.sampled_from(ALPHABETS))
    n = draw(st.integers(1, 4))
    outputs = st.text(alphabet="".join(out_alphabet), max_size=2)
    trans = {}
    for q in range(n):
        for sym in f.alphabet:
            if draw(st.booleans()):
                trans[(q, sym)] = (draw(outputs), draw(st.integers(0, n - 1)))
    accepting = draw(st.frozensets(st.integers(0, n - 1)))
    final_output = {q: draw(outputs) for q in sorted(accepting) if draw(st.booleans())}
    t = Dfst(f.alphabet, out_alphabet, frozenset(range(n)), 0, accepting, trans,
             final_output)
    return t, f, draw(dfas())


class TestProperties:
    @PROPERTY
    @given(dfas(), dfas())
    def test_solve_rr(self, f, a):
        assert solve_rr(f, a) == oracle_solve_rr(f, a)

    @PROPERTY
    @given(nfas(), nfas())
    def test_solve_rr_nfa(self, f, a):
        assert solve_rr_nfa(f, a) == oracle_solve_rr_nfa(f, a)

    @PROPERTY
    @given(dfas(), nfas())
    def test_inclusion_counterexample(self, sup, sub):
        assert inclusion_counterexample(sup, sub) == oracle_inclusion_counterexample(sup, sub)

    @PROPERTY
    @given(nfas(), nfas())
    def test_separating_word(self, a, b):
        assert separating_word(a, b) == oracle_separating_word(a, b)

    @PROPERTY
    @given(cover_cases())
    def test_cover_gap(self, case):
        assert cover_gap(*case) == oracle_cover_gap(*case)


# ---------------------------------------------------------------------------
# structure: the comparisons build no intermediate machine


class TestNoProductBuilt:
    GUARDED = ("determinize", "complement", "product_intersect", "canonical_nfa")

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = dict.fromkeys(self.GUARDED, 0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module in (automata_module, rr_module, cover_module):
            for name in self.GUARDED:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        return counts

    def test_dfa_pair_150(self, calls):
        rng = random.Random(127)
        a, b = random_dfa(rng, 150), random_dfa(rng, 150)
        solve_rr(a, b)
        separating_word(dfa_as_nfa(a), dfa_as_nfa(b))
        inclusion_counterexample(a, dfa_as_nfa(b))
        # the image machine itself is built by the transducer module,
        # whose bindings are not counted
        cover_gap(identity_transducer(a), a, b)
        assert calls == dict.fromkeys(self.GUARDED, 0)

    def test_nfa_pair_60(self, calls):
        rng = random.Random(131)
        a, b = random_nfa(rng, 60), random_nfa(rng, 60)
        solve_rr_nfa(a, b)
        separating_word(a, b)
        inclusion_counterexample(random_dfa(rng, 60), b)
        assert calls == dict.fromkeys(self.GUARDED, 0)


# ---------------------------------------------------------------------------
# the CLI: one solve path for DFA, NFA and regex input; `--nfa` selects none


def _cli(argv):
    """Exit code, stdout and stderr of one in-process `rrkit` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _text(m):
    return dfa_to_text(m) if isinstance(m, Dfa) else nfa_to_text(m)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("solve-cli")


@st.composite
def filter_files(draw):
    """(file text, extra argv, the filter as an Nfa or None for a regex)."""
    kind = draw(st.sampled_from(("dfa", "nfa", "regex")))
    if kind == "regex":
        return draw(st.text(alphabet="abc()|*", max_size=10)) + "\n", ["--regex"], None
    m = draw(dfas() if kind == "dfa" else nfas())
    return _text(m), [], dfa_as_nfa(m) if isinstance(m, Dfa) else m


class TestSolveCli:
    @PROPERTY
    @given(filter_files(), dfas() | nfas())
    def test_nfa_flag_selects_no_path(self, workdir, filt, a):
        text, flags, f = filt
        (workdir / "filter.txt").write_text(text)
        (workdir / "input.txt").write_text(_text(a))
        argv = ["solve", *flags, str(workdir / "filter.txt"), str(workdir / "input.txt")]
        plain = _cli(argv)
        assert _cli([*argv, "--nfa"]) == plain
        if plain[0] != 0:
            assert flags and plain[1] == "" and plain[2].startswith("error: ")
            return
        if f is None:
            f = regex_to_nfa(text.strip())
        want = oracle_solve_rr_nfa(f, dfa_as_nfa(a) if isinstance(a, Dfa) else a)
        assert plain == (0, "NO\n" if want is None else f"YES {word_to_text(want)}\n", "")

    def test_solve_makes_no_dfa(self, tmp_path, monkeypatch):
        rng = random.Random(137)
        files = {
            "dfa_f": dfa_to_text(random_dfa(rng, 40)),
            "dfa_a": dfa_to_text(random_dfa(rng, 40)),
            "nfa_f": nfa_to_text(random_nfa(rng, 30)),
            "nfa_a": nfa_to_text(random_nfa(rng, 30)),
            # its DFA has 2^17 + 1 states
            "regex": "(a|b)*a" + "(a|b)" * 16 + "\n",
            "a_star": "dfa\nalphabet a\nstates 0\ninitial 0\naccept 0\ntrans 0 a 0\n",
        }
        p = {}
        for name, text in files.items():
            (tmp_path / name).write_text(text)
            p[name] = str(tmp_path / name)
        calls = count_calls(monkeypatch, ["determinize"])
        for argv in (["solve", p["dfa_f"], p["dfa_a"]], ["solve", p["nfa_f"], p["nfa_a"]],
                     ["solve", "--nfa", p["dfa_f"], p["nfa_a"]],
                     ["solve", p["nfa_f"], p["dfa_a"]]):
            assert _cli(argv)[0] == 0
        assert _cli(["solve", "--regex", p["regex"], p["a_star"]]) == (0, "YES " + "a" * 17 + "\n", "")
        assert calls == {"determinize": 0}
