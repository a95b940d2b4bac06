"""State numbers are seen only where they are printed.

The serializers (`*_to_text`) and `trim` renumber canonically; every other
construction returns its machine as built. The properties show that the
printed text does not depend on how a machine numbers its states, and the
call counts that one CLI op renumbers only what it prints."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    count_calls,
    diamond_filter,
    oracle_two_pass_dfst_to_text,
    planted_hard_filter,
    ring_filter,
)
from rrkit import (
    Dfa,
    Dfst,
    Nfa,
    canonical_nfa,
    condense,
    dfa_to_text,
    dfst_to_text,
    nfa_to_text,
)
from rrkit.cli import main

PROPERTY = settings(derandomize=True, max_examples=200, deadline=None)
ALPHABETS = [("a", "b"), ("b", "a"), ("a",), ("c", "a", "b")]


@st.composite
def numbered(draw):
    """An alphabet, a state count n, and n distinct state numbers."""
    alphabet = draw(st.sampled_from(ALPHABETS))
    n = draw(st.integers(1, 6))
    labels = draw(st.lists(st.integers(0, 3 * n), min_size=n, max_size=n, unique=True))
    return alphabet, n, labels


@st.composite
def relabelled_dfas(draw):
    """A DFA over states 0..n-1 and the same DFA with state q renamed labels[q]."""
    alphabet, n, labels = draw(numbered())
    state = st.integers(0, n - 1)
    trans = {}
    for q in range(n):
        for sym in alphabet:
            t = draw(st.none() | state)
            if t is not None:
                trans[(q, sym)] = t
    initial = draw(state)
    accepting = draw(st.frozensets(state))
    d = Dfa(alphabet, frozenset(range(n)), initial, accepting, trans)
    renamed = Dfa(alphabet, frozenset(labels), labels[initial],
                  frozenset(labels[q] for q in accepting),
                  {(labels[q], sym): labels[t] for (q, sym), t in trans.items()})
    return d, renamed, labels


@st.composite
def relabelled_dfsts(draw):
    alphabet, n, labels = draw(numbered())
    out_alphabet = draw(st.sampled_from(ALPHABETS))
    state = st.integers(0, n - 1)
    outputs = st.text(alphabet="".join(out_alphabet), max_size=2)
    trans = {}
    for q in range(n):
        for sym in alphabet:
            if draw(st.booleans()):
                trans[(q, sym)] = (draw(outputs), draw(state))
    initial = draw(state)
    accepting = draw(st.frozensets(state))
    final_output = {q: draw(outputs) for q in sorted(accepting) if draw(st.booleans())}
    t = Dfst(alphabet, out_alphabet, frozenset(range(n)), initial, accepting, trans,
             final_output)
    renamed = Dfst(alphabet, out_alphabet, frozenset(labels), labels[initial],
                   frozenset(labels[q] for q in accepting),
                   {(labels[q], sym): (out, labels[dst])
                    for (q, sym), (out, dst) in trans.items()},
                   {labels[q]: out for q, out in final_output.items()})
    return t, renamed


@st.composite
def nfas(draw):
    """An NFA with arbitrary state numbers, epsilon edges and several
    initial states."""
    alphabet, n, labels = draw(numbered())
    state = st.sampled_from(labels)
    triples = draw(st.lists(st.tuples(state, st.sampled_from((None, *alphabet)), state),
                            max_size=3 * n, unique=True))
    initial = draw(st.frozensets(state, min_size=1))
    accepting = draw(st.frozensets(state))
    return Nfa(alphabet, frozenset(labels), initial, accepting, tuple(triples))


class TestPrintedTextIgnoresNumbering:
    @PROPERTY
    @given(nfas())
    def test_nfa_text_of_canonical_nfa(self, n):
        assert nfa_to_text(canonical_nfa(n)) == nfa_to_text(n)

    @PROPERTY
    @given(relabelled_dfas())
    def test_dfa_text_under_relabelling(self, case):
        d, renamed, _ = case
        assert dfa_to_text(renamed) == dfa_to_text(d)

    @PROPERTY
    @given(relabelled_dfsts())
    def test_dfst_text_under_relabelling(self, case):
        t, renamed = case
        assert dfst_to_text(renamed) == dfst_to_text(t)

    @PROPERTY
    @given(relabelled_dfsts())
    def test_dfst_text_matches_two_pass_oracle(self, case):
        for t in case:
            assert dfst_to_text(t) == oracle_two_pass_dfst_to_text(t)

    @PROPERTY
    @given(relabelled_dfas())
    def test_condense_under_relabelling(self, case):
        d, renamed, labels = case

        def shape(c, name):
            """Each component, its states renamed by `name`, with its flag."""
            return {frozenset(name(q) for q in comp): c.nontrivial[i]
                    for i, comp in enumerate(c.components)}

        c = condense(renamed)
        assert shape(condense(d), labels.__getitem__) == shape(c, lambda q: q)
        mins = [min(comp) for comp in c.components]
        assert mins == sorted(mins)
        assert all(c.scc_of[q] == i for i, comp in enumerate(c.components) for q in comp)


# ---------------------------------------------------------------------------
# one CLI op renumbers only what it prints

CANONICAL = ("canonical_dfa", "canonical_nfa")

HARD_TEXT = dfa_to_text(planted_hard_filter(random.Random(5), 120))
TARGET_TEXT = "dfa\nalphabet a b c\nstates 0 1\ninitial 0\naccept 0\ntrans 0 a 1\ntrans 1 c 0\n"
FILTERS = {
    "planted-hard-120": HARD_TEXT,
    "ring-40": dfa_to_text(ring_filter(random.Random(7), 40, 2)),
    "diamond-4": dfa_to_text(diamond_filter(4, loop_at=(1, 0))),
}


@pytest.fixture
def canonical_calls(monkeypatch):
    """Calls of each `canonical_*`, counted under every `rrkit` binding."""
    return count_calls(monkeypatch, CANONICAL)


def _run(tmp_path, capsys, command, *texts):
    paths = []
    for k, text in enumerate(texts):
        path = tmp_path / f"m{k}.txt"
        path.write_text(text)
        paths.append(str(path))
    code = main([command, *paths])
    out = capsys.readouterr().out
    assert code == 0 and out
    return out


def test_cover_renumbers_trim_and_output_only(canonical_calls, tmp_path, capsys):
    out = _run(tmp_path, capsys, "cover", HARD_TEXT, TARGET_TEXT)
    assert out.endswith("VERIFIED image == target\n")
    # `trim` and `dfst_to_text` each number their states in their own pass
    assert canonical_calls == {"canonical_dfa": 0, "canonical_nfa": 0}


@pytest.mark.parametrize("name", FILTERS)
def test_classify_renumbers_trim_only(name, canonical_calls, tmp_path, capsys):
    _run(tmp_path, capsys, "classify", FILTERS[name])
    # `trim` numbers its states in its own pass
    assert canonical_calls == {"canonical_dfa": 0, "canonical_nfa": 0}
