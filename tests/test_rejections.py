"""Every documented rejection, pinned by its error's type, message and
line number: one table per module, for the raise sites that no other test
reaches. A `FormatError` names its line (`exc.line`, and the message's
`line N:` prefix); every other error has none."""

from dataclasses import replace

import pytest

from rrkit import (
    AlphabetError,
    CertificateError,
    CoverPlan,
    Dfa,
    Dfst,
    FormatError,
    Nfa,
    apply,
    classification_from_text,
    classify,
    determinize,
    parse_digraph,
    parse_dfst,
    regex_to_nfa,
    run,
    verify_easy,
    verify_witness,
)

# ---------------------------------------------------------------------------
# rrkit.automata: the machine constructors

AUTOMATA = {
    "dfa duplicate symbol": (
        lambda: Dfa(("a", "a"), frozenset({0}), 0, frozenset(), {}),
        ValueError, "duplicate alphabet symbol in ('a', 'a')", None),
    "dfa initial": (
        lambda: Dfa(("a",), frozenset({0}), 1, frozenset(), {}),
        ValueError, "initial state 1 not a state", None),
    "dfa accepting": (
        lambda: Dfa(("a",), frozenset({0}), 0, frozenset({1}), {}),
        ValueError, "accepting states must be states", None),
    "dfa leaves states": (
        lambda: Dfa(("a",), frozenset({0}), 0, frozenset(), {(0, "a"): 1}),
        ValueError, "transition 0-a->1 leaves the state set", None),
    "dfa foreign symbol": (
        lambda: Dfa(("a",), frozenset({0}), 0, frozenset(), {(0, "b"): 0}),
        ValueError, "transition symbol 'b' not in alphabet", None),
    "nfa duplicate symbol": (
        lambda: Nfa(("b", "b"), frozenset({0}), frozenset({0}), frozenset(), ()),
        ValueError, "duplicate alphabet symbol in ('b', 'b')", None),
    "nfa initial": (
        lambda: Nfa(("a",), frozenset({0}), frozenset({2}), frozenset(), ()),
        ValueError, "initial/accepting states must be states", None),
    "nfa accepting": (
        lambda: Nfa(("a",), frozenset({0}), frozenset({0}), frozenset({2}), ()),
        ValueError, "initial/accepting states must be states", None),
    "nfa leaves states": (
        lambda: Nfa(("a",), frozenset({0}), frozenset({0}), frozenset(), ((3, None, 0),)),
        ValueError, "transition 3-None->0 leaves the state set", None),
    "nfa foreign symbol": (
        lambda: Nfa(("a",), frozenset({0}), frozenset({0}), frozenset(), ((0, "c", 0),)),
        ValueError, "transition symbol 'c' not in alphabet", None),
    # the start state has no `b` edge, so a walk would die before the `z`
    "run foreign letter after the walk dies": (
        lambda: run(Dfa(("a", "b"), frozenset({0}), 0, frozenset({0}), {(0, "a"): 0}), "bz"),
        AlphabetError, "symbol 'z' not in the machine's alphabet", None),
}

# ---------------------------------------------------------------------------
# rrkit.transducer: `parse_dfst` past its header, and the constructor

DFST_HEAD = "dfst\nin_alphabet a b\nout_alphabet a b\nstates 0 1\ninitial 0\naccept 1\n"


def _dfst(**changes):
    fields = dict(in_alphabet=("a",), out_alphabet=("a",), states=frozenset({0, 1}),
                  initial=0, accepting=frozenset({1}), transitions={}, final_output={})
    return lambda: Dfst(**{**fields, **changes})


TRANSDUCER = {
    "undeclared input symbol": (
        lambda: parse_dfst(DFST_HEAD + "trans 0 a - 1\ntrans 0 c - 1\n"),
        FormatError, "undeclared input symbol 'c'", 8),
    "undeclared output symbol on a trans line": (
        lambda: parse_dfst(DFST_HEAD + "trans 0 a ac 1\n"),
        FormatError, "undeclared output symbol 'c'", 7),
    "undeclared output symbol on a final line": (
        lambda: parse_dfst(DFST_HEAD + "trans 0 a - 1\nfinal 1 bc\n"),
        FormatError, "undeclared output symbol 'c'", 8),
    "duplicate transition": (
        lambda: parse_dfst(DFST_HEAD + "trans 0 a - 1\n\ntrans 0 a b 0\n"),
        FormatError, "duplicate transition from state 0 on 'a'", 9),
    "final arity": (
        lambda: parse_dfst(DFST_HEAD + "final 1\n"),
        FormatError, "want `final <state> <out-word|->`", 7),
    "final output on a non-accepting state": (
        lambda: parse_dfst(DFST_HEAD + "final 0 a\n"),
        FormatError, "final output on non-accepting state 0", 7),
    "duplicate final output": (
        lambda: parse_dfst(DFST_HEAD + "final 1 a\nfinal 1 -\n"),
        FormatError, "duplicate final output for state 1", 8),
    "constructor duplicate input symbol": (
        _dfst(in_alphabet=("a", "a")),
        ValueError, "duplicate alphabet symbol in ('a', 'a')", None),
    "constructor duplicate output symbol": (
        _dfst(out_alphabet=("b", "b")),
        ValueError, "duplicate alphabet symbol in ('b', 'b')", None),
    "constructor initial": (
        _dfst(initial=2), ValueError, "initial state 2 not a state", None),
    "constructor accepting": (
        _dfst(accepting=frozenset({2})), ValueError, "accepting states must be states", None),
    "constructor leaves states": (
        _dfst(transitions={(0, "a"): ("", 5)}),
        ValueError, "transition 0-a->5 leaves the state set", None),
    "constructor input symbol": (
        _dfst(transitions={(0, "b"): ("", 1)}),
        ValueError, "input symbol 'b' not in input alphabet", None),
    "constructor output": (
        _dfst(transitions={(0, "a"): ("ab", 1)}),
        ValueError, "output 'ab' uses symbols outside the output alphabet", None),
    "constructor final output state": (
        _dfst(final_output={0: "a"}), ValueError, "final output on non-accepting state 0", None),
    "constructor final output symbols": (
        _dfst(final_output={1: "b"}),
        ValueError, "final output 'b' uses symbols outside the output alphabet", None),
    "apply foreign letter after the run dies": (
        lambda: apply(_dfst(in_alphabet=("a", "b"), transitions={(0, "a"): ("a", 1)})(), "bz"),
        AlphabetError, "symbol 'z' not in the input alphabet", None),
}

# ---------------------------------------------------------------------------
# rrkit.rr: `parse_digraph`'s edge lines

GRAPH_HEAD = "graph\nnodes 3\nsource 0\ntarget 2\n"

RR = {
    "edge arity": (
        lambda: parse_digraph(GRAPH_HEAD + "edge 0 1\nedge 1\n"),
        FormatError, "want `edge <from> <to>`", 6),
    "not an edge line": (
        lambda: parse_digraph(GRAPH_HEAD + "node 0 1\n"),
        FormatError, "want `edge <from> <to>`", 5),
    "edge endpoints": (
        lambda: parse_digraph(GRAPH_HEAD + "edge 0 x\n"),
        FormatError, "edge endpoints must be node numbers", 5),
}

# ---------------------------------------------------------------------------
# rrkit.classify: the certificate parser, and witnesses that miss

ENDS_IN_A = determinize(regex_to_nfa("(a|b)*a"))
WITNESS = classify(ENDS_IN_A).witness  # state 1, access `a`, exit word empty
A_B_STAR = determinize(regex_to_nfa("ab*"))
EASY_HEAD = "easy\nexpr p=a blocks=(b,-)\n"

CLASSIFY = {
    "wrong key": (
        lambda: classification_from_text("hard q=0 p=- x=ab v=ba s=-\n"),
        FormatError, "expected `u=...`, got `x=ab`", 1),
    "expr after envelope": (
        lambda: classification_from_text(EASY_HEAD + "envelope a b\nexpr p=- blocks=\n"),
        FormatError, "expr line after envelope line", 4),
    "expr arity": (
        lambda: classification_from_text("easy\nexpr p=a\n"),
        FormatError, "want `expr p=<word> blocks=...`", 2),
    "duplicate envelope": (
        lambda: classification_from_text(EASY_HEAD + "envelope a\n# note\nenvelope b\n"),
        FormatError, "duplicate envelope line", 5),
    "unknown keyword": (
        lambda: classification_from_text(EASY_HEAD + "blocks a\n"),
        FormatError, "unexpected `blocks` in certificate", 3),
    # each letter of a word must be a symbol of the machine formats
    "envelope word `-`": (
        lambda: classification_from_text("easy\nenvelope a -\n"),
        FormatError, "bad symbol '-': want one ASCII letter or digit", 2),
    "access word letter": (
        lambda: classification_from_text("hard q=0 p=a$ u=ab v=ba s=-\n"),
        FormatError, "bad symbol '$': want one ASCII letter or digit", 1),
    "block letter": (
        lambda: classification_from_text("easy\nexpr p=- blocks=(a,-);(é,-)\nenvelope a\n"),
        FormatError, "bad symbol 'é': want one ASCII letter or digit", 2),
    "cycle word letter": (
        lambda: classification_from_text("\nhard q=0 p=- u=a$ v=ba s=-\n"),
        FormatError, "bad symbol '$': want one ASCII letter or digit", 2),
    "access word misses": (
        lambda: verify_witness(ENDS_IN_A, replace(WITNESS, access="b")),
        CertificateError, "access word does not reach the witness state", None),
    "exit word misses": (
        lambda: verify_witness(ENDS_IN_A, replace(WITNESS, exit_word="b")),
        CertificateError, "exit word does not reach an accepting state", None),
    # the error `bounded_nfa` gives for the same fault in an expression
    "envelope letter outside the filter's alphabet": (
        lambda: verify_easy(A_B_STAR, classify(A_B_STAR).decomposition, ("a", "bz")),
        AlphabetError, "symbol 'z' not in the alphabet", None),
}

# ---------------------------------------------------------------------------
# rrkit.cover: a plan whose words are prefix-comparable

COVER = {
    "zero word a prefix of the one word": (
        lambda: CoverPlan(WITNESS, "a", "ab", "bb", ("a",), 1, (("a", "0"),)),
        CertificateError, "dispatch words 'a' and 'ab' are prefix-comparable", None),
    "stop word a prefix of the one word": (
        lambda: CoverPlan(WITNESS, "a", "bab", "ba", ("a",), 1, (("a", "0"),)),
        CertificateError, "dispatch words 'bab' and 'ba' are prefix-comparable", None),
}

TABLES = {"automata": AUTOMATA, "transducer": TRANSDUCER, "rr": RR,
          "classify": CLASSIFY, "cover": COVER}


@pytest.mark.parametrize("module, case", [(module, case) for module, table in TABLES.items()
                                          for case in table])
def test_rejection(module, case):
    build, kind, message, line = TABLES[module][case]
    with pytest.raises(Exception) as caught:
        build()
    exc = caught.value
    assert type(exc) is kind
    assert str(exc) == (message if line is None else f"line {line}: {message}")
    assert getattr(exc, "line", None) == line

