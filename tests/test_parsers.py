"""The text parsers are total: whatever the input, they return a value or
raise `FormatError`, never another exception."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrkit import (
    FormatError,
    classification_from_text,
    parse_automaton,
    parse_digraph,
    parse_dfst,
    regex_to_nfa,
)
from rrkit.cli import main

PARSERS = {
    "automaton": parse_automaton,
    "dfst": parse_dfst,
    "digraph": parse_digraph,
    "certificate": classification_from_text,
    "regex": regex_to_nfa,
}
PROPERTY = settings(derandomize=True, max_examples=200, deadline=None)

# the words of every format, some numbers and symbols, and tokens that are
# almost right: a Unicode digit, a long number, a two-letter symbol
TOKENS = [
    "dfa", "nfa", "dfst", "graph", "HARD", "EASY", "hard", "easy",
    "alphabet", "in_alphabet", "out_alphabet", "states", "initial", "accept",
    "trans", "final", "nodes", "source", "target", "edge", "expr", "envelope",
    "eps", "-", "#", "0", "1", "2", "3", "00", "-1", "²", "٣", "9" * 5000,
    "a", "b", "c", "ab", "é", "a*", "(a|b)", "q=0", "q=x", "p=-", "p=ab", "u=a",
    "u=ab", "v=b", "v=ba", "s=-", "blocks=", "blocks=(a,b);(b,-)", "blocks=(a",
    "blocks=(a,-);(b", "=",
]


@st.composite
def token_lines(draw):
    """Lines of known tokens, as a file in one of the formats might be."""
    lines = draw(st.lists(st.lists(st.sampled_from(TOKENS), min_size=0, max_size=6),
                          max_size=9))
    return "\n".join(" ".join(line) for line in lines)


def _only_format_errors(parse, text):
    try:
        parse(text)
    except FormatError:
        pass


@pytest.mark.parametrize("name", PARSERS)
class TestTotalParsers:
    @PROPERTY
    @given(text=st.text(max_size=120))
    def test_arbitrary_text(self, name, text):
        _only_format_errors(PARSERS[name], text)

    @PROPERTY
    @given(text=token_lines())
    def test_near_valid_lines(self, name, text):
        _only_format_errors(PARSERS[name], text)

    @PROPERTY
    @given(text=st.text(alphabet="ab()|*\n #-=,;0", max_size=60))
    def test_pattern_like_text(self, name, text):
        _only_format_errors(PARSERS[name], text)


# `int` refuses decimal strings of more than 4300 digits by default
LONG_NUMBER = "1" * 5000

# parser, input text with the number at {n}, CLI command that reads it
LONG_NUMBER_CASES = {
    "dfa-states": (parse_automaton, "dfa\nalphabet a\nstates 0 {n}\ninitial 0\naccept 0\n",
                   ["classify", "{path}"]),
    "nfa-trans": (parse_automaton,
                  "nfa\nalphabet a\nstates 0 3\ninitial 0\naccept 0\ntrans 0 a {n}\n",
                  ["classify", "{path}"]),
    "dfst-states": (parse_dfst, "dfst\nin_alphabet a\nout_alphabet a\nstates 0 {n}\n"
                    "initial 0\naccept 0\n", ["compose", "{path}", "{path}"]),
    "graph-nodes": (parse_digraph, "graph\nnodes {n}\nsource 0\ntarget 0\n",
                    ["gadget", "{path}", "--word", "a"]),
    "certificate": (classification_from_text, "hard q={n} p=- u=ab v=ba s=-\n", None),
}


@pytest.mark.parametrize("case", sorted(LONG_NUMBER_CASES))
def test_number_too_long_for_int_is_a_format_error(case, tmp_path, capsys):
    parse, template, argv = LONG_NUMBER_CASES[case]
    text = template.format(n=LONG_NUMBER)
    with pytest.raises(FormatError):
        parse(text)
    if argv is None:
        return
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    assert main([arg.format(path=path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line ")


def test_deeply_nested_pattern_is_a_format_error(tmp_path, capsys):
    pattern = "(" * 3000 + "a" + ")" * 3000
    with pytest.raises(FormatError, match="nests too deeply"):
        regex_to_nfa(pattern)
    path = tmp_path / "filter.re"
    path.write_text(pattern + "\n", encoding="utf-8")
    assert main(["classify", "--regex", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: pattern nests too deeply\n"


def test_moderately_nested_pattern_still_parses():
    nfa = regex_to_nfa("(" * 100 + "ab" + ")" * 100 + "*")
    assert nfa.alphabet == ("a", "b")
