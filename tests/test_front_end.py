"""The front end reads each input once: the parsers against the reference
parsers in helpers on valid and mutated texts, a plain machine text read
in bulk and any other in one tokenizing pass, and `cli.main` on one shared
argument parser, called repeatedly in one process. Files that cannot be read or written and gadget words no
machine text can hold end with exit 2 and an `error:` line."""

import contextlib
import io
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    count_calls,
    naive_nfa_accepts,
    oracle_parse_automaton,
    oracle_parse_dfa,
    oracle_parse_dfst,
    oracle_parse_nfa,
    planted_hard_filter,
    random_dfa,
    ring_filter,
)
from rrkit import (
    Dfst,
    FormatError,
    Nfa,
    dfa_to_text,
    nfa_to_text,
    parse_automaton,
    parse_dfa,
    parse_dfst,
    parse_nfa,
)
from rrkit.cli import build_parser, main

PROPERTY = settings(derandomize=True, max_examples=400, deadline=None)
SRC = Path(__file__).resolve().parent.parent / "src"

# ---------------------------------------------------------------------------
# differential parsers

PARSERS = {
    "automaton": (parse_automaton, oracle_parse_automaton),
    "dfa": (parse_dfa, oracle_parse_dfa),
    "nfa": (parse_nfa, oracle_parse_nfa),
    "dfst": (parse_dfst, oracle_parse_dfst),
}

# a numeral that replaces a state id: non-canonical and undeclared
# numerals, Unicode digits, a number one digit longer than `int` converts
MUTANT_NUMERALS = ["07", "00", "007", "0", "1", "12", "99", "²", "٣", "1" * 4301, "x", "-"]
# a token that replaces any other: those, `eps`, keywords out of place, a
# two-letter symbol
MUTANT_TOKENS = MUTANT_NUMERALS + ["eps", "ab", "a", "trans", "final", "states", "dfa"]


@st.composite
def machine_lines(draw, kinds=("dfa", "nfa", "dfst")):
    """A valid machine in one of the formats `kinds`, as token lists, with
    state ids 0..n-1 in order (as the writers give them) or sparse ones;
    now and then a dfa or dfst has an `eps` edge."""
    kind = draw(st.sampled_from(kinds))
    if draw(st.integers(0, 2)):
        ids = list(range(draw(st.integers(1, 6))))
    else:
        ids = draw(st.lists(st.integers(0, 12), min_size=1, max_size=5, unique=True))
    states = [str(q) for q in ids]
    alphabet = draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True))
    lines = [[kind]]
    if kind == "dfst":
        out_alphabet = draw(st.lists(st.sampled_from("abc"), max_size=3, unique=True))
        lines += [["in_alphabet", *alphabet], ["out_alphabet", *out_alphabet]]
    else:
        lines.append(["alphabet", *alphabet])
    lines.append(["states", *states])
    count = min(draw(st.integers(0, 2)), len(states)) if kind == "nfa" else 1
    lines.append(["initial", *draw(st.lists(st.sampled_from(states), min_size=count,
                                            max_size=count, unique=True))])
    accepting = draw(st.lists(st.sampled_from(states), max_size=3, unique=True))
    lines.append(["accept", *accepting])
    # `eps` is an error in a dfa or dfst; drawn there now and then
    symbols = alphabet + ["eps"] if kind == "nfa" or draw(st.integers(0, 3)) == 0 else alphabet
    used = set()
    for _ in range(draw(st.integers(0, 6))):
        src, dst = draw(st.sampled_from(states)), draw(st.sampled_from(states))
        sym = draw(st.sampled_from(symbols))
        if kind != "nfa" and (src, sym) in used:
            continue
        used.add((src, sym))
        if kind == "dfst":
            out = "".join(draw(st.lists(st.sampled_from(out_alphabet), max_size=2))) \
                if out_alphabet else ""
            lines.append(["trans", src, sym, out or "-", dst])
        else:
            lines.append(["trans", src, sym, dst])
    if kind == "dfst":
        for q in accepting:
            if draw(st.booleans()):
                lines.append(["final", q, draw(st.sampled_from(["-", *out_alphabet]))])
    return lines


# line breaks of `str.splitlines` that a bulk read must not take for spaces
BREAKS = ["\x0b", "\x0c", "\x1c", "\x85", "\u2028"]


@st.composite
def machine_text(draw, kinds=("dfa", "nfa", "dfst")):
    """A valid machine text, or one with a few token-, line- or
    character-level mutations, with LF or CRLF endings."""
    lines = draw(machine_lines(kinds))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        k = draw(st.integers(0, len(lines) - 1))
        line = lines[k]
        numerals = [(i, j) for i, toks in enumerate(lines)
                    for j, tok in enumerate(toks) if tok.isdigit()]
        op = draw(st.sampled_from(["token", "numeral", "pad", "duplicate", "delete",
                                   "comment", "glued-comment", "blank", "extra-token",
                                   "join", "split", "indent", "trailing-blank", "states-007"]))
        if op == "token" and line:
            line[draw(st.integers(0, len(line) - 1))] = draw(st.sampled_from(MUTANT_TOKENS))
        elif op in ("numeral", "pad") and numerals:
            i, j = draw(st.sampled_from(numerals))
            lines[i][j] = ("0" + lines[i][j] if op == "pad"
                           else draw(st.sampled_from(MUTANT_NUMERALS)))
        elif op == "duplicate":
            lines.insert(k, list(line))
        elif op == "delete" and len(lines) > 1:
            del lines[k]
        elif op == "comment":
            line += ["#", draw(st.sampled_from(["note", "trans 0 a 0", "#"]))]
        elif op == "glued-comment" and line:
            line[-1] += "#" + draw(st.sampled_from(["", "x", "0"]))
        elif op == "blank":
            lines.insert(k, draw(st.sampled_from([[], ["#", "comment"], ["#"]])))
        elif op == "extra-token":
            line.append(draw(st.sampled_from(MUTANT_TOKENS)))
        elif op == "join" and k + 1 < len(lines):  # two edges on one line, say
            lines[k:k + 2] = [line + lines[k + 1]]
        elif op == "split" and len(line) > 1:  # one edge over two lines, say
            j = draw(st.integers(1, len(line) - 1))
            lines[k:k + 1] = [line[:j], line[j:]]
        elif op == "indent" and line:
            line[0] = draw(st.sampled_from([" ", "\t"])) + line[0]
        elif op == "trailing-blank":
            lines += [[]] * draw(st.integers(1, 2))
        elif op == "states-007":
            states = [toks for toks in lines if toks[:1] == ["states"]]
            if states and len(states[0]) > 1:
                j = draw(st.integers(1, len(states[0]) - 1))
                states[0][j] = "00" + states[0][j]
    eol = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    text = eol.join(" ".join(line) for line in lines) + draw(st.sampled_from(["", eol]))
    if draw(st.integers(0, 5)) == 0:  # a line break or a space becomes another break
        spots = [i for i, c in enumerate(text) if c in " \n"]
        if spots:
            i = draw(st.sampled_from(spots))
            text = text[:i] + draw(st.sampled_from(BREAKS)) + text[i + 1:]
    return text


def parsed(parse, text):
    """The machine's fields, or the FormatError's message and line."""
    try:
        m = parse(text)
    except FormatError as exc:
        return ("error", str(exc), exc.line)
    if isinstance(m, Dfst):
        return ("dfst", m.in_alphabet, m.out_alphabet, m.states, m.initial, m.accepting,
                m.transitions, m.final_output)
    return (type(m).__name__, m.alphabet, m.states, m.initial, m.accepting, m.transitions)


def stored_edges(parse, text):
    """A parsed machine's transitions in the order it holds them, or None
    for a text that fails."""
    try:
        m = parse(text)
    except FormatError:
        return None
    return list(m.transitions.items()) if isinstance(m.transitions, dict) else m.transitions


def assert_same_parse(text):
    for parse, oracle in PARSERS.values():
        assert parsed(parse, text) == parsed(oracle, text)
        assert stored_edges(parse, text) == stored_edges(oracle, text)


class TestParsersMatchOracles:
    @PROPERTY
    @given(text=machine_text())
    def test_same_fields_or_same_error(self, text):
        assert_same_parse(text)

    @pytest.mark.parametrize("text, want", [
        # non-canonical numerals name the same declared states
        ("dfa\nalphabet a\nstates 007 1\ninitial 7\naccept 01\ntrans 07 a 0001\n",
         ("Dfa", ("a",), frozenset({7, 1}), 7, frozenset({1}), {(7, "a"): 1})),
        ("dfa\nalphabet a\nstates 0 1\ninitial 0\naccept 1\ntrans 0 a 2 # to 2\n",
         ("error", "line 6: undeclared state '2'", 6)),
        ("nfa\r\nalphabet a\r\nstates 0\r\ninitial 0\r\naccept\r\ntrans 0 eps 00\r\n",
         ("Nfa", ("a",), frozenset({0}), frozenset({0}), frozenset(), ((0, None, 0),))),
        ("dfa\nalphabet a\nstates 0 00\ninitial 0\naccept\n",
         ("error", "line 3: duplicate state id", 3)),
        ("dfa\nalphabet a\nstates 0 ٣\ninitial 0\naccept\n",
         ("error", "line 3: bad state id '٣'", 3)),
    ])
    def test_pinned(self, text, want):
        assert parsed(parse_automaton, text) == want == parsed(oracle_parse_automaton, text)


RING_TEXT = dfa_to_text(ring_filter(random.Random(3), 30, 2))
NFA_TEXT = nfa_to_text(Nfa(("a", "b"), frozenset({0, 1, 2}), frozenset({0, 1}), frozenset({2}),
                           ((0, None, 1), (1, "a", 2), (2, "b", 0), (2, None, 2))))


PLAIN_DFA = "dfa\nalphabet a b\nstates 0 1 2\ninitial 0\naccept 2\ntrans 0 a 1\ntrans 1 b 2\n"
PLAIN_NFA = "nfa\nalphabet a\nstates 0 1\ninitial 0 1\naccept 1\ntrans 0 eps 1\ntrans 1 a 0\n"

# each text differs from a plain one in one way that the bulk reader must
# leave to the line parser: the line parser either reads it or names its
# faulty line
DOUBTS = {
    "two-edges-on-one-line": PLAIN_DFA.replace("1\ntrans 1", "1 trans 1"),
    "edge-over-two-lines": PLAIN_DFA.replace("trans 0 a 1\ntrans 1 b 2",
                                             "trans 0 a\n1 trans 1 b 2"),
    "edge-split-and-joined": PLAIN_DFA.replace("trans 0 a 1\ntrans 1 b 2",
                                               "trans 0 a 1 trans\n1 b 2"),
    "leading-space": PLAIN_DFA.replace("\ntrans 1", "\n trans 1"),
    "leading-tab": PLAIN_NFA.replace("\ntrans 1", "\n\ttrans 1"),
    "tab-after-trans": PLAIN_DFA.replace("trans 1", "trans\t1"),
    **{f"break-{ord(c):x}": PLAIN_DFA.replace("\ntrans 1", c + "trans 1") for c in BREAKS},
    **{f"break-{ord(c):x}-in-line": PLAIN_DFA.replace("trans 1 b", f"trans 1{c}b")
       for c in BREAKS},
    "crlf": PLAIN_NFA.replace("\n", "\r\n"),
    "trailing-blank-line": PLAIN_DFA + "\n",
    "trailing-blank-lines": PLAIN_NFA + "\n \n",
    "blank-header-line": PLAIN_DFA.replace("states", "\nstates"),
    "comment": PLAIN_DFA + "# done\n",
    "edge-007": PLAIN_DFA.replace("b 2", "b 002"),
    "undeclared-state": PLAIN_DFA.replace("b 2", "b 3"),
    "undeclared-symbol": PLAIN_DFA.replace("b 2", "c 2"),
    "eps-in-dfa": PLAIN_DFA.replace("b 2", "eps 2"),
    "duplicate-edge": PLAIN_DFA + "trans 0 a 2\n",
    "two-initial-states": PLAIN_DFA.replace("initial 0", "initial 0 1"),
    "no-initial-state": PLAIN_DFA.replace("initial 0", "initial"),
    "five-tokens": PLAIN_NFA.replace("a 0", "a 0 0"),
    "three-tokens": PLAIN_NFA.replace("a 0", "a"),
    "missing-header-line": "nfa\nalphabet a\nstates 0\ninitial 0\n",
    "non-ascii": PLAIN_DFA.replace("b 2", "b ٢"),
}


@pytest.mark.parametrize("text", DOUBTS.values(), ids=DOUBTS.keys())
def test_doubtful_text_goes_to_the_line_parser(text, monkeypatch):
    assert_same_parse(text)
    calls = count_calls(monkeypatch, ["_logical_lines"])
    for parse in (parse_automaton, parse_dfa if text.startswith("dfa") else parse_nfa):
        parsed(parse, text)
    assert calls == {"_logical_lines": 2}


def test_large_writer_output_read_in_bulk(monkeypatch):
    rng = random.Random(18)
    d = random_dfa(rng, 600, alphabet=("a", "b", "c"), density=0.9)
    n = Nfa(("a", "b"), frozenset(range(600)), frozenset({0, 7}), frozenset(range(0, 600, 3)),
            tuple((rng.randrange(600), rng.choice(["a", "b", None]), rng.randrange(600))
                  for _ in range(2400)))
    texts = [dfa_to_text(d), nfa_to_text(n)]
    for text in texts:
        assert_same_parse(text)
    calls = count_calls(monkeypatch, ["_logical_lines"])
    assert len(parse_dfa(texts[0]).states) > 500 < len(parse_nfa(texts[1]).states)
    assert calls == {"_logical_lines": 0}
    # one faulty edge near the end sends the whole text to the line parser
    faulty = texts[0][:-1] + "99\n"
    assert parsed(parse_automaton, faulty) == parsed(oracle_parse_automaton, faulty)
    assert calls == {"_logical_lines": 1}


@pytest.mark.parametrize("parse, text, passes", [
    # the writers' output is plain: read in bulk, with no pass over lines
    (parse_automaton, RING_TEXT, 0),
    (parse_automaton, NFA_TEXT, 0),
    (parse_dfa, RING_TEXT, 0),
    (parse_nfa, NFA_TEXT, 0),
    (parse_nfa, "nfa\nalphabet a\nstates 0\ninitial 0\naccept 0\n", 0),
    # `002` on the `states` line enters the numeral table as `2`, in bulk
    # as in the line parser, so the edges' `2` is found
    (parse_automaton, PLAIN_DFA.replace("states 0 1 2", "states 0 1 002"), 0),
    # a comment or a blank line sends a text to one tokenizing pass
    (parse_automaton, RING_TEXT.replace("\n", " # ring\n", 1), 1),
    (parse_automaton, NFA_TEXT + "\n", 1),
    (parse_dfa, RING_TEXT.replace("\n", "\n\n", 3), 1),
    (parse_nfa, "# nfa\n" + NFA_TEXT, 1),
    (parse_dfst, "dfst\nin_alphabet a\nout_alphabet a\nstates 0\ninitial 0\naccept 0\n"
                 "trans 0 a a 0\nfinal 0 a\n", 1),
], ids=["automaton-dfa", "automaton-nfa", "dfa", "nfa", "nfa-no-edges", "states-007",
        "automaton-dfa-comment",
        "automaton-nfa-blank", "dfa-blank", "nfa-comment", "dfst"])
def test_one_tokenizing_pass_per_parse(parse, text, passes, monkeypatch):
    """At most one pass over a text's lines: none for a plain machine text,
    which `_bulk` reads, and one for any other text."""
    calls = count_calls(monkeypatch, ["_logical_lines"])
    parse(text)
    assert calls == {"_logical_lines": passes}


# ---------------------------------------------------------------------------
# the CLI exits only with a documented code

# {a} and {b} name machine files, {t} and {u} transducer files, {r} a
# pattern and {g} a graph
ARGV = {
    "classify": [["classify", "{a}"], ["classify", "--regex", "{r}"]],
    "cover": [["cover", "{a}", "{b}"], ["cover", "--regex", "{r}", "{b}"]],
    "solve": [["solve", "{a}", "{b}"], ["solve", "--nfa", "{a}", "{b}"],
              ["solve", "--counters", "{a}", "{b}"], ["solve", "--regex", "{r}", "{b}"]],
    "reduce": [["reduce", "{t}", "{a}"]],
    "gadget": [["gadget", "{g}", "--word", "ab"], ["gadget", "{g}", "--word", "-"]],
    "compose": [["compose", "{t}", "{u}"]],
    "image": [["image", "{t}", "{a}"]],
    "equiv": [["equiv", "{a}", "{b}"]],
}


@st.composite
def file_text(draw, kinds):
    """Mostly a machine text of one of `kinds`, valid or mutated; now and
    then arbitrary text."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.text(min_size=1, max_size=40))
    return draw(machine_text(kinds))


@st.composite
def graph_text(draw):
    nodes = draw(st.integers(1, 4))
    node = st.integers(0, nodes - 1).map(str)
    lines = [["graph"], ["nodes", str(nodes)], ["source", draw(node)], ["target", draw(node)]]
    for _ in range(draw(st.integers(0, 4))):
        lines.append(["edge", draw(node), draw(node)])
    if draw(st.integers(0, 2)) == 0:
        k = draw(st.integers(0, len(lines) - 1))
        lines[k][-1] = draw(st.sampled_from(MUTANT_TOKENS))
    return "\n".join(" ".join(line) for line in lines) + "\n"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-property")


@pytest.mark.parametrize("command", ARGV)
@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_cli_exits_with_a_documented_code(command, workdir, data):
    machines, transducers = file_text(("dfa", "nfa")), file_text(("dfst",))
    texts = {
        "a": data.draw(machines, label="a"),
        "b": data.draw(machines, label="b"),
        "t": data.draw(transducers, label="t"),
        "u": data.draw(transducers, label="u"),
        "r": data.draw(st.text(alphabet="ab()|*", max_size=12), label="regex"),
        "g": data.draw(graph_text(), label="graph"),
    }
    paths = {}
    for key, text in texts.items():
        path = workdir / f"{command}-{key}.txt"
        path.write_text(text, encoding="utf-8", newline="")
        paths[key] = str(path)
    argv = [arg.format(**paths) for arg in data.draw(st.sampled_from(ARGV[command]), label="argv")]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 2, 3, 4)


# ---------------------------------------------------------------------------
# one argument parser per process: no call sees another's arguments

HARD_TEXT = dfa_to_text(planted_hard_filter(random.Random(11), 40))
EASY_TEXT = dfa_to_text(ring_filter(random.Random(13), 12, 2))
TARGET_TEXT = "dfa\nalphabet a b\nstates 0 1\ninitial 0\naccept 0\ntrans 0 a 1\ntrans 1 b 0\n"
INPUT_TEXT = "dfa\nalphabet a b\nstates 0\ninitial 0\naccept 0\ntrans 0 a 0\ntrans 0 b 0\n"


def _call(argv, out_path):
    """Exit code (or SystemExit code), stdout, stderr and the file written
    by `--out` of one call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
    written = out_path.read_text() if "--out" in argv else None
    return code, out.getvalue(), err.getvalue(), written


def test_shared_parser_keeps_calls_apart(tmp_path):
    p = {}
    for name, text in (("hard", HARD_TEXT), ("easy", EASY_TEXT), ("target", TARGET_TEXT),
                       ("input", INPUT_TEXT), ("regex", "(a|b)*\n")):
        (tmp_path / f"{name}.txt").write_text(text)
        p[name] = str(tmp_path / f"{name}.txt")
    out_path = tmp_path / "out.txt"
    calls = [
        ["classify", "--out", str(out_path), p["hard"]], ["classify", p["hard"]],
        ["solve", "--counters", p["easy"], p["input"]], ["solve", p["easy"], p["input"]],
        ["solve", p["input"]],  # usage error: argparse exits with 2
        ["solve", "--nfa", p["easy"], p["input"]], ["solve", p["easy"], p["input"]],
        ["cover", "--regex", p["regex"], p["target"]], ["cover", p["hard"], p["target"]],
    ]
    build_parser.cache_clear()
    shared = [_call(argv, out_path) for argv in calls]
    assert build_parser.cache_info().misses == 1
    codes = [result[0] for result in shared]
    assert codes == [0, 0, 0, 0, ("SystemExit", 2), 0, 0, 0, 0]
    assert shared[0][1] == "" and shared[0][3] == shared[1][1]

    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(_call(argv, out_path))
    assert shared == fresh


# ---------------------------------------------------------------------------
# a file that cannot be read or written, or a gadget word that no machine
# text can hold: exit 2 and one `error:` line, with no traceback

DFST_TEXT = ("dfst\nin_alphabet a b\nout_alphabet a b\nstates 0\ninitial 0\naccept 0\n"
             "trans 0 a a 0\ntrans 0 b b 0\n")
GRAPH_TEXT = "graph\nnodes 2\nsource 0\ntarget 1\nedge 0 1\n"
NOT_UTF8 = b"dfa\nalphabet a\xff\n"

# each subcommand on inputs it succeeds on; its first input is argv[1]
COMMANDS = {
    "classify": ["classify", "{hard}"],
    "cover": ["cover", "{hard}", "{target}"],
    "solve": ["solve", "{easy}", "{input}"],
    "reduce": ["reduce", "{dfst}", "{input}"],
    "gadget": ["gadget", "{graph}", "--word", "ab"],
    "compose": ["compose", "{dfst}", "{dfst}"],
    "image": ["image", "{dfst}", "{input}"],
    "equiv": ["equiv", "{easy}", "{input}"],
}
WITH_OUT = ["classify", "cover", "reduce", "gadget", "compose", "image"]


@pytest.fixture
def inputs(tmp_path):
    paths = {}
    for name, text in (("hard", HARD_TEXT), ("easy", EASY_TEXT), ("target", TARGET_TEXT),
                       ("input", INPUT_TEXT), ("dfst", DFST_TEXT), ("graph", GRAPH_TEXT)):
        (tmp_path / f"{name}.txt").write_text(text)
        paths[name] = str(tmp_path / f"{name}.txt")
    return paths


def _run(argv):
    """Exit code, stdout and stderr of one call; any exception escapes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _argv(command, inputs):
    return [arg.format(**inputs) for arg in COMMANDS[command]]


@pytest.mark.parametrize("command", COMMANDS)
def test_inputs_are_accepted(command, inputs):
    assert _run(_argv(command, inputs))[0] == 0


@pytest.mark.parametrize("command", COMMANDS)
def test_first_input_not_utf8(command, inputs, tmp_path):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(NOT_UTF8)
    argv = _argv(command, inputs)
    argv[1] = str(bad)
    assert _run(argv) == (2, "", f"error: cannot read {bad}: not UTF-8 text\n")


@pytest.mark.parametrize("command", WITH_OUT)
def test_out_into_missing_directory(command, inputs, tmp_path):
    target = tmp_path / "missing" / "x.txt"
    argv = _argv(command, inputs) + ["--out", str(target)]
    assert _run(argv) == (2, "", f"error: cannot write {target}: No such file or directory\n")
    assert not target.parent.exists()


# `--word=W` keeps W whole: argparse would read a lone `--` as the end of
# options and pass an empty list for it
@pytest.mark.parametrize("word, bad", [("a#b", "#"), ("a-b", "-"), ("é", "é"), ("ab-", "-"),
                                       ("--", "-")],
                         ids=["hash", "inner-dash", "e-acute", "trailing-dash", "only-dashes"])
def test_gadget_word_with_a_bad_letter(word, bad, inputs, tmp_path):
    target = tmp_path / "gadget.txt"
    argv = ["gadget", inputs["graph"], f"--word={word}", "--out", str(target)]
    assert _run(argv) == (
        2, "", f"error: bad symbol {bad!r}: want one ASCII letter or digit\n")
    assert not target.exists()


@settings(derandomize=True, max_examples=150, deadline=None)
# no `-` inside a drawn word: argparse reads a leading one as an option
@given(word=st.one_of(st.just("-"), st.text(alphabet="ab09Z#é ", max_size=4)))
def test_every_accepted_gadget_word_parses_back(word, workdir):
    graph = workdir / "gadget-graph.txt"
    graph.write_text(GRAPH_TEXT)
    code, out, err = _run(["gadget", str(graph), "--word", word])
    if code == 0:
        letters = "" if word == "-" else word
        machine = parse_nfa(out)
        assert machine.alphabet == tuple(sorted(set(letters)))
        assert naive_nfa_accepts(machine, letters)
    else:
        assert (code, out) == (2, "") and err.startswith("error: bad symbol ")


def test_not_utf8_from_the_command_line(tmp_path):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(NOT_UTF8)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "rrkit", "classify", str(bad)],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: cannot read {bad}: not UTF-8 text\n"
