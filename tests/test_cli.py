import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import dfa_as_nfa, looped_chain
from rrkit import (
    FormatError,
    classification_from_text,
    dfa_to_text,
    parse_dfa,
    parse_digraph,
    parse_dfst,
    parse_nfa,
    regex_to_nfa,
    separating_word,
    verify_cover,
)
from rrkit.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

AB_STAR_TEXT = """dfa
alphabet a b
states 0 1
initial 0
accept 0
trans 0 a 1
trans 1 b 0
"""

A_STAR_B_STAR_TEXT = """dfa
alphabet a b
states 0 1
initial 0
accept 0 1
trans 0 a 0
trans 0 b 1
trans 1 b 1
"""

SIGMA_STAR_TEXT = """dfa
alphabet a b
states 0
initial 0
accept 0
trans 0 a 0
trans 0 b 0
"""

GRAPH_TEXT = """graph
nodes 3
source 0
target 2
edge 0 1
edge 1 2
"""

IDENTITY_AB_TEXT = """dfst
in_alphabet a b
out_alphabet a b
states 0
initial 0
accept 0
trans 0 a a 0
trans 0 b b 0
"""


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassifyCommand:
    def test_hard_regex(self, files, capsys):
        path = files("f.re", "(a|b)*\n")
        code, out, _ = run_main(capsys, "classify", path, "--regex")
        assert code == 0
        assert out.startswith("HARD ")
        assert " u=" in out and " v=" in out

    def test_easy_machine(self, files, capsys):
        path = files("f.txt", A_STAR_B_STAR_TEXT)
        code, out, _ = run_main(capsys, "classify", path)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "EASY"
        assert lines[-1] == "envelope a b"

    def test_hard_machine_golden(self, files, capsys):
        path = files("f.txt", SIGMA_STAR_TEXT)
        code, out, _ = run_main(capsys, "classify", path)
        assert code == 0
        assert out == "HARD q=0 p=- u=ab v=ba s=-\n"

    def test_long_chain_exits_0(self, files, capsys):
        n = 1200
        text = "".join([
            "dfa\nalphabet a\n",
            "states " + " ".join(map(str, range(n + 1))) + "\n",
            f"initial 0\naccept {n}\n",
            *(f"trans {q} a {q + 1}\n" for q in range(n)),
        ])
        code, out, _ = run_main(capsys, "classify", files("chain.txt", text))
        assert code == 0
        assert out.splitlines()[:2] == ["EASY", f"expr p={'a' * n} blocks="]

    def test_parse_error_exit_2(self, files, capsys):
        path = files("f.txt", "dfa\nalphabet a\nstatez\n")
        code, _, err = run_main(capsys, "classify", path)
        assert code == 2
        assert "line 3" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run_main(capsys, "classify", "/nonexistent/filter.txt")
        assert code == 2


class TestCoverCommand:
    def test_cover_emits_verified_transducer(self, files, capsys, tmp_path):
        filt = files("f.txt", SIGMA_STAR_TEXT)
        target = files("t.txt", AB_STAR_TEXT)
        out_path = str(tmp_path / "cover.dfst")
        code, out, _ = run_main(capsys, "cover", filt, target, "--out", out_path)
        assert code == 0
        assert out.strip() == "VERIFIED image == target"
        emitted = parse_dfst(Path(out_path).read_text())
        assert verify_cover(emitted, parse_dfa(SIGMA_STAR_TEXT), parse_dfa(AB_STAR_TEXT))

    def test_easy_filter_exit_3(self, files, capsys):
        filt = files("f.txt", A_STAR_B_STAR_TEXT)
        target = files("t.txt", AB_STAR_TEXT)
        code, out, err = run_main(capsys, "cover", filt, target)
        assert code == 3
        assert out.splitlines()[0] == "EASY"
        assert err == "easy filter: it does not cover arbitrary languages\n"
        assert run_main(capsys, "classify", filt) == (0, out, "")

    def test_empty_target(self, files, capsys):
        filt = files("f.txt", SIGMA_STAR_TEXT)
        target = files("t.txt", "dfa\nalphabet a b\nstates 0\ninitial 0\naccept\n")
        code, out, _ = run_main(capsys, "cover", filt, target)
        assert code == 0
        assert "VERIFIED image == target" in out


class TestSolveCommand:
    def test_yes_epsilon(self, files, capsys):
        filt = files("f.txt", A_STAR_B_STAR_TEXT)
        inp = files("a.txt", AB_STAR_TEXT)
        code, out, _ = run_main(capsys, "solve", filt, inp)
        assert code == 0
        assert out == "YES -\n"

    def test_yes_with_witness(self, files, capsys):
        filt = files("f.txt", AB_STAR_TEXT)
        inp_nfa = files("a.txt", _nfa_text("a(a|b)*"))
        code, out, _ = run_main(capsys, "solve", filt, inp_nfa)
        assert code == 0
        assert out == "YES ab\n"

    def test_no(self, files, capsys):
        filt = files("f.re", "a*")
        inp = files("a.txt", _nfa_text("b(a|b)*"))
        code, out, _ = run_main(capsys, "solve", filt, inp, "--regex")
        assert code == 0
        assert out == "NO\n"

    def test_counters_prints_exponents(self, files, capsys):
        filt = files("f.txt", A_STAR_B_STAR_TEXT)
        inp = files("a.txt", _nfa_text("aab"))
        code, out, _ = run_main(capsys, "solve", filt, inp, "--counters")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "YES aab"
        assert lines[1].startswith("exponents")

    def test_counters_on_deep_decomposition(self, files, capsys):
        n = 1101  # one expression of 1101 blocks
        filt = files("chain.txt", dfa_to_text(looped_chain(n)))
        inp = files("a.txt", SIGMA_STAR_TEXT)
        code, out, _ = run_main(capsys, "solve", filt, inp, "--counters")
        assert code == 0
        assert out == f"YES {'b' * (n - 1)}\nexponents {' '.join(['0'] * n)}\n"

    def test_counters_on_hard_filter_exit_3(self, files, capsys):
        filt = files("f.txt", SIGMA_STAR_TEXT)
        inp = files("a.txt", AB_STAR_TEXT)
        code, _, err = run_main(capsys, "solve", filt, inp, "--counters")
        assert code == 3

    def test_nfa_variant(self, files, capsys):
        filt = files("f.txt", _nfa_text("(a|b)*"))
        inp = files("a.txt", _nfa_text("ba"))
        code, out, _ = run_main(capsys, "solve", filt, inp, "--nfa")
        assert code == 0
        assert out == "YES ba\n"


class TestReduceCommand:
    def test_identity_preserves_language(self, files, capsys):
        t = files("t.dfst", IDENTITY_AB_TEXT)
        inp = files("a.txt", AB_STAR_TEXT)
        code, out, _ = run_main(capsys, "reduce", t, inp)
        assert code == 0
        reduced = parse_dfa(out)
        assert separating_word(dfa_as_nfa(reduced), dfa_as_nfa(parse_dfa(AB_STAR_TEXT))) is None

    def test_rewriter_reduction(self, files, capsys):
        t = files("t.dfst",
                  "dfst\nin_alphabet a\nout_alphabet a b\nstates 0\ninitial 0\n"
                  "accept 0\ntrans 0 a ab 0\n")
        inp = files("a.txt", AB_STAR_TEXT)
        code, out, _ = run_main(capsys, "reduce", t, inp)
        assert code == 0
        assert separating_word(dfa_as_nfa(parse_dfa(out)), regex_to_nfa("a*")) is None

    def test_alphabet_mismatch_exit_4(self, files, capsys):
        t = files("t.dfst",
                  "dfst\nin_alphabet a\nout_alphabet c\nstates 0\ninitial 0\n"
                  "accept 0\ntrans 0 a c 0\n")
        inp = files("a.txt", AB_STAR_TEXT)
        code, _, err = run_main(capsys, "reduce", t, inp)
        assert code == 4

    def test_bad_transducer_exit_2(self, files, capsys):
        t = files("t.dfst", "dfst\nin_alphabet a\n")
        inp = files("a.txt", AB_STAR_TEXT)
        code, _, _ = run_main(capsys, "reduce", t, inp)
        assert code == 2


class TestGadgetCommand:
    def test_two_hop_graph(self, files, capsys):
        graph = files("g.txt", GRAPH_TEXT)
        code, out, _ = run_main(capsys, "gadget", graph, "--word", "ab")
        assert code == 0
        gadget = parse_nfa(out)
        assert separating_word(gadget, regex_to_nfa("ab")) is None

    def test_two_node_path_has_four_states(self, files, capsys):
        graph = files("g.txt", "graph\nnodes 2\nsource 0\ntarget 1\nedge 0 1\n")
        code, out, _ = run_main(capsys, "gadget", graph, "--word", "ab")
        assert code == 0
        gadget = parse_nfa(out)
        assert len(gadget.states) == 4
        assert separating_word(gadget, regex_to_nfa("ab")) is None

    def test_no_path_graph(self, files, capsys):
        graph = files("g.txt", "graph\nnodes 2\nsource 0\ntarget 1\n")
        code, out, _ = run_main(capsys, "gadget", graph, "--word", "ab")
        assert code == 0
        gadget = parse_nfa(out)
        from rrkit import shortest_word
        assert shortest_word(gadget) is None

    def test_self_reachability_empty_word(self, files, capsys):
        graph = files("g.txt", "graph\nnodes 1\nsource 0\ntarget 0\n")
        code, out, _ = run_main(capsys, "gadget", graph, "--word", "-")
        assert code == 0
        gadget = parse_nfa(out)
        assert separating_word(gadget, regex_to_nfa("")) is None

    def test_parse_error_exit_2(self, files, capsys):
        graph = files("g.txt", "graph\nnodes x\n")
        code, _, _ = run_main(capsys, "gadget", graph, "--word", "ab")
        assert code == 2


class TestComposeImageEquiv:
    def test_compose(self, files, capsys):
        first = files("t1.dfst",
                      "dfst\nin_alphabet a\nout_alphabet b\nstates 0\ninitial 0\n"
                      "accept 0\ntrans 0 a b 0\n")
        second = files("t2.dfst",
                       "dfst\nin_alphabet b\nout_alphabet c\nstates 0\ninitial 0\n"
                       "accept 0\ntrans 0 b c 0\n")
        code, out, _ = run_main(capsys, "compose", first, second)
        assert code == 0
        composed = parse_dfst(out)
        from rrkit import apply
        assert apply(composed, "aa") == "cc"

    def test_compose_mismatch_exit_4(self, files, capsys):
        first = files("t1.dfst",
                      "dfst\nin_alphabet a\nout_alphabet b\nstates 0\ninitial 0\n"
                      "accept 0\ntrans 0 a b 0\n")
        second = files("t2.dfst",
                       "dfst\nin_alphabet c\nout_alphabet c\nstates 0\ninitial 0\n"
                       "accept 0\ntrans 0 c c 0\n")
        code, _, _ = run_main(capsys, "compose", first, second)
        assert code == 4

    def test_image(self, files, capsys):
        t = files("t.dfst", IDENTITY_AB_TEXT)
        inp = files("a.txt", AB_STAR_TEXT)
        code, out, _ = run_main(capsys, "image", t, inp)
        assert code == 0
        assert separating_word(parse_nfa(out), dfa_as_nfa(parse_dfa(AB_STAR_TEXT))) is None

    def test_equiv_yes(self, files, capsys):
        left = files("l.txt", AB_STAR_TEXT)
        right = files("r.txt", _nfa_text("(ab)*"))
        code, out, _ = run_main(capsys, "equiv", left, right)
        assert code == 0
        assert out == "EQUIVALENT\n"

    def test_equiv_differ(self, files, capsys):
        left = files("l.txt", _nfa_text("a*"))
        right = files("r.txt", _nfa_text("a*b*"))
        code, out, _ = run_main(capsys, "equiv", left, right)
        assert code == 0
        assert out == "DIFFER b\n"


# Byte-exact outputs on small fixed inputs. The serializers renumber, so the
# text must not depend on how a construction numbered its states.
IMAGE_T_TEXT = """dfst
in_alphabet a b
out_alphabet a b
states 0 1
initial 0
accept 1
trans 0 a a 1
trans 0 b a 1
trans 1 a ab 1
trans 1 b - 0
final 1 b
"""

IMAGE_INPUT_TEXT = """dfa
alphabet a b
states 0 1 2
initial 0
accept 1 2
trans 0 a 1
trans 0 b 2
trans 1 a 1
trans 2 b 0
"""

# state 0 has two successors on `a`: the input's `a` and `b` both emit `a`
IMAGE_GOLDEN = """nfa
alphabet a b
states 0 1 2 3 4
initial 0
accept 4
trans 0 a 1
trans 0 a 2
trans 1 a 3
trans 1 b 4
trans 2 eps 0
trans 2 b 4
trans 3 b 1
"""

FIRST_T_TEXT = """dfst
in_alphabet a b
out_alphabet a b
states 0 1
initial 0
accept 0 1
trans 0 a ab 1
trans 0 b - 0
trans 1 a b 0
trans 1 b ba 1
final 1 a
"""

SECOND_T_TEXT = """dfst
in_alphabet a b
out_alphabet x y
states 0 1
initial 0
accept 0
trans 0 a x 1
trans 0 b - 0
trans 1 a - 0
trans 1 b yx 0
final 0 y
"""

COMPOSE_GOLDEN = """dfst
in_alphabet a b
out_alphabet x y
states 0 1 2
initial 0
accept 0 2
trans 0 a xyx 1
trans 0 b - 0
trans 1 a - 0
trans 1 b x 2
trans 2 a yx 0
trans 2 b yxx 2
final 0 y
final 2 y
"""

REDUCE_INPUT_TEXT = """dfa
alphabet a b
states 0 1 2
initial 0
accept 2
trans 0 a 1
trans 0 b 0
trans 1 a 1
trans 1 b 2
trans 2 a 2
trans 2 b 2
"""

REDUCE_GOLDEN = """dfa
alphabet a b
states 0 1 2
initial 0
accept 1 2
trans 0 a 1
trans 0 b 0
trans 1 a 2
trans 1 b 1
trans 2 a 1
trans 2 b 2
"""

COVER_GOLDEN = """dfst
in_alphabet a b
out_alphabet a b
states 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17
initial 0
accept 8
trans 0 a - 1
trans 0 b - 2
trans 1 b - 3
trans 2 a - 4
trans 3 a - 5
trans 3 b - 6
trans 4 a - 7
trans 5 b - 8
trans 6 a a 9
trans 9 a - 10
trans 9 b - 11
trans 10 b - 12
trans 11 a - 13
trans 12 a - 14
trans 12 b - 15
trans 13 a - 16
trans 14 b - 17
trans 16 b b 0
VERIFIED image == target
"""


class TestGoldenArtifacts:
    def test_image(self, files, capsys):
        argv = ("image", files("t.dfst", IMAGE_T_TEXT), files("a.txt", IMAGE_INPUT_TEXT))
        assert run_main(capsys, *argv) == (0, IMAGE_GOLDEN, "")

    def test_compose(self, files, capsys):
        argv = ("compose", files("t1.dfst", FIRST_T_TEXT), files("t2.dfst", SECOND_T_TEXT))
        assert run_main(capsys, *argv) == (0, COMPOSE_GOLDEN, "")

    def test_reduce(self, files, capsys):
        argv = ("reduce", files("t.dfst", FIRST_T_TEXT), files("a.txt", REDUCE_INPUT_TEXT))
        assert run_main(capsys, *argv) == (0, REDUCE_GOLDEN, "")

    def test_cover(self, files, capsys):
        argv = ("cover", files("f.txt", SIGMA_STAR_TEXT), files("t.txt", AB_STAR_TEXT))
        assert run_main(capsys, *argv) == (0, COVER_GOLDEN, "")


# `str.isdigit` holds for both; `int` rejects "²" and reads "٣" as 3
UNICODE_DIGITS = ["²", "٣"]

# parser, input text with the digit at {d}, CLI command that reads it
DIGIT_CASES = {
    "dfa-states": (parse_dfa, "dfa\nalphabet a\nstates 0 {d}\ninitial 0\naccept 0\n",
                   "classify"),
    "dfa-initial": (parse_dfa, "dfa\nalphabet a\nstates 0 3\ninitial {d}\naccept 0\n",
                    "classify"),
    "nfa-trans": (parse_nfa,
                  "nfa\nalphabet a\nstates 0 3\ninitial 0\naccept 0\ntrans 0 a {d}\n",
                  "classify"),
    "dfst-states": (parse_dfst, "dfst\nin_alphabet a\nout_alphabet a\nstates 0 {d}\n"
                    "initial 0\naccept 0\n", "compose"),
    "graph-nodes": (parse_digraph, "graph\nnodes {d}\nsource 0\ntarget 0\n", "gadget"),
    "graph-edge": (parse_digraph, "graph\nnodes 4\nsource 0\ntarget 0\nedge 0 {d}\n",
                   "gadget"),
    "certificate": (classification_from_text, "hard q={d} p=- u=ab v=ba s=-\n", None),
}


@pytest.mark.parametrize("digit", UNICODE_DIGITS, ids=["superscript-2", "arabic-indic-3"])
@pytest.mark.parametrize("case", sorted(DIGIT_CASES))
def test_unicode_digit_is_a_format_error(case, digit, tmp_path, capsys):
    parse, template, command = DIGIT_CASES[case]
    text = template.format(d=digit)
    with pytest.raises(FormatError):
        parse(text)
    if command is None:
        return
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    operands = {"classify": [path], "compose": [path, path], "gadget": [path, "--word", "a"]}
    code, out, err = run_main(capsys, command, *map(str, operands[command]))
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


class TestDeterminismAndRoundTrip:
    COMMANDS = [
        lambda f: ("classify", f("filter.txt", SIGMA_STAR_TEXT)),
        lambda f: ("classify", f("filter.txt", A_STAR_B_STAR_TEXT)),
        lambda f: ("cover", f("filter.txt", SIGMA_STAR_TEXT), f("t.txt", AB_STAR_TEXT)),
        lambda f: ("reduce", f("t.dfst", IDENTITY_AB_TEXT), f("a.txt", AB_STAR_TEXT)),
        lambda f: ("gadget", f("g.txt", GRAPH_TEXT), "--word", "ab"),
        lambda f: ("image", f("t.dfst", IDENTITY_AB_TEXT), f("a.txt", AB_STAR_TEXT)),
    ]

    @pytest.mark.parametrize("case", range(len(COMMANDS)))
    def test_repeated_runs_byte_identical(self, case, files, capsys):
        argv = list(self.COMMANDS[case](files))
        code1, out1, _ = run_main(capsys, *argv)
        code2, out2, _ = run_main(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_emitted_artifacts_reparse(self, files, capsys, tmp_path):
        filt = files("filter.txt", SIGMA_STAR_TEXT)
        target = files("t.txt", AB_STAR_TEXT)
        out_path = str(tmp_path / "artifact.txt")
        assert main(["cover", filt, target, "--out", out_path]) == 0
        capsys.readouterr()
        parse_dfst(Path(out_path).read_text())
        assert main(["reduce", files("id.dfst", IDENTITY_AB_TEXT), target,
                     "--out", out_path]) == 0
        capsys.readouterr()
        parse_dfa(Path(out_path).read_text())


def _nfa_text(pattern):
    from rrkit import nfa_to_text
    return nfa_to_text(regex_to_nfa(pattern))


class TestScriptEntry:
    def test_module_invocation(self, tmp_path):
        path = tmp_path / "f.re"
        path.write_text("(a|b)*\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "rrkit", "classify", str(path), "--regex"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert proc.stdout.startswith("HARD ")
