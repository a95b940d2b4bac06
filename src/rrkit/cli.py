"""Command-line front end.

Subcommands: classify, cover, solve, reduce, gadget, compose, image,
equiv. All I/O uses the line-based text formats of the library; the empty
word prints as `-`. Exit codes: 0 success, 2 parse error or a file that
cannot be read or written, 3 the filter's class does not fit the command,
4 alphabet mismatch.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .automata import (
    AlphabetError,
    Dfa,
    FormatError,
    Nfa,
    _check_symbol,
    determinize,
    dfa_to_text,
    nfa_to_text,
    parse_automaton,
    regex_to_nfa,
    separating_word,
    word_to_text,
)
from .classify import ClassificationMismatch, Easy, classification_to_text, classify
from .cover import cover
from .rr import (
    parse_digraph,
    reachability_gadget,
    reduce_rr,
    solve_rr,
    solve_rr_bounded_detail,
)
from .transducer import dfst_to_text, image_nfa, compose_dfst, parse_dfst

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CLASS = 3
EXIT_ALPHABET = 4


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"cannot read {path}: not UTF-8 text") from exc


def _load_machine(path: str, as_regex: bool) -> Dfa | Nfa:
    text = _read(path)
    if as_regex:
        return regex_to_nfa(text.strip())
    return parse_automaton(text)


def _as_dfa(machine: Dfa | Nfa) -> Dfa:
    return machine if isinstance(machine, Dfa) else determinize(machine)


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise FormatError(f"cannot write {out_path}: {exc.strerror}") from exc


def _certificate_lines(verdict) -> str:
    head, _, rest = classification_to_text(verdict).partition("\n")
    first = head.split(" ", 1)
    first[0] = first[0].upper()
    return " ".join(first) + "\n" + rest


def cmd_classify(args) -> int:
    filter_dfa = _as_dfa(_load_machine(args.filter, args.regex))
    verdict = classify(filter_dfa)
    _emit(_certificate_lines(verdict), args.out)
    return EXIT_OK


def cmd_cover(args) -> int:
    filter_dfa = _as_dfa(_load_machine(args.filter, args.regex))
    target = _as_dfa(_load_machine(args.target, False))
    try:
        transducer = cover(filter_dfa, target)
    except ClassificationMismatch as exc:
        sys.stdout.write(_certificate_lines(exc.verdict))
        print("easy filter: it does not cover arbitrary languages", file=sys.stderr)
        return EXIT_CLASS
    _emit(dfst_to_text(transducer), args.out)
    # `cover` has checked the image against the target; this line reports it
    print("VERIFIED image == target")
    return EXIT_OK


def cmd_solve(args) -> int:
    exponents = None
    if args.counters:
        filter_dfa = _as_dfa(_load_machine(args.filter, args.regex))
        input_dfa = _as_dfa(_load_machine(args.input, False))
        verdict = classify(filter_dfa)
        if not isinstance(verdict, Easy):
            print("hard filter: the counter solver needs a bounded decomposition",
                  file=sys.stderr)
            return EXIT_CLASS
        hit = solve_rr_bounded_detail(verdict.decomposition, input_dfa)
        witness = None if hit is None else hit[0]
        exponents = None if hit is None else hit[2]
    else:
        witness = solve_rr(_load_machine(args.filter, args.regex),
                           _load_machine(args.input, False))
    if witness is None:
        print("NO")
    else:
        print(f"YES {word_to_text(witness)}")
        if exponents is not None:
            print(" ".join(["exponents", *map(str, exponents)]).rstrip())
    return EXIT_OK


def cmd_reduce(args) -> int:
    transducer = parse_dfst(_read(args.transducer))
    machine = _as_dfa(_load_machine(args.input, False))
    _emit(dfa_to_text(reduce_rr(transducer, machine)), args.out)
    return EXIT_OK


def cmd_gadget(args) -> int:
    graph = parse_digraph(_read(args.graph))
    # argparse takes the value of `--word=--` for the end of options: []
    word = args.word if isinstance(args.word, str) else "--"
    word = "" if word == "-" else word
    for sym in word:
        _check_symbol(sym)
    alphabet = tuple(sorted(set(word)))
    _emit(nfa_to_text(reachability_gadget(graph, word, alphabet)), args.out)
    return EXIT_OK


def cmd_compose(args) -> int:
    first = parse_dfst(_read(args.first))
    second = parse_dfst(_read(args.second))
    _emit(dfst_to_text(compose_dfst(first, second)), args.out)
    return EXIT_OK


def cmd_image(args) -> int:
    transducer = parse_dfst(_read(args.transducer))
    machine = _as_dfa(_load_machine(args.input, False))
    _emit(nfa_to_text(image_nfa(transducer, machine)), args.out)
    return EXIT_OK


def cmd_equiv(args) -> int:
    gap = separating_word(_load_machine(args.left, False),
                          _load_machine(args.right, False))
    if gap is None:
        print("EQUIVALENT")
    else:
        print(f"DIFFER {word_to_text(gap)}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: `main` may be called
    repeatedly, and each call parses into a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="rrkit",
        description="Classify regular filters, build covering transducers, "
                    "and solve realizability instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def artifact(p):
        p.add_argument("--out", metavar="PATH", default=None,
                       help="write the produced artifact to PATH instead of stdout")

    p = sub.add_parser("classify", help="print the hard/easy certificate of a filter")
    p.add_argument("filter")
    p.add_argument("--regex", action="store_true",
                   help="read the filter file as a regular expression")
    artifact(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("cover", help="build a verified transducer mapping a hard filter onto a target")
    p.add_argument("filter")
    p.add_argument("target")
    p.add_argument("--regex", action="store_true")
    artifact(p)
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("solve", help="decide whether the filter meets the input machine")
    p.add_argument("filter")
    p.add_argument("input")
    p.add_argument("--regex", action="store_true")
    p.add_argument("--nfa", action="store_true",
                   help="accepted for compatibility; DFA and NFA inputs take the same path")
    p.add_argument("--counters", action="store_true",
                   help="use the counter solver over the filter's bounded decomposition")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("reduce", help="rewrite an instance through a transducer")
    p.add_argument("transducer")
    p.add_argument("input")
    artifact(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("gadget", help="reachability gadget machine for a digraph")
    p.add_argument("graph")
    p.add_argument("--word", required=True,
                   help="witness word to plant on the target node (`-` for the empty word)")
    artifact(p)
    p.set_defaults(func=cmd_gadget)

    p = sub.add_parser("compose", help="compose two transducers (second applied after first)")
    p.add_argument("first")
    p.add_argument("second")
    artifact(p)
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("image", help="machine for a transducer's image over an automaton")
    p.add_argument("transducer")
    p.add_argument("input")
    artifact(p)
    p.set_defaults(func=cmd_image)

    p = sub.add_parser("equiv", help="check two machines for language equivalence")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_equiv)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ClassificationMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CLASS
    except AlphabetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ALPHABET


if __name__ == "__main__":
    sys.exit(main())
