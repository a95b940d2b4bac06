"""Realizability solvers and reduction builders.

An instance pairs a fixed filter language with an input machine and asks
whether the two languages intersect; solvers answer with a shortest
witness word. For easy filters there is also a counter-style solver that
works directly on a bounded decomposition, searching loop exponents only
until the input machine's state map repeats. `reduce_rr` rewrites an
instance through a transducer (the preimage construction), and
`reachability_gadget` turns an s-t digraph reachability question into an
instance whose answer is "yes" exactly when the target is reachable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .automata import (
    EPS,
    Dfa,
    FormatError,
    Nfa,
    _MEET,
    _check_letters,
    _is_number,
    _logical_lines,
    _pair_search,
    _section,
    merge_alphabets,
    run,
    run_nfa,
)
from .classify import CertificateError, expr_to_nfa
from .transducer import Dfst, preimage_automaton


def solve_rr(filter_machine: Dfa | Nfa, a: Dfa | Nfa) -> str | None:
    """Shortest word in L(a) ∩ L(filter), or None when the instance is a no;
    ties go to the smallest in the merged alphabet's order. Either machine
    may be a Dfa or an Nfa: one pair search walks pairs of Dfa states or
    Nfa epsilon-closed subsets on the fly, building no product or DFA."""
    alpha = merge_alphabets(filter_machine.alphabet, a.alphabet)
    return _pair_search(filter_machine, a, alpha, _MEET)[0]


def solve_rr_nfa(filter_nfa: Dfa | Nfa, a: Dfa | Nfa) -> str | None:
    """The same as solve_rr, under the name of the nondeterministic variant."""
    return solve_rr(filter_nfa, a)


def solve_rr_bounded_detail(exprs, a: Dfa):
    """Counter search over a bounded decomposition.

    Tries, expression by expression, words  prefix x1^i1 y1 ... xn^in yn
    accepted by `a`. Per block the exponent only grows until the state map
    q -> q·x revisits a state, since larger powers land on states already
    tried with an identical remaining suffix. Returns (word, expression
    index, exponent vector) or None; any witness is re-checked against both
    the machine and its generating expression before being returned.
    """
    exprs = list(exprs)
    for e in exprs:
        for loop, _ in e.blocks:
            if not loop:
                raise ValueError("bounded expression has an empty loop word")

    def powers(block, q: int):
        """(exponent, state after the bridge) for each loop power read from
        q, smallest first, until the powers revisit a state."""
        loop, bridge = block
        seen = set()
        exponent = 0
        while q is not None and q not in seen:
            seen.add(q)
            after = a.walk(q, bridge)
            if after is not None:
                yield exponent, after
            q = a.walk(q, loop)
            exponent += 1

    def search(blocks, q: int) -> list[int] | None:
        """Depth-first over the exponents with a stack of [entry state, its
        powers, exponent taken] per open block; exhausted pairs are dead."""
        dead: set[tuple[int, int]] = set()
        stack: list[list] = []
        while True:
            if len(stack) == len(blocks):
                if q in a.accepting:
                    return [frame[2] for frame in stack]
            elif (len(stack), q) not in dead:
                stack.append([q, powers(blocks[len(stack)], q), 0])
            while stack and (step := next(stack[-1][1], None)) is None:
                entry = stack.pop()[0]
                dead.add((len(stack), entry))
            if not stack:
                return None
            stack[-1][2], q = step

    for index, e in enumerate(exprs):
        start = a.walk(a.initial, e.prefix)
        if start is None:
            continue
        exponents = search(e.blocks, start)
        if exponents is None:
            continue
        word = e.prefix + "".join(
            loop * k + bridge for (loop, bridge), k in zip(e.blocks, exponents)
        )
        if not run(a, word):
            raise CertificateError("bounded solver produced a word the machine rejects")
        expr_symbols = sorted(set(e.prefix) | {c for x, y in e.blocks for c in x + y})
        alpha = merge_alphabets(a.alphabet, expr_symbols)
        if not run_nfa(expr_to_nfa(e, alpha), word):
            raise CertificateError("bounded solver produced a word outside its expression")
        return word, index, exponents
    return None


def reduce_rr(t: Dfst, a: Dfa) -> Dfa:
    """Rewrite an instance through a transducer: the returned machine
    accepts { x : t(x) ∈ L(a) }, so a filter F meets it exactly when the
    image of F under t meets L(a)."""
    return preimage_automaton(t, a)


# ---------------------------------------------------------------------------
# digraph reachability gadget
#
#   graph
#   nodes N
#   source s
#   target t
#   edge u v


@dataclass(frozen=True)
class Digraph:
    nodes: int
    edges: tuple[tuple[int, int], ...]
    source: int
    target: int

    def __post_init__(self):
        if not (0 <= self.source < self.nodes and 0 <= self.target < self.nodes):
            raise ValueError("source/target outside the node range")
        for u, v in self.edges:
            if not (0 <= u < self.nodes and 0 <= v < self.nodes):
                raise ValueError(f"edge ({u}, {v}) outside the node range")


def parse_digraph(text: str) -> Digraph:
    lines = _logical_lines(text)
    head = list(islice(lines, 4))
    if not head or head[0][1] != ["graph"]:
        raise FormatError("expected header `graph`", head[0][0] if head else None)

    def int_line(i, keyword):
        no, toks = _section(head, i, keyword)
        if len(toks) != 1 or not _is_number(toks[0]):
            raise FormatError(f"want `{keyword} <number>`", no)
        return no, int(toks[0])

    no, nodes = int_line(1, "nodes")
    no, source = int_line(2, "source")
    no, target = int_line(3, "target")
    edges: list[tuple[int, int]] = []
    for no, toks in lines:
        if toks[0] != "edge" or len(toks) != 3:
            raise FormatError("want `edge <from> <to>`", no)
        if not (_is_number(toks[1]) and _is_number(toks[2])):
            raise FormatError("edge endpoints must be node numbers", no)
        u, v = int(toks[1]), int(toks[2])
        if u >= nodes or v >= nodes:
            raise FormatError(f"edge ({u}, {v}) outside the node range", no)
        edges.append((u, v))
    try:
        return Digraph(nodes, tuple(edges), source, target)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def reachability_gadget(g: Digraph, word: str, alphabet) -> Nfa:
    """Machine accepting {word} when g's target is reachable from its
    source, and nothing otherwise: one state per node, an epsilon edge per
    graph edge, and a path labeled by `word` from the target node to the
    single accepting state."""
    alphabet = tuple(alphabet)
    _check_letters(word, set(alphabet))
    triples: list[tuple[int, str | None, int]] = [
        (u, EPS, v) for u, v in g.edges
    ]
    cur = g.target
    for k, c in enumerate(word):
        nxt = g.nodes + k
        triples.append((cur, c, nxt))
        cur = nxt
    states = frozenset(range(g.nodes + len(word)))
    return Nfa(alphabet, states, frozenset({g.source}), frozenset({cur}),
               tuple(triples))
