"""Deterministic finite-state transducers.

A transducer here consumes exactly one input symbol per transition and may
emit any word (possibly empty); accepting states may carry an extra word
emitted at end of input. This normal form keeps determinism syntactically
checkable (at most one transition per state and input symbol) while still
expressing chains of silent moves. A transducer computes a partial
function on words: the result is undefined whenever a transition is
missing or the run ends in a non-accepting state.

Composition follows application order: composing first `t1` then `t2`
yields the machine computing t2(t1(x)).

Running a transducer in step with a machine that reads its output is one
construction, `_restrict`, over the reachable (transducer state, reader
state) pairs. `compose_dfst` is it with a transducer as the reader,
`preimage_automaton` its pairs with a DFA as the reader and their outputs
left off, and `image_nfa` its pairs with a DFA's copy machine as the
transducer and the transducer as the reader, each output spelled out as a
path of letters; `rrkit.cover` restricts a dispatch trie to its target
with it, and `dfst_to_text` renumbers a machine breadth-first by running
it in step with the DFA of all words over its output alphabet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import islice

from .automata import (
    EPS,
    AlphabetError,
    Dfa,
    FormatError,
    Nfa,
    _check_letters,
    _kw_line,
    _logical_lines,
    _parse_alphabet,
    _parse_state,
    _parse_state_list,
    _ranks,
    _section,
    universal_dfa,
    word_from_text,
)


@dataclass(frozen=True, eq=False)
class Dfst:
    in_alphabet: tuple[str, ...]
    out_alphabet: tuple[str, ...]
    states: frozenset[int]
    initial: int
    accepting: frozenset[int]
    transitions: dict[tuple[int, str], tuple[str, int]]
    final_output: dict[int, str] = field(default_factory=dict)

    def __post_init__(self):
        in_alpha = set(self.in_alphabet)
        out_alpha = set(self.out_alphabet)
        if len(in_alpha) != len(self.in_alphabet):
            raise ValueError(f"duplicate alphabet symbol in {self.in_alphabet}")
        if len(out_alpha) != len(self.out_alphabet):
            raise ValueError(f"duplicate alphabet symbol in {self.out_alphabet}")
        if self.initial not in self.states:
            raise ValueError(f"initial state {self.initial} not a state")
        if not self.accepting <= self.states:
            raise ValueError("accepting states must be states")
        states = self.states
        for (q, sym), (out, t) in self.transitions.items():
            if q not in states or t not in states:
                raise ValueError(f"transition {q}-{sym}->{t} leaves the state set")
            if sym not in in_alpha:
                raise ValueError(f"input symbol {sym!r} not in input alphabet")
            if out and not out_alpha.issuperset(out):
                raise ValueError(f"output {out!r} uses symbols outside the output alphabet")
        for q, out in self.final_output.items():
            if q not in self.accepting:
                raise ValueError(f"final output on non-accepting state {q}")
            if not set(out) <= out_alpha:
                raise ValueError(f"final output {out!r} uses symbols outside the output alphabet")


def apply(t: Dfst, x: str) -> str | None:
    """Transduce `x`; None when the machine is undefined on it. A letter
    outside the input alphabet raises AlphabetError wherever it stands."""
    _check_letters(x, set(t.in_alphabet), "the input alphabet")
    fed = _feed(t, t.initial, x)
    if fed is None or fed[1] not in t.accepting:
        return None
    out, q = fed
    return out + t.final_output.get(q, "")


def _feed(t: Dfst, q: int, word: str) -> tuple[str, int] | None:
    """Run `word` through t from state q, collecting output; None if stuck."""
    out: list[str] = []
    for c in word:
        tr = t.transitions.get((q, c))
        if tr is None:
            return None
        emitted, q = tr
        out.append(emitted)
    return "".join(out), q


def compose_dfst(t1: Dfst, t2: Dfst) -> Dfst:
    """Product machine computing t2(t1(x)); undefinedness propagates."""
    if not set(t1.out_alphabet) <= set(t2.in_alphabet):
        raise AlphabetError("first machine emits symbols the second cannot read")
    return _restrict(t1, t2)


def _restrict(t: Dfst, m: Dfa | Dfst) -> Dfst:
    """t run in step with m, which reads t's output, over the reachable
    (t state, m state) pairs, numbered breadth-first over the input
    symbols in alphabet order. An edge exists only where m reads its whole
    output; one with a letter m cannot read, even one outside m's
    alphabet, is dropped. A pair accepts where t accepts and m accepts
    after t's final output. A Dfa m keeps t's outputs, and a pair keeps
    t's final output. A transducer m writes its own output for what it
    reads (`_feed`), and a pair's final output ends with m's, so the
    result computes m(t(x)).

    t's states count as the ids 0..T-1 that `automata._ranks` gives them:
    their own numbers when they are 0..T-1 already, as in every dispatch
    trie, otherwise their ranks. A pair is keyed by the int qm * T + qt.
    A t state other than the initial one that has one incoming edge, and
    that edge writes nothing, is entered only from the pair being expanded,
    with m's state unchanged; the pass expands each pair once, so that pair
    is new and is numbered without a key (nearly every pair of a dispatch
    trie is such a pair)."""
    rank = _ranks(t.states)
    if rank is not None:
        t = Dfst(t.in_alphabet, t.out_alphabet, frozenset(rank.values()), rank[t.initial],
                 frozenset(rank[q] for q in t.accepting),
                 {(rank[q], sym): (out, rank[dst])
                  for (q, sym), (out, dst) in t.transitions.items()},
                 {rank[q]: out for q, out in t.final_output.items()})
    writes = isinstance(m, Dfst)
    walk = partial(_feed, m) if writes else m.walk  # a writer returns (output, state)
    alphabet = t.in_alphabet
    size = len(t.states)
    t_get = t.transitions.get
    entries = [0] * size  # each state's incoming edges, and the start for the initial one
    for _, qt in t.transitions.values():
        entries[qt] += 1
    entries[t.initial] += 1
    # each edge as (symbol, output, target, whether the pair it enters is new)
    edges = [[(sym, *edge, not edge[0] and entries[edge[1]] == 1) for sym in alphabet
              if (edge := t_get((qt, sym)))]
             for qt in range(size)]
    t_accepting, m_accepting, t_final = t.accepting, m.accepting, t.final_output
    ids = {m.initial * size + t.initial: 0}
    t_states, m_states = [t.initial], [m.initial]  # pair i is (t_states[i], m_states[i])
    accepting: list[int] = []
    final_output: dict[int, str] = {}
    transitions: dict[tuple[int, str], tuple[str, int]] = {}
    for i, qt in enumerate(t_states):  # the queue grows as the pass goes
        qm = m_states[i]
        if qt in t_accepting:
            tail = t_final.get(qt, "")
            end = walk(qm, tail)
            if writes and end is not None:
                tail, end = end
                tail += m.final_output.get(end, "")
            if end in m_accepting:
                accepting.append(i)
                if tail:
                    final_output[i] = tail
        for sym, out, qt2, once in edges[qt]:
            if once:
                transitions[i, sym] = ("", len(t_states))
                t_states.append(qt2)
                m_states.append(qm)
                continue
            if out:
                qm2 = walk(qm, out)
                if qm2 is None:
                    continue
                if writes:
                    out, qm2 = qm2
            else:
                qm2 = qm
            key = qm2 * size + qt2
            j = ids.get(key)
            if j is None:
                j = ids[key] = len(t_states)
                t_states.append(qt2)
                m_states.append(qm2)
            transitions[i, sym] = (out, j)
    return Dfst(alphabet, m.out_alphabet if writes else t.out_alphabet,
                frozenset(range(len(t_states))), 0, frozenset(accepting), transitions,
                final_output)


def preimage_automaton(t: Dfst, a: Dfa) -> Dfa:
    """Recognizer of { x : t(x) is defined and t(x) ∈ L(a) }: the pairs of
    `_restrict` with their outputs left off, a Dfa since t reads one
    symbol per step and a is deterministic."""
    if not set(t.out_alphabet) <= set(a.alphabet):
        raise AlphabetError("transducer emits symbols outside the automaton's alphabet")
    pairs = _restrict(t, a)
    return Dfa(pairs.in_alphabet, pairs.states, 0, pairs.accepting,
               {edge: dst for edge, (_, dst) in pairs.transitions.items()})


def image_nfa(t: Dfst, a: Dfa) -> Nfa:
    """Recognizer of { t(x) : x ∈ L(a), t(x) defined }.

    The pairs of `_restrict` with a's copy machine, which writes each
    letter it reads, as the transducer and t as the writing reader: each
    pair edge's output becomes a path over its letters (an epsilon edge
    when the output is empty), and each accepting pair's final output a
    path into a single accepting sink.
    """
    if not set(a.alphabet) <= set(t.in_alphabet):
        raise AlphabetError("automaton uses symbols the transducer cannot read")
    copy = Dfst(a.alphabet, a.alphabet, a.states, a.initial, a.accepting,
                {(q, sym): (sym, dst) for (q, sym), dst in a.transitions.items()})
    pairs = _restrict(copy, t)
    # the sink is 0 and the start pair 1; a pair's node is taken when an
    # edge first reaches it, before the nodes of that edge's path
    node = [1] + [0] * (len(pairs.states) - 1)
    size = 2
    triples: list[tuple[int, str | None, int]] = []

    def path(src: int, word: str, dst: int):
        nonlocal size
        for c in word[:-1]:
            triples.append((src, c, size))
            src = size
            size += 1
        triples.append((src, word[-1:] or EPS, dst))

    for i, src in enumerate(node):  # pair i's node is set before the pass reaches it
        if i in pairs.accepting:
            path(src, pairs.final_output.get(i, ""), 0)
        for sym in a.alphabet:
            move = pairs.transitions.get((i, sym))
            if move is not None:
                out, j = move
                if not node[j]:
                    node[j] = size
                    size += 1
                path(src, out, node[j])
    return Nfa(t.out_alphabet, frozenset(range(size)), frozenset({1}), frozenset({0}),
               tuple(triples))


# ---------------------------------------------------------------------------
# text format
#
#   dfst
#   in_alphabet a b
#   out_alphabet a b
#   states 0 1
#   initial 0
#   accept 1
#   trans <src> <in-symbol> <out-word|-> <dst>
#   final <state> <out-word|->          (optional)


def parse_dfst(text: str) -> Dfst:
    lines = _logical_lines(text)
    head = list(islice(lines, 6))
    no, rest = _section(head, 0, "dfst")
    if rest:
        raise FormatError("unexpected tokens after header", no)
    no, toks = _section(head, 1, "in_alphabet")
    in_alphabet = _parse_alphabet(toks, no)
    no, toks = _section(head, 2, "out_alphabet")
    out_alphabet = _parse_alphabet(toks, no)
    no, toks = _section(head, 3, "states")
    numerals = _parse_state_list(toks, no)
    no, toks = _section(head, 4, "initial")
    if len(toks) != 1:
        raise FormatError("a dfst needs exactly one initial state", no)
    initial = _parse_state(toks[0], numerals, no)
    no, toks = _section(head, 5, "accept")
    accepting = {_parse_state(tok, numerals, no) for tok in toks}

    in_symbols = set(in_alphabet)
    out_symbols = set(out_alphabet)
    transitions: dict[tuple[int, str], tuple[str, int]] = {}
    final_output: dict[int, str] = {}
    for no, toks in lines:
        if toks[0] == "trans":
            if len(toks) != 5:
                raise FormatError("want `trans <src> <in-symbol> <out-word|-> <dst>`", no)
            _, s, sym, out, d = toks
            src = numerals.get(s)
            if src is None:
                src = _parse_state(s, numerals, no)
            if sym == "eps":
                raise FormatError("a dfst consumes exactly one input symbol per transition", no)
            if sym not in in_symbols:
                raise FormatError(f"undeclared input symbol {sym!r}", no)
            out = word_from_text(out)
            for c in out:
                if c not in out_symbols:
                    raise FormatError(f"undeclared output symbol {c!r}", no)
            dst = numerals.get(d)
            if dst is None:
                dst = _parse_state(d, numerals, no)
            if (src, sym) in transitions:
                raise FormatError(f"duplicate transition from state {src} on {sym!r}", no)
            transitions[(src, sym)] = (out, dst)
        elif toks[0] == "final":
            if len(toks) != 3:
                raise FormatError("want `final <state> <out-word|->`", no)
            q = _parse_state(toks[1], numerals, no)
            if q not in accepting:
                raise FormatError(f"final output on non-accepting state {q}", no)
            if q in final_output:
                raise FormatError(f"duplicate final output for state {q}", no)
            out = word_from_text(toks[2])
            for c in out:
                if c not in out_symbols:
                    raise FormatError(f"undeclared output symbol {c!r}", no)
            final_output[q] = out
        else:
            raise FormatError(f"unexpected `{toks[0]}`", no)
    return Dfst(in_alphabet, out_alphabet, frozenset(numerals.values()), initial,
                frozenset(accepting), transitions, final_output)


def dfst_to_text(t: Dfst) -> str:
    """Text of t with its states renumbered in breadth-first order over
    input symbols in alphabet order; unreachable states are dropped.

    One pass over t's transitions writes the lines as it checks that this
    numbering is already t's own: states 0..n-1 with initial 0, every
    transition listed by source and then by input symbol, each source
    reached before it is left and each new destination the next number.
    `_restrict`, behind every cover, surjection and composition, numbers
    its states that way. Any other machine, such as a parsed file, is
    first renumbered by `_restrict` against the DFA of all words over its
    output alphabet, which reads every output, and then written by the
    same pass."""
    text = _canonical_text(t)
    if text is None:
        text = _canonical_text(_restrict(t, universal_dfa(t.out_alphabet)))
    return text


def _canonical_text(t: Dfst) -> str | None:
    """The text of t when its numbering is the breadth-first one, else None."""
    if t.initial != 0 or _ranks(t.states) is not None:  # its states are not 0..T-1
        return None
    rank = {sym: k for k, sym in enumerate(t.in_alphabet)}
    width = len(rank)
    size = len(t.states)
    names = list(map(str, range(size)))  # each numeral made once
    last = -1
    fresh = 1
    trans_lines: list[str] = []
    add = trans_lines.append
    for (q, sym), (out, dst) in t.transitions.items():
        key = q * width + rank[sym]
        if key <= last or q >= fresh or dst > fresh:
            return None
        if dst == fresh:
            fresh += 1
        last = key
        add(f"trans {names[q]} {sym} {out or '-'} {names[dst]}")
    if fresh != size:
        return None
    lines = [
        "dfst",
        _kw_line("in_alphabet", t.in_alphabet),
        _kw_line("out_alphabet", t.out_alphabet),
        _kw_line("states", names),
        "initial 0",
        _kw_line("accept", map(str, sorted(t.accepting))),
        *trans_lines,
        *(f"final {q} {out}" for q, out in sorted(t.final_output.items()) if out),
    ]
    return "\n".join(lines) + "\n"
