"""Finite automata over explicit, ordered alphabets.

Machines are immutable values with integer state IDs. Words are plain
strings and "" is the empty word. Alphabets keep their declared symbol
order; that order drives breadth-first tie-breaking, so any witness word
returned by an operation is shortest first, then lexicographically
smallest. Constructions return their machines as built. A state's
number shows only where it is printed, so only serialization (`*_to_text`,
through `canonical_dfa` and `canonical_nfa`) and `trim` (whose numbers the
HARD certificate's `q=` names) renumber, in canonical BFS discovery order;
that makes the output byte-stable. `trim` and `canonical_dfa` share one
numbering pass, `_numbered`. It gives the kept states as int rows, one per
symbol, which `classify` reads as they are and `_rows_dfa` writes as a
machine. `condense` wraps Tarjan's search over successor lists,
`_components`, whose indices `classify` reads the same way. The machine
parsers read a plain text, such as the writers' output, in bulk (`_bulk`:
one split of the body, its tokens taken four at a time) and any other text
line by line, with one line parser for both kinds (`_parse_lines`); both
give the same machine, and only the line parser raises on a faulty body
line.

Inclusion, equivalence and intersection are decided without building a
product: `_pair_search` walks pairs of side states breadth-first, in
alphabet order, and stops at the first pair of the wanted kind. Each side
names its states by int ids: a Dfa the ids 0..n-1 that `_dense` gives its
n states, the one rule `trim` and `condense` use too; an Nfa its
epsilon-closed subsets, in order of first reach (`determinize` is that
side asked for every successor), each stepped as the union of its members'
closed successors, which are computed once per state and symbol.
Successors sit in per-symbol rows, `rows[k][i]` for the k-th symbol,
filled in only when the walk first needs them, so a search that stops
early reads only the transitions it used. A reached pair keeps only its
parent pair and the symbol read, and a word is spelled out, along those
links, only for a pair that answers the search. Equivalence asks for
the symmetric difference; there the search finishes the level where the
first differing pair appears and returns the first left-only and the
first right-only word of that level, and the caller keeps the smaller by
`(len(w), w)`, i.e. Python's code-point order. That is the answer two
one-sided inclusion checks give, also on an alphabet declared out of
order such as `("b", "a")`.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass
from itertools import chain, compress, islice, product


class FormatError(ValueError):
    """Malformed machine/graph/certificate text."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line is not None else message)
        self.line = line


class AlphabetError(ValueError):
    """Operation applied to machines or words over incompatible alphabets."""


EPS = None  # label of an epsilon transition inside an Nfa


def _check_symbol(sym: str, line: int | None = None) -> str:
    if len(sym) != 1 or not (sym.isascii() and sym.isalnum()):
        raise FormatError(f"bad symbol {sym!r}: want one ASCII letter or digit", line)
    return sym


def word_to_text(w: str) -> str:
    """Render a word for line-based output; the empty word prints as `-`."""
    return w if w else "-"


def word_from_text(tok: str) -> str:
    return "" if tok == "-" else tok


@dataclass(frozen=True, eq=False)
class Dfa:
    """Deterministic automaton; transitions may be partial."""

    alphabet: tuple[str, ...]
    states: frozenset[int]
    initial: int
    accepting: frozenset[int]
    transitions: dict[tuple[int, str], int]

    def __post_init__(self):
        alpha = set(self.alphabet)
        if len(alpha) != len(self.alphabet):
            raise ValueError(f"duplicate alphabet symbol in {self.alphabet}")
        if self.initial not in self.states:
            raise ValueError(f"initial state {self.initial} not a state")
        if not self.accepting <= self.states:
            raise ValueError("accepting states must be states")
        states = self.states
        for (q, sym), t in self.transitions.items():
            if q not in states or t not in states:
                raise ValueError(f"transition {q}-{sym}->{t} leaves the state set")
            if sym not in alpha:
                raise ValueError(f"transition symbol {sym!r} not in alphabet")

    def walk(self, q: int, word: str) -> int | None:
        """Follow `word` from state q; None once a transition is missing."""
        for c in word:
            q = self.transitions.get((q, c))
            if q is None:
                return None
        return q


@dataclass(frozen=True, eq=False)
class Nfa:
    """Nondeterministic automaton; `EPS` (None) marks epsilon transitions."""

    alphabet: tuple[str, ...]
    states: frozenset[int]
    initial: frozenset[int]
    accepting: frozenset[int]
    transitions: tuple[tuple[int, str | None, int], ...]

    def __post_init__(self):
        alpha = set(self.alphabet)
        if len(alpha) != len(self.alphabet):
            raise ValueError(f"duplicate alphabet symbol in {self.alphabet}")
        if not (self.initial <= self.states and self.accepting <= self.states):
            raise ValueError("initial/accepting states must be states")
        for q, sym, t in self.transitions:
            if q not in self.states or t not in self.states:
                raise ValueError(f"transition {q}-{sym}->{t} leaves the state set")
            if sym is not EPS and sym not in alpha:
                raise ValueError(f"transition symbol {sym!r} not in alphabet")


# ---------------------------------------------------------------------------
# parsing and serialization
#
# Line-based text, `#` starts a comment, blank lines ignored:
#   dfa|nfa
#   alphabet a b ...
#   states 0 1 ...
#   initial 0        (dfa: exactly one; nfa: any number)
#   accept 1 2 ...
#   trans <src> <symbol|eps> <dst>


def _logical_lines(text: str):
    """Yield (line number, tokens) of each non-blank line, in one pass
    over the text; only a line that contains `#` has its comment cut off.
    The transducer and graph parsers each make exactly one call, and so do
    the machine parsers for a text that `_bulk` does not take (one with a
    comment or a blank line, say); a plain machine text makes none. A
    caller takes its fixed header lines with `islice` and reads the body
    lines one at a time, so a large machine's lines are never all held at
    once (thousands of live token lists would survive into the garbage
    collector's oldest generation and bring on full collections)."""
    for no, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            raw = raw.partition("#")[0]
        toks = raw.split()
        if toks:
            yield no, toks


def _section(lines, i, keyword):
    if i >= len(lines):
        raise FormatError(f"missing `{keyword}` line")
    no, toks = lines[i]
    if toks[0] != keyword:
        raise FormatError(f"expected `{keyword}`, got `{toks[0]}`", no)
    return no, toks[1:]


def _parse_alphabet(toks, no) -> tuple[str, ...]:
    seen = set()
    for tok in toks:
        _check_symbol(tok, no)
        if tok in seen:
            raise FormatError(f"duplicate alphabet symbol {tok!r}", no)
        seen.add(tok)
    return tuple(toks)


# `int` refuses decimal strings with more digits than this (Python >= 3.11
# and late 3.10 releases; the limit is read once, at import)
_MAX_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)() or math.inf


def _is_number(tok: str) -> bool:
    """A decimal number written in ASCII digits that `int` converts;
    `str.isdigit` alone also passes digits such as '²', which `int`
    rejects, and `int` raises on more than `_MAX_DIGITS` digits."""
    return tok.isascii() and tok.isdigit() and len(tok) <= _MAX_DIGITS


def _parse_state_list(toks, no) -> dict[str, int]:
    """The `states` line as its numeral table: each declared state's
    canonical numeral `str(q)` mapped to q. Later tokens look themselves
    up here, so each state numeral is converted once; the line the writers
    give, 0..n-1 in order, is taken whole."""
    n = len(toks)
    if toks == list(map(str, range(n))):
        return dict(zip(toks, range(n)))
    numerals = {}
    for tok in toks:
        if not _is_number(tok):
            raise FormatError(f"bad state id {tok!r}", no)
        q = int(tok)
        numerals[str(q)] = q
    if len(numerals) != len(toks):
        raise FormatError("duplicate state id", no)
    return numerals


def _parse_state(tok, numerals, no) -> int:
    """The declared state `tok` names: a lookup in the numeral table, or,
    for a numeral that is not canonical such as `007`, a conversion. The
    transition loops inline the lookup and call this only on a miss."""
    q = numerals.get(tok)
    if q is None:
        if not _is_number(tok) or str(int(tok)) not in numerals:
            raise FormatError(f"undeclared state {tok!r}", no)
        q = int(tok)
    return q


def parse_dfa(text: str) -> Dfa:
    """Parse the `dfa` text format; rejects duplicate (state, symbol) edges.
    A plain text is read in bulk (`_bulk`), any other by the line parser."""
    return _bulk(text, ("dfa",)) or _parse_lines(_logical_lines(text), ("dfa",))


def parse_nfa(text: str) -> Nfa:
    """Parse the `nfa` text format, in bulk when the text is plain (`_bulk`)."""
    return _bulk(text, ("nfa",)) or _parse_lines(_logical_lines(text), ("nfa",))


def _parse_lines(lines, kinds) -> Dfa | Nfa:
    """The machine of the tokenized lines whose header line is one of
    `kinds`, checked line by line: the first faulty line raises, named by
    its number. With one kind a missing or other header is named as a
    missing or unexpected keyword, with both as empty input or an unknown
    header."""
    head = list(islice(lines, 5))
    if len(kinds) == 1:
        _section(head, 0, kinds[0])
    elif not head:
        raise FormatError("empty input")
    no, toks = head[0]
    kind = toks[0]
    if kind not in kinds:
        raise FormatError(f"unknown header `{kind}`", no)
    if len(toks) > 1:
        raise FormatError("unexpected tokens after header", no)
    alphabet, numerals, initials, accepting = _parse_common(head)
    dfa = kind == "dfa"
    if dfa and len(initials) != 1:
        raise FormatError("a dfa needs exactly one initial state", head[3][0])
    want = "want `trans <src> <symbol> <dst>`" if dfa \
        else "want `trans <src> <symbol|eps> <dst>`"
    symbols = set(alphabet)
    transitions: dict[tuple[int, str], int] = {}
    triples: list[tuple[int, str | None, int]] = []  # a repeated nfa line stays twice
    for no, toks in lines:
        if toks[0] != "trans":
            raise FormatError(f"unexpected `{toks[0]}`", no)
        if len(toks) != 4:
            raise FormatError(want, no)
        _, s, sym, d = toks
        src = numerals.get(s)
        if src is None:
            src = _parse_state(s, numerals, no)
        if sym == "eps":
            if dfa:
                raise FormatError("eps transitions are not allowed in a dfa", no)
            sym = EPS
        elif sym not in symbols:
            raise FormatError(f"undeclared symbol {sym!r}", no)
        dst = numerals.get(d)
        if dst is None:
            dst = _parse_state(d, numerals, no)
        if not dfa:
            triples.append((src, sym, dst))
        elif (src, sym) in transitions:
            raise FormatError(f"duplicate transition from state {src} on {sym!r}", no)
        else:
            transitions[src, sym] = dst
    states = frozenset(numerals.values())
    if not dfa:
        return Nfa(alphabet, states, frozenset(initials), frozenset(accepting), tuple(triples))
    return Dfa(alphabet, states, initials[0], frozenset(accepting), transitions)


def _parse_common(lines):
    """alphabet, numeral table, initial list and accepting set: lines 1-4."""
    no, toks = _section(lines, 1, "alphabet")
    alphabet = _parse_alphabet(toks, no)
    no, toks = _section(lines, 2, "states")
    numerals = _parse_state_list(toks, no)
    no, toks = _section(lines, 3, "initial")
    initials = [_parse_state(t, numerals, no) for t in toks]
    no, toks = _section(lines, 4, "accept")
    accepting = set(map(numerals.get, toks))
    if None in accepting:  # a numeral the table lacks, such as `007`
        accepting = {_parse_state(t, numerals, no) for t in toks}
    return alphabet, numerals, initials, accepting


# the line breaks of `str.splitlines` other than "\n" that ASCII text can hold
_OTHER_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e"


def _bulk(text: str, kinds) -> Dfa | Nfa | None:
    """The machine of a plain text whose header line is one of `kinds`,
    read with no pass over its lines; None sends the text to the line
    parser, which names the line at fault. A plain text is ASCII with no
    `#`, breaks lines only at "\n", has five non-blank header lines, and
    every later line starts with `trans ` (so none is blank).

    The body is split once, and its tokens are read four at a time: each
    state is a lookup in the `states` line's numeral table, and the symbols
    take one subset test. No `trans` token passes as a state or a symbol,
    so once every lookup hits, each line holds exactly one edge. A miss
    (such as `007`), an undeclared symbol, `eps` in a dfa, a duplicate edge
    or a dfa without exactly one initial state is left to the line parser;
    a faulty header raises here, from the line parser's own checks."""
    if "#" in text or not text.isascii() or any(c in text for c in _OTHER_BREAKS):
        return None
    lines = text.split("\n", 5)
    head = [(no, line.split()) for no, line in enumerate(lines[:5], start=1)]
    if len(head) < 5 or not all(toks for _, toks in head) or len(head[0][1]) != 1:
        return None
    kind = head[0][1][0]
    if kind not in kinds:
        return None
    alphabet, numerals, initials, accepting = _parse_common(head)
    body = lines[5] if len(lines) > 5 else ""
    toks = body.split()
    k = len(toks) // 4
    if body and not (len(toks) == 4 * k and body.startswith("trans ")
                     and body.count("\ntrans ") == k - 1
                     and body.count("\n") == k - 1 + body.endswith("\n")):
        return None
    symbols = set(alphabet)
    syms = toks[2::4]
    if not symbols.issuperset(syms):
        if kind == "dfa" or not symbols.issuperset(s for s in syms if s != "eps"):
            return None
        syms = [EPS if s == "eps" else s for s in syms]
    get = numerals.__getitem__
    try:
        srcs, dsts = list(map(get, toks[1::4])), list(map(get, toks[3::4]))
    except KeyError:
        return None
    states = frozenset(numerals.values())
    if kind == "nfa":
        return Nfa(alphabet, states, frozenset(initials), frozenset(accepting),
                   tuple(zip(srcs, syms, dsts)))
    transitions = dict(zip(zip(srcs, syms), dsts))
    if len(transitions) != k or len(initials) != 1:
        return None
    return Dfa(alphabet, states, initials[0], frozenset(accepting), transitions)


def parse_automaton(text: str) -> Dfa | Nfa:
    """Parse either machine format, dispatching on the header line. A
    plain text is read in bulk (`_bulk`); any other is tokenized once, line
    by line. Either way the state numerals are converted once, on the
    `states` line, and every later state token is a lookup in that table."""
    return _bulk(text, ("dfa", "nfa")) or _parse_lines(_logical_lines(text), ("dfa", "nfa"))


def _kw_line(keyword: str, items) -> str:
    items = list(items)
    return keyword + (" " + " ".join(items) if items else "")


def dfa_to_text(d: Dfa) -> str:
    d = canonical_dfa(d)
    lines = [
        "dfa",
        _kw_line("alphabet", d.alphabet),
        _kw_line("states", (str(q) for q in sorted(d.states))),
        f"initial {d.initial}",
        _kw_line("accept", (str(q) for q in sorted(d.accepting))),
    ]
    for (q, sym), t in d.transitions.items():  # in canonical_dfa's order
        lines.append(f"trans {q} {sym} {t}")
    return "\n".join(lines) + "\n"


def nfa_to_text(n: Nfa) -> str:
    n = canonical_nfa(n)
    lines = [
        "nfa",
        _kw_line("alphabet", n.alphabet),
        _kw_line("states", (str(q) for q in sorted(n.states))),
        _kw_line("initial", (str(q) for q in sorted(n.initial))),
        _kw_line("accept", (str(q) for q in sorted(n.accepting))),
    ]
    for q, sym, t in n.transitions:  # in canonical_nfa's sorted order
        lines.append(f"trans {q} {'eps' if sym is EPS else sym} {t}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# canonical renumbering


def canonical_dfa(d: Dfa) -> Dfa:
    """Renumber by BFS discovery order; unreachable states are dropped.
    Transitions come out by source, then in alphabet order. This is
    `trim`'s numbering pass with every state live."""
    initial, accepting, transitions, _ = _dense(d)
    rows, flags, _, _ = _numbered(d.alphabet, initial, accepting, transitions,
                                  [True] * len(d.states))
    return _rows_dfa(d.alphabet, rows, flags)


def canonical_nfa(n: Nfa) -> Nfa:
    """BFS renumbering seeded by the initial states in ascending order.

    Epsilon successors are explored before symbol successors. States not
    reachable from any initial state are dropped. Transitions come out
    sorted by (state, symbol in alphabet order with eps first, target).
    """
    idx = {sym: k for k, sym in enumerate(n.alphabet)}
    adj: dict[int, list[tuple[int, int]]] = {}
    for q, sym, t in n.transitions:
        adj.setdefault(q, []).append((-1 if sym is EPS else idx[sym], t))
    order: dict[int, int] = {}
    queue: deque[int] = deque()
    for q in sorted(n.initial):
        order[q] = len(order)
        queue.append(q)
    while queue:
        q = queue.popleft()
        for _, t in sorted(adj.get(q, ())):
            if t not in order:
                order[t] = len(order)
                queue.append(t)
    triples = [
        (order[q], sym, order[t])
        for q, sym, t in n.transitions
        if q in order
    ]
    triples.sort(key=lambda tr: (tr[0], -1 if tr[1] is EPS else idx[tr[1]], tr[2]))
    return Nfa(n.alphabet, frozenset(order.values()),
               frozenset(order[q] for q in n.initial),
               frozenset(order[q] for q in n.accepting if q in order),
               tuple(triples))


# ---------------------------------------------------------------------------
# alphabet plumbing


def merge_alphabets(a, b) -> tuple[str, ...]:
    """Union of two alphabets: left operand's order first, then new symbols."""
    left = tuple(a)
    seen = set(left)
    return left + tuple(s for s in b if s not in seen)


def empty_dfa(alphabet) -> Dfa:
    """Canonical machine for the empty language: one bare initial state."""
    return Dfa(tuple(alphabet), frozenset({0}), 0, frozenset(), {})


def universal_dfa(alphabet) -> Dfa:
    alphabet = tuple(alphabet)
    return Dfa(alphabet, frozenset({0}), 0, frozenset({0}),
               {(0, sym): 0 for sym in alphabet})


# ---------------------------------------------------------------------------
# running words


def _check_letters(word: str, alpha: set[str], where: str = "the alphabet") -> None:
    """Raise AlphabetError naming the first letter of `word` outside `alpha`."""
    if not alpha.issuperset(word):
        bad = next(c for c in word if c not in alpha)
        raise AlphabetError(f"symbol {bad!r} not in {where}")


def run(d: Dfa, word: str) -> bool:
    """Whether d accepts `word`; a letter outside d's alphabet raises
    AlphabetError wherever it stands in the word."""
    _check_letters(word, set(d.alphabet), "the machine's alphabet")
    return d.walk(d.initial, word) in d.accepting


def _index(n: Nfa) -> tuple[dict, dict]:
    """Epsilon adjacency and move table of an Nfa, in transition order.

    A key with one successor gets a 1-tuple and only a key with more gets
    a list, so an index of a mostly deterministic machine is nearly all
    tuples, which the garbage collector stops tracking: a list per key
    is promoted to its oldest generation whenever a young collection runs
    while the index is alive, and enough promotions bring on a full
    collection."""
    eps: dict = {}
    moves: dict = {}
    for q, sym, t in n.transitions:
        if sym is EPS:
            table, key = eps, q
        else:
            table, key = moves, (q, sym)
        ts = table.get(key)
        if ts is None:
            table[key] = (t,)
        elif type(ts) is tuple:
            table[key] = [*ts, t]
        else:
            ts.append(t)
    return eps, moves


def _closure(states, eps: dict[int, list[int]]) -> frozenset[int]:
    seen = set(states)
    stack = list(states)
    while stack:
        q = stack.pop()
        for t in eps.get(q, ()):
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return frozenset(seen)


def _subset_step(subset, sym, eps, moves) -> frozenset[int]:
    """Closed successor subset of a closed subset on one symbol."""
    nxt: set[int] = set()
    for q in subset:
        nxt.update(moves.get((q, sym), ()))
    return _closure(nxt, eps) if nxt else frozenset()


def run_nfa(n: Nfa, word: str) -> bool:
    _check_letters(word, set(n.alphabet), "the machine's alphabet")
    eps, moves = _index(n)
    cur = _closure(n.initial, eps)
    for c in word:
        cur = _subset_step(cur, c, eps, moves)
    return bool(cur & n.accepting)


# ---------------------------------------------------------------------------
# constructions


def determinize(n: Nfa) -> Dfa:
    """Subset construction over epsilon closures; the output is partial
    (no transition where the successor subset would be empty). It is the
    pair search's Nfa side asked for every successor, id by id in alphabet
    order, so the subsets keep that side's numbering by first reach."""
    alphabet = n.alphabet
    start, _, miss, accepting, _ = _side(n, alphabet)
    if start < 0:
        return empty_dfa(alphabet)
    transitions: dict[tuple[int, str], int] = {}
    size = 1
    i = 0
    while i < size:
        for sym in alphabet:
            j = miss(i, sym)
            if j >= 0:
                transitions[i, sym] = j
                if j == size:  # a subset reached for the first time
                    size += 1
        i += 1
    return Dfa(alphabet, frozenset(range(size)), 0, frozenset(accepting), transitions)


def _ranks(states) -> dict[int, int] | None:
    """The one rule that gives n states the ids 0..n-1: None when they are
    0..n-1 already, and each keeps its own number; otherwise each state's
    rank in ascending order. `_dense` and `transducer._restrict` use it."""
    n = len(states)
    if min(states) == 0 and max(states) == n - 1:
        return None
    return {q: i for i, q in enumerate(sorted(states))}


def _dense(d: Dfa):
    """(initial, accepting, transitions, names): d over the ids 0..n-1 that
    `_ranks` gives its states, where `names[i]` is the state that i stands
    for. A machine whose states are 0..n-1 already is given as it is, with
    `names` range(n). This is the one numbering of `trim`, `canonical_dfa`,
    `condense` and the pair search's Dfa sides."""
    ids = _ranks(d.states)
    if ids is None:
        return d.initial, d.accepting, d.transitions, range(len(d.states))
    return (ids[d.initial], [ids[q] for q in d.accepting],
            {(ids[q], sym): ids[t] for (q, sym), t in d.transitions.items()}, list(ids))


def trim(d: Dfa) -> Dfa:
    """Keep exactly the states both reachable from the initial state and
    co-reachable to an accepting one, renumbered canonically (certificates
    name them); an empty language collapses to the canonical one-state
    machine. The trim engine `_trim_rows` computes the trimmed machine's
    rows, and this writes them as a machine (`_rows_dfa`)."""
    rows, accepting, _, _ = _trim_rows(d)
    return _rows_dfa(d.alphabet, rows, accepting)


def _trim_rows(d: Dfa):
    """The trimmed machine of d as `_numbered` gives it, (rows, accepting,
    parent, via), over the canonical ids 0..m-1 that `trim` numbers its
    states by.

    On int lists over `_dense` ids, one backward pass from the accepting
    states marks the live states, and `_numbered` numbers them. Every
    state on a path to a live state is live itself, so that pass meets the
    kept states in `canonical_dfa`'s order, and the input's own numbering
    never shows. An empty language gives one state with no edge."""
    initial, accepting, transitions, _ = _dense(d)
    n = len(d.states)
    back: list[list[int]] = [[] for _ in range(n)]
    for (q, _), t in transitions.items():
        back[t].append(q)
    live = [False] * n
    stack = list(accepting)
    for q in stack:
        live[q] = True
    while stack:
        for q in back[stack.pop()]:
            if not live[q]:
                live[q] = True
                stack.append(q)
    if not live[initial]:
        return [[-1, -1] for _ in d.alphabet], [False, False], [-1], [""]
    return _numbered(d.alphabet, initial, accepting, transitions, live)


def _numbered(alphabet, initial, accepting, transitions, live):
    """A machine over `_dense` ids cut down to the live states that one
    breadth-first pass from the initial state meets, reading symbols in
    alphabet order and entering live states only, as int rows over the
    ids 0..m-1 the pass gives the states as it meets them:
    (rows, accepting, parent, via).

    `rows[k][i]` is the id that id i enters on `alphabet[k]`, -1 for no
    edge, and each row ends in a dead slot, so `rows[k][-1] == -1` as a
    pair search's side wants (`_side`). `accepting[i]` says whether id i
    accepts, and its dead slot is False. `parent[i]` and `via[i]` are the
    id and the symbol of the edge on which the pass first met i (-1 and
    "" for the initial id 0): that tree spells each state's shortest,
    alphabet-first word from the initial state."""
    column = {sym: k for k, sym in enumerate(alphabet)}
    ahead = [[-1] * len(live) for _ in alphabet]  # the input's rows, over `_dense` ids
    for (q, sym), t in transitions.items():
        if live[t]:
            ahead[column[sym]][q] = t
    order = [-1] * len(live)  # a live state's id, once the pass has met it
    order[initial] = 0
    queue = [initial]
    parent, via = [-1], [""]
    rows: list[list[int]] = [[] for _ in alphabet]
    steps = tuple(zip(alphabet, ahead, [row.append for row in rows]))
    for i, q in enumerate(queue):  # the queue grows as the pass goes
        for sym, row, add in steps:
            t = row[q]
            if t < 0:
                add(-1)
                continue
            j = order[t]
            if j < 0:
                j = order[t] = len(queue)
                queue.append(t)
                parent.append(i)
                via.append(sym)
            add(j)
    for row in rows:
        row.append(-1)
    flags = [False] * (len(queue) + 1)
    for q in accepting:
        if order[q] >= 0:
            flags[order[q]] = True
    return rows, flags, parent, via


def _rows_dfa(alphabet, rows, accepting) -> Dfa:
    """The machine of `_numbered`'s rows and accepting flags: states
    0..m-1, initial 0, transitions by source, then in alphabet order."""
    m = len(accepting) - 1
    # each id's successors in alphabet order, the dead slot's last and cut off
    transitions = {edge: j for edge, j in zip(product(range(m), alphabet),
                                              chain.from_iterable(zip(*rows))) if j >= 0}
    return Dfa(alphabet, frozenset(range(m)), 0, frozenset(compress(range(m), accepting)),
               transitions)


def product_intersect(a: Nfa, b: Nfa) -> Nfa:
    """Pair construction for the intersection; epsilon moves advance one
    side at a time. Requires equal alphabets (widen beforehand)."""
    if set(a.alphabet) != set(b.alphabet):
        raise AlphabetError("intersection requires equal alphabets; widen first")
    a_eps, a_moves = _index(a)
    b_eps, b_moves = _index(b)

    ids: dict[tuple[int, int], int] = {}
    queue: deque[tuple[int, int]] = deque()
    for pair in sorted((p, q) for p in a.initial for q in b.initial):
        ids[pair] = len(ids)
        queue.append(pair)
    triples: list[tuple[int, str | None, int]] = []

    def visit(pair):
        j = ids.get(pair)
        if j is None:
            j = ids[pair] = len(ids)
            queue.append(pair)
        return j

    while queue:
        pair = queue.popleft()
        p, q = pair
        i = ids[pair]
        for t in sorted(a_eps.get(p, ())):
            triples.append((i, EPS, visit((t, q))))
        for t in sorted(b_eps.get(q, ())):
            triples.append((i, EPS, visit((p, t))))
        for sym in a.alphabet:
            for tp in sorted(a_moves.get((p, sym), ())):
                for tq in sorted(b_moves.get((q, sym), ())):
                    triples.append((i, sym, visit((tp, tq))))
    accepting = frozenset(
        i for (p, q), i in ids.items() if p in a.accepting and q in b.accepting
    )
    return Nfa(a.alphabet, frozenset(ids.values()),
               frozenset(ids[pair] for pair in ids if pair[0] in a.initial and pair[1] in b.initial),
               accepting, tuple(triples))


def shortest_word(n: Nfa) -> str | None:
    """Shortest accepted word (lexicographic in alphabet order among ties),
    or None for the empty language. BFS over closure subsets."""
    eps, moves = _index(n)
    start = _closure(n.initial, eps)
    if start & n.accepting:
        return ""
    seen = {start}
    queue = deque([(start, "")])
    while queue:
        subset, word = queue.popleft()
        for sym in n.alphabet:
            target = _subset_step(subset, sym, eps, moves)
            if not target or target in seen:
                continue
            if target & n.accepting:
                return word + sym
            seen.add(target)
            queue.append((target, word + sym))
    return None


def complement(d: Dfa) -> Dfa:
    """Complete with a sink, then flip acceptance."""
    sink = max(d.states) + 1
    states = set(d.states) | {sink}
    transitions = dict(d.transitions)
    for q in states:
        for sym in d.alphabet:
            transitions.setdefault((q, sym), sink)
    return Dfa(d.alphabet, frozenset(states), d.initial,
               frozenset(states) - d.accepting, transitions)


# ---------------------------------------------------------------------------
# on-the-fly language comparison


class _Mode(dict):
    """A search mode: it maps the acceptance of a pair, (left accepts,
    right accepts), to the result slot the pair fills; pairs of other
    kinds are passed over. `table[x][y]` is the same map as nested lists,
    with `table[x]` None when no slot takes a left side whose acceptance
    is x. `need_a` (`need_b`) says that every slot wants the left (right)
    side accepting, so a pair whose left (right) side is dead leads nowhere.
    """

    def __init__(self, slots):
        super().__init__(slots)
        self.need_a = all(x for x, _ in slots)
        self.need_b = all(y for _, y in slots)
        self.table: list = [None, None]
        for (x, y), slot in slots.items():
            if self.table[x] is None:
                self.table[x] = [None, None]
            self.table[x][y] = slot


_MEET = _Mode({(True, True): 0})
_LEFT = _Mode({(True, False): 0})
_DIFF = _Mode({(True, False): 0, (False, True): 1})


def _side(m: Dfa | Nfa, alphabet):
    """One side of a pair search: (start, rows, miss, accepting, width).

    Side states are int ids, and -1 is the dead side that a missing
    transition leads to. `rows[k][i]` is the successor of id i on
    `alphabet[k]`: None until the search first needs it, when
    `miss(i, alphabet[k])` computes it and the search stores it. Each row
    ends in the dead side's entry, so `rows[k][-1] == -1`. `accepting`
    holds the accepting ids, and every id is below `width - 1`.

    A Dfa side with n states takes its ids 0..n-1 from `_dense`, the rule
    `trim` and `condense` use, so each row has n + 1 slots. An Nfa side,
    whose states are epsilon-closed subsets, numbers them in order of
    first reach; `determinize` is this side with every successor asked
    for. So memory never grows with the value of a state numeral. A
    subset's successor is the union of its members' closed successors:
    `closed[sym][q]` holds, as a tuple of ints (which the garbage collector
    stops tracking; it tracks every frozenset), the epsilon closure of
    q's moves on sym, computed when a subset first needs it. So `_closure`
    runs at most once per (state, symbol), however many subsets hold the
    state, and not at all where no epsilon move leaves the targets.
    """
    if isinstance(m, Dfa):
        initial, accepting, transitions, _ = _dense(m)
        get, n = transitions.get, len(m.states)
        rows = []
        for _ in alphabet:
            row = [None] * (n + 1)
            row[n] = -1
            rows.append(row)

        def miss(i, sym):
            return get((i, sym), -1)

        return initial, rows, miss, frozenset(accepting), n + 1

    ids: dict = {}
    names: list = []
    accepting_ids: set[int] = set()
    rows = [[-1] for _ in alphabet]

    def fresh(t, accepts: bool) -> int:
        """Number a state reached for the first time."""
        i = ids[t] = len(names)
        names.append(t)
        for row in rows:
            row.insert(-1, None)
        if accepts:
            accepting_ids.add(i)
        return i

    eps, moves = _index(m)
    accepting = m.accepting
    closed = {sym: {} for sym in alphabet}
    has_eps = eps.keys()  # the states an epsilon move leaves

    def miss(i, sym):
        table = closed[sym]
        t = []
        for q in names[i]:
            c = table.get(q)
            if c is None:
                c = moves.get((q, sym), ())
                if not has_eps.isdisjoint(c):
                    c = _closure(c, eps)
                c = table[q] = tuple(c)
            t += c
        if not t:
            return -1
        t = frozenset(t)
        j = ids.get(t)
        return fresh(t, not accepting.isdisjoint(t)) if j is None else j

    start = _closure(m.initial, eps)
    start_id = fresh(start, not accepting.isdisjoint(start)) if start else -1
    return start_id, rows, miss, accepting_ids, sys.maxsize


def _pair_search(a: Dfa | Nfa, b: Dfa | Nfa, alphabet, mode: _Mode) -> tuple[str | None, ...]:
    """Breadth-first search over pairs (side of a, side of b), reading
    symbols in `alphabet` order, so each pair is first reached by its
    shortest, alphabet-order-smallest word. Symbols outside a machine's
    own alphabet kill its side, as widening would.

    Returns one word per slot of `mode`: the first word reaching a pair of
    that slot's kind, among the words of the first length at which any
    slot fills (None for a slot with no such word). Pairs from which no
    wanted kind is reachable, because the side it needs accepting is dead,
    are not explored.
    """
    return _search(_side(a, alphabet), _side(b, alphabet), alphabet, mode)


def _search(a_side, b_side, alphabet, mode: _Mode) -> tuple[str | None, ...]:
    """`_pair_search` over two sides built by `_side`.

    Each discovered pair is a node, numbered in order of discovery, so
    the nodes of one length follow those of the length before. `parents`
    and `syms` hold every node's parent node and the symbol read from it;
    the side ids are kept only for the level being expanded. A pair's key,
    `a id * width + b id`, is unique because every b id lies in
    [-1, width - 1). Words are spelled out, by parent links, only for the
    nodes that fill a slot.
    """
    a_start, a_rows, a_miss, a_acc, _ = a_side
    b_start, b_rows, b_miss, b_acc, width = b_side
    need_a, need_b, table = mode.need_a, mode.need_b, mode.table
    steps = tuple(zip(alphabet, a_rows, b_rows))
    parents, syms = [0], [""]
    found: list[int | None] = [None] * len(mode)
    kind = table[a_start in a_acc]
    if kind is not None and kind[b_start in b_acc] is not None:
        found[kind[b_start in b_acc]] = 0
        return _spell(parents, syms, found)
    seen = {a_start * width + b_start}
    level_a, level_b = [a_start], [b_start]
    hit = False
    while level_a and not hit:
        next_a, next_b = [], []
        for node, p, q in zip(range(len(parents) - len(level_a), len(parents)),
                              level_a, level_b):
            for sym, a_row, b_row in steps:
                tp = a_row[p]
                if tp is None:
                    tp = a_row[p] = a_miss(p, sym)
                tq = b_row[q]
                if tq is None:
                    tq = b_row[q] = b_miss(q, sym)
                if (tp < 0 and (need_a or tq < 0)) or (tq < 0 and need_b):
                    continue
                key = tp * width + tq
                if key in seen:
                    continue
                seen.add(key)
                next_a.append(tp)
                next_b.append(tq)
                parents.append(node)
                syms.append(sym)
                kind = table[tp in a_acc]
                if kind is not None:
                    slot = kind[tq in b_acc]
                    if slot is not None:
                        hit = True
                        if found[slot] is None:
                            found[slot] = len(parents) - 1
                            if None not in found:
                                return _spell(parents, syms, found)
        level_a, level_b = next_a, next_b
    return _spell(parents, syms, found)


def _spell(parents, syms, found) -> tuple[str | None, ...]:
    """The word of each found node, read off its parent links."""
    words: list[str | None] = []
    for node in found:
        if node is None:
            words.append(None)
            continue
        word = []
        while node:
            word.append(syms[node])
            node = parents[node]
        words.append("".join(reversed(word)))
    return tuple(words)


def inclusion_counterexample(sup: Dfa | Nfa, sub: Dfa | Nfa) -> str | None:
    """Shortest word of L(sub) outside L(sup), or None when L(sub) ⊆ L(sup);
    ties go to the smallest in the merged alphabet's order. Decided by one
    pair search, with no complement or product built; an Nfa `sup` is
    determinized lazily, one reached subset at a time."""
    alpha = merge_alphabets(sup.alphabet, sub.alphabet)
    return _pair_search(sub, sup, alpha, _LEFT)[0]


def separating_word(a: Dfa | Nfa, b: Dfa | Nfa) -> str | None:
    """Shortest word accepted by exactly one machine (None if equivalent).

    One pair search finds, at the first length where the languages differ,
    the first word only a accepts and the first only b accepts (in the
    merged alphabet's order); when both exist the smaller by (length, word),
    in code-point order, wins.
    """
    alpha = merge_alphabets(a.alphabet, b.alphabet)
    in_a, in_b = _pair_search(a, b, alpha, _DIFF)
    if in_a is None:
        return in_b
    if in_b is None:
        return in_a
    return min((in_a, in_b), key=lambda w: (len(w), w))


# ---------------------------------------------------------------------------
# regular expressions (literals, concatenation, |, *, parentheses)


class _RegexParser:
    def __init__(self, pattern: str):
        self.pattern = pattern
        self.pos = 0
        self.count = 0
        self.triples: list[tuple[int, str | None, int]] = []

    def fresh(self) -> int:
        self.count += 1
        return self.count - 1

    def edge(self, src, sym, dst):
        self.triples.append((src, sym, dst))

    def peek(self) -> str | None:
        return self.pattern[self.pos] if self.pos < len(self.pattern) else None

    def parse(self):
        frag = self.alternation()
        if self.peek() is not None:
            raise FormatError(f"unbalanced `)` at position {self.pos}")
        return frag

    def alternation(self):
        frags = [self.concatenation()]
        while self.peek() == "|":
            self.pos += 1
            frags.append(self.concatenation())
        if len(frags) == 1:
            return frags[0]
        s, t = self.fresh(), self.fresh()
        for fs, ft in frags:
            self.edge(s, EPS, fs)
            self.edge(ft, EPS, t)
        return s, t

    def concatenation(self):
        frags = []
        while self.peek() not in (None, "|", ")"):
            frags.append(self.starred())
        if not frags:
            s = self.fresh()
            return s, s
        for (_, t1), (s2, _) in zip(frags, frags[1:]):
            self.edge(t1, EPS, s2)
        return frags[0][0], frags[-1][1]

    def starred(self):
        frag = self.atom()
        while self.peek() == "*":
            self.pos += 1
            fs, ft = frag
            s, t = self.fresh(), self.fresh()
            self.edge(s, EPS, fs)
            self.edge(s, EPS, t)
            self.edge(ft, EPS, fs)
            self.edge(ft, EPS, t)
            frag = s, t
        return frag

    def atom(self):
        c = self.peek()
        if c == "(":
            self.pos += 1
            frag = self.alternation()
            if self.peek() != ")":
                raise FormatError("unbalanced `(`")
            self.pos += 1
            return frag
        if c == "*":
            raise FormatError(f"dangling `*` at position {self.pos}")
        if len(c) != 1 or not (c.isascii() and c.isalnum()):
            raise FormatError(f"unexpected character {c!r} in pattern")
        self.pos += 1
        s, t = self.fresh(), self.fresh()
        self.edge(s, c, t)
        return s, t


def regex_to_nfa(pattern: str) -> Nfa:
    """Inductive construction; the alphabet is the sorted set of literals.
    The empty pattern denotes the language containing only the empty word."""
    parser = _RegexParser(pattern)
    try:
        start, end = parser.parse()
    except RecursionError:
        # the descent takes a few frames per `(`; past the interpreter's
        # stack limit the pattern is refused rather than crashing
        raise FormatError("pattern nests too deeply") from None
    alphabet = tuple(sorted({c for c in pattern if c not in "()|*"}))
    return Nfa(alphabet, frozenset(range(parser.count)), frozenset({start}),
               frozenset({end}), tuple(parser.triples))


# ---------------------------------------------------------------------------
# strongly connected components


@dataclass(frozen=True, eq=False)
class Condensation:
    """SCC decomposition of a machine's transition graph.

    Components are numbered by their smallest member state, so the result
    does not depend on the order in which Tarjan's search visits states or
    edges. `nontrivial` marks the components that carry an internal edge.
    """

    scc_of: dict[int, int]
    components: tuple[frozenset[int], ...]
    nontrivial: tuple[bool, ...]


def condense(d: Dfa) -> Condensation:
    """The SCCs of d's transition graph: the condense engine `_components`
    on successor lists over `_dense` ids, mapped back to d's states at the
    end (`_condensation`)."""
    _, _, transitions, names = _dense(d)
    succ: list[list[int]] = [[] for _ in names]
    for (q, _), t in transitions.items():
        succ[q].append(t)
    return _condensation(succ, _components(succ), names)


def _components(succ) -> list[int]:
    """Tarjan's search over the successor lists of the ids 0..n-1: `comp[q]`
    is the index of q's component, the components numbered in the order
    the search finishes them, and `comp[-1]` is -1. An entry -1 in a list
    is no edge, so the states' tuples of `_numbered`'s rows can be given
    as they are: the search reads -1 as a finished state."""
    n = len(succ)
    # index[q] is 0 until q is visited; a visited q is on the stack until
    # its component is done; the slot past the ids is the finished -1
    index = [0] * n + [1]
    low = [0] * n
    done = [False] * n + [True]
    comp = [-1] * (n + 1)
    stack: list[int] = []
    count = 0
    counter = 1
    for root in range(n):
        if index[root]:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            q, edges = work[-1]
            for t in edges:
                if not index[t]:
                    index[t] = low[t] = counter
                    counter += 1
                    stack.append(t)
                    work.append((t, iter(succ[t])))
                    break
                if not done[t] and index[t] < low[q]:
                    low[q] = index[t]
            else:
                work.pop()
                if low[q] == index[q]:
                    while True:
                        t = stack.pop()
                        done[t] = True
                        comp[t] = count
                        if t == q:
                            break
                    count += 1
                if work:
                    p = work[-1][0]
                    if low[q] < low[p]:
                        low[p] = low[q]
    return comp


def _condensation(succ, comp, names) -> Condensation:
    """The Condensation of `_components`' indices for the successor lists
    `succ`, id q standing for the state `names[q]`: components renumbered
    by their smallest id, which stands for their smallest member state."""
    members: list[list[int]] = [[] for _ in range(max(comp) + 1)]
    for q in range(len(succ)):
        members[comp[q]].append(q)  # ascending, so each list starts with its smallest id
    members.sort()
    return Condensation(
        {names[q]: i for i, ids in enumerate(members) for q in ids},
        tuple(frozenset(names[q] for q in ids) for ids in members),
        # a self-loop makes a one-state component nontrivial
        tuple(len(ids) > 1 or ids[0] in succ[ids[0]] for ids in members))
