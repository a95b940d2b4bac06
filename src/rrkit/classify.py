"""Decide whether a regular filter is hard or easy, with checkable proof.

A filter is *hard* when some state of its trimmed automaton carries two
cycles neither of which is a prefix of the other; such a filter can be
mapped onto any regular language by a deterministic transducer. Otherwise
the filter is *easy*: its language is bounded, i.e. contained in a product
w1* w2* ... wn*, and it decomposes into finitely many expressions of the
shape p x1* y1 ... xn* yn.

Both verdicts come with certificates that are re-verified before being
returned:

* ``Hard`` carries a ``HardnessWitness``: an access word to the pivot
  state, two equal-length prefix-incomparable cycles there, and an exit
  word to acceptance. Replaying those words on the trimmed machine checks
  the certificate.
* ``Easy`` carries the decomposition (proved equivalent to the filter) and
  the envelope words (whose star product provably includes the filter).

Detection reads the shape of the strongly connected components (Ginsburg
& Spanier's characterization of bounded languages): the trimmed machine is
easy exactly when each nontrivial component is one simple cycle, i.e. each
of its states has exactly one successor inside it. Otherwise the witness
sits at the smallest state q of a *branching* component. A shortest cycle
u at q is a simple path, and every word of x* (x the primitive root of u)
read from q follows that path, so the component's extra edge yields a cycle
v at q outside x*; a single regular-inclusion check finds the shortest such
v. v cannot commute with u (two commuting cycles are powers of one root),
so (u v, v u) is an equal-length, prefix-incomparable pair witnessing
hardness. Easy machines make no inclusion check at all.

The classifier reads the trimmed machine as the trim and condense engines
give it (`automata._trim_rows`, `automata._components`): per-symbol rows of
int ids, the numbering pass's breadth-first tree, and component indices.
A hard verdict builds no machine but x*'s. The access word is read off the
tree; one breadth-first search over the rows from q gives u and the exit
word; the inclusion check hands the pair search the rows themselves,
started and accepted at q; and the replay walks the rows. Both cycle
searches run on the whole trimmed machine, with no copy of q's component.
That is exact: a word that leaves q's component never returns to q, so the
words looping at q, and their shortest, alphabet-first member, are the
same with or without the component's boundary. Only an easy verdict writes
the rows as a trimmed `Dfa` and the indices as a `Condensation`, for the
decomposition and its check.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .automata import (
    EPS,
    Condensation,
    Dfa,
    FormatError,
    Nfa,
    _check_letters,
    _check_symbol,
    _is_number,
    _logical_lines,
    _components,
    _condensation,
    _LEFT,
    _rows_dfa,
    _search,
    _side,
    _trim_rows,
    inclusion_counterexample,
    separating_word,
    word_from_text,
    word_to_text,
)


class ClassificationMismatch(ValueError):
    """An operation that needs one verdict was handed a filter of the other;
    `verdict` is the classification it computed."""

    def __init__(self, message: str, verdict: Classification | None = None):
        super().__init__(message)
        self.verdict = verdict


class CertificateError(ValueError):
    """A hardness witness or bounded decomposition failed verification."""


@dataclass(frozen=True)
class HardnessWitness:
    """Pivot state with two prefix-incomparable cycles.

    `access` leads from the initial state to `state`; `cycle_a` and
    `cycle_b` both loop at `state`; `exit_word` leads from `state` to an
    accepting state.
    """

    state: int
    access: str
    cycle_a: str
    cycle_b: str
    exit_word: str


@dataclass(frozen=True)
class BoundedExpr:
    """The language  prefix · x1* y1 · ... · xn* yn  for blocks (xi, yi)."""

    prefix: str
    blocks: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class Hard:
    witness: HardnessWitness


@dataclass(frozen=True)
class Easy:
    decomposition: tuple[BoundedExpr, ...]
    envelope: tuple[str, ...]


Classification = Hard | Easy


def primitive_root(w: str) -> str:
    """Shortest x with w = x^k; the word itself when it is primitive."""
    if not w:
        raise ValueError("the empty word has no primitive root")
    n = len(w)
    for d in range(1, n):
        if n % d == 0 and w[:d] * (n // d) == w:
            return w[:d]
    return w


def normalize_witness(u0: str, v0: str) -> tuple[str, str]:
    """Turn a non-commuting cycle pair into an equal-length,
    prefix-incomparable pair at the same state: (u0 v0, v0 u0)."""
    if u0 + v0 == v0 + u0:
        raise ValueError("cycle words commute; they are powers of a common root")
    return u0 + v0, v0 + u0


# ---------------------------------------------------------------------------
# hardness detection


def _power_dfa(x: str, alphabet) -> Dfa:
    """Machine for x*: a cycle of |x| states reading x."""
    n = len(x)
    transitions = {(i, x[i]): (i + 1) % n for i in range(n)}
    return Dfa(tuple(alphabet), frozenset(range(n)), 0, frozenset({0}), transitions)


def _pivot(succ, comp) -> int:
    """The smallest state of a branching component, or -1 when every
    nontrivial component is a ring: `succ` are the trimmed machine's
    per-state successor tuples (-1 for no edge) and `comp` their
    `_components` indices. A component branches when one of its states
    has two edges inside it (a ring's states have one each, a trivial
    component's none)."""
    branching = [False] * (max(comp) + 2)  # and a last slot, read for comp[-1] == -1
    for q, ts in enumerate(succ):
        c = comp[q]
        if not branching[c]:
            inner = 0
            for t in ts:
                if comp[t] == c:
                    inner += 1
            if inner > 1:
                branching[c] = True
    for q, c in enumerate(comp):
        if branching[c]:
            return q
    return -1


def _tree_word(parent, via, i: int, root: int) -> str:
    """The word that a search tree's links spell from `root` to i:
    `parent[j]` and `via[j]` are the id and the symbol of the edge on which
    the search first met j."""
    word = []
    while i != root:
        word.append(via[i])
        i = parent[i]
    return "".join(reversed(word))


def _from_pivot(alphabet, rows, accepting, q) -> tuple[str, str]:
    """The shortest cycle at q and the shortest word from q to acceptance
    ("" when q accepts), each first in alphabet order: one breadth-first
    search over the rows from q, which stops once it has met both. The
    first edge the search reads into q closes the cycle, and the first into
    an accepting state ends the exit word (q's own acceptance aside, an
    accepting state is first entered by the edge that discovers it)."""
    steps = tuple(zip(alphabet, rows))
    parent = [-1] * len(accepting)  # -1 until the search meets an id
    via = [""] * len(accepting)
    parent[q] = q
    cycle = None
    exit_word = "" if accepting[q] else None
    queue = [q]
    for p in queue:  # the queue grows as the search goes
        for sym, row in steps:
            t = row[p]
            if t < 0:
                continue
            if t == q and cycle is None:
                cycle = _tree_word(parent, via, p, q) + sym
            elif exit_word is None and accepting[t]:
                exit_word = _tree_word(parent, via, p, q) + sym
            if cycle is not None and exit_word is not None:
                return cycle, exit_word
            if parent[t] < 0:
                parent[t] = p
                via[t] = sym
                queue.append(t)
    raise CertificateError(f"witness state {q} has no cycle or is not live")


def _find_witness(alphabet, rows, accepting, parent, via, q) -> HardnessWitness:
    """Witness at the pivot q of the trimmed machine given as `_trim_rows`
    gives it. u0 is the shortest cycle at q; v0, the shortest cycle at q
    outside primitive_root(u0)*, comes from one pair search of the rows,
    started and accepted at q, against x*'s machine. The access word is
    read off the numbering pass's tree, and the exit word is a shortest
    word into acceptance."""
    u0, exit_word = _from_pivot(alphabet, rows, accepting, q)
    x = primitive_root(u0)
    at_q = (q, rows, None, {q}, len(accepting))  # complete rows ask no miss
    v0 = _search(at_q, _side(_power_dfa(x, alphabet), alphabet), alphabet, _LEFT)[0]
    if v0 is None:
        raise CertificateError(f"branching component at state {q} has no cycle outside {x}*")
    cycle_a, cycle_b = normalize_witness(u0, v0)
    access = _tree_word(parent, via, q, 0)
    return HardnessWitness(q, access, cycle_a, cycle_b, exit_word)


def verify_witness(f: Dfa, w: HardnessWitness) -> None:
    """Replay a witness against trim(f); raises CertificateError if any
    invariant fails."""
    rows, accepting, _, _ = _trim_rows(f)
    _replay_witness(f.alphabet, rows, accepting, w)


def _replay_witness(alphabet, rows, accepting, w: HardnessWitness) -> None:
    """verify_witness on the trimmed machine's rows and accepting flags."""
    if w.state not in range(len(accepting) - 1):
        raise CertificateError(f"witness state {w.state} is not a state of the trimmed filter")
    column = dict(zip(alphabet, rows))

    def walk(q: int, word: str) -> int:
        """The id word leads q to, -1 once stuck: a row's dead slot keeps
        -1 dead, and a letter outside the alphabet has no row."""
        for c in word:
            row = column.get(c)
            if row is None:
                return -1
            q = row[q]
        return q

    if walk(0, w.access) != w.state:
        raise CertificateError("access word does not reach the witness state")
    if walk(w.state, w.cycle_a) != w.state:
        raise CertificateError("first cycle word does not loop at the witness state")
    if walk(w.state, w.cycle_b) != w.state:
        raise CertificateError("second cycle word does not loop at the witness state")
    if not accepting[walk(w.state, w.exit_word)]:
        raise CertificateError("exit word does not reach an accepting state")
    if w.cycle_a.startswith(w.cycle_b) or w.cycle_b.startswith(w.cycle_a):
        raise CertificateError("cycle words must be prefix-incomparable")


# ---------------------------------------------------------------------------
# bounded decomposition


def _forced_ring(d: Dfa, entry: int,
                 scc_of) -> tuple[str, list[tuple[int, str, int | None]]]:
    """The unique cycle through an easy machine's component, starting at
    `entry`, read in one walk that looks at each edge of the ring once.
    Returns its label and its stops in walk order: for the state i steps
    from `entry`, (i, "", None) when it accepts, then (i, sym, t) for each
    edge on sym leaving the component to t, in alphabet order."""
    comp = scc_of[entry]
    get = d.transitions.get
    word = []
    stops: list[tuple[int, str, int | None]] = []
    q = entry
    while True:
        if q in d.accepting:
            stops.append((len(word), "", None))
        inner = 0
        for sym in d.alphabet:
            t = get((q, sym))
            if t is not None:
                if scc_of[t] == comp:
                    inner += 1
                    ring_sym, nxt = sym, t
                else:
                    stops.append((len(word), sym, t))
        if inner != 1:
            raise CertificateError(
                f"state {q} has {inner} successors inside its component;"
                " an easy component is a single ring")
        word.append(ring_sym)
        q = nxt
        if q == entry:
            return "".join(word), stops


def _easy_exprs(ft: Dfa, cond: Condensation) -> tuple[BoundedExpr, ...]:
    """Enumerate accepting run shapes through the component DAG of the
    trimmed machine `ft` (condensed as `cond`).

    A partial expression is the flat tuple (prefix, loop1, bridge1, loop2,
    bridge2, ...): a letter read outside a ring extends its last word.
    Inside a cycle-bearing component the walk is forced, so a traversal
    entering at state e adds one loop (the full ring word at e) and, as its
    bridge, the ring prefix read up to the stop or exit point. The
    enumeration is exponential in the DAG size, which is fine at the scale
    this library targets; correctness rests on the equivalence check, not
    on minimality.
    """
    if not ft.accepting:
        return ()
    out: list[BoundedExpr] = []
    # a stack of pending steps (state, parts), where state None emits parts;
    # a state's steps are pushed in reverse so that they run in depth-first
    # preorder, however long the walk
    stack: list[tuple[int | None, tuple[str, ...]]] = [(ft.initial, ("",))]
    while stack:
        q, parts = stack.pop()
        if q is None:
            out.append(BoundedExpr(parts[0], tuple(zip(parts[1::2], parts[2::2]))))
            continue
        steps: list[tuple[int | None, tuple[str, ...]]] = []
        comp_idx = cond.scc_of[q]
        if not cond.nontrivial[comp_idx]:
            if q in ft.accepting:
                steps.append((None, parts))
            for sym in ft.alphabet:
                t = ft.transitions.get((q, sym))
                if t is not None:
                    steps.append((t, parts[:-1] + (parts[-1] + sym,)))
        else:
            ring_word, stops = _forced_ring(ft, q, cond.scc_of)
            for i, sym, t in stops:
                steps.append((t, parts + (ring_word, ring_word[:i] + sym)))
        stack.extend(reversed(steps))
    return tuple(dict.fromkeys(out))


def _envelope_of(exprs) -> tuple[str, ...]:
    """Envelope factors: each expression's prefix letters, then per block
    its loop word and its bridge letters, in expression order; consecutive
    duplicates merge (w* w* = w*)."""
    words: list[str] = []
    for e in exprs:
        factors = list(e.prefix)
        for loop, bridge in e.blocks:
            factors += [loop, *bridge]
        for factor in factors:
            if not words or words[-1] != factor:
                words.append(factor)
    return tuple(words)


def bounded_nfa(exprs, alphabet) -> Nfa:
    """Recognizer of a union of bounded expressions: the trie over their
    tokens, with equal subtries merged.

    An expression's tokens are its prefix letters, then per block (x, y) a
    loop x, the letters y reads along x's cycle (one token, possibly
    empty), and y's other letters. A letter is an edge to a child node. A
    loop is an epsilon edge to a loop node that carries a cycle of |x|
    states reading x, so no state carries two cycles (x1* x2* is not
    (x1|x2)*). y is read along that cycle for as long as the two words
    agree, at most |x| - 1 letters, and goes on, or ends accepting, at the
    cycle state where it stops, so a loop node's children are its stops. A
    node that does not accept and whose only edge is the epsilon edge into
    a loop node is that loop node. Expressions that share a token prefix
    share its nodes, and the node where an expression's tokens end accepts.

    Then one pass from the last node back to the root merges each node into
    the first equal one it has seen (the acyclic-automaton minimisation of
    Revuz and of Daciuk et al.): two letter-entered nodes are equal when
    they agree on acceptance and on their edges to merged children, and two
    loop nodes when they agree on the loop word and, at each cycle position
    where a bridge stops, on acceptance and edges. So a cycle state is
    never shared by two cycles, and a letter-entered node never gains one:
    x y* z and w z share the node after z, but not the node before it, so
    w y z stays rejected. Only the kept nodes get states, so expressions
    that share a suffix share its states.

    Every decomposition `classify` reads off a DFA has an epsilon-free
    deterministic recognizer: each bridge is a prefix of its loop, read
    along the cycle, then an exit letter that leaves it, or it ends there."""
    alphabet = tuple(alphabet)
    root, final, triples, size, _ = _trie(exprs, alphabet, ())
    return Nfa(alphabet, frozenset(range(size)), frozenset({root}), final, tuple(triples))


def _recognizer(exprs, alphabet, envelope) -> tuple[Dfa | Nfa, bool]:
    """`bounded_nfa` of the expressions, as a Dfa when it has no epsilon
    edge and at most one edge per state and symbol, and whether their
    factors embed into the envelope (`_trie`)."""
    alphabet = tuple(alphabet)
    root, final, triples, size, embedded = _trie(exprs, alphabet, envelope)
    transitions = {(q, sym): t for q, sym, t in triples if sym is not EPS}
    if len(transitions) == len(triples):
        return Dfa(alphabet, frozenset(range(size)), root, final, transitions), embedded
    return Nfa(alphabet, frozenset(range(size)), frozenset({root}), final,
               tuple(triples)), embedded


def _trie(exprs, alphabet, envelope) -> tuple[int, frozenset[int], list, int, bool]:
    """`bounded_nfa`'s merged trie as (root state, accepting states,
    transition triples, state count), its states numbered 0, 1, ... as
    they are kept, and whether each expression's factors (prefix letters,
    then per block the loop word and the bridge letters) embed in order
    into the envelope words: each goes to a word at or after the previous
    factor's of which it is a positive power. Greedy earliest choice finds
    such a placement whenever one exists, and the walk that inserts the
    tokens records at each new trie node the envelope position after the
    factors its token reads, so expressions that share a token prefix
    embed it once."""
    alpha = set(alphabet)
    # an empty envelope word is refused before the embedding is read
    words = tuple(envelope) if all(envelope) else ()
    child: dict[tuple[int, str | tuple[str]], int] = {}
    accepting: set[int] = set()
    at: list[int | None] = [0]  # envelope position after each node's factors, None if none
    stops: dict[int, list] = {}  # each loop node's stop positions
    embedded = True
    for e in exprs:
        for word in [e.prefix, *(w for block in e.blocks for w in block)]:
            _check_letters(word, alpha)
        # a block (x, y) is the loop token (x,), a 1-tuple so that it is not
        # mistaken for a letter, then the word y[:k] that y reads along x's
        # cycle, possibly "", then y's other letters; each token iterates to
        # the factors it reads, and a loop node's children are its stops
        tokens: list[str | tuple[str]] = list(e.prefix)
        for loop, bridge in e.blocks:
            if not loop:
                raise ValueError("loop word of a bounded expression must be nonempty")
            k, stop = 0, min(len(loop) - 1, len(bridge))
            while k < stop and bridge[k] == loop[k]:
                k += 1
            tokens += [(loop,), bridge[:k], *bridge[k:]]
        cur = 0
        for token in tokens:
            nxt = child.get((cur, token))
            if nxt is None:
                nxt = child[cur, token] = len(at)
                if token.__class__ is tuple:
                    stops[nxt] = []
                i = at[cur]
                if i is not None:
                    for factor in token:
                        while i < len(words):
                            if words[i] * (len(factor) // len(words[i])) == factor:
                                break
                            i += 1
                        else:
                            i = None
                            break
                at.append(i)
            cur = nxt
        accepting.add(cur)
        embedded = embedded and at[cur] is not None
    # the trie numbers a node after its parent, and `child` holds one entry
    # per node in that order, so reading it backwards meets every node after
    # its children; the root comes last, as the child of a slot past the
    # nodes. out[n] is n's one edge (symbol or EPS, state), or a list of
    # them when n has several; a stop adds (position on the cycle, accepts,
    # its edges as a frozenset key, its out entry) to its loop node's list
    nodes = len(at)
    out: list = [None] * (nodes + 1)
    first: dict = {}
    triples: list[tuple[int, str | None, int]] = []
    final: list[int] = []
    count = 0

    def write(source, kids):
        if kids.__class__ is tuple:
            triples.append((source, *kids))
        elif kids is not None:
            triples.extend([(source, label, state) for label, state in kids])

    for (parent, token), node in chain(reversed(child.items()), [((nodes, EPS), 0)]):
        kids = out[node]
        edges = frozenset(kids) if kids.__class__ is list else kids
        accepts = node in accepting
        if parent in stops:
            stops[parent].append((len(token), accepts, edges, kids))
            continue
        if token.__class__ is tuple:
            places = sorted(stops[node])
            key = (token, *((j, a, es) for j, a, es, _ in places))
            state = first.get(key)
            if state is None:
                state = first[key] = count
                loop = token[0]
                count += len(loop)
                triples += [(state + i, c, state + i + 1) for i, c in enumerate(loop[:-1])]
                triples.append((count - 1, loop[-1], state))
                for j, a, _, ks in places:
                    if a:
                        final.append(state + j)
                    write(state + j, ks)
            edge = (EPS, state)
        else:
            if not accepts and kids.__class__ is tuple and kids[0] is EPS:
                state = kids[1]
            else:
                state = first.get((accepts, edges))
                if state is None:
                    state = first[accepts, edges] = count
                    count += 1
                    if accepts:
                        final.append(state)
                    write(state, kids)
            edge = (token, state)
        siblings = out[parent]
        if siblings is None:
            out[parent] = edge
        elif siblings.__class__ is tuple:
            out[parent] = [siblings, edge]
        else:
            siblings.append(edge)
    # `state` is now the root's
    return state, frozenset(final), triples, count, embedded


def expr_to_nfa(e: BoundedExpr, alphabet) -> Nfa:
    """Recognizer of one bounded expression's language: `bounded_nfa` of
    the expression alone, which merges nothing, so one cycle per block,
    with the bridge read along it as far as it agrees, entered from the
    letter before it or, after a bridge that stops on the previous cycle,
    by an epsilon edge."""
    return bounded_nfa((e,), alphabet)


def verify_easy(f: Dfa, decomposition, envelope) -> None:
    """Check an easy certificate: the decomposition's union must equal the
    filter's language and the envelope's star product must include it.
    A decomposition with an empty loop word is rejected first.

    Equality is decided by one `separating_word` against the decomposition's
    `bounded_nfa`, whose merged subtries keep that pair search near the
    filter's size rather than the trie's: on (ab|ba)^k it reaches one pair
    per filter state. Every decomposition `classify` builds has a
    deterministic recognizer, which the search walks as a Dfa, with no
    epsilon-closed subsets; any other is walked as an Nfa. Given equality,
    the inclusion L(f) ⊆ w1* ... wn* follows when each expression's factors
    (prefix letters, then per block the loop word and the bridge letters)
    embed in order into the envelope: a factor may go to any word w it is
    a positive power of, since w* then holds every power of the factor, and
    the envelope index never moves backwards. The walk that builds the
    recognizer's trie places the factors too. Envelopes built by `classify`
    always embed. Only when some expression does not is the inclusion
    decided exactly, by a pair search over the filter and the star
    product's recognizer (`expr_to_nfa` of the envelope words as loops with
    empty bridges); the shortest filter word it misses is then reported.
    """
    for e in decomposition:
        for loop, _ in e.blocks:
            if not loop:
                raise CertificateError("decomposition contains an empty loop word")
    alphabet = f.alphabet
    recognizer, embedded = _recognizer(decomposition, alphabet, envelope)
    gap = separating_word(recognizer, f)
    if gap is not None:
        raise CertificateError(
            f"decomposition differs from the filter on {word_to_text(gap)!r}")
    alpha = set(alphabet)
    for word in envelope:
        if not word:
            raise CertificateError("envelope contains the empty word")
        _check_letters(word, alpha)
    if not embedded:
        star_product = BoundedExpr("", tuple((w, "") for w in envelope))
        leak = inclusion_counterexample(expr_to_nfa(star_product, alphabet), f)
        if leak is not None:
            raise CertificateError(
                f"envelope star product misses the filter word {word_to_text(leak)!r}")


# ---------------------------------------------------------------------------
# the classifier


def classify(f: Dfa) -> Classification:
    """Hard with a verified witness, or Easy with a verified decomposition
    and envelope. The empty language is easy with an empty certificate."""
    alphabet = f.alphabet
    rows, accepting, parent, via = _trim_rows(f)
    m = len(parent)
    succ = list(zip(*rows))[:m] if rows else [()] * m  # each id's successors
    comp = _components(succ)
    q = _pivot(succ, comp)
    if q >= 0:
        witness = _find_witness(alphabet, rows, accepting, parent, via, q)
        _replay_witness(alphabet, rows, accepting, witness)
        return Hard(witness)
    ft = _rows_dfa(alphabet, rows, accepting)
    cond = _condensation(succ, comp, range(m))
    exprs = _easy_exprs(ft, cond)
    envelope_words = _envelope_of(exprs)
    verify_easy(ft, exprs, envelope_words)
    return Easy(exprs, envelope_words)


# ---------------------------------------------------------------------------
# certificate text
#
#   hard q=<id> p=<word|-> u=<word> v=<word> s=<word|->
# or
#   easy
#   expr p=<word|-> blocks=(x,y);(x,y);...
#   envelope w1 w2 ...


def classification_to_text(c: Classification) -> str:
    if isinstance(c, Hard):
        w = c.witness
        return (f"hard q={w.state} p={word_to_text(w.access)}"
                f" u={w.cycle_a} v={w.cycle_b}"
                f" s={word_to_text(w.exit_word)}\n")
    lines = ["easy"]
    for e in c.decomposition:
        blocks = ";".join(f"({x},{word_to_text(y)})" for x, y in e.blocks)
        lines.append(f"expr p={word_to_text(e.prefix)} blocks={blocks}")
    lines.append(" ".join(["envelope", *c.envelope]).rstrip())
    return "\n".join(lines) + "\n"


def _field(tok: str, key: str, no: int) -> str:
    if not tok.startswith(key + "="):
        raise FormatError(f"expected `{key}=...`, got `{tok}`", no)
    return tok[len(key) + 1:]


def _word(tok: str, no: int) -> str:
    """The word a token spells, `-` for the empty word; each of its letters
    must be a symbol of the machine formats (`_check_symbol`)."""
    word = word_from_text(tok)
    for c in word:
        _check_symbol(c, no)
    return word


def classification_from_text(text: str) -> Classification:
    lines = _logical_lines(text)
    no, toks = next(lines, (None, None))
    if toks is None:
        raise FormatError("empty certificate")
    kind = toks[0].lower()
    if kind == "hard":
        if len(toks) != 6:
            raise FormatError("want `hard q=<id> p=<word> u=<word> v=<word> s=<word>`", no)
        state = _field(toks[1], "q", no)
        if not _is_number(state):
            raise FormatError(f"bad state id {state!r}", no)
        return Hard(HardnessWitness(
            int(state),
            _word(_field(toks[2], "p", no), no),
            _word(_field(toks[3], "u", no), no),
            _word(_field(toks[4], "v", no), no),
            _word(_field(toks[5], "s", no), no),
        ))
    if kind != "easy":
        raise FormatError(f"unknown certificate kind `{toks[0]}`", no)
    if len(toks) > 1:
        raise FormatError("unexpected tokens after header", no)
    exprs: list[BoundedExpr] = []
    envelope_words: tuple[str, ...] | None = None
    for no, toks in lines:
        if toks[0] == "expr":
            if envelope_words is not None:
                raise FormatError("expr line after envelope line", no)
            if len(toks) != 3:
                raise FormatError("want `expr p=<word> blocks=...`", no)
            prefix = _word(_field(toks[1], "p", no), no)
            blocks_text = _field(toks[2], "blocks", no)
            blocks: list[tuple[str, str]] = []
            if blocks_text:
                for piece in blocks_text.split(";"):
                    if not (piece.startswith("(") and piece.endswith(")")
                            and piece.count(",") == 1):
                        raise FormatError(f"bad block `{piece}`", no)
                    x, y = piece[1:-1].split(",")
                    blocks.append((_word(x, no), _word(y, no)))
            exprs.append(BoundedExpr(prefix, tuple(blocks)))
        elif toks[0] == "envelope":
            if envelope_words is not None:
                raise FormatError("duplicate envelope line", no)
            for c in "".join(toks[1:]):
                _check_symbol(c, no)
            envelope_words = tuple(toks[1:])
        else:
            raise FormatError(f"unexpected `{toks[0]}` in certificate", no)
    if envelope_words is None:
        raise FormatError("easy certificate is missing its envelope line")
    return Easy(tuple(exprs), envelope_words)
