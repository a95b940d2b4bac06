"""Shared test plumbing: independent brute-force oracles and seeded
generators. The simulators here are written from the definitions, not via
the library's constructions, so they can serve as cross-checks."""

import itertools
import random
import sys
from collections import deque
from itertools import chain

from rrkit import (
    EPS,
    AlphabetError,
    BoundedExpr,
    CertificateError,
    ClassificationMismatch,
    Condensation,
    CoverPlan,
    Dfa,
    Dfst,
    Easy,
    Hard,
    HardnessWitness,
    Nfa,
    canonical_dfa,
    canonical_nfa,
    classification_to_text,
    classify,
    complement,
    compose_dfst,
    condense,
    determinize,
    empty_dfa,
    merge_alphabets,
    normalize_witness,
    primitive_root,
    product_intersect,
    run,
    run_nfa,
    separating_word,
    shortest_word,
    trim,
    universal_dfa,
    verify_witness,
)
from rrkit.automata import (
    FormatError,
    _closure,
    _index,
    _is_number,
    _kw_line,
    _parse_alphabet,
    _section,
    _subset_step,
    word_from_text,
    word_to_text,
)
from rrkit.cover import plan_cover
from rrkit.transducer import _feed
from rrkit.classify import _easy_exprs


def words_upto(alphabet, n):
    """All words over `alphabet` of length 0..n, shortest first."""
    for k in range(n + 1):
        for tup in itertools.product(alphabet, repeat=k):
            yield "".join(tup)


def naive_dfa_accepts(d: Dfa, word: str) -> bool:
    q = d.initial
    for c in word:
        q = d.transitions.get((q, c))
        if q is None:
            return False
    return q in d.accepting


def naive_nfa_accepts(n: Nfa, word: str) -> bool:
    eps = {}
    moves = {}
    for q, sym, t in n.transitions:
        if sym is None:
            eps.setdefault(q, set()).add(t)
        else:
            moves.setdefault((q, sym), set()).add(t)

    def close(states):
        seen = set(states)
        stack = list(states)
        while stack:
            q = stack.pop()
            for t in eps.get(q, ()):
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return seen

    cur = close(n.initial)
    for c in word:
        nxt = set()
        for q in cur:
            nxt |= moves.get((q, c), set())
        cur = close(nxt)
    return bool(cur & n.accepting)


def accepts(machine, word: str) -> bool:
    if isinstance(machine, Dfa):
        return naive_dfa_accepts(machine, word)
    return naive_nfa_accepts(machine, word)


def lang_upto(machine, n) -> set:
    alphabet = machine.alphabet
    return {w for w in words_upto(alphabet, n) if accepts(machine, w)}


def naive_apply(t: Dfst, x: str):
    """Transduce by stepping the definition directly; None if undefined."""
    q = t.initial
    out = []
    for c in x:
        tr = t.transitions.get((q, c))
        if tr is None:
            return None
        emitted, q = tr
        out.append(emitted)
    if q not in t.accepting:
        return None
    return "".join(out) + t.final_output.get(q, "")


def image_member(t: Dfst, a: Dfa, y: str) -> bool:
    """Does the image of L(a) under t contain y? BFS over configurations
    (transducer state, automaton state, matched length of y)."""
    start = (t.initial, a.initial, 0)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for qt, qa, i in frontier:
            if qt in t.accepting and qa in a.accepting:
                if y[i:] == t.final_output.get(qt, ""):
                    return True
            for sym in a.alphabet:
                qa2 = a.transitions.get((qa, sym))
                tr = t.transitions.get((qt, sym))
                if qa2 is None or tr is None:
                    continue
                out, qt2 = tr
                if y[i:i + len(out)] != out:
                    continue
                conf = (qt2, qa2, i + len(out))
                if conf not in seen:
                    seen.add(conf)
                    nxt.append(conf)
        frontier = nxt
    return False


# ---------------------------------------------------------------------------
# exhaustive machine enumeration (small alphabets, small state counts)


def enumerate_dfas(n, alphabet=("a", "b")):
    """Every partial-transition machine on states 0..n-1 with initial 0."""
    slots = [(q, s) for q in range(n) for s in alphabet]
    targets = list(range(n)) + [None]
    for accepting_bits in range(2 ** n):
        accepting = frozenset(i for i in range(n) if accepting_bits >> i & 1)
        for combo in itertools.product(targets, repeat=len(slots)):
            trans = {slot: t for slot, t in zip(slots, combo) if t is not None}
            yield Dfa(tuple(alphabet), frozenset(range(n)), 0, accepting, trans)


def is_trim_already(d: Dfa) -> bool:
    fwd = {}
    back = {}
    for (q, _), t in d.transitions.items():
        fwd.setdefault(q, set()).add(t)
        back.setdefault(t, set()).add(q)

    def sweep(seeds, adj):
        seen = set(seeds)
        stack = list(seeds)
        while stack:
            q = stack.pop()
            for t in adj.get(q, ()):
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return seen

    reach = sweep({d.initial}, fwd)
    co = sweep(set(d.accepting), back)
    live = reach & co
    if live == d.states:
        return True
    # the canonical empty machine counts as trim
    return not d.accepting and not d.transitions and len(d.states) == 1


def trim_dfas_upto(max_states, alphabet=("a", "b")):
    for n in range(1, max_states + 1):
        for d in enumerate_dfas(n, alphabet):
            if is_trim_already(d):
                yield d


def bfs_reachable_oracle(g) -> bool:
    """Plain graph search deciding whether the target node is reachable."""
    adj = {}
    for u, v in g.edges:
        adj.setdefault(u, set()).add(v)
    seen = {g.source}
    stack = [g.source]
    while stack:
        u = stack.pop()
        for v in adj.get(u, ()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return g.target in seen


def oracle_noncommuting_cycles(d: Dfa) -> bool:
    """Brute force: some state carries two cycle labels, each of length at
    most 2·|states|, that do not commute."""
    bound = 2 * len(d.states)
    for q in sorted(d.states):
        cycles = [w for w in words_upto(d.alphabet, bound) if w and d.walk(q, w) == q]
        for c1, c2 in itertools.combinations(cycles, 2):
            if c1 + c2 != c2 + c1:
                return True
    return False


# ---------------------------------------------------------------------------
# seeded random generators


def random_dfa(rng: random.Random, n, alphabet=("a", "b"),
               density=0.8, accept_prob=0.5) -> Dfa:
    trans = {}
    for q in range(n):
        for sym in alphabet:
            if rng.random() < density:
                trans[(q, sym)] = rng.randrange(n)
    accepting = frozenset(q for q in range(n) if rng.random() < accept_prob)
    return Dfa(tuple(alphabet), frozenset(range(n)), 0, accepting, trans)


def random_nfa(rng: random.Random, n, alphabet=("a", "b"),
               edge_count=None, eps_prob=0.2) -> Nfa:
    if edge_count is None:
        edge_count = 2 * n
    triples = set()
    for _ in range(edge_count):
        sym = None if rng.random() < eps_prob else rng.choice(alphabet)
        triples.add((rng.randrange(n), sym, rng.randrange(n)))
    initial = frozenset(rng.sample(range(n), k=max(1, rng.randrange(1, n + 1) // 2)))
    accepting = frozenset(q for q in range(n) if rng.random() < 0.5)
    return Nfa(tuple(alphabet), frozenset(range(n)), initial, accepting,
               tuple(sorted(triples, key=repr)))


def random_dfst(rng: random.Random, n, in_alphabet=("a", "b"),
                out_alphabet=("a", "b"), density=0.8, max_out=2,
                min_out=0, final_prob=0.3) -> Dfst:
    trans = {}
    for q in range(n):
        for sym in in_alphabet:
            if rng.random() < density:
                length = rng.randint(min_out, max_out)
                out = "".join(rng.choice(out_alphabet) for _ in range(length))
                trans[(q, sym)] = (out, rng.randrange(n))
    accepting = frozenset(q for q in range(n) if rng.random() < 0.5)
    final_output = {}
    for q in accepting:
        if rng.random() < final_prob:
            length = rng.randint(1, max_out)
            final_output[q] = "".join(rng.choice(out_alphabet) for _ in range(length))
    return Dfst(tuple(in_alphabet), tuple(out_alphabet), frozenset(range(n)), 0,
                accepting, trans, final_output)


def dfa_as_nfa(d: Dfa) -> Nfa:
    """d as an Nfa with the same states and transitions."""
    triples = tuple((q, sym, t) for (q, sym), t in sorted(d.transitions.items()))
    return Nfa(d.alphabet, d.states, frozenset({d.initial}), d.accepting, triples)


def widen_dfa(d: Dfa, alphabet) -> Dfa:
    """d over a larger alphabet; the new symbols have no transitions."""
    alphabet = tuple(alphabet)
    if not set(d.alphabet) <= set(alphabet):
        raise AlphabetError("cannot widen: target alphabet drops symbols")
    if alphabet == d.alphabet:
        return d
    return Dfa(alphabet, d.states, d.initial, d.accepting, dict(d.transitions))


def widen_nfa(n: Nfa, alphabet) -> Nfa:
    """n over a larger alphabet; the new symbols have no transitions."""
    alphabet = tuple(alphabet)
    if not set(n.alphabet) <= set(alphabet):
        raise AlphabetError("cannot widen: target alphabet drops symbols")
    if alphabet == n.alphabet:
        return n
    return Nfa(alphabet, n.states, n.initial, n.accepting, n.transitions)


# ---------------------------------------------------------------------------
# reference language comparison: the full-product pipelines the library ran
# before its on-the-fly pair search (determinize, complement, product, then
# a subset BFS), kept as differential oracles for that search


def oracle_inclusion_counterexample(sup: Dfa, sub: Nfa):
    """Shortest word of L(sub) outside L(sup), or None."""
    alpha = merge_alphabets(sup.alphabet, sub.alphabet)
    bad = product_intersect(widen_nfa(sub, alpha),
                            dfa_as_nfa(complement(widen_dfa(sup, alpha))))
    return shortest_word(bad)


def oracle_separating_word(a: Nfa, b: Nfa):
    """Shortest word accepted by exactly one machine, or None."""
    alpha = merge_alphabets(a.alphabet, b.alphabet)
    da = determinize(widen_nfa(a, alpha))
    db = determinize(widen_nfa(b, alpha))
    in_a = oracle_inclusion_counterexample(db, dfa_as_nfa(da))
    in_b = oracle_inclusion_counterexample(da, dfa_as_nfa(db))
    if in_a is None:
        return in_b
    if in_b is None:
        return in_a
    return min((in_a, in_b), key=lambda w: (len(w), w))


def oracle_solve_rr(filter_dfa: Dfa, a: Dfa):
    """Shortest word in L(a) ∩ L(filter), or None."""
    alpha = merge_alphabets(filter_dfa.alphabet, a.alphabet)
    meet = product_intersect(dfa_as_nfa(widen_dfa(filter_dfa, alpha)),
                             dfa_as_nfa(widen_dfa(a, alpha)))
    return shortest_word(meet)


def oracle_solve_rr_nfa(filter_nfa: Nfa, a: Nfa):
    alpha = merge_alphabets(filter_nfa.alphabet, a.alphabet)
    meet = product_intersect(widen_nfa(filter_nfa, alpha), widen_nfa(a, alpha))
    return shortest_word(meet)


def oracle_cover_gap(t: Dfst, f: Dfa, r: Dfa):
    """None when image(t over f) equals L(r), else a separating word
    tagged "image" or "target"; the image side wins ties."""
    image = oracle_image_nfa(t, f)
    alpha = merge_alphabets(image.alphabet, r.alphabet)
    image_dfa = determinize(widen_nfa(image, alpha))
    target_dfa = widen_dfa(r, alpha)
    extra = oracle_inclusion_counterexample(target_dfa, dfa_as_nfa(image_dfa))
    missing = oracle_inclusion_counterexample(image_dfa, dfa_as_nfa(target_dfa))
    if extra is None and missing is None:
        return None
    if missing is None or (extra is not None and (len(extra), extra) <= (len(missing), missing)):
        return extra, "image"
    return missing, "target"


# ---------------------------------------------------------------------------
# reference pair search: the word-per-pair search the library ran before its
# integer successor rows and parent links, kept verbatim as a differential
# oracle for `rrkit.automata._pair_search` (same arguments, same result)


def _oracle_side(m: Dfa | Nfa):
    """(start, step, accepts) for one side of a pair search. A Dfa side is
    a state; an Nfa side is an epsilon-closed subset whose successors are
    memoised per (subset, symbol). None marks a dead side."""
    if isinstance(m, Dfa):
        trans = m.transitions
        return m.initial, lambda q, sym: trans.get((q, sym)), m.accepting.__contains__
    eps, moves = _index(m)
    memo: dict[tuple[frozenset[int], str], frozenset[int] | None] = {}

    def step(subset, sym):
        key = (subset, sym)
        try:
            return memo[key]
        except KeyError:
            target = memo[key] = _subset_step(subset, sym, eps, moves) or None
            return target

    accepting = m.accepting
    return (_closure(m.initial, eps) or None, step,
            lambda subset: not accepting.isdisjoint(subset))


def oracle_pair_search(a: Dfa | Nfa, b: Dfa | Nfa, alphabet, mode) -> tuple[str | None, ...]:
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
    a_start, a_step, a_accepts = _oracle_side(a)
    b_start, b_step, b_accepts = _oracle_side(b)
    need_a = all(x for x, _ in mode)
    need_b = all(y for _, y in mode)
    found: list[str | None] = [None] * len(mode)
    hit = False

    def visit(p, q, word: str) -> None:
        nonlocal hit
        slot = mode.get((p is not None and a_accepts(p), q is not None and b_accepts(q)))
        if slot is not None:
            hit = True
            if found[slot] is None:
                found[slot] = word

    visit(a_start, b_start, "")
    seen = {(a_start, b_start)}
    level = [(a_start, b_start, "")]
    while level and not hit:
        nxt = []
        for p, q, word in level:
            for sym in alphabet:
                tp = None if p is None else a_step(p, sym)
                tq = None if q is None else b_step(q, sym)
                if (tp is None and (need_a or tq is None)) or (tq is None and need_b):
                    continue
                pair = (tp, tq)
                if pair in seen:
                    continue
                seen.add(pair)
                grown = word + sym
                visit(tp, tq, grown)
                if None not in found:
                    return tuple(found)
                nxt.append((tp, tq, grown))
        level = nxt
    return tuple(found)


# ---------------------------------------------------------------------------
# reference classifier: the per-state witness search and the star-product
# envelope check as the library first ran them, kept as differential
# oracles for the structural fast paths in rrkit.classify


def _oracle_cycle_nfa(d: Dfa, q: int, component) -> Nfa:
    """All words looping at q while staying inside q's component."""
    triples = tuple(
        (src, sym, dst)
        for (src, sym), dst in sorted(d.transitions.items())
        if src in component and dst in component
    )
    return Nfa(d.alphabet, frozenset(component), frozenset({q}),
               frozenset({q}), triples)


def _oracle_power_dfa(x: str, alphabet) -> Dfa:
    """Machine for x*: a cycle of |x| states reading x."""
    n = len(x)
    transitions = {(i, x[i]): (i + 1) % n for i in range(n)}
    return Dfa(tuple(alphabet), frozenset(range(n)), 0, frozenset({0}), transitions)


# the word searches the classifier ran before it searched the whole trimmed
# machine, kept verbatim (the cycle search stays inside q's component) so
# that the oracle shares no code with what it checks


def _oracle_shortest_path_word(d: Dfa, starts, goals) -> str | None:
    """Shortest word from a start into `goals`; "" when a start is a goal."""
    goals = set(goals)
    for q in sorted(starts):
        if q in goals:
            return ""
    seen = set(starts)
    queue = deque((q, "") for q in sorted(starts))
    while queue:
        q, word = queue.popleft()
        for sym in d.alphabet:
            t = d.transitions.get((q, sym))
            if t is None or t in seen:
                continue
            if t in goals:
                return word + sym
            seen.add(t)
            queue.append((t, word + sym))
    return None


def _oracle_shortest_cycle(d: Dfa, q: int, component) -> str:
    """Shortest nonempty word looping at q without leaving its component."""
    queue = deque([(q, "")])
    seen = set()
    while queue:
        cur, word = queue.popleft()
        for sym in d.alphabet:
            t = d.transitions.get((cur, sym))
            if t is None or t not in component:
                continue
            if t == q:
                return word + sym
            if t not in seen:
                seen.add(t)
                queue.append((t, word + sym))
    raise CertificateError("state in a cycle-bearing component has no cycle")


def oracle_find_witness(ft: Dfa):
    """One regular-inclusion check per cycle-bearing state of the trimmed
    machine: is every cycle at q a power of its shortest cycle's root?"""
    cond = condense(ft)
    for q in sorted(ft.states):
        comp_idx = cond.scc_of[q]
        if not cond.nontrivial[comp_idx]:
            continue
        component = cond.components[comp_idx]
        u0 = _oracle_shortest_cycle(ft, q, component)
        x = primitive_root(u0)
        v0 = oracle_inclusion_counterexample(_oracle_power_dfa(x, ft.alphabet),
                                             _oracle_cycle_nfa(ft, q, component))
        if v0 is None:
            continue
        cycle_a, cycle_b = normalize_witness(u0, v0)
        access = _oracle_shortest_path_word(ft, {ft.initial}, {q})
        exit_word = _oracle_shortest_path_word(ft, {q}, ft.accepting)
        return HardnessWitness(q, access, cycle_a, cycle_b, exit_word)
    return None


def _oracle_star_product_nfa(words, alphabet) -> Nfa:
    """Recognizer of w1* w2* ... wn* (the empty product is {empty word})."""
    alphabet = tuple(alphabet)
    triples = []
    count = 1
    anchor = 0
    for word in words:
        back = anchor
        for c in word[:-1]:
            triples.append((back, c, count))
            back = count
            count += 1
        triples.append((back, word[-1], anchor))
        triples.append((anchor, None, count))
        anchor = count
        count += 1
    raw = Nfa(alphabet, frozenset(range(count)), frozenset({0}),
              frozenset({anchor}), tuple(triples))
    return canonical_nfa(raw)


def nfa_union(parts, alphabet) -> Nfa:
    """Union via a fresh initial state with epsilon edges into each part."""
    alphabet = tuple(alphabet)
    states = {0}
    initial = {0}
    accepting: set[int] = set()
    triples: list[tuple[int, str | None, int]] = []
    base = 1
    for part in parts:
        if not set(part.alphabet) <= set(alphabet):
            raise AlphabetError("union part uses symbols outside the target alphabet")
        remap = {q: base + k for k, q in enumerate(sorted(part.states))}
        base += len(remap)
        states.update(remap.values())
        for q in sorted(part.initial):
            triples.append((0, EPS, remap[q]))
        accepting.update(remap[q] for q in part.accepting)
        triples.extend((remap[q], sym, remap[t]) for q, sym, t in part.transitions)
    return Nfa(alphabet, frozenset(states), frozenset(initial),
               frozenset(accepting), tuple(triples))


def oracle_expr_to_nfa(e: BoundedExpr, alphabet) -> Nfa:
    """Recognizer of one bounded expression, built on its own: a chain
    reading the prefix, then per block a loop reading x hung on the chain's
    current state and the chain reading y. After an empty bridge the chain
    first steps to a fresh state by an epsilon edge, so that two loops never
    share a state."""
    alphabet = tuple(alphabet)
    alpha = set(alphabet)
    for word in [e.prefix, *(w for block in e.blocks for w in block)]:
        for c in word:
            if c not in alpha:
                raise AlphabetError(f"symbol {c!r} not in the alphabet")
    triples: list[tuple[int, str | None, int]] = []
    count = 0

    def fresh() -> int:
        nonlocal count
        count += 1
        return count - 1

    def chain(src: int, word: str) -> int:
        for c in word:
            nxt = fresh()
            triples.append((src, c, nxt))
            src = nxt
        return src

    cur = fresh()
    start = cur
    cur = chain(cur, e.prefix)
    looped = None  # the state carrying the last loop
    for loop, bridge in e.blocks:
        if not loop:
            raise ValueError("loop word of a bounded expression must be nonempty")
        if cur == looped:
            nxt = fresh()
            triples.append((cur, EPS, nxt))
            cur = nxt
        back = chain(cur, loop[:-1])
        triples.append((back, loop[-1], cur))
        looped = cur
        cur = chain(cur, bridge)
    return Nfa(alphabet, frozenset(range(count)), frozenset({start}),
               frozenset({cur}), tuple(triples))


def oracle_union_nfa(decomposition, alphabet) -> Nfa:
    """The decomposition's recognizer built apart from `bounded_nfa`: the
    union of one chain per expression, sharing no states."""
    return nfa_union([oracle_expr_to_nfa(e, alphabet) for e in decomposition], alphabet)


# `bounded_nfa` as it was before bridges were read along their loop's cycle:
# each loop node hangs off its parent by an epsilon edge and each bridge is a
# letter chain of its own, so the recognizer of a DFA's decomposition is an
# Nfa; kept verbatim as the reference for the deterministic construction
def oracle_bounded_nfa(exprs, alphabet) -> Nfa:
    """Recognizer of a union of bounded expressions: the trie over their
    tokens, which are the prefix letters, then per block a loop and its
    bridge letters, with equal subtries merged.

    In the trie a letter is an edge to a child node; a loop is an epsilon
    edge to a child node that carries a cycle reading the loop word, so no
    node carries two loops (x1* x2* is not (x1|x2)*). Expressions that
    share a token prefix share its nodes, and the node where an
    expression's tokens end accepts. Then one pass from the last node back
    to the root merges each node into the first equal one it has seen (the
    acyclic-automaton minimisation of Revuz and of Daciuk et al.): two
    nodes are equal when they agree on acceptance, on the loop token
    entering them, if any, and on their tokens to their merged children.
    Matching the entering loop keeps a cycle off every node a letter
    enters: x y* z and w z share the node after z, but not the node before
    it, so w y z stays rejected. Only the kept nodes get states, edges and
    cycles, so expressions that share a suffix share its states; a single
    expression has no two equal nodes and stays a chain."""
    alphabet = tuple(alphabet)
    alpha = set(alphabet)
    child: dict[tuple[int, str | tuple[str]], int] = {}
    accepting: set[int] = set()
    count = 1
    for e in exprs:
        for word in [e.prefix, *(w for block in e.blocks for w in block)]:
            if not alpha.issuperset(word):
                bad = next(c for c in word if c not in alpha)
                raise AlphabetError(f"symbol {bad!r} not in the alphabet")
        # a loop token is a 1-tuple, so the loop `a` and the letter `a` differ
        tokens: list[str | tuple[str]] = list(e.prefix)
        for loop, bridge in e.blocks:
            if not loop:
                raise ValueError("loop word of a bounded expression must be nonempty")
            tokens.append((loop,))
            tokens.extend(bridge)
        cur = 0
        for token in tokens:
            nxt = child.get((cur, token))
            if nxt is None:
                nxt = child[cur, token] = count
                count += 1
            cur = nxt
        accepting.add(cur)
    # the trie numbers a node after its parent, and `child` holds one entry
    # per node in that order, so reading it backwards meets every node after
    # its children; the root comes last, as the child of a slot past the
    # nodes. out[n] is n's one edge (symbol or EPS, merged child), or a list
    # of them when n has several
    nodes = count
    out: list = [None] * (nodes + 1)
    first: dict = {}
    triples: list[tuple[int, str | None, int]] = []
    for (parent, token), node in chain(reversed(child.items()), [((nodes, EPS), 0)]):
        kids = out[node]
        loop = token if token.__class__ is tuple else None
        edges = frozenset(kids) if kids.__class__ is list else kids
        kept = first.setdefault((node in accepting, loop, edges), node)
        if kept == node:
            if kids.__class__ is tuple:
                label, kid = kids
                triples.append((node, label, kid))
            elif kids is not None:
                triples.extend([(node, label, kid) for label, kid in kids])
            if loop is not None:
                back = node
                for c in loop[0][:-1]:
                    triples.append((back, c, count))
                    back = count
                    count += 1
                triples.append((back, loop[0][-1], node))
        edge = (EPS if loop else token, kept)
        siblings = out[parent]
        if siblings is None:
            out[parent] = edge
        elif siblings.__class__ is tuple:
            out[parent] = [siblings, edge]
        else:
            siblings.append(edge)
    kept_nodes = first.values()
    return Nfa(alphabet, frozenset([*kept_nodes, *range(nodes, count)]), frozenset({0}),
               frozenset(accepting.intersection(kept_nodes)), tuple(triples))


# `classify._factors`, `_envelope_of` and `_trie` as they were when each
# letter a bridge reads along its loop's cycle had a trie node of its own (an
# int step token) and the merge pass linked those nodes in an `along` list;
# kept verbatim as the reference for the construction that reads such a run
# as one token, and for the certificate text's envelope
def _oracle_factors(e: BoundedExpr) -> list[str]:
    """The prefix letters, then per block its loop word and bridge letters."""
    factors = list(e.prefix)
    for loop, bridge in e.blocks:
        factors.append(loop)
        factors.extend(bridge)
    return factors


def oracle_envelope_of(exprs) -> tuple[str, ...]:
    """Envelope factors: every expression's factors in expression order;
    consecutive duplicates merge (w* w* = w*)."""
    words: list[str] = []
    for e in exprs:
        for factor in _oracle_factors(e):
            if not words or words[-1] != factor:
                words.append(factor)
    return tuple(words)


def _oracle_check_letters(word: str, alpha: set[str]) -> None:
    """Raise AlphabetError naming the first letter of `word` outside `alpha`."""
    if not alpha.issuperset(word):
        bad = next(c for c in word if c not in alpha)
        raise AlphabetError(f"symbol {bad!r} not in the alphabet")


def oracle_trie(exprs, alphabet, envelope) -> tuple[int, frozenset[int], list, int, bool]:
    """`bounded_nfa`'s merged trie as (root state, accepting states,
    transition triples, state count), its states numbered 0, 1, ... as
    they are kept, and whether each expression's factors (`_oracle_factors`)
    embed in order into the envelope words: each goes to a word at or
    after the previous factor's of which it is a positive power. Greedy
    earliest choice finds such a placement whenever one exists, and the
    walk that inserts the tokens records at each new trie node the
    envelope position after its factors, so expressions that share a
    token prefix embed it once."""
    alpha = set(alphabet)
    # an empty envelope word is refused before the embedding is read
    words = tuple(envelope) if all(envelope) else ()
    child: dict[tuple[int, str | int | tuple[str]], int] = {}
    accepting: set[int] = set()
    at: list[int | None] = [0]  # envelope position after each node's factors, None if none
    embedded = True
    for e in exprs:
        for word in [e.prefix, *(w for block in e.blocks for w in block)]:
            _oracle_check_letters(word, alpha)
        # a loop token is a 1-tuple and a step along its cycle the int
        # position it reaches, so neither is mistaken for a letter; the
        # tokens line up with `_oracle_factors(e)`, a step with the letter it reads
        tokens: list[str | int | tuple[str]] = list(e.prefix)
        for loop, bridge in e.blocks:
            if not loop:
                raise ValueError("loop word of a bounded expression must be nonempty")
            k, stop = 0, min(len(loop) - 1, len(bridge))
            while k < stop and bridge[k] == loop[k]:
                k += 1
            tokens += [(loop,), *range(1, k + 1), *bridge[k:]]
        cur = 0
        for token, factor in zip(tokens, _oracle_factors(e)):
            nxt = child.get((cur, token))
            if nxt is None:
                nxt = child[cur, token] = len(at)
                i = at[cur]
                if i is not None:
                    while i < len(words):
                        if words[i] * (len(factor) // len(words[i])) == factor:
                            break
                        i += 1
                    else:
                        i = None
                at.append(i)
            cur = nxt
        accepting.add(cur)
        embedded = embedded and at[cur] is not None
    # the trie numbers a node after its parent, and `child` holds one entry
    # per node in that order, so reading it backwards meets every node after
    # its children; the root comes last, as the child of a slot past the
    # nodes. out[n] is n's one edge (symbol or EPS, state), or a list of
    # them when n has several. along[n] links, for a loop node or a step
    # node n, the later positions on n's cycle where a bridge stops or goes
    # on: (position, accepts, its edges as a frozenset key, its out entry,
    # the next link)
    nodes = len(at)
    out: list = [None] * (nodes + 1)
    along: list = [None] * (nodes + 1)
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
        if token.__class__ is int:
            along[parent] = (along[node] if kids is None and not accepts
                             else (token, accepts, edges, kids, along[node]))
            continue
        if token.__class__ is tuple:
            stops = [(0, accepts, edges, kids)]
            step = along[node]
            while step is not None:
                stops.append(step[:4])
                step = step[4]
            key = (token, *((j, a, es) for j, a, es, _ in stops))
            state = first.get(key)
            if state is None:
                state = first[key] = count
                loop = token[0]
                count += len(loop)
                triples += [(state + i, c, state + i + 1) for i, c in enumerate(loop[:-1])]
                triples.append((count - 1, loop[-1], state))
                for j, a, _, ks in stops:
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


def oracle_verify_easy(f: Dfa, decomposition, envelope) -> None:
    """Decomposition equivalence, then envelope inclusion decided exactly by
    determinizing the envelope's star product."""
    alphabet = f.alphabet
    gap = oracle_separating_word(oracle_union_nfa(decomposition, alphabet), dfa_as_nfa(f))
    if gap is not None:
        raise CertificateError(
            f"decomposition differs from the filter on {word_to_text(gap)!r}")
    for c in "".join(envelope):
        if c not in alphabet:
            raise AlphabetError(f"symbol {c!r} not in the alphabet")
    env_dfa = determinize(_oracle_star_product_nfa(envelope, alphabet))
    leak = oracle_inclusion_counterexample(env_dfa, dfa_as_nfa(f))
    if leak is not None:
        raise CertificateError(
            f"envelope star product misses the filter word {word_to_text(leak)!r}")
    for e in decomposition:
        for loop, _ in e.blocks:
            if not loop:
                raise CertificateError("decomposition contains an empty loop word")


def oracle_classification_text(f: Dfa) -> str:
    """Certificate text built with the reference witness search, the
    reference envelope words and the reference envelope check."""
    ft = trim(f)
    witness = oracle_find_witness(ft)
    if witness is not None:
        verify_witness(ft, witness)
        return classification_to_text(Hard(witness))
    exprs = _easy_exprs(ft, condense(ft))
    words = oracle_envelope_of(exprs)
    oracle_verify_easy(ft, exprs, words)
    return classification_to_text(Easy(exprs, words))


def outcome(fn, *args):
    """None when fn(*args) returns, else the raised exception's type name
    and message."""
    try:
        fn(*args)
    except Exception as exc:  # noqa: BLE001 - the comparison wants every kind
        return type(exc).__name__, str(exc)
    return None


# ---------------------------------------------------------------------------
# filter shapes: rings, diamonds and planted-hard machines


def ring_filter(rng: random.Random, n, accepts, alphabet=("a", "b")) -> Dfa:
    """One simple n-cycle with `accepts` accepting states (at most n)."""
    word = [rng.choice(alphabet) for _ in range(n)]
    trans = {(q, word[q]): (q + 1) % n for q in range(n)}
    accepting = frozenset(rng.sample(range(n), accepts))
    return Dfa(tuple(alphabet), frozenset(range(n)), 0, accepting, trans)


def diamond_filter(k, loop_at=None) -> Dfa:
    """k two-way branches in a chain: hub i reads `ab` or `ba` through a
    middle state into hub i+1; only the last hub accepts. `loop_at`
    (hub index, branch) adds a self-loop on that middle state reading the
    letter that entered it."""
    trans = {}
    for i in range(k):
        for branch, (first, second) in enumerate(("ab", "ba")):
            mid = 3 * i + 1 + branch
            trans[(3 * i, first)] = mid
            trans[(mid, second)] = 3 * (i + 1)
    if loop_at is not None:
        i, branch = loop_at
        mid = 3 * i + 1 + branch
        trans[(mid, "ab"[branch])] = mid
    return Dfa(("a", "b"), frozenset(range(3 * k + 1)), 0, frozenset({3 * k}), trans)


def random_easy_filter(rng: random.Random, alphabet=("a", "b", "c"), parts=5, ring=5) -> Dfa:
    """An easy DFA of 1 to `parts` components in sequence, each a tail
    state or a ring of 1 to `ring` states reading a random word. Every
    state may exit, on a letter its ring does not read, to any state of a
    later component, so rings are entered and left at any of their
    states; each component has an edge into the next. A state accepts with
    probability 0.3, and the last component's first state always."""
    comps: list[list[int]] = []
    trans: dict[tuple[int, str], int] = {}
    count = 0
    for _ in range(rng.randint(1, parts)):
        size = rng.randint(1, ring) if rng.random() < 0.6 else 0
        states = list(range(count, count + max(size, 1)))
        count += len(states)
        for i, q in enumerate(states[:size]):
            trans[q, rng.choice(alphabet)] = states[(i + 1) % size]
        comps.append(states)
    for i, states in enumerate(comps[:-1]):
        later = [q for comp in comps[i + 1:] for q in comp]
        links = [(q, c) for q in states for c in alphabet if (q, c) not in trans]
        if not links:
            continue
        trans[rng.choice(links)] = comps[i + 1][0]
        for q, c in links:
            if (q, c) not in trans and rng.random() < 0.3:
                trans[q, c] = rng.choice(later)
    accepting = {q for q in range(count) if rng.random() < 0.3} | {comps[-1][0]}
    return Dfa(tuple(alphabet), frozenset(range(count)), 0, frozenset(accepting), trans)


def planted_hard_filter(rng: random.Random, n) -> Dfa:
    """Random complete DFA over {a, b} (n >= 2) in which an accepting state
    x, reachable from 0, carries an `a`-loop and a `bb`-cycle."""
    x, y = rng.sample(range(n), 2)
    trans = {(q, s): rng.randrange(n) for q in range(n) for s in "ab"}
    trans[(x, "a")] = x
    trans[(x, "b")] = y
    trans[(y, "b")] = x
    if 0 not in (x, y):
        trans[(0, "a")] = x
    accepting = frozenset({x} | {q for q in range(n) if rng.random() < 0.3})
    return Dfa(("a", "b"), frozenset(range(n)), 0, accepting, trans)


# ---------------------------------------------------------------------------
# reference trim and condense: the library's versions before trim numbered
# its states in its own pass and condense ran on int lists


def _oracle_reachable(seeds, adjacency) -> set[int]:
    seen = set(seeds)
    queue = deque(seeds)
    while queue:
        q = queue.popleft()
        for t in adjacency.get(q, ()):
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return seen


def oracle_trim(d: Dfa) -> Dfa:
    """Keep exactly the states both reachable from the initial state and
    co-reachable to an accepting one, renumbered canonically (certificates
    name them); an empty language collapses to the canonical one-state
    machine."""
    fwd: dict[int, list[int]] = {}
    back: dict[int, list[int]] = {}
    for (q, _), t in d.transitions.items():
        fwd.setdefault(q, []).append(t)
        back.setdefault(t, []).append(q)
    keep = _oracle_reachable({d.initial}, fwd) & _oracle_reachable(set(d.accepting), back)
    if d.initial not in keep:
        return empty_dfa(d.alphabet)
    transitions = {
        (q, sym): t
        for (q, sym), t in d.transitions.items()
        if q in keep and t in keep
    }
    return canonical_dfa(Dfa(d.alphabet, frozenset(keep), d.initial,
                             d.accepting & keep, transitions))


def oracle_condense(d: Dfa) -> Condensation:
    succ: dict[int, list[int]] = {q: [] for q in d.states}
    for (q, _), t in d.transitions.items():
        succ[q].append(t)

    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    components: list[frozenset[int]] = []
    counter = 0

    for root in d.states:
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            q, k = work[-1]
            if k == 0:
                index[q] = low[q] = counter
                counter += 1
                stack.append(q)
                on_stack.add(q)
            advanced = False
            while k < len(succ[q]):
                t = succ[q][k]
                k += 1
                if t not in index:
                    work[-1] = (q, k)
                    work.append((t, 0))
                    advanced = True
                    break
                if t in on_stack:
                    low[q] = min(low[q], index[t])
            if advanced:
                continue
            work.pop()
            if low[q] == index[q]:
                comp = set()
                while True:
                    t = stack.pop()
                    on_stack.discard(t)
                    comp.add(t)
                    if t == q:
                        break
                components.append(frozenset(comp))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[q])

    components.sort(key=min)
    scc_of = {q: i for i, comp in enumerate(components) for q in comp}
    internal = [False] * len(components)
    for (q, _), t in d.transitions.items():
        if scc_of[q] == scc_of[t]:
            internal[scc_of[q]] = True
    return Condensation(scc_of, tuple(components), tuple(internal))


# ---------------------------------------------------------------------------
# reference cover and counter solver: the library's first versions, kept as
# differential oracles


def oracle_two_pass_dfst_to_text(t: Dfst) -> str:
    """Two-pass serializer: renumber breadth-first into a new machine, then
    print it with its state ids and transitions sorted."""
    order = {t.initial: 0}
    queue = [t.initial]
    for q in queue:
        for sym in t.in_alphabet:
            tr = t.transitions.get((q, sym))
            if tr is not None and tr[1] not in order:
                order[tr[1]] = len(order)
                queue.append(tr[1])
    idx = {sym: k for k, sym in enumerate(t.in_alphabet)}
    transitions = [((order[q], sym), (out, order[dst]))
                   for (q, sym), (out, dst) in t.transitions.items() if q in order]
    transitions.sort(key=lambda e: (e[0][0], idx[e[0][1]]))
    final = sorted((order[q], out) for q, out in t.final_output.items() if q in order and out)
    lines = [
        "dfst",
        " ".join(["in_alphabet", *t.in_alphabet]),
        " ".join(["out_alphabet", *t.out_alphabet]),
        " ".join(["states", *map(str, sorted(order.values()))]),
        "initial 0",
        " ".join(["accept", *map(str, sorted(order[q] for q in t.accepting if q in order))]),
    ]
    lines += [f"trans {q} {sym} {word_to_text(out)} {dst}" for (q, sym), (out, dst) in transitions]
    lines += [f"final {q} {word_to_text(out)}" for q, out in final]
    return "\n".join(lines) + "\n"


def oracle_dfst_to_text(t: Dfst) -> str:
    """The breadth-first writer that `dfst_to_text` replaced by one pass:
    text of t with its states renumbered in breadth-first order over
    input symbols in alphabet order; unreachable states are dropped. Each
    state's lines are written as it is dequeued, which is already the
    sorted order."""
    order = {t.initial: 0}
    queue = deque([t.initial])
    accepting: list[str] = []
    trans_lines: list[str] = []
    final_lines: list[str] = []
    while queue:
        q = queue.popleft()
        i = order[q]
        if q in t.accepting:
            accepting.append(str(i))
            out = t.final_output.get(q)
            if out:
                final_lines.append(f"final {i} {word_to_text(out)}")
        for sym in t.in_alphabet:
            tr = t.transitions.get((q, sym))
            if tr is None:
                continue
            out, dst = tr
            j = order.get(dst)
            if j is None:
                j = order[dst] = len(order)
                queue.append(dst)
            trans_lines.append(f"trans {i} {sym} {word_to_text(out)} {j}")
    lines = [
        "dfst",
        _kw_line("in_alphabet", t.in_alphabet),
        _kw_line("out_alphabet", t.out_alphabet),
        _kw_line("states", (str(q) for q in range(len(order)))),
        "initial 0",
        _kw_line("accept", accepting),
        *trans_lines,
        *final_lines,
    ]
    return "\n".join(lines) + "\n"


def oracle_image_within(t: Dfst, f: Dfa, r: Dfa) -> bool:
    """(a) image(t over f) ⊆ L(r), decided exactly: the exact oracle for
    the soundness of `cover._image_within`'s pass, which may say False
    where this says True but never True where this says False. Walks the
    reachable triples of t, f and r states, r following t's output; a
    missing r transition is a dead, rejecting state (None), which is
    kept, not pruned. False when some triple has t and f accepting while
    r rejects after the final output."""
    t_trans, f_trans, r_trans = t.transitions, f.transitions, r.transitions
    t_accepting, f_accepting = t.accepting, f.accepting
    start = (t.initial, f.initial, r.initial)
    seen = {start}
    stack = [start]
    while stack:
        qt, qf, qr = stack.pop()
        if qt in t_accepting and qf in f_accepting \
                and r.walk(qr, t.final_output.get(qt, "")) not in r.accepting:
            return False
        for sym in f.alphabet:
            tr = t_trans.get((qt, sym))
            qf2 = f_trans.get((qf, sym))
            if tr is None or qf2 is None:
                continue
            out, qt2 = tr
            qr2 = qr
            for c in out:
                qr2 = r_trans.get((qr2, c))  # (None, c) is no key: dead stays dead
            triple = (qt2, qf2, qr2)
            if triple not in seen:
                seen.add(triple)
                stack.append(triple)
    return True


def oracle_inverse_reaches(t: Dfst, f: Dfa, r: Dfa, plan: CoverPlan) -> bool:
    """`cover._inverse_reaches` before it walked each code through f once
    per f state: (b) L(r) ⊆ image(t over f) by the right inverse
    e(w) = access · code(w) · stop word, each code walked through f at
    every reached (r, t, f) state."""
    codes = {letter: "".join(plan.one_word if bit == "1" else plan.zero_word for bit in bits)
             for letter, bits in plan.letter_codes}
    access = plan.witness.access
    fed = _feed(t, t.initial, access)
    qf = f.walk(f.initial, access)
    if fed is None or fed[0] or qf is None:
        return False
    stop = plan.stop_word
    start = (r.initial, fed[1], qf)
    seen = {start}
    stack = [start]
    while stack:
        qr, qt, qf = stack.pop()
        if qr in r.accepting:
            fed = _feed(t, qt, stop)
            if fed is None or fed[0] or fed[1] not in t.accepting \
                    or t.final_output.get(fed[1]) or f.walk(qf, stop) not in f.accepting:
                return False
        for c in r.alphabet:
            qr2 = r.transitions.get((qr, c))
            if qr2 is None:
                continue
            code = codes[c]
            fed = _feed(t, qt, code)
            qf2 = f.walk(qf, code)
            if fed is None or fed[0] != c or qf2 is None:
                return False
            state = (qr2, fed[1], qf2)
            if state not in seen:
                seen.add(state)
                stack.append(state)
    return True


def _oracle_decode(plan: CoverPlan, bits: str) -> str:
    i = int(bits, 2)
    return plan.letters[i] if i < len(plan.letters) else plan.letters[-1]


def oracle_build_dispatch(plan: CoverPlan, access: str, in_alphabet) -> Dfst:
    """The dispatch trie as `rrkit.cover` first built it: a stack search
    over the hubs' bit strings, each node named by a tuple; its states are
    numbered in the order they are first seen."""
    ids: dict[tuple, int] = {}
    transitions: dict[tuple[int, str], tuple[str, int]] = {}

    def node(key: tuple) -> int:
        return ids.setdefault(key, len(ids))

    def add(src, sym, out, dst):
        edge = (node(src), sym)
        prior = transitions.get(edge)
        if prior is not None:
            if prior != (out, node(dst)):
                raise CertificateError(f"dispatch trie collision at {src!r} on {sym!r}")
            return
        transitions[edge] = (out, node(dst))

    def hub(bits: str) -> tuple:
        return ("hub", bits)

    accept = ("accept",)
    if access:
        start = ("access", 0)
        for i, c in enumerate(access):
            dst = ("access", i + 1) if i + 1 < len(access) else hub("")
            add(("access", i), c, "", dst)
    else:
        start = hub("")

    pending = [""]
    seen_bits = {""}
    while pending:
        bits = pending.pop()
        branches: list[tuple[str, str, tuple]] = []
        for word, bit in ((plan.zero_word, "0"), (plan.one_word, "1")):
            grown = bits + bit
            if len(grown) == plan.bits_per_letter:
                branches.append((word, _oracle_decode(plan, grown), hub("")))
            else:
                branches.append((word, "", hub(grown)))
                if grown not in seen_bits:
                    seen_bits.add(grown)
                    pending.append(grown)
        if bits == "":
            branches.append((plan.stop_word, "", accept))
        for word, out, target in branches:
            src = hub(bits)
            for k, c in enumerate(word[:-1]):
                mid = ("trie", bits, word[:k + 1])
                add(src, c, "", mid)
                src = mid
            add(src, word[-1], out, target)

    return Dfst(tuple(in_alphabet), plan.letters, frozenset(ids.values()), ids[start],
                frozenset({ids[accept]}), transitions, {})


def oracle_surjection_to_star(f: Dfa, witness: HardnessWitness, letters) -> Dfst:
    """Surjection onto Γ* whose image is checked by `separating_word`
    against the full language."""
    verify_witness(f, witness)
    plan = plan_cover(witness, letters)
    t = oracle_build_dispatch(plan, witness.access, f.alphabet)
    gap = separating_word(oracle_image_nfa(t, f), universal_dfa(plan.letters))
    if gap is not None:
        raise CertificateError(
            f"surjection image differs from the full language on {gap!r}")
    return t


def identity_transducer(a: Dfa) -> Dfst:
    """Copy machine defined exactly on L(a): each transition re-emits its
    own input symbol."""
    transitions = {
        (q, sym): (sym, t) for (q, sym), t in a.transitions.items()
    }
    return Dfst(a.alphabet, a.alphabet, a.states, a.initial, a.accepting,
                transitions, {})


def oracle_cover(f: Dfa, r: Dfa) -> Dfst:
    """Cover checked three times: classify, the surjection's own image check
    against Γ*, then the composed image against the target."""
    verdict = classify(f)
    if not isinstance(verdict, Hard):
        raise ClassificationMismatch("filter is easy; it does not cover arbitrary languages")
    letters = r.alphabet if r.alphabet else f.alphabet
    surjection = oracle_surjection_to_star(f, verdict.witness, letters)
    copier = identity_transducer(widen_dfa(r, letters))
    combined = compose_dfst(surjection, copier)
    gap = separating_word(oracle_image_nfa(combined, f), dfa_as_nfa(r))
    if gap is not None:
        raise CertificateError(f"cover image differs from the target on {gap!r}")
    return combined


def oracle_preimage_nfa(t: Dfst, a: Dfa) -> Nfa:
    """The preimage { x : t(x) is defined and t(x) ∈ L(a) } as the Nfa the
    library first built: one transition triple per reached pair and
    symbol, with the pairs numbered in breadth-first order."""
    if not set(t.out_alphabet) <= set(a.alphabet):
        raise AlphabetError("transducer emits symbols outside the automaton's alphabet")
    ids = {(t.initial, a.initial): 0}
    queue = [(t.initial, a.initial)]
    triples = []
    accepting = set()
    for qt, qa in queue:
        i = ids[(qt, qa)]
        if qt in t.accepting:
            end = a.walk(qa, t.final_output.get(qt, ""))
            if end is not None and end in a.accepting:
                accepting.add(i)
        for sym in t.in_alphabet:
            tr = t.transitions.get((qt, sym))
            if tr is None:
                continue
            out, qt2 = tr
            qa2 = a.walk(qa, out)
            if qa2 is None:
                continue
            if (qt2, qa2) not in ids:
                ids[(qt2, qa2)] = len(ids)
                queue.append((qt2, qa2))
            triples.append((i, sym, ids[(qt2, qa2)]))
    return Nfa(t.in_alphabet, frozenset(ids.values()), frozenset({0}),
               frozenset(accepting), tuple(triples))


def oracle_solve_rr_bounded_detail(exprs, a: Dfa):
    """Counter search recursing once per block: (word, expression index,
    exponent vector) or None."""
    exprs = list(exprs)
    for e in exprs:
        for loop, _ in e.blocks:
            if not loop:
                raise ValueError("bounded expression has an empty loop word")

    def advance(q, word):
        for c in word:
            if q is None:
                return None
            q = a.transitions.get((q, c))
        return q

    for index, e in enumerate(exprs):
        dead = set()

        def search(i, q):
            if i == len(e.blocks):
                return [] if q in a.accepting else None
            if (i, q) in dead:
                return None
            loop, bridge = e.blocks[i]
            cur = q
            seen = set()
            exponent = 0
            while cur is not None and cur not in seen:
                seen.add(cur)
                after = advance(cur, bridge)
                if after is not None:
                    rest = search(i + 1, after)
                    if rest is not None:
                        return [exponent, *rest]
                cur = advance(cur, loop)
                exponent += 1
            dead.add((i, q))
            return None

        start = advance(a.initial, e.prefix)
        if start is None:
            continue
        exponents = search(0, start)
        if exponents is None:
            continue
        word = e.prefix + "".join(
            loop * k + bridge for (loop, bridge), k in zip(e.blocks, exponents)
        )
        if not run(a, word):
            raise AssertionError("bounded solver produced a word the machine rejects")
        expr_symbols = sorted(set(e.prefix) | {c for x, y in e.blocks for c in x + y})
        alpha = merge_alphabets(a.alphabet, expr_symbols)
        if not run_nfa(oracle_expr_to_nfa(e, alpha), word):
            raise AssertionError("bounded solver produced a word outside its expression")
        return word, index, exponents
    return None


def looped_chain(n) -> Dfa:
    """n states in a row, each with an `a`-loop, joined by `b` edges; only
    the last accepts. Its one expression has n blocks."""
    trans = {(q, "a"): q for q in range(n)}
    trans.update({(q, "b"): q + 1 for q in range(n - 1)})
    return Dfa(("a", "b"), frozenset(range(n)), 0, frozenset({n - 1}), trans)


# ---------------------------------------------------------------------------
# reference parsers: the first versions, which tokenize the text once per
# parser and convert every state token, kept as differential oracles


def _oracle_logical_lines(text: str):
    out = []
    for no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            out.append((no, body.split()))
    return out


def _oracle_parse_state_list(toks, no):
    out = []
    for tok in toks:
        if not _is_number(tok):
            raise FormatError(f"bad state id {tok!r}", no)
        out.append(int(tok))
    if len(set(out)) != len(out):
        raise FormatError("duplicate state id", no)
    return out


def _oracle_parse_state(tok, states, no):
    if not _is_number(tok) or int(tok) not in states:
        raise FormatError(f"undeclared state {tok!r}", no)
    return int(tok)


def _oracle_parse_common(lines):
    no, toks = _section(lines, 1, "alphabet")
    alphabet = _parse_alphabet(toks, no)
    no, toks = _section(lines, 2, "states")
    states = set(_oracle_parse_state_list(toks, no))
    no, toks = _section(lines, 3, "initial")
    initials = [_oracle_parse_state(t, states, no) for t in toks]
    no, toks = _section(lines, 4, "accept")
    accepting = {_oracle_parse_state(t, states, no) for t in toks}
    return alphabet, states, initials, accepting, 5


def oracle_parse_dfa(text: str) -> Dfa:
    lines = _oracle_logical_lines(text)
    no, rest = _section(lines, 0, "dfa")
    if rest:
        raise FormatError("unexpected tokens after header", no)
    alphabet, states, initials, accepting, i = _oracle_parse_common(lines)
    if len(initials) != 1:
        raise FormatError("a dfa needs exactly one initial state", lines[3][0])
    transitions = {}
    for no, toks in lines[i:]:
        if toks[0] != "trans":
            raise FormatError(f"unexpected `{toks[0]}`", no)
        if len(toks) != 4:
            raise FormatError("want `trans <src> <symbol> <dst>`", no)
        src = _oracle_parse_state(toks[1], states, no)
        if toks[2] == "eps":
            raise FormatError("eps transitions are not allowed in a dfa", no)
        sym = toks[2]
        if sym not in alphabet:
            raise FormatError(f"undeclared symbol {sym!r}", no)
        dst = _oracle_parse_state(toks[3], states, no)
        if (src, sym) in transitions:
            raise FormatError(f"duplicate transition from state {src} on {sym!r}", no)
        transitions[(src, sym)] = dst
    return Dfa(alphabet, frozenset(states), initials[0], frozenset(accepting), transitions)


def oracle_parse_nfa(text: str) -> Nfa:
    lines = _oracle_logical_lines(text)
    no, rest = _section(lines, 0, "nfa")
    if rest:
        raise FormatError("unexpected tokens after header", no)
    alphabet, states, initials, accepting, i = _oracle_parse_common(lines)
    triples = []
    for no, toks in lines[i:]:
        if toks[0] != "trans":
            raise FormatError(f"unexpected `{toks[0]}`", no)
        if len(toks) != 4:
            raise FormatError("want `trans <src> <symbol|eps> <dst>`", no)
        src = _oracle_parse_state(toks[1], states, no)
        sym = None if toks[2] == "eps" else toks[2]
        if sym is not None and sym not in alphabet:
            raise FormatError(f"undeclared symbol {sym!r}", no)
        dst = _oracle_parse_state(toks[3], states, no)
        triples.append((src, sym, dst))
    return Nfa(alphabet, frozenset(states), frozenset(initials),
               frozenset(accepting), tuple(triples))


def oracle_parse_automaton(text: str):
    """Tokenizes the header, then the whole text again in the parser it
    dispatches to."""
    lines = _oracle_logical_lines(text)
    if not lines:
        raise FormatError("empty input")
    head = lines[0][1][0]
    if head == "dfa":
        return oracle_parse_dfa(text)
    if head == "nfa":
        return oracle_parse_nfa(text)
    raise FormatError(f"unknown header `{head}`", lines[0][0])


def oracle_parse_dfst(text: str) -> Dfst:
    lines = _oracle_logical_lines(text)
    no, rest = _section(lines, 0, "dfst")
    if rest:
        raise FormatError("unexpected tokens after header", no)
    no, toks = _section(lines, 1, "in_alphabet")
    in_alphabet = _parse_alphabet(toks, no)
    no, toks = _section(lines, 2, "out_alphabet")
    out_alphabet = _parse_alphabet(toks, no)
    no, toks = _section(lines, 3, "states")
    states = set(_oracle_parse_state_list(toks, no))
    no, toks = _section(lines, 4, "initial")
    if len(toks) != 1:
        raise FormatError("a dfst needs exactly one initial state", no)
    initial = _oracle_parse_state(toks[0], states, no)
    no, toks = _section(lines, 5, "accept")
    accepting = {_oracle_parse_state(tok, states, no) for tok in toks}
    transitions = {}
    final_output = {}
    for no, toks in lines[6:]:
        if toks[0] == "trans":
            if len(toks) != 5:
                raise FormatError("want `trans <src> <in-symbol> <out-word|-> <dst>`", no)
            src = _oracle_parse_state(toks[1], states, no)
            if toks[2] == "eps":
                raise FormatError("a dfst consumes exactly one input symbol per transition", no)
            sym = toks[2]
            if sym not in in_alphabet:
                raise FormatError(f"undeclared input symbol {sym!r}", no)
            out = word_from_text(toks[3])
            for c in out:
                if c not in out_alphabet:
                    raise FormatError(f"undeclared output symbol {c!r}", no)
            dst = _oracle_parse_state(toks[4], states, no)
            if (src, sym) in transitions:
                raise FormatError(f"duplicate transition from state {src} on {sym!r}", no)
            transitions[(src, sym)] = (out, dst)
        elif toks[0] == "final":
            if len(toks) != 3:
                raise FormatError("want `final <state> <out-word|->`", no)
            q = _oracle_parse_state(toks[1], states, no)
            if q not in accepting:
                raise FormatError(f"final output on non-accepting state {q}", no)
            if q in final_output:
                raise FormatError(f"duplicate final output for state {q}", no)
            out = word_from_text(toks[2])
            for c in out:
                if c not in out_alphabet:
                    raise FormatError(f"undeclared output symbol {c!r}", no)
            final_output[q] = out
        else:
            raise FormatError(f"unexpected `{toks[0]}`", no)
    return Dfst(in_alphabet, out_alphabet, frozenset(states), initial,
                frozenset(accepting), transitions, final_output)


# ---------------------------------------------------------------------------
# the library's own breadth-first searches, before composition, transducer
# renumbering, the image, determinization and DFA renumbering ran on its
# shared engines (`transducer._restrict`, `automata._side`,
# `automata._numbered`); kept as differential oracles


def oracle_compose_dfst(t1: Dfst, t2: Dfst) -> Dfst:
    """Product machine computing t2(t1(x)); undefinedness propagates."""
    if not set(t1.out_alphabet) <= set(t2.in_alphabet):
        raise AlphabetError("first machine emits symbols the second cannot read")
    ids: dict[tuple[int, int], int] = {(t1.initial, t2.initial): 0}
    queue = deque([(t1.initial, t2.initial)])
    transitions: dict[tuple[int, str], tuple[str, int]] = {}
    accepting: set[int] = set()
    final_output: dict[int, str] = {}
    while queue:
        pair = queue.popleft()
        q1, q2 = pair
        i = ids[pair]
        if q1 in t1.accepting:
            fed = _feed(t2, q2, t1.final_output.get(q1, ""))
            if fed is not None and fed[1] in t2.accepting:
                accepting.add(i)
                tail = fed[0] + t2.final_output.get(fed[1], "")
                if tail:
                    final_output[i] = tail
        for sym in t1.in_alphabet:
            tr = t1.transitions.get((q1, sym))
            if tr is None:
                continue
            mid, q1next = tr
            fed = _feed(t2, q2, mid)
            if fed is None:
                continue
            out, q2next = fed
            j = ids.get((q1next, q2next))
            if j is None:
                j = ids[(q1next, q2next)] = len(ids)
                queue.append((q1next, q2next))
            transitions[(i, sym)] = (out, j)
    return Dfst(t1.in_alphabet, t2.out_alphabet, frozenset(ids.values()), 0,
                frozenset(accepting), transitions, final_output)


def oracle_image_nfa(t: Dfst, a: Dfa) -> Nfa:
    """Recognizer of { t(x) : x ∈ L(a), t(x) defined }.

    Pair states track the joint run; a transition emitting a word becomes a
    path over its letters (an epsilon edge when the word is empty), and
    final outputs become suffix paths into a single accepting sink.
    """
    if not set(a.alphabet) <= set(t.in_alphabet):
        raise AlphabetError("automaton uses symbols the transducer cannot read")
    ids: dict[tuple, int] = {}

    def node(key) -> int:
        j = ids.get(key)
        if j is None:
            j = ids[key] = len(ids)
        return j

    sink = node(("acc",))
    start = node((t.initial, a.initial))
    queue = deque([(t.initial, a.initial)])
    seen = {(t.initial, a.initial)}
    triples: list[tuple[int, str | None, int]] = []

    def emit_path(src: int, word: str, dst: int, tag):
        if not word:
            triples.append((src, EPS, dst))
            return
        cur = src
        for k, c in enumerate(word[:-1]):
            nxt = node(("path", tag, k))
            triples.append((cur, c, nxt))
            cur = nxt
        triples.append((cur, word[-1], dst))

    while queue:
        pair = queue.popleft()
        qt, qa = pair
        i = ids[pair]
        if qt in t.accepting and qa in a.accepting:
            emit_path(i, t.final_output.get(qt, ""), sink, ("fin", pair))
        for sym in a.alphabet:
            qa2 = a.transitions.get((qa, sym))
            tr = t.transitions.get((qt, sym))
            if qa2 is None or tr is None:
                continue
            out, qt2 = tr
            if (qt2, qa2) not in seen:
                seen.add((qt2, qa2))
                queue.append((qt2, qa2))
            emit_path(i, out, node((qt2, qa2)), ("step", pair, sym))
    return Nfa(t.out_alphabet, frozenset(ids.values()), frozenset({start}),
               frozenset({sink}), tuple(triples))


def oracle_bfs_renumbered(t: Dfst) -> Dfst:
    """t with its reachable states renumbered breadth-first over input
    symbols in alphabet order, transitions listed in that order."""
    order = {t.initial: 0}
    queue = [t.initial]
    transitions: dict[tuple[int, str], tuple[str, int]] = {}
    for q in queue:  # the queue grows as the pass goes
        i = order[q]
        for sym in t.in_alphabet:
            tr = t.transitions.get((q, sym))
            if tr is None:
                continue
            out, dst = tr
            j = order.get(dst)
            if j is None:
                j = order[dst] = len(order)
                queue.append(dst)
            transitions[i, sym] = (out, j)
    return Dfst(t.in_alphabet, t.out_alphabet, frozenset(range(len(order))), 0,
                frozenset(order[q] for q in t.accepting if q in order), transitions,
                {order[q]: out for q, out in t.final_output.items() if q in order})


def oracle_determinize(n: Nfa) -> Dfa:
    """Subset construction over epsilon closures; the output is partial
    (no transition where the successor subset would be empty)."""
    eps, moves = _index(n)
    start = _closure(n.initial, eps)
    ids: dict[frozenset[int], int] = {start: 0}
    queue = deque([start])
    transitions: dict[tuple[int, str], int] = {}
    accepting = set()
    while queue:
        subset = queue.popleft()
        i = ids[subset]
        if subset & n.accepting:
            accepting.add(i)
        for sym in n.alphabet:
            target = _subset_step(subset, sym, eps, moves)
            if not target:
                continue
            j = ids.get(target)
            if j is None:
                j = ids[target] = len(ids)
                queue.append(target)
            transitions[(i, sym)] = j
    return Dfa(n.alphabet, frozenset(range(len(ids))), 0, frozenset(accepting), transitions)


def oracle_canonical_dfa(d: Dfa) -> Dfa:
    """Renumber by BFS discovery order; unreachable states are dropped."""
    order = {d.initial: 0}
    queue = deque([d.initial])
    while queue:
        q = queue.popleft()
        for sym in d.alphabet:
            t = d.transitions.get((q, sym))
            if t is not None and t not in order:
                order[t] = len(order)
                queue.append(t)
    transitions = {
        (order[q], sym): order[t]
        for (q, sym), t in d.transitions.items()
        if q in order
    }
    return Dfa(d.alphabet, frozenset(order.values()), 0,
               frozenset(order[q] for q in d.accepting if q in order), transitions)


def count_calls(monkeypatch, names) -> dict:
    """Count calls of each function in `names` under every binding an
    `rrkit` module holds for it; returns the live counts."""
    counts = dict.fromkeys(names, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    modules = [m for key, m in sys.modules.items() if key == "rrkit" or key.startswith("rrkit.")]
    for module in modules:
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return counts


def reached_pairs(monkeypatch) -> list[int]:
    """Record how many pairs each pair search reaches while the patch
    holds (the length of its parent links when it spells its answer);
    returns the live list, one count per search in call order."""
    automata = sys.modules["rrkit.automata"]
    spell = automata._spell
    counts: list[int] = []

    def probe(parents, syms, found):
        counts.append(len(parents))
        return spell(parents, syms, found)

    monkeypatch.setattr(automata, "_spell", probe)
    return counts
