"""Seeded input generators for the rrkit benchmark.

Machines are built here as plain values and written in rrkit's text
format directly; nothing in this file calls an rrkit construction, so
every planted answer (easy, hard, YES, NO, DIFFER, EQUIVALENT) is known
independently of the code under test. Every generator takes its
`random.Random` as an argument.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

AB = ("a", "b")
ABC = ("a", "b", "c")


@dataclass(frozen=True)
class Dfa:
    alphabet: tuple[str, ...]
    n: int
    initial: int
    accepting: frozenset[int]
    delta: dict[tuple[int, str], int]

    def walk(self, q: int | None, word: str) -> int | None:
        for c in word:
            if q is None:
                return None
            q = self.delta.get((q, c))
        return q

    def accepts(self, word: str) -> bool:
        return self.walk(self.initial, word) in self.accepting


@dataclass(frozen=True)
class Nfa:
    alphabet: tuple[str, ...]
    n: int
    initial: frozenset[int]
    accepting: frozenset[int]
    edges: tuple[tuple[int, str | None, int], ...]  # None marks an epsilon edge

    @cached_property
    def _adjacency(self):
        eps: dict[int, list[int]] = {}
        moves: dict[tuple[int, str], list[int]] = {}
        for q, c, t in self.edges:
            (eps.setdefault(q, []) if c is None else moves.setdefault((q, c), [])).append(t)
        return eps, moves

    def subset_after(self, word: str) -> frozenset[int]:
        eps, moves = self._adjacency

        def close(states):
            seen = set(states)
            stack = list(states)
            while stack:
                for t in eps.get(stack.pop(), ()):
                    if t not in seen:
                        seen.add(t)
                        stack.append(t)
            return seen

        cur = close(self.initial)
        for c in word:
            cur = close({t for q in cur for t in moves.get((q, c), ())})
        return frozenset(cur)

    def accepts(self, word: str) -> bool:
        return bool(self.subset_after(word) & self.accepting)


def dfa_text(d: Dfa) -> str:
    lines = ["dfa", "alphabet " + " ".join(d.alphabet),
             "states " + " ".join(map(str, range(d.n))),
             f"initial {d.initial}",
             " ".join(["accept", *map(str, sorted(d.accepting))])]
    lines += [f"trans {q} {c} {t}" for (q, c), t in sorted(d.delta.items())]
    return "\n".join(lines) + "\n"


def nfa_text(n: Nfa) -> str:
    lines = ["nfa", "alphabet " + " ".join(n.alphabet),
             "states " + " ".join(map(str, range(n.n))),
             " ".join(["initial", *map(str, sorted(n.initial))]),
             " ".join(["accept", *map(str, sorted(n.accepting))])]
    lines += [f"trans {q} {'eps' if c is None else c} {t}" for q, c, t in n.edges]
    return "\n".join(lines) + "\n"


def _reachable(d: Dfa, start: int) -> list[int]:
    order = [start]
    seen = {start}
    for q in order:
        for c in d.alphabet:
            t = d.delta.get((q, c))
            if t is not None and t not in seen:
                seen.add(t)
                order.append(t)
    return order


def _renumber(d: Dfa, order: list[int]) -> Dfa:
    """Keep the states in `order` (closed under transitions), numbered by
    their position in it."""
    new = {q: i for i, q in enumerate(order)}
    delta = {(new[q], c): new[t] for (q, c), t in d.delta.items() if q in new}
    return Dfa(d.alphabet, len(order), new[d.initial],
               frozenset(new[q] for q in d.accepting if q in new), delta)


# ---------------------------------------------------------------------------
# easy filters


def ring(rng: random.Random, n: int, accepts: int) -> Dfa:
    """One simple n-cycle over {a, b} with `accepts` accepting states, one
    near the middle of each of `accepts` equal arcs of the cycle (the
    arc positions set the length of the decomposition's words)."""
    word = [rng.choice(AB) for _ in range(n)]
    delta = {(q, word[q]): (q + 1) % n for q in range(n)}
    accepting = frozenset(int((j + rng.uniform(0.4, 0.6)) * n / accepts)
                          for j in range(accepts))
    return Dfa(AB, n, 0, accepting, delta)


def diamond(rng: random.Random, k: int, looped: bool) -> Dfa:
    """k two-way branches in a chain: hub i reads `ab` or `ba` (through a
    middle state) into hub i+1, so the filter has 2^k accepting paths; only
    the last hub accepts. `looped` puts a self-loop on one middle state,
    chosen at random, reading the letter that entered it."""
    delta: dict[tuple[int, str], int] = {}
    hub = [3 * i for i in range(k + 1)]
    for i in range(k):
        for branch, (first, second) in enumerate(("ab", "ba")):
            mid = hub[i] + 1 + branch
            delta[(hub[i], first)] = mid
            delta[(mid, second)] = hub[i + 1]
    if looped:
        branch = rng.randrange(2)
        mid = 3 * rng.randrange(k) + 1 + branch
        delta[(mid, "ab"[branch])] = mid
    return Dfa(AB, 3 * k + 1, 0, frozenset({hub[k]}), delta)


# ---------------------------------------------------------------------------
# connected complete DFAs and the planted-hard filter


def connected_dfa(rng: random.Random, n: int, alphabet=AB, preset=None) -> Dfa:
    """Complete DFA on n states, every state reachable from state 0.

    A random spanning tree grows from state 0 through free transition
    slots; `preset` transitions are fixed beforehand and count as reached
    edges. Remaining slots point anywhere. Acceptance is a fair coin per
    state, with at least one accepting state.
    """
    delta = dict(preset or {})
    reached: set[int] = set()
    free: list[tuple[int, str]] = []

    def reach(q):
        stack = [q]
        reached.add(q)
        while stack:
            p = stack.pop()
            for c in alphabet:
                t = delta.get((p, c))
                if t is None:
                    free.append((p, c))
                elif t not in reached:
                    reached.add(t)
                    stack.append(t)

    reach(0)
    for q in rng.sample(range(n), n):
        if q in reached:
            continue
        i = rng.randrange(len(free))
        free[i], free[-1] = free[-1], free[i]
        delta[free.pop()] = q
        reach(q)
    for q in range(n):
        for c in alphabet:
            delta.setdefault((q, c), rng.randrange(n))
    accepting = {q for q in range(n) if rng.random() < 0.5} or {rng.randrange(n)}
    return Dfa(tuple(alphabet), n, 0, frozenset(accepting), delta)


def planted_hard(rng: random.Random, n: int) -> Dfa:
    """Connected complete DFA over {a, b} in which a state X carries an
    `a`-loop and a `b`-cycle of length 2 or 3, with an accepting state
    reachable from X. The cycles `a` and `bb`/`bbb` do not commute, so the
    filter is hard by construction."""
    states = rng.sample(range(n), rng.randint(2, 3))
    x, ys = states[0], states[1:]
    cycle = [x, *ys, x]
    preset = {(x, "a"): x}
    preset.update({(p, "b"): t for p, t in zip(cycle, cycle[1:])})
    d = connected_dfa(rng, n, AB, preset)
    accepting = set(d.accepting)
    accepting.add(rng.choice(_reachable(d, x)))
    return Dfa(d.alphabet, d.n, d.initial, frozenset(accepting), d.delta)


def cover_target(rng: random.Random, m: int) -> Dfa:
    """Random partial DFA over {a, b, c} on m states, trimmed to the states
    that are reachable and co-reachable; never the empty language."""
    while True:
        delta = {(q, c): rng.randrange(m) for q in range(m) for c in ABC
                 if rng.random() < 0.6}
        accepting = frozenset(q for q in range(m) if rng.random() < 0.4)
        d = Dfa(ABC, m, 0, accepting, delta)
        back: dict[int, set[int]] = {}
        for (q, _), t in delta.items():
            back.setdefault(t, set()).add(q)
        live = set(accepting)
        stack = list(accepting)
        while stack:
            for p in back.get(stack.pop(), ()):
                if p not in live:
                    live.add(p)
                    stack.append(p)
        if 0 not in live:
            continue
        keep = [q for q in _reachable(d, 0) if q in live]
        kept = set(keep)
        pruned = Dfa(ABC, m, 0, accepting,
                     {k: t for k, t in delta.items() if k[0] in kept and t in kept})
        return _renumber(pruned, keep)


# ---------------------------------------------------------------------------
# solve / equiv pairs


def random_word(rng: random.Random, alphabet, lo: int, hi: int) -> str:
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))


def with_accepting(d: Dfa, q: int, accept: bool = True) -> Dfa:
    acc = set(d.accepting)
    (acc.add if accept else acc.discard)(q)
    return Dfa(d.alphabet, d.n, d.initial, frozenset(acc), d.delta)


def yes_pair(rng: random.Random, n: int, m: int) -> tuple[Dfa, Dfa, str]:
    """Two connected complete DFAs that both accept the planted word w and
    reject the empty word (unless w leads back to the initial state)."""
    w = random_word(rng, AB, 1, 3)
    out = []
    for size in (n, m):
        d = with_accepting(connected_dfa(rng, size), 0, False)
        out.append(with_accepting(d, d.walk(0, w)))
    return out[0], out[1], w


def parity_dfa(rng: random.Random, n: int, parity: int) -> Dfa:
    """Connected complete DFA accepting only words whose length has the
    given parity: a random base machine on about n/2 states paired with a
    length-parity bit, cut down to its reachable part."""
    base = connected_dfa(rng, max(2, n // 2))
    delta = {((q, p), c): (t, 1 - p) for (q, c), t in base.delta.items() for p in (0, 1)}
    accepting = frozenset((q, parity) for q in base.accepting)
    paired = Dfa(AB, 0, (0, 0), accepting, delta)
    return _renumber(paired, _reachable(paired, (0, 0)))


def no_pair(rng: random.Random, n: int, m: int) -> tuple[Dfa, Dfa]:
    """Even-length-only filter against an odd-length-only input: the
    instance is NO, and a solver must exhaust the product to say so."""
    return parity_dfa(rng, n, 0), parity_dfa(rng, m, 1)


def redundant_copy(rng: random.Random, d: Dfa, k: int) -> Dfa:
    """Same language with every state split into k copies; each edge picks
    the copy of its target at random. States are shuffled."""
    delta = {((q, i), c): (t, rng.randrange(k))
             for (q, c), t in d.delta.items() for i in range(k)}
    accepting = frozenset((q, i) for q in d.accepting for i in range(k))
    split = Dfa(d.alphabet, 0, (d.initial, 0), accepting, delta)
    order = _reachable(split, (d.initial, 0))
    order = order[:1] + rng.sample(order[1:], len(order) - 1)
    return _renumber(split, order)


def differ_pair(rng: random.Random, n: int, k: int) -> tuple[Dfa, Dfa, str]:
    """A DFA and a k-fold redundant copy whose acceptance is flipped at the
    state the planted word w reaches: the languages differ on w."""
    a = connected_dfa(rng, n)
    b = redundant_copy(rng, a, k)
    w = random_word(rng, AB, 1, 3)
    q = b.walk(b.initial, w)
    return a, with_accepting(b, q, q not in b.accepting), w


def equivalent_pair(rng: random.Random, n: int, k: int) -> tuple[Dfa, Dfa]:
    a = connected_dfa(rng, n)
    return a, redundant_copy(rng, a, k)


def union_nfa(rng: random.Random, n: int) -> Nfa:
    """Fresh initial state with epsilon edges into two connected complete
    DFAs of about n/2 states each. Its subset construction stays within
    the product of the two parts."""
    left = connected_dfa(rng, max(2, (n - 1) // 2))
    right = connected_dfa(rng, max(2, n - 1 - left.n))
    edges = [(0, None, 1), (0, None, 1 + left.n)]
    accepting = set()
    for base, part in ((1, left), (1 + left.n, right)):
        edges += [(base + q, c, base + t) for (q, c), t in sorted(part.delta.items())]
        accepting |= {base + q for q in part.accepting if q != part.initial}
    return Nfa(AB, 1 + left.n + right.n, frozenset({0}), frozenset(accepting), tuple(edges))


def nfa_yes_pair(rng: random.Random, n: int, m: int) -> tuple[Nfa, Nfa, str]:
    """Two NFAs that both accept the planted word w."""
    w = random_word(rng, AB, 1, 3)
    out = []
    for size in (n, m):
        a = union_nfa(rng, size)
        hit = rng.choice(sorted(a.subset_after(w)))
        out.append(Nfa(a.alphabet, a.n, a.initial, a.accepting | {hit}, a.edges))
    return out[0], out[1], w


def duplicated_nfa(rng: random.Random, a: Nfa) -> Nfa:
    """Same language with every state doubled: each edge leads to one or
    both copies of its target. States are shuffled."""
    perm = rng.sample(range(2 * a.n), 2 * a.n)

    def s(q, i):
        return perm[2 * q + i]

    edges = set()
    for q, c, t in a.edges:
        targets = [rng.randrange(2)] if rng.random() < 0.7 else [0, 1]
        for i in range(2):
            for j in targets:
                edges.add((s(q, i), c, s(t, j)))
    return Nfa(a.alphabet, 2 * a.n, frozenset(s(q, 0) for q in a.initial),
               frozenset(s(q, i) for q in a.accepting for i in range(2)),
               tuple(sorted(edges, key=lambda e: (e[0], e[1] or "", e[2]))))


def sizes(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """`count` sizes spread evenly over [lo, hi], one draw from each of
    `count` equal strata, in increasing order."""
    span = hi - lo + 1
    return [lo + int((i + rng.random()) * span / count) for i in range(count)]
