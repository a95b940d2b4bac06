"""Independent checks of rrkit's CLI output.

Everything here is written from the definitions with naive simulators
over the generator's own machine values (`gen.Dfa`, `gen.Nfa`); nothing
is imported from rrkit or from the repository's tests. Each check returns
None when the output is right and a short reason when it is not.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass

from gen import Dfa

BRUTE_FORCE_CAP = 12  # longest word length enumerated by the minimality checks


def words_upto(alphabet, n):
    """Words of length 0..n, shortest first, then in alphabet order."""
    for k in range(n + 1):
        for tup in itertools.product(alphabet, repeat=k):
            yield "".join(tup)


def _word(tok: str) -> str:
    return "" if tok == "-" else tok


def check_least(pred, alphabet, w: str) -> str | None:
    """`w` satisfies pred and no word before it in (length, alphabet
    order) does, enumerating words up to BRUTE_FORCE_CAP letters."""
    if not pred(w):
        return f"witness {w or '-'} fails the predicate"
    for x in words_upto(alphabet, min(len(w), BRUTE_FORCE_CAP)):
        if len(x) == len(w) and x >= w:
            break
        if pred(x):
            return f"{x or '-'} is a shorter or lex-smaller witness than {w or '-'}"
    return None


def check_none_upto(pred, alphabet, cap: int) -> str | None:
    for x in words_upto(alphabet, cap):
        if pred(x):
            return f"{x or '-'} satisfies the predicate"
    return None


def live_states(d: Dfa) -> set[int]:
    """States from which an accepting state is reachable."""
    back: dict[int, list[int]] = {}
    for (q, _), t in d.delta.items():
        back.setdefault(t, []).append(q)
    live = set(d.accepting)
    stack = list(live)
    while stack:
        for p in back.get(stack.pop(), ()):
            if p not in live:
                live.add(p)
                stack.append(p)
    return live


def sample_accepted(d: Dfa, rng: random.Random, max_walk: int) -> str | None:
    """Random walk over live states for up to `max_walk` letters, then the
    shortest completion to an accepting state."""
    live = live_states(d)
    if d.initial not in live:
        return None
    q, word = d.initial, []
    for _ in range(rng.randint(0, max_walk)):
        moves = [(c, t) for c in d.alphabet
                 if (t := d.delta.get((q, c))) is not None and t in live]
        if not moves:
            break
        c, q = rng.choice(moves)
        word.append(c)
    paths = {q: ""}
    queue = deque([q])
    while queue:
        p = queue.popleft()
        if p in d.accepting:
            return "".join(word) + paths[p]
        for c in d.alphabet:
            t = d.delta.get((p, c))
            if t is not None and t not in paths:
                paths[t] = paths[p] + c
                queue.append(t)
    raise AssertionError("live state without an accepting completion")


# ---------------------------------------------------------------------------
# classify


def check_hard(f: Dfa, text: str) -> str | None:
    """Replay a `HARD q= p= u= v= s=` line on the input filter."""
    toks = text.split()
    if len(toks) != 6 or toks[0] != "HARD":
        return f"not a HARD line: {text.strip()[:80]!r}"
    try:
        fields = dict(tok.split("=", 1) for tok in toks[1:])
        p, u, v, s = (_word(fields[k]) for k in "puvs")
    except (ValueError, KeyError):
        return "malformed HARD fields"
    x = f.walk(f.initial, p)
    if x is None:
        return "access word leaves the filter"
    if not u or not v:
        return "empty cycle word"
    if f.walk(x, u) != x or f.walk(x, v) != x:
        return "cycle word does not return to the pivot"
    if len(u) != len(v) or u.startswith(v) or v.startswith(u):
        return "cycle words are not equal-length and prefix-incomparable"
    if f.walk(x, s) not in f.accepting:
        return "exit word does not accept"
    return None


@dataclass(frozen=True)
class Pattern:
    """A concatenation of words, each either literal or starred."""

    items: tuple[tuple[str, bool], ...]

    def sample(self, rng: random.Random, max_power: int) -> str:
        return "".join(w * (rng.randint(0, max_power) if star else 1)
                       for w, star in self.items)

    def matches(self, word: str) -> bool:
        seen = set()
        stack = [(0, 0)]
        while stack:
            i, pos = stack.pop()
            if i == len(self.items):
                if pos == len(word):
                    return True
                continue
            if (i, pos) in seen:
                continue
            seen.add((i, pos))
            w, star = self.items[i]
            if star:
                stack.append((i + 1, pos))
                if word.startswith(w, pos):
                    stack.append((i, pos + len(w)))
            elif word.startswith(w, pos):
                stack.append((i + 1, pos + len(w)))
        return False


def parse_easy(text: str) -> tuple[list[Pattern], Pattern] | str:
    lines = text.strip().splitlines()
    if not lines or lines[0] != "EASY" or not lines[-1].startswith("envelope"):
        return "not an EASY certificate"
    exprs = []
    for line in lines[1:-1]:
        toks = line.split()
        if len(toks) != 3 or toks[0] != "expr" or not toks[1].startswith("p=") \
                or not toks[2].startswith("blocks="):
            return f"malformed expr line {line[:80]!r}"
        items = [(_word(toks[1][2:]), False)]
        body = toks[2][len("blocks="):]
        for piece in body.split(";") if body else []:
            loop, _, bridge = piece.strip("()").partition(",")
            if not loop:
                return "empty loop word"
            items += [(loop, True), (_word(bridge), False)]
        exprs.append(Pattern(tuple(items)))
    envelope = Pattern(tuple((w, True) for w in lines[-1].split()[1:]))
    return exprs, envelope


def check_easy(f: Dfa, text: str, rng: random.Random, samples: int = 6) -> str | None:
    """Sampled expression words are filter words; sampled filter words
    match some expression and the envelope's star product."""
    parsed = parse_easy(text)
    if isinstance(parsed, str):
        return parsed
    exprs, envelope = parsed
    if not exprs:
        return "easy certificate of a nonempty filter has no expressions"
    for e in rng.sample(exprs, min(samples, len(exprs))):
        w = e.sample(rng, 3)
        if not f.accepts(w):
            return f"expression word {w or '-'} is not a filter word"
    for _ in range(samples):
        w = sample_accepted(f, rng, 2 * f.n)
        if not any(e.matches(w) for e in exprs):
            return f"filter word {w or '-'} matches no expression"
        if not envelope.matches(w):
            return f"filter word {w or '-'} is outside the envelope"
    return None


# ---------------------------------------------------------------------------
# cover


@dataclass(frozen=True)
class Dfst:
    initial: int
    accepting: frozenset[int]
    delta: dict[tuple[int, str], tuple[str, int]]
    final: dict[int, str]

    def apply(self, x: str) -> str | None:
        q, out = self.initial, []
        for c in x:
            tr = self.delta.get((q, c))
            if tr is None:
                return None
            out.append(tr[0])
            q = tr[1]
        if q not in self.accepting:
            return None
        return "".join(out) + self.final.get(q, "")


def parse_dfst(text: str) -> Dfst | str:
    lines = [line.split() for line in text.splitlines() if line.strip()]
    heads = ["dfst", "in_alphabet", "out_alphabet", "states", "initial", "accept"]
    if len(lines) < 6 or [toks[0] for toks in lines[:6]] != heads:
        return "not a dfst"
    delta, final = {}, {}
    for toks in lines[6:]:
        if toks[0] == "trans" and len(toks) == 5:
            delta[(int(toks[1]), toks[2])] = (_word(toks[3]), int(toks[4]))
        elif toks[0] == "final" and len(toks) == 3:
            final[int(toks[1])] = _word(toks[2])
        else:
            return f"malformed dfst line {' '.join(toks)[:80]!r}"
    return Dfst(int(lines[4][1]), frozenset(map(int, lines[5][1:])), delta, final)


def image_contains(t: Dfst, f: Dfa, y: str) -> bool:
    """Is y = t(x) for some x in L(f)? BFS over (transducer state, filter
    state, matched length of y)."""
    start = (t.initial, f.initial, 0)
    seen = {start}
    queue = deque([start])
    while queue:
        qt, qf, i = queue.popleft()
        if qt in t.accepting and qf in f.accepting and y[i:] == t.final.get(qt, ""):
            return True
        for c in f.alphabet:
            tr = t.delta.get((qt, c))
            qf2 = f.delta.get((qf, c))
            if tr is None or qf2 is None or not y.startswith(tr[0], i):
                continue
            conf = (tr[1], qf2, i + len(tr[0]))
            if conf not in seen:
                seen.add(conf)
                queue.append(conf)
    return False


def image_escape(t: Dfst, f: Dfa, r: Dfa) -> str | None:
    """A word of the image outside L(r), by BFS over (transducer, filter,
    target) states; the target component is None once its run died."""
    start = (t.initial, f.initial, r.initial)
    seen = {start: ""}
    queue = deque([start])
    while queue:
        conf = queue.popleft()
        qt, qf, qr = conf
        if qt in t.accepting and qf in f.accepting:
            if r.walk(qr, t.final.get(qt, "")) not in r.accepting:
                return seen[conf]
        for c in f.alphabet:
            tr = t.delta.get((qt, c))
            qf2 = f.delta.get((qf, c))
            if tr is None or qf2 is None:
                continue
            nxt = (tr[1], qf2, r.walk(qr, tr[0]))
            if nxt not in seen:
                seen[nxt] = seen[conf] + c
                queue.append(nxt)
    return None


def check_cover(f: Dfa, r: Dfa, rc: int, text: str, rng: random.Random,
                samples: int = 6) -> str | None:
    """Exit 0 and the VERIFIED line; no image word leaves L(r); every
    target word up to length 2 and `samples` sampled target words are in
    the image, and no short non-target word is; sampled domain words map
    into L(r) under naive application."""
    body, _, last = text.rstrip("\n").rpartition("\n")
    if rc != 0 or last != "VERIFIED image == target":
        return f"cover exited {rc} without the VERIFIED line"
    t = parse_dfst(body)
    if isinstance(t, str):
        return t
    escape = image_escape(t, f, r)
    if escape is not None:
        return f"input {escape or '-'} maps outside the target"
    for y in words_upto(r.alphabet, 2):
        if image_contains(t, f, y) != r.accepts(y):
            return f"image and target disagree on {y or '-'}"
    for _ in range(samples):
        y = sample_accepted(r, rng, 3 * r.n)
        if not image_contains(t, f, y):
            return f"target word {y or '-'} is missing from the image"
    joint = Dfa(f.alphabet, 0, (t.initial, f.initial),
                frozenset((p, q) for p in t.accepting for q in f.accepting),
                {((p, q), c): (tr[1], f.delta[(q, c)])
                 for p, q in _joint_states(t, f) for c in f.alphabet
                 if (tr := t.delta.get((p, c))) is not None and (q, c) in f.delta})
    for _ in range(samples):
        x = sample_accepted(joint, rng, 40)
        if x is None:
            return "the cover is defined on no filter word"
        y = t.apply(x)
        if y is None or not r.accepts(y) or not f.accepts(x):
            return f"naive application of the cover to {x or '-'} misses the target"
    return None


def _joint_states(t: Dfst, f: Dfa):
    start = (t.initial, f.initial)
    seen = {start}
    queue = deque([start])
    while queue:
        p, q = queue.popleft()
        yield p, q
        for c in f.alphabet:
            tr = t.delta.get((p, c))
            q2 = f.delta.get((q, c))
            if tr is not None and q2 is not None and (tr[1], q2) not in seen:
                seen.add((tr[1], q2))
                queue.append((tr[1], q2))


# ---------------------------------------------------------------------------
# solve / equiv


def check_yes_least(a, b, alphabet, text: str) -> str | None:
    """`YES w` where w is the least word (shortest, then alphabet order)
    accepted by both machines."""
    toks = text.split()
    if len(toks) != 2 or toks[0] != "YES":
        return f"expected YES, got {text.strip()[:80]!r}"
    return check_least(lambda x: a.accepts(x) and b.accepts(x), alphabet, _word(toks[1]))


def check_counters(f: Dfa, a: Dfa, text: str) -> str | None:
    """`YES w` plus an `exponents` line, with w in both languages (the
    counter solver promises a witness, not the least one)."""
    lines = text.strip().splitlines()
    if len(lines) != 2 or not lines[1].startswith("exponents"):
        return f"expected YES and exponents, got {text.strip()[:80]!r}"
    toks = lines[0].split()
    if len(toks) != 2 or toks[0] != "YES":
        return f"expected YES, got {lines[0][:80]!r}"
    w = _word(toks[1])
    if not (f.accepts(w) and a.accepts(w)):
        return f"witness {w or '-'} is not in both languages"
    return None


def check_no(a, b, alphabet, text: str, cap: int = 8) -> str | None:
    if text.strip() != "NO":
        return f"expected NO, got {text.strip()[:80]!r}"
    return check_none_upto(lambda x: a.accepts(x) and b.accepts(x), alphabet, cap)


def check_differ(a, b, alphabet, text: str) -> str | None:
    """`DIFFER w` where w is the least word accepted by exactly one side."""
    toks = text.split()
    if len(toks) != 2 or toks[0] != "DIFFER":
        return f"expected DIFFER, got {text.strip()[:80]!r}"
    return check_least(lambda x: a.accepts(x) != b.accepts(x), alphabet, _word(toks[1]))


def check_equivalent(a, b, alphabet, text: str, cap: int = 8) -> str | None:
    if text.strip() != "EQUIVALENT":
        return f"expected EQUIVALENT, got {text.strip()[:80]!r}"
    return check_none_upto(lambda x: a.accepts(x) != b.accepts(x), alphabet, cap)
