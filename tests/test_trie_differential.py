"""`classify._trie`, which reads the letters a bridge spells along its
loop's cycle as one token, against `helpers.oracle_trie`, which gave each
such letter a trie node of its own: the same root, accepting states,
transition triples in order, state count and embedding flag, and the same
error for a foreign letter or an empty loop."""

import random

import pytest

from helpers import (
    diamond_filter,
    oracle_trie,
    outcome,
    random_easy_filter,
    ring_filter,
)
from rrkit import BoundedExpr, Easy, classify
from rrkit.classify import _envelope_of, _trie

AB = ("a", "b")
ABC = ("a", "b", "c")


def _word(rng, alphabet, lo, hi):
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))


def _block(rng, alphabet, loop=None):
    """A loop of 1 to 4 letters (one letter in a third of the blocks) and a
    bridge that runs 0 to |x| + 1 letters along it, then, in half of the
    blocks, goes on with 1 or 2 letters of its own; or a random bridge."""
    if loop is None:
        loop = _word(rng, alphabet, 1, 1 if rng.random() < 0.3 else 4)
    if rng.random() < 0.2:
        return loop, _word(rng, alphabet, 0, 3)
    along = (loop * 2)[:rng.randint(0, len(loop) + 1)]
    return loop, along + (_word(rng, alphabet, 1, 2) if rng.random() < 0.5 else "")


def _decomposition(rng, alphabet):
    """1 to 5 expressions; after the first, most share a prefix of tokens
    with an earlier one and then read its next loop with another bridge
    (so both stop on one cycle, at different positions), or share a
    suffix of its blocks after another prefix, and some repeat one."""
    exprs: list[BoundedExpr] = []
    for _ in range(rng.randint(1, 5)):
        how = rng.choice(["fresh", "prefix", "suffix", "copy"]) if exprs else "fresh"
        fresh = tuple(_block(rng, alphabet) for _ in range(rng.randint(0, 3)))
        if how == "fresh":
            exprs.append(BoundedExpr(_word(rng, alphabet, 0, 2), fresh))
            continue
        base = rng.choice(exprs)
        cut = rng.randint(0, len(base.blocks))
        if how == "prefix":
            if cut < len(base.blocks):
                fresh = (_block(rng, alphabet, base.blocks[cut][0]), *fresh)
            exprs.append(BoundedExpr(base.prefix, base.blocks[:cut] + fresh))
        elif how == "suffix":
            exprs.append(BoundedExpr(_word(rng, alphabet, 0, 2), fresh[:1] + base.blocks[cut:]))
        else:
            exprs.append(base)
    return tuple(exprs)


def _envelopes(rng, exprs, alphabet):
    """The envelope `classify` would build, a random one drawn from the
    expressions' factors and fresh words, and the first with an empty word
    put in."""
    built = _envelope_of(exprs)
    pool = [*built, *(_word(rng, alphabet, 1, 3) for _ in range(3))]
    drawn = tuple(rng.choice(pool) for _ in range(rng.randint(0, 6)))
    hole = rng.randint(0, len(built))
    return built, drawn, built[:hole] + ("",) + built[hole:]


def _assert_same(exprs, alphabet, envelope):
    assert _trie(exprs, alphabet, envelope) == oracle_trie(exprs, alphabet, envelope), \
        (exprs, envelope)


def test_random_decompositions():
    rng = random.Random(241)
    runs = stops = 0
    for _ in range(20000):
        alphabet = AB if rng.random() < 0.8 else ABC
        exprs = _decomposition(rng, alphabet)
        for envelope in _envelopes(rng, exprs, alphabet):
            _assert_same(exprs, alphabet, envelope)
        shared: dict = {}
        for e in exprs:
            for i, (x, y) in enumerate(e.blocks):
                k = next((j for j in range(min(len(x) - 1, len(y))) if x[j] != y[j]),
                         min(len(x) - 1, len(y)))
                runs += 0 < k == len(x) - 1
                shared.setdefault((e.prefix, e.blocks[:i], x), set()).add(k)
        stops += any(len(ks) > 1 for ks in shared.values())
    assert runs > 1000 and stops > 1000


def _certificates():
    yield from (ring_filter(random.Random(n), n, accepts)
                for n in (1, 2, 7, 80, 140, 200) for accepts in (1, 3) if accepts <= n)
    yield from (diamond_filter(k) for k in range(1, 8))
    yield from (diamond_filter(k, (i, i % 2)) for k in (2, 5, 7) for i in range(k))
    rng = random.Random(251)
    yield from (random_easy_filter(rng, rng.choice([AB, ABC])) for _ in range(1000))


def test_classified_certificates():
    for f in _certificates():
        verdict = classify(f)
        assert isinstance(verdict, Easy)
        _assert_same(verdict.decomposition, f.alphabet, verdict.envelope)


@pytest.mark.parametrize("exprs", [
    (BoundedExpr("az", ()),),
    (BoundedExpr("a", (("ab", "z"),)),),
    (BoundedExpr("a", (("zb", "a"),)),),
    (BoundedExpr("a", (("ab", "a"),)), BoundedExpr("", (("b", "az"),))),
    (BoundedExpr("a", (("", "b"),)),),
    (BoundedExpr("", (("ab", "ab"), ("", "a"))),),
    (BoundedExpr("", (("ab", "a"),)), BoundedExpr("b", (("", "z"),))),
    (BoundedExpr("", (("", "a"),)), BoundedExpr("z", ())),
], ids=["prefix", "bridge", "loop", "second-expr", "empty-loop", "second-empty-loop",
        "letter-before-empty-loop", "empty-loop-first"])
def test_same_rejections(exprs):
    got = outcome(_trie, exprs, AB, ())
    assert got is not None
    assert got == outcome(oracle_trie, exprs, AB, ())
