"""The dispatch trie is the prefix tree of its code words.

`cover._build_dispatch` inserts the words into one tree over int states;
`helpers.oracle_build_dispatch` is the hub search over bit strings that it
replaced. The two must print the same machine (`dfst_to_text` renumbers
both breadth-first). Covers and a surjection must also print the texts
pinned here, which depend on no oracle: a text under 40 lines is pinned
whole, a longer one by its sha256."""

import hashlib
import importlib
import random

import pytest

from helpers import oracle_build_dispatch, planted_hard_filter, random_dfa
from rrkit import (
    CertificateError,
    CoverPlan,
    Dfa,
    Hard,
    classify,
    cover,
    determinize,
    dfst_to_text,
    empty_dfa,
    plan_cover,
    regex_to_nfa,
    surjection_to_star,
    universal_dfa,
)

cover_module = importlib.import_module("rrkit.cover")


def _dfa(pattern: str) -> Dfa:
    return determinize(regex_to_nfa(pattern))


FILTERS = {
    "sigma-star": lambda: universal_dfa(("a", "b")),
    "ends-in-a": lambda: _dfa("(a|b)*a"),
    "starts-with-b": lambda: _dfa("b(a|b)*"),  # its witness has the access word `ba`
    "planted-5": lambda: planted_hard_filter(random.Random(5), 5),
    "planted-8": lambda: planted_hard_filter(random.Random(8), 8),
}


# ---------------------------------------------------------------------------
# the same machine as the hub search


def _hard_filters(rng):
    """The named filters, random hard ones over two and three letters, and
    planted ones."""
    found = [build() for build in FILTERS.values()]
    while len(found) < 17:
        alphabet = rng.choice((("a", "b"), ("b", "a", "c")))
        d = random_dfa(rng, rng.randint(2, 6), alphabet)
        if isinstance(classify(d), Hard):
            found.append(d)
    return found + [planted_hard_filter(rng, n) for n in (4, 9, 25)]


def test_trie_matches_the_hub_search():
    """Target alphabets of 1 to 9 letters: 1 to 4 bits per letter, with
    unused codes whenever the count is no power of two."""
    rng = random.Random(601)
    has_access = set()
    for f in _hard_filters(rng):
        witness = classify(f).witness
        has_access.add(bool(witness.access))
        for k in range(1, 10):
            plan = plan_cover(witness, rng.sample("abcdefghi", k))
            assert dfst_to_text(cover_module._build_dispatch(plan, f.alphabet)) \
                == dfst_to_text(oracle_build_dispatch(plan, witness.access, f.alphabet))
    assert has_access == {False, True}


def _forged(plan: CoverPlan, **words) -> CoverPlan:
    """`plan` with its words replaced, past `CoverPlan`'s own check."""
    forged = object.__new__(CoverPlan)
    vars(forged).update(vars(plan), **words)
    return forged


@pytest.mark.parametrize("zero, one, stop", [
    ("a", "ab", "c"),  # the one word runs into the zero word's final edge
    ("ab", "a", "c"),  # the one word ends on the zero word's inner edge
    ("ab", "ba", "a"),  # so does the stop word
    ("ab", "ba", "abc"),  # the stop word runs into the zero word's final edge
])
def test_prefix_comparable_words_collide_in_both(zero, one, stop):
    """One letter, so each word is inserted once; the stop word's `c`, if
    reached, is a fresh edge."""
    plan = _forged(plan_cover(classify(FILTERS["sigma-star"]()).witness, ("a",)),
                   zero_word=zero, one_word=one, stop_word=stop)
    with pytest.raises(CertificateError, match="dispatch trie collision"):
        cover_module._build_dispatch(plan, ("a", "b", "c"))
    with pytest.raises(CertificateError, match="dispatch trie collision"):
        oracle_build_dispatch(plan, plan.witness.access, ("a", "b", "c"))


# ---------------------------------------------------------------------------
# pinned texts

TARGETS = {
    "a-star": lambda: _dfa("a*"),
    "ab-star": lambda: _dfa("(ab)*"),
    "c-then-abc": lambda: _dfa("c(a|b|c)*"),
    "five-letters": lambda: _dfa("(a|e)(b|c|d)*e"),
    "nine-letters": lambda: _dfa("(abcdefghi)*|i(a|h)*"),
    "empty": lambda: empty_dfa(("a", "b")),
    "epsilon-only": lambda: Dfa((), frozenset({0}), 0, frozenset({0}), {}),
}

# (filter, target) -> the cover's text, or its sha256; ("surjection",
# filter) -> the text of the filter's surjection onto {a, b, c}*
PINNED = {
    ("sigma-star", "a-star"): """\
dfst
in_alphabet a b
out_alphabet a
states 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17
initial 0
accept 8 17
trans 0 a - 1
trans 0 b - 2
trans 1 b - 3
trans 2 a - 4
trans 3 a - 5
trans 3 b - 6
trans 4 a - 7
trans 5 b - 8
trans 6 a a 9
trans 7 b a 9
trans 9 a - 10
trans 9 b - 11
trans 10 b - 12
trans 11 a - 13
trans 12 a - 14
trans 12 b - 15
trans 13 a - 16
trans 14 b - 17
trans 15 a a 9
trans 16 b a 9
""",
    ("sigma-star", "nine-letters"):
        "f351a26176dd4c81c0aeb838cde2492e0b2962b3eb5ada026033963b02adf576",
    ("ends-in-a", "c-then-abc"):
        "73ade54991be63fc5cdaac176f9ecc5b70d5eb10fbe438ca7fafececdad26877",
    ("ends-in-a", "empty"): """\
dfst
in_alphabet a b
out_alphabet a b
states 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14
initial 0
accept
trans 0 a - 1
trans 1 a - 2
trans 1 b - 3
trans 2 b - 4
trans 3 a - 5
trans 4 a - 6
trans 5 a - 7
trans 6 a - 8
trans 6 b - 9
trans 7 a - 10
trans 8 b - 11
trans 9 a - 12
trans 10 b - 13
trans 11 a - 14
""",
    ("starts-with-b", "ab-star"):
        "62796028b80ba89778f2ccd50af0af34d5f214eaef90304cfc2b6dd733ecb9ee",
    ("starts-with-b", "five-letters"):
        "c2859daa1585bc3d1225d7a84c3de494231bb16d7b01d2d30b17f535107a21b9",
    ("starts-with-b", "epsilon-only"): """\
dfst
in_alphabet a b
out_alphabet a b
states 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15
initial 0
accept 15
trans 0 b - 1
trans 1 a - 2
trans 2 a - 3
trans 2 b - 4
trans 3 b - 5
trans 4 a - 6
trans 5 a - 7
trans 6 a - 8
trans 7 a - 9
trans 7 b - 10
trans 8 a - 11
trans 9 b - 12
trans 10 a - 13
trans 11 b - 14
trans 12 a - 15
""",
    ("planted-5", "ab-star"):
        "2f3f97f937fb5baa4ba6b3b600080ee257e43027fe92328c54ebb358fdd89266",
    ("planted-5", "nine-letters"):
        "5f4474d10299c708353db4f55bf17b7f2be3f9593a212fbcbaa0df293f9439b7",
    ("planted-8", "c-then-abc"):
        "98cb35ab5461a3fb9916029a387edff045b2a3a7203ba2af2fad5fac0b49850f",
    ("planted-8", "epsilon-only"):
        "6620423388c8fe40bb11f1aaad3605889febef8c43c26546e663b00a8944a1d7",
    ("surjection", "sigma-star"): """\
dfst
in_alphabet a b
out_alphabet a b c
states 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22
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
trans 6 a - 9
trans 7 b - 10
trans 9 a - 11
trans 9 b - 12
trans 10 a - 13
trans 10 b - 14
trans 11 b - 15
trans 12 a - 16
trans 13 b - 17
trans 14 a - 18
trans 15 b - 19
trans 16 a - 20
trans 17 b - 21
trans 18 a - 22
trans 19 a a 0
trans 20 b b 0
trans 21 a c 0
trans 22 b c 0
""",
    ("surjection", "starts-with-b"):
        "d4982d811acb7835e534c603555ed536e4e04f6a67f19a6481e781d34088524b",
}


def _pinned_form(text: str) -> str:
    return text if text.count("\n") < 40 else hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("key", PINNED, ids="/".join)
def test_pinned_text(key):
    first, second = key
    if first == "surjection":
        f = FILTERS[second]()
        t = surjection_to_star(f, classify(f).witness, "abc")
    else:
        t = cover(FILTERS[first](), TARGETS[second]())
    assert _pinned_form(dfst_to_text(t)) == PINNED[key]
