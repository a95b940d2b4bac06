"""Walk (a) of a cover's image proof settles every cover in one ordered
pass over its transitions, and walk (b) walks each code through the
filter once per filter state.

The pass gives each transducer state its one target state. It is
sufficient, not necessary: on a machine it cannot settle it says False,
never True where the image leaves the target (`oracle_image_within`),
and the one exact check, `cover_gap`, decides that machine as
`oracle_cover_gap` does. Walk (b) must say what the loop that walked
every code at every reached state said (`oracle_inverse_reaches`), also
when the walk meets several filter states."""

import importlib
import random

import pytest

import helpers
from helpers import (
    count_calls,
    identity_transducer,
    oracle_cover,
    oracle_cover_gap,
    oracle_image_within,
    oracle_inverse_reaches,
    outcome,
    planted_hard_filter,
    random_dfa,
)
from rrkit import (
    CertificateError,
    Dfa,
    Dfst,
    Hard,
    HardnessWitness,
    classify,
    compose_dfst,
    cover,
    cover_gap,
    determinize,
    plan_cover,
    regex_to_nfa,
    surjection_to_star,
    universal_dfa,
)
from test_cover_proof import AB_STAR, SIGMA_STAR, _code, _replace, _state, flip_to_accepting
from test_cover_text import BIG, _relabel_dfst

cover_module = importlib.import_module("rrkit.cover")

EXACT = ("image_nfa", "separating_word")
C_THEN_ANY = determinize(regex_to_nfa("c(a|b|c)*"))


def _trie(f, r):
    plan = plan_cover(classify(f).witness, r.alphabet)
    return plan, cover_module._build_dispatch(plan, f.alphabet)


def test_covers_and_surjections_need_no_triple_walk(monkeypatch):
    targets = [C_THEN_ANY, determinize(regex_to_nfa("(ab)*c")),
               determinize(regex_to_nfa("(a|c)*b")), universal_dfa(("a", "b", "c"))]
    assert len(C_THEN_ANY.transitions) < len(C_THEN_ANY.states) * len(C_THEN_ANY.alphabet)
    calls = count_calls(monkeypatch, EXACT)
    rng = random.Random(503)
    built = 0
    for n in (8, 40, 120):
        f = planted_hard_filter(rng, n)
        for r in targets:
            assert isinstance(cover(f, r), Dfst)
            built += 1
        witness = classify(f).witness
        for letters in (("a", "b"), ("c", "b", "a", "d", "e")):
            assert isinstance(surjection_to_star(f, witness, letters), Dfst)
            built += 1
    surjection_to_star(SIGMA_STAR, classify(SIGMA_STAR).witness, ("a", "b", "c"))
    assert built == 18
    assert calls == {"image_nfa": 0, "separating_word": 0}


def relabelled_cover():
    """A cover whose states are renamed BIG + 7q: not 0..T-1."""
    f = planted_hard_filter(random.Random(509), 30)
    return _relabel_dfst(cover(f, C_THEN_ANY), lambda q: BIG + 7 * q), f, C_THEN_ANY, True


def descending_sources():
    """A cover whose transitions are listed from the highest source down:
    every source but the start is passed over before an edge reaches it."""
    f = planted_hard_filter(random.Random(521), 30)
    t = cover(f, AB_STAR)
    transitions = dict(sorted(t.transitions.items(), key=lambda e: -e[0][0]))
    assert list(transitions) != list(t.transitions)
    return _replace(t, transitions=transitions), f, AB_STAR, True


def two_target_states():
    """The one-state copy machine of Σ* against (ab)*: its state is
    reached with (ab)* in two states. Over the filter (ab)* its image is
    within the target."""
    t = identity_transducer(SIGMA_STAR)
    assert len(t.states) == 1 and t.transitions[0, "a"] == ("a", 0)
    return t, AB_STAR, AB_STAR, True


def accepting_where_the_filter_rejects():
    """A cover state that accepts where the target rejects, reached only
    where the filter rejects too: the image does not change."""
    f = determinize(regex_to_nfa("(a|b)*a"))
    plan, trie = _trie(f, AB_STAR)
    t = cover_module._restrict(trie, AB_STAR)
    word = _code(plan, "a") + plan.zero_word[:2]
    assert f.walk(f.initial, plan.witness.access + word) not in f.accepting
    return _replace(t, accepting=t.accepting | {_state(t, plan, word)}), f, AB_STAR, True


def accepting_where_both_accept():
    """A cover state that accepts after the code of `a`, where the filter
    accepts and (ab)* rejects: the image gains `a`."""
    plan, trie = _trie(SIGMA_STAR, AB_STAR)
    return flip_to_accepting(cover_module._restrict(trie, AB_STAR), plan), \
        SIGMA_STAR, AB_STAR, False


HAND_OVERS = [relabelled_cover, descending_sources, two_target_states,
              accepting_where_the_filter_rejects, accepting_where_both_accept]


@pytest.mark.parametrize("case", HAND_OVERS, ids=lambda case: case.__name__)
def test_unsettled_machines_go_to_cover_gap(case, monkeypatch):
    """The pass says False; `cover_gap`, the one exact check, names the
    oracle's word. Where the filter is hard, `cover` given the machine by
    `_restrict` ends as `oracle_cover` given it as the composition does."""
    t, f, r, within = case()
    assert cover_module._image_within(t, r) is False
    assert oracle_image_within(t, f, r) is within
    gap = cover_gap(t, f, r)
    assert gap == oracle_cover_gap(t, f, r)
    assert (gap is None) is within
    if isinstance(classify(f), Hard):  # all but the copy machine over (ab)*
        monkeypatch.setattr(cover_module, "_restrict", lambda trie, r: t)
        monkeypatch.setattr(helpers, "compose_dfst", lambda first, second: t)
        assert outcome(cover, f, r) == outcome(oracle_cover, f, r)


# ---------------------------------------------------------------------------
# walk (b): each code walked through the filter once per filter state

# words with an even number of `a`s, and target words of even length
EVEN_AS = Dfa(("a", "b"), frozenset({0, 1}), 0, frozenset({0}),
              {(0, "a"): 1, (0, "b"): 0, (1, "a"): 0, (1, "b"): 1})
EVEN_LENGTH = Dfa(("a", "b"), frozenset({0, 1}), 0, frozenset({0}),
                  {(0, "a"): 1, (0, "b"): 1, (1, "a"): 0, (1, "b"): 0})


def test_inverse_walk_keys_codes_by_filter_state(monkeypatch):
    """A forged witness whose cycles `a` and `b` are no cycles of the even-`a`
    filter at its pivot: each letter's code, `ab` or `ba`, flips the
    filter's state, so the walk meets the filter in both states with the
    same letters. e(w) is a filter word exactly when w has even length,
    which is the target; a walk that kept one filter state per letter
    would end the stop word in the wrong one."""
    forged = HardnessWitness(0, "", "a", "b", "")
    plan = plan_cover(forged, EVEN_LENGTH.alphabet)
    assert EVEN_AS.walk(forged.state, plan.zero_word) != forged.state
    monkeypatch.setattr(cover_module, "classify", lambda d: Hard(forged))
    walk = cover_module._inverse_reaches
    verdicts = []

    def recording(t, f, r, plan):
        verdict = walk(t, f, r, plan)
        verdicts.append((verdict, oracle_inverse_reaches(t, f, r, plan)))
        return verdict

    monkeypatch.setattr(cover_module, "_inverse_reaches", recording)
    calls = count_calls(monkeypatch, EXACT)
    assert isinstance(cover(EVEN_AS, EVEN_LENGTH), Dfst)
    assert verdicts == [(True, True)]
    assert calls == {"image_nfa": 0, "separating_word": 0}


def test_inverse_walk_matches_oracle_on_forged_witnesses():
    rng = random.Random(523)
    verdicts = []
    leaving = 0
    while len(verdicts) < 400:
        f = random_dfa(rng, rng.randint(1, 5), density=rng.choice((0.8, 1.0)),
                       accept_prob=rng.choice((0.5, 0.9)))
        words = ["".join(rng.choice("ab") for _ in range(rng.randint(lo, 3))) for lo in (0, 1, 1, 0)]
        forged = HardnessWitness(rng.randrange(len(f.states)), *words)
        letters = rng.choice((("a", "b"), ("a", "b", "c"), ("c",)))
        r = random_dfa(rng, rng.randint(1, 4), letters, density=rng.choice((0.5, 1.0)))
        try:
            plan = plan_cover(forged, letters)
            trie = cover_module._build_dispatch(plan, f.alphabet)
        except CertificateError:
            continue
        pivot = f.walk(f.initial, forged.access)
        leaving += pivot is not None and f.walk(pivot, plan.zero_word) not in (None, pivot)
        for t in (cover_module._restrict(trie, r), compose_dfst(trie, identity_transducer(r))):
            verdict = cover_module._inverse_reaches(t, f, r, plan)
            assert verdict is oracle_inverse_reaches(t, f, r, plan)
            verdicts.append(verdict)
    assert 40 <= sum(verdicts) <= len(verdicts) - 40
    assert leaving >= 50
