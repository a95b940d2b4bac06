"""`cover` proves its image by the dispatch trie's right inverse.

Two deterministic walks, (a) image ⊆ L(r) and (b) L(r) ⊆ image via
e(w) = access · code(w) · stop word, replace the image automaton and its
subset search. The exact check runs only when a walk fails, so every
verdict and message must match the oracle, which checks the image three
times the old way."""

import importlib
import random
import sys

import pytest

import helpers
from helpers import (
    identity_transducer,
    oracle_cover,
    oracle_cover_gap,
    oracle_surjection_to_star,
    outcome,
    planted_hard_filter,
    random_dfa,
)
from rrkit import (
    Dfa,
    Dfst,
    Hard,
    HardnessWitness,
    classify,
    compose_dfst,
    cover,
    determinize,
    dfst_to_text,
    empty_dfa,
    plan_cover,
    regex_to_nfa,
    surjection_to_star,
    universal_dfa,
)
from rrkit.transducer import _feed

cover_module = importlib.import_module("rrkit.cover")

SIGMA_STAR = universal_dfa(("a", "b"))
AB_STAR = determinize(regex_to_nfa("(ab)*"))


def _filters(rng):
    """Hard filters (random, planted and Σ*) and a few easy ones."""
    found = [SIGMA_STAR, determinize(regex_to_nfa("a*")), determinize(regex_to_nfa("(ab)*b"))]
    hard = 0
    while hard < 10:
        d = random_dfa(rng, rng.randint(2, 6), density=rng.choice((0.7, 1.0)))
        if isinstance(classify(d), Hard):
            found.append(d)
            hard += 1
    return found + [planted_hard_filter(rng, n) for n in (4, 12, 30)]


def _targets(rng):
    """Partial random targets over `ab`, `abc`, `ba` and `c`, the empty
    language, Σ*, and an empty-alphabet target (ε only, or nothing)."""
    targets = [random_dfa(rng, rng.randint(1, 5), alphabet, density=rng.choice((0.5, 0.8)))
               for alphabet in (("a", "b"), ("a", "b", "c"), ("b", "a"), ("c",))
               for _ in range(4)]
    return targets + [
        empty_dfa(("a", "b")),
        universal_dfa(("a", "b", "c")),
        Dfa((), frozenset({0}), 0, frozenset({0}), {}),
        Dfa((), frozenset({0}), 0, frozenset(), {}),
    ]


def _result(fn, *args):
    """The printed transducer, or the raised exception's kind and message."""
    try:
        return dfst_to_text(fn(*args))
    except Exception as exc:  # noqa: BLE001 - the comparison wants every kind
        return type(exc).__name__, str(exc)


class TestMatchesOracle:
    def test_cover_text_on_filters_and_targets(self):
        rng = random.Random(211)
        targets = _targets(rng)
        for f in _filters(rng):
            for r in targets:
                assert _result(cover, f, r) == _result(oracle_cover, f, r)

    def test_surjection_text(self):
        rng = random.Random(223)
        for f in _filters(rng):
            verdict = classify(f)
            if not isinstance(verdict, Hard):
                continue
            for letters in (("a", "b"), ("a", "b", "c"), ("b", "a"), ("c",), ("d", "c", "b", "a", "e")):
                got = _result(surjection_to_star, f, verdict.witness, letters)
                assert got == _result(oracle_surjection_to_star, f, verdict.witness, letters)
                assert got == _result(cover, f, universal_dfa(letters))


# ---------------------------------------------------------------------------
# a composition gone wrong: each mutant breaks one half of the image's
# equality with the target, and `cover` must then refuse it with exactly
# the oracle's message


def _replace(t: Dfst, **changes) -> Dfst:
    fields = dict(in_alphabet=t.in_alphabet, out_alphabet=t.out_alphabet, states=t.states,
                  initial=t.initial, accepting=t.accepting,
                  transitions=dict(t.transitions), final_output=dict(t.final_output))
    fields.update(changes)
    return Dfst(**fields)


def _code(plan, letter):
    bits = dict(plan.letter_codes)[letter]
    return "".join(plan.one_word if b == "1" else plan.zero_word for b in bits)


def _state(t, plan, word):
    """t's state after the access word and then `word`."""
    return _feed(t, t.initial, plan.witness.access + word)[1]


def _relabel(t, edge, out):
    return _replace(t, transitions={**t.transitions, edge: (out, t.transitions[edge][1])})


def _last_edge(t, plan, word):
    """The edge reading the last letter of `word`, after the access word."""
    return _state(t, plan, word[:-1]), word[-1]


def flip_to_accepting(t, plan):
    """The hub state after the code of `a` accepts: the image gains `a`."""
    return _replace(t, accepting=t.accepting | {_state(t, plan, _code(plan, "a"))})


def accept_with_final_output(t, plan):
    """The hub state after the codes of `a` and `b` accepts and writes `a`
    at the end: the image gains `aba`, though `ab` itself is a target word."""
    q = _state(t, plan, _code(plan, "a") + _code(plan, "b"))
    return _replace(t, accepting=t.accepting | {q}, final_output={**t.final_output, q: "a"})


def drop_accepting_state(t, plan):
    """The state the stop word reaches no longer accepts: the image is empty."""
    return _replace(t, accepting=t.accepting - {_state(t, plan, plan.stop_word)})


def drop_trie_edge(t, plan):
    """The last edge of the code of `a`, the one that emits it, is gone."""
    transitions = dict(t.transitions)
    del transitions[_last_edge(t, plan, _code(plan, "a"))]
    return _replace(t, transitions=transitions)


def wrong_output_letter(t, plan):
    """The block `11`, which no letter's code uses but decodes to `c`, emits
    `b` instead."""
    edge = _last_edge(t, plan, plan.one_word + plan.one_word)
    assert t.transitions[edge][0] == "c"
    return _relabel(t, edge, "b")


def swapped_code_letter(t, plan):
    """The code of `a` emits `b`."""
    return _relabel(t, _last_edge(t, plan, _code(plan, "a")), "b")


def extra_final_output(t, plan):
    """The state the stop word reaches writes one more `a` at the end."""
    q = _state(t, plan, plan.stop_word)
    return _replace(t, final_output={**t.final_output, q: "a"})


def output_on_stop_word(t, plan):
    """The last letter of the stop word writes `a`."""
    return _relabel(t, _last_edge(t, plan, plan.stop_word), "a")


def output_on_access(t, plan):
    """The first letter of the access word writes `a`."""
    return _relabel(t, (t.initial, plan.witness.access[0]), "a")


A_OR_C_STAR = Dfa(("a", "b", "c"), frozenset({0}), 0, frozenset({0}), {(0, "a"): 0, (0, "c"): 0})
A_STAR = Dfa(("a",), frozenset({0}), 0, frozenset({0}), {(0, "a"): 0})
B_THEN_ANY = determinize(regex_to_nfa("b(a|b)*"))  # its witness has access word `ba`

# (mutant, filter, target, image within the target, walk (b) holds,
#  separating word); walk (a) may fail where the image is within
MUTANTS = {
    "flipped accepting state": (flip_to_accepting, SIGMA_STAR, AB_STAR, False, True, "a"),
    "accepting state with final output":
        (accept_with_final_output, SIGMA_STAR, AB_STAR, False, True, "aba"),
    "dropped accepting state": (drop_accepting_state, SIGMA_STAR, AB_STAR, True, False, ""),
    "dropped trie edge": (drop_trie_edge, SIGMA_STAR, AB_STAR, True, False, "ab"),
    "wrong output letter": (wrong_output_letter, SIGMA_STAR, A_OR_C_STAR, False, True, "b"),
    "swapped code letter": (swapped_code_letter, SIGMA_STAR, SIGMA_STAR, True, False, "a"),
    "extra final output": (extra_final_output, SIGMA_STAR, A_STAR, True, False, ""),
    "output on the stop word": (output_on_stop_word, SIGMA_STAR, SIGMA_STAR, True, False, ""),
    "output on the access word": (output_on_access, B_THEN_ANY, SIGMA_STAR, True, False, ""),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_composition_refused_like_the_oracle(name, monkeypatch):
    mutate, f, target, within, reaches, gap = MUTANTS[name]
    plan = plan_cover(classify(f).witness, target.alphabet)
    mutant = mutate(compose_dfst(cover_module._build_dispatch(plan, f.alphabet),
                                 identity_transducer(target)), plan)
    assert within or not cover_module._image_within(mutant, target)
    assert cover_module._inverse_reaches(mutant, f, target, plan) is reaches

    def composing(first, second):
        return mutate(compose_dfst(first, second), plan)

    build = cover_module._restrict
    monkeypatch.setattr(cover_module, "_restrict", lambda trie, r: mutate(build(trie, r), plan))
    monkeypatch.setattr(helpers, "compose_dfst", composing)
    want = ("CertificateError", f"cover image differs from the target on {gap!r}")
    assert outcome(cover, f, target) == want
    assert outcome(oracle_cover, f, target) == want


def test_walk_does_not_trust_the_witness(monkeypatch):
    """A witness whose stop word leaves the filter: walk (b) sees that e(w)
    is no filter word, and the exact check names the gap."""
    f = determinize(regex_to_nfa("(a|b)*a"))
    good = classify(f).witness
    bad = HardnessWitness(good.state, good.access, good.cycle_a, good.cycle_b,
                          good.exit_word + "b")
    monkeypatch.setattr(cover_module, "classify", lambda d: Hard(bad))
    plan = plan_cover(bad, AB_STAR.alphabet)
    t = compose_dfst(cover_module._build_dispatch(plan, f.alphabet),
                     identity_transducer(AB_STAR))
    assert cover_module._image_within(t, AB_STAR)
    assert not cover_module._inverse_reaches(t, f, AB_STAR, plan)
    gap, _ = oracle_cover_gap(t, f, AB_STAR)
    assert outcome(cover, f, AB_STAR) \
        == ("CertificateError", f"cover image differs from the target on {gap!r}")


# ---------------------------------------------------------------------------
# the exact check runs only when a walk fails

CHECKS = ("image_nfa", "separating_word")


@pytest.fixture
def check_calls(monkeypatch):
    """Calls of `image_nfa` and `separating_word`, under every `rrkit` binding."""
    counts = dict.fromkeys(CHECKS, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    modules = [m for key, m in sys.modules.items() if key == "rrkit" or key.startswith("rrkit.")]
    for module in modules:
        for name in CHECKS:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return counts


class TestExactCheckOnlyOnFailure:
    def test_proved_cover_runs_no_check(self, check_calls):
        rng = random.Random(227)
        for n in (8, 40, 120):
            cover(planted_hard_filter(rng, n), determinize(regex_to_nfa("c(a|b|c)*")))
        surjection_to_star(SIGMA_STAR, classify(SIGMA_STAR).witness, ("a", "b", "c"))
        assert check_calls == {"image_nfa": 0, "separating_word": 0}

    def test_refused_cover_checks_once(self, check_calls, monkeypatch):
        monkeypatch.setattr(cover_module, "_restrict",
                            lambda trie, r: identity_transducer(SIGMA_STAR))
        assert outcome(cover, SIGMA_STAR, AB_STAR) \
            == ("CertificateError", "cover image differs from the target on 'a'")
        assert check_calls == {"image_nfa": 1, "separating_word": 1}

    def test_accepting_where_the_filter_rejects_checks_once(self, check_calls, monkeypatch):
        # t accepts after the code of `a` and `ab` of the next code, where
        # the filter rejects; the image does not change, but walk (a),
        # which never reads the filter, cannot prove it, so the exact
        # check runs once and passes the cover
        f = determinize(regex_to_nfa("(a|b)*a"))
        plan = plan_cover(classify(f).witness, AB_STAR.alphabet)
        word = _code(plan, "a") + plan.zero_word[:2]

        build = cover_module._restrict

        def building(trie, r):
            t = build(trie, r)
            q = _state(t, plan, word)
            assert f.walk(f.initial, plan.witness.access + word) not in f.accepting
            return _replace(t, accepting=t.accepting | {q})

        monkeypatch.setattr(cover_module, "_restrict", building)
        assert isinstance(cover(f, AB_STAR), Dfst)
        assert check_calls == {"image_nfa": 1, "separating_word": 1}

    def test_fallback_passes_what_the_walk_cannot_prove(self, check_calls, monkeypatch):
        # the copy machine of Σ* maps Σ* onto Σ*, but not through the code
        # words: walk (b) fails and the exact check accepts it
        copier = identity_transducer(SIGMA_STAR)
        monkeypatch.setattr(cover_module, "_restrict", lambda trie, r: copier)
        plan = plan_cover(classify(SIGMA_STAR).witness, SIGMA_STAR.alphabet)
        assert cover_module._image_within(copier, SIGMA_STAR)
        assert not cover_module._inverse_reaches(copier, SIGMA_STAR, SIGMA_STAR, plan)
        assert cover(SIGMA_STAR, SIGMA_STAR) is copier
        assert check_calls == {"image_nfa": 1, "separating_word": 1}
