"""`trim` in one numbering pass and `condense` on int lists, against the
versions they replaced (`helpers.oracle_trim` and `oracle_condense`, kept
verbatim): the same trimmed machine and the same condensation on every
small machine, on seeded random machines with unreachable and dead states,
on empty-language and partial machines, and under the state numberings of
`test_pair_rows`, some of which cannot index a list."""

import random

import pytest

from helpers import (
    count_calls,
    enumerate_dfas,
    oracle_condense,
    oracle_trim,
    random_dfa,
    trim_dfas_upto,
)
from rrkit import Dfa, condense, dfa_to_text, trim
from test_pair_rows import NUMBERINGS, _renumbered


def _same_trim(d):
    got, want = trim(d), oracle_trim(d)
    assert (got.alphabet, got.states, got.initial, got.accepting, got.transitions) \
        == (want.alphabet, want.states, want.initial, want.accepting, want.transitions)
    assert dfa_to_text(got) == dfa_to_text(want)


def _same_condensation(d):
    got, want = condense(d), oracle_condense(d)
    assert (got.scc_of, got.components, got.nontrivial) \
        == (want.scc_of, want.components, want.nontrivial)


def _agree(d):
    _same_trim(d)
    _same_condensation(d)
    _same_condensation(trim(d))


def _with_waste(rng, d, unreachable, dead):
    """d plus `unreachable` states that nothing enters (they may enter d and
    accept) and `dead` rejecting states that d's states enter and that
    enter only one another."""
    n = len(d.states)
    transitions = dict(d.transitions)
    accepting = set(d.accepting)
    for q in range(n, n + unreachable):
        for sym in d.alphabet:
            if rng.random() < 0.7:
                transitions[q, sym] = rng.randrange(n + unreachable)
        if rng.random() < 0.5:
            accepting.add(q)
    first_dead = n + unreachable
    dead_states = range(first_dead, first_dead + dead)
    for q in dead_states:
        for sym in d.alphabet:
            if rng.random() < 0.6:
                transitions[q, sym] = rng.choice(dead_states)
        transitions[rng.randrange(n), rng.choice(d.alphabet)] = q
    return Dfa(d.alphabet, frozenset(range(first_dead + dead)), d.initial,
               frozenset(accepting), transitions)


def _seeded(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        alphabet = rng.choice((("a", "b"), ("b", "a"), ("a",), ("c", "a", "b")))
        d = random_dfa(rng, rng.randint(1, 40), alphabet,
                       density=rng.choice((0.5, 0.8, 1.0)),
                       accept_prob=rng.choice((0.0, 0.05, 0.3)))
        yield _with_waste(rng, d, rng.randint(0, 5), rng.randint(0, 5))


class TestSmallMachines:
    def test_every_trim_machine_upto_three_states(self):
        for d in trim_dfas_upto(3):
            _agree(d)

    def test_every_machine_upto_two_states(self):
        # includes the untrimmed, the partial and the empty-language ones
        for d in enumerate_dfas(2):
            _agree(d)

    def test_every_unary_machine_upto_four_states(self):
        for d in enumerate_dfas(4, ("a",)):
            _agree(d)


class TestSeededMachines:
    @pytest.mark.parametrize("seed", [3, 17, 29])
    def test_unreachable_and_dead_states(self, seed):
        for d in _seeded(seed, 60):
            _agree(d)

    def test_empty_languages(self):
        for d in _seeded(41, 40):
            # no accepting state, or accepting states that nothing reaches
            for accepting in (frozenset(), frozenset({max(d.states) + 1})):
                empty = Dfa(d.alphabet, d.states | accepting, d.initial, accepting,
                            d.transitions)
                assert not trim(empty).accepting
                _agree(empty)

    def test_partial_machines(self):
        rng = random.Random(43)
        for _ in range(80):
            d = random_dfa(rng, rng.randint(1, 30), density=rng.choice((0.1, 0.3, 0.5)))
            _agree(d)

    def test_initial_state_not_numbered_zero(self):
        rng = random.Random(47)
        for d in _seeded(47, 40):
            moved = Dfa(d.alphabet, d.states, rng.choice(sorted(d.states)), d.accepting,
                        d.transitions)
            _agree(moved)


class TestNumberings:
    @pytest.mark.parametrize("numbering", sorted(NUMBERINGS))
    def test_seeded_machines(self, numbering):
        name = NUMBERINGS[numbering]
        for d in _seeded(53, 40):
            renamed = _renumbered(d, name)
            _agree(renamed)
            # trim renumbers canonically, so the numbering does not show
            assert dfa_to_text(trim(renamed)) == dfa_to_text(trim(d))

    @pytest.mark.parametrize("numbering", sorted(NUMBERINGS))
    def test_small_machines(self, numbering):
        name = NUMBERINGS[numbering]
        for d in trim_dfas_upto(2):
            _agree(_renumbered(d, name))


class TestLongCycle:
    """The search keeps its own stack: a 20,000-state cycle does not recurse."""

    @pytest.mark.parametrize("numbering", ["dense", "huge"])
    def test_long_cycle(self, numbering):
        n = 20_000
        d = Dfa(("a",), frozenset(range(n)), 0, frozenset({n - 1}),
                {(q, "a"): (q + 1) % n for q in range(n)})
        d = _renumbered(d, NUMBERINGS[numbering])
        _same_condensation(d)
        assert len(condense(d).components) == 1
        _same_trim(d)


def test_trim_numbers_in_its_own_pass(monkeypatch):
    calls = count_calls(monkeypatch, ["canonical_dfa"])
    for d in _seeded(59, 20):
        trim(d)
    assert calls == {"canonical_dfa": 0}
