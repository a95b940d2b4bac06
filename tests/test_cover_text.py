"""A cover is written in one pass over its own numbering, and walk (a) of
its image proof is one pass over its transitions.

`dfst_to_text` writes a machine whose numbering is already the
breadth-first one in one pass and renumbers any other machine first; it
must agree with the writer it replaced, kept in `helpers`, on every
input. `cover._image_within` settles a cover in one ordered pass over
its transitions and says False on any machine that pass cannot settle,
which `cover_gap` then decides; it must never say True where the walk
over reachable triples it replaced (`oracle_image_within`) says False."""

import importlib
import random

import pytest

from helpers import (
    identity_transducer,
    oracle_cover_gap,
    oracle_dfst_to_text,
    oracle_image_within,
    random_dfa,
    random_dfst,
)
from rrkit import (
    Dfa,
    Dfst,
    Hard,
    classify,
    compose_dfst,
    cover,
    dfst_to_text,
    parse_dfst,
    plan_cover,
    universal_dfa,
)
from test_cover_proof import MUTANTS, _filters, _targets

cover_module = importlib.import_module("rrkit.cover")

BIG = 10 ** 40


@pytest.fixture
def renumbered(monkeypatch):
    """Writes that renumber first: each is a call of the one-pass writer
    that turns its machine down (returns None), after which the writer
    runs once more, on the breadth-first copy."""
    module = importlib.import_module("rrkit.transducer")
    write = module._canonical_text
    counts = {"renumbered": 0}

    def counting(t):
        text = write(t)
        counts["renumbered"] += text is None
        return text

    monkeypatch.setattr(module, "_canonical_text", counting)
    return counts


def _hard_filters(rng):
    return [f for f in _filters(rng) if isinstance(classify(f), Hard)]


def _relabel_dfst(t: Dfst, label) -> Dfst:
    """t with each state q renamed label(q) and its transitions listed in
    the order of the new names."""
    transitions = {(label(q), sym): (out, label(dst))
                   for (q, sym), (out, dst) in sorted(t.transitions.items(),
                                                      key=lambda e: (label(e[0][0]), e[0][1]))}
    return Dfst(t.in_alphabet, t.out_alphabet, frozenset(map(label, t.states)),
                label(t.initial), frozenset(map(label, t.accepting)), transitions,
                {label(q): out for q, out in t.final_output.items()})


def _relabel_dfa(d: Dfa, label) -> Dfa:
    return Dfa(d.alphabet, frozenset(map(label, d.states)), label(d.initial),
               frozenset(map(label, d.accepting)),
               {(label(q), sym): label(t) for (q, sym), t in d.transitions.items()})


def _text(t: Dfst, rng: random.Random, label) -> str:
    """t as a `dfst` file with state q written label(q), its state list and
    its transition and final lines shuffled."""
    states = [str(label(q)) for q in t.states]
    rng.shuffle(states)
    trans = [f"trans {label(q)} {sym} {out or '-'} {label(dst)}"
             for (q, sym), (out, dst) in t.transitions.items()]
    final = [f"final {label(q)} {out or '-'}" for q, out in t.final_output.items()]
    body = trans + final
    rng.shuffle(body)
    return "\n".join([
        "dfst",
        " ".join(["in_alphabet", *t.in_alphabet]),
        " ".join(["out_alphabet", *t.out_alphabet]),
        " ".join(["states", *states]),
        f"initial {label(t.initial)}",
        " ".join(["accept", *(str(label(q)) for q in t.accepting)]),
        *body,
    ]) + "\n"


class TestWriterMatchesOracle:
    def test_covers_write_without_renumbering(self, renumbered):
        rng = random.Random(401)
        targets = _targets(rng)
        covers = 0
        for f in _hard_filters(rng):
            for r in targets:
                t = cover(f, r)
                assert dfst_to_text(t) == oracle_dfst_to_text(t)
                covers += 1
        assert covers >= 10 * len(targets)
        assert renumbered == {"renumbered": 0}

    def test_compositions_write_without_renumbering(self, renumbered):
        rng = random.Random(409)
        for _ in range(150):
            t1 = random_dfst(rng, rng.randint(1, 6), out_alphabet=("b", "a"),
                             density=rng.choice((0.5, 0.9)))
            t2 = random_dfst(rng, rng.randint(1, 6), in_alphabet=("b", "a", "c"),
                             out_alphabet=("c", "a"), density=rng.choice((0.5, 0.9)))
            t = compose_dfst(t1, t2)
            assert dfst_to_text(t) == oracle_dfst_to_text(t)
        assert renumbered == {"renumbered": 0}

    @pytest.mark.parametrize("name, label", [
        ("permuted", None),
        ("gapped", lambda q: 3 * q + 2),
        ("huge", lambda q: BIG + 7 * q),
    ])
    def test_parsed_files(self, name, label, renumbered):
        rng = random.Random(f"419/{name}")
        for _ in range(100):
            n = rng.randint(1, 7)
            t = random_dfst(rng, n, density=rng.choice((0.3, 0.7, 1.0)),
                            final_prob=0.5, min_out=rng.choice((0, 1)))
            if label is None:
                perm = rng.sample(range(n), n)
                parsed = parse_dfst(_text(t, rng, perm.__getitem__))
            else:
                parsed = parse_dfst(_text(t, rng, label))
            assert dfst_to_text(parsed) == oracle_dfst_to_text(parsed) \
                == oracle_dfst_to_text(t)
        assert renumbered["renumbered"] > 0

    def test_negative_state_ids(self):
        rng = random.Random(421)
        for _ in range(100):
            t = random_dfst(rng, rng.randint(1, 7), density=0.8)
            for label in (lambda q: -q, lambda q: -1 - q, lambda q: q - 3):
                moved = _relabel_dfst(t, label)
                assert dfst_to_text(moved) == oracle_dfst_to_text(moved) \
                    == oracle_dfst_to_text(t)

    def test_initial_state_not_zero(self, renumbered):
        # a chain 1 -a-> 0 -a-> 2: sorted by source it looks canonical but
        # for its initial state
        t = Dfst(("a",), ("a",), frozenset({0, 1, 2}), 1, frozenset({2}),
                 {(0, "a"): ("a", 2), (1, "a"): ("", 0)}, {2: "a"})
        assert dfst_to_text(t) == oracle_dfst_to_text(t) == (
            "dfst\nin_alphabet a\nout_alphabet a\nstates 0 1 2\ninitial 0\naccept 2\n"
            "trans 0 a - 1\ntrans 1 a a 2\nfinal 2 a\n")
        assert renumbered == {"renumbered": 1}

    def test_unreachable_states(self, renumbered):
        edges = {(0, "a"): ("a", 1), (1, "b"): ("", 0)}
        cases = [
            # the highest state is unreachable, with no edge
            Dfst(("a", "b"), ("a",), frozenset({0, 1, 2}), 0, frozenset({1, 2}), edges,
                 {2: "a"}),
            # the highest state is unreachable, with an edge into the reachable part
            Dfst(("a", "b"), ("a",), frozenset({0, 1, 2}), 0, frozenset({1}),
                 {**edges, (2, "a"): ("a", 0)}, {}),
            # a middle state is unreachable and the last one is reached from it
            Dfst(("a", "b"), ("a",), frozenset({0, 1, 2, 3}), 0, frozenset({3}),
                 {(0, "a"): ("", 0), (1, "a"): ("a", 1), (1, "b"): ("a", 2),
                  (2, "a"): ("a", 3)}, {3: "aa"}),
            # only the initial state is reachable: the next one is not its successor
            Dfst(("a", "b"), ("a",), frozenset({0, 1}), 0, frozenset({0}),
                 {(0, "b"): ("a", 0), (1, "b"): ("", 1)}, {0: ""}),
        ]
        for t in cases:
            assert dfst_to_text(t) == oracle_dfst_to_text(t)
        assert renumbered == {"renumbered": len(cases)}

    def test_transitions_out_of_alphabet_order(self, renumbered):
        rng = random.Random(431)
        shuffled = 0
        for _ in range(100):
            t = compose_dfst(random_dfst(rng, rng.randint(1, 6), in_alphabet=("a", "b", "c")),
                             random_dfst(rng, rng.randint(1, 6)))
            # each source's transitions listed with the symbols reversed
            transitions = dict(sorted(t.transitions.items(),
                                      key=lambda e: (e[0][0], -t.in_alphabet.index(e[0][1]))))
            moved = Dfst(t.in_alphabet, t.out_alphabet, t.states, t.initial, t.accepting,
                         transitions, t.final_output)
            shuffled += list(transitions) != list(t.transitions)
            assert dfst_to_text(moved) == oracle_dfst_to_text(moved) == dfst_to_text(t)
        assert renumbered == {"renumbered": shuffled} and shuffled > 20

    def test_accepting_states_with_and_without_final_output(self):
        rng = random.Random(433)
        for _ in range(100):
            t = random_dfst(rng, rng.randint(1, 6), final_prob=0.5)
            # an empty final output on some accepting states writes no line
            final = {**t.final_output, **{q: "" for q in t.accepting if rng.random() < 0.3}}
            t = Dfst(t.in_alphabet, t.out_alphabet, t.states, t.initial, t.accepting,
                     t.transitions, final)
            assert dfst_to_text(t) == oracle_dfst_to_text(t)


# ---------------------------------------------------------------------------
# walk (a): the same verdict as before on every (t, f, r) triple


def _triples(rng):
    """(t, f, r) triples: random transducers against random filters and
    partial targets, built covers, and both of them renumbered."""
    triples = []
    for _ in range(120):
        f = random_dfa(rng, rng.randint(1, 6), density=rng.choice((0.5, 0.8, 1.0)),
                       accept_prob=0.7)
        t = random_dfst(rng, rng.randint(2, 7), out_alphabet=("a", "b", "c"),
                        density=rng.choice((0.5, 0.9)), final_prob=0.4)
        r = random_dfa(rng, rng.randint(1, 5), ("a", "b", "c"), density=rng.choice((0.4, 1.0)),
                       accept_prob=rng.choice((0.2, 0.5)))
        if rng.random() < 0.1:
            r = universal_dfa(("a", "b", "c"))
        triples.append((t, f, r))
    targets = _targets(rng)
    for f in _hard_filters(rng):
        for r in rng.sample(targets, 5):
            triples.append((cover(f, r), f, r))
    moved = []
    for t, f, r in rng.sample(triples, 40):
        label = rng.choice((lambda q: BIG + 7 * q, lambda q: -q, lambda q: 5 * q + 3))
        moved.append((_relabel_dfst(t, label), _relabel_dfa(f, label), _relabel_dfa(r, label)))
    return triples + moved


def test_walk_matches_oracle():
    verdicts = []
    for t, f, r in _triples(random.Random(439)):
        verdict = cover_module._image_within(t, r), oracle_image_within(t, f, r)
        assert verdict != (True, False)
        verdicts.append(verdict)
    assert len(verdicts) >= 200
    assert 40 <= sum(oracle for _, oracle in verdicts) <= len(verdicts) - 40
    assert sum(walk for walk, _ in verdicts) >= 40


@pytest.mark.parametrize("name", MUTANTS)
def test_walk_matches_oracle_on_mutants(name):
    """The pass never proves a mutant whose image leaves the target, and
    `cover_gap`, which decides every mutant, names the oracle's word."""
    mutate, f, target, within, _, word = MUTANTS[name]
    plan = plan_cover(classify(f).witness, target.alphabet)
    trie = cover_module._build_dispatch(plan, f.alphabet)
    for t in (compose_dfst(trie, identity_transducer(target)),
              cover_module._restrict(trie, target)):
        mutant = mutate(t, plan)
        assert within or not cover_module._image_within(mutant, target)
        assert oracle_image_within(mutant, f, target) is within
        gap = cover_module.cover_gap(mutant, f, target)
        assert gap == oracle_cover_gap(mutant, f, target)
        assert gap[0] == word
