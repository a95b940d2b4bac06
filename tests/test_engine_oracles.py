"""Composition, transducer renumbering, the image, determinization and
DFA renumbering run on the library's shared engines (`transducer._restrict`,
`automata._side` and `trim`'s numbering pass). Each must build, field for
field, the machine that its own breadth-first search built before; those
searches are kept in `helpers` as oracles. The Nfa side's memoized closed
successors must give the subsets, ids and words of per-subset closures."""

import random

import pytest

from helpers import (
    count_calls,
    oracle_bfs_renumbered,
    oracle_canonical_dfa,
    oracle_compose_dfst,
    oracle_determinize,
    oracle_image_nfa,
    oracle_pair_search,
    random_dfa,
    random_dfst,
    random_nfa,
)
from rrkit import (
    AlphabetError,
    Dfa,
    Dfst,
    Nfa,
    canonical_dfa,
    compose_dfst,
    determinize,
    dfa_to_text,
    dfst_to_text,
    empty_dfa,
    image_nfa,
    merge_alphabets,
    nfa_to_text,
    parse_dfa,
    parse_dfst,
    universal_dfa,
)
from rrkit.automata import _DIFF, _LEFT, _MEET, _closure, _index, _pair_search, _subset_step
from rrkit.cli import main
from rrkit.transducer import _canonical_text, _restrict
from test_transducer import LABELS, _relabel

def _relabel_nfa(n: Nfa, label) -> Nfa:
    return Nfa(n.alphabet, frozenset(map(label, n.states)), frozenset(map(label, n.initial)),
               frozenset(map(label, n.accepting)),
               tuple((label(q), sym, label(t)) for q, sym, t in n.transitions))


def _dfst_fields(t: Dfst):
    return (t.in_alphabet, t.out_alphabet, t.states, t.initial, t.accepting,
            list(t.transitions.items()), t.final_output)


def _dfa_fields(d: Dfa):
    return d.alphabet, d.states, d.initial, d.accepting, list(d.transitions.items())


def _dfst_pairs():
    rng = random.Random(1701)
    for _ in range(100):
        t1 = random_dfst(rng, rng.randint(1, 6), out_alphabet=("a", "b", "c"),
                         density=rng.choice((0.5, 0.9)), max_out=3, final_prob=0.5)
        t2 = random_dfst(rng, rng.randint(1, 6), in_alphabet=("a", "b", "c"),
                         out_alphabet=("c", "a"), density=rng.choice((0.5, 0.9)),
                         max_out=3, final_prob=0.5)
        for label in LABELS:
            yield _relabel(t1, label), _relabel(t2, label)


class TestCompose:
    def test_matches_oracle_field_for_field(self):
        composed = 0
        for t1, t2 in _dfst_pairs():
            assert _dfst_fields(compose_dfst(t1, t2)) \
                == _dfst_fields(oracle_compose_dfst(t1, t2))
            composed += 1
        assert composed == 400

    def test_each_machine_composed_with_itself(self):
        rng = random.Random(1703)
        for _ in range(100):
            t = random_dfst(rng, rng.randint(1, 6), max_out=3, final_prob=0.5)
            for label in LABELS:
                moved = _relabel(t, label)
                assert _dfst_fields(compose_dfst(moved, moved)) \
                    == _dfst_fields(oracle_compose_dfst(moved, moved))

    def test_one_entry_state_written_from_converging_readers(self):
        """State 2 of t1 has one incoming edge, but that edge writes `x`,
        and t1 takes it with the reader in both of its states 0 and 1, which
        `x` takes to its state 2: the two pairs are one pair and are merged.
        State 1, entered once on an empty output, is the pair after it."""
        t1 = Dfst(("a", "b"), ("x", "y"), frozenset({0, 1, 2}), 0, frozenset({1}),
                  {(0, "a"): ("y", 0), (0, "b"): ("x", 2), (2, "a"): ("", 1)})
        t2 = Dfst(("x", "y"), ("x", "y"), frozenset({0, 1, 2}), 0, frozenset({2}),
                  {(0, "y"): ("y", 1), (1, "y"): ("y", 1), (0, "x"): ("x", 2),
                   (1, "x"): ("x", 2)})
        got = compose_dfst(t1, t2)
        assert _dfst_fields(got) == _dfst_fields(oracle_compose_dfst(t1, t2))
        assert len(got.states) == 4  # (0, 0), (0, 1), (2, 2), (1, 2)
        r = Dfa(("x", "y"), frozenset({0, 1, 2}), 0, frozenset({2}),
                {(0, "y"): 1, (1, "y"): 1, (0, "x"): 2, (1, "x"): 2})
        assert len(_restrict(t1, r).states) == 4

    def test_alphabet_check_comes_first(self):
        t1 = random_dfst(random.Random(1707), 3, out_alphabet=("a", "z"))
        t2 = random_dfst(random.Random(1709), 3)
        with pytest.raises(AlphabetError):
            compose_dfst(t1, t2)
        with pytest.raises(AlphabetError):
            oracle_compose_dfst(t1, t2)


class TestRenumberTransducer:
    """`dfst_to_text` renumbers a machine by running it in step with the
    DFA of all words over its output alphabet."""

    def test_matches_oracle_field_for_field(self):
        for t, _ in _dfst_pairs():
            want = oracle_bfs_renumbered(t)
            got = _restrict(t, universal_dfa(t.out_alphabet))
            # the copy keeps only final outputs that are not empty; random_dfst
            # writes none that are
            assert _dfst_fields(got) == _dfst_fields(want)
            assert dfst_to_text(t) == _canonical_text(want)

    def test_empty_output_alphabet(self):
        t = Dfst(("a", "b"), (), frozenset({4, 7, 9}), 7, frozenset({4}),
                 {(7, "b"): ("", 4), (7, "a"): ("", 9), (9, "a"): ("", 7)}, {4: ""})
        got = _restrict(t, universal_dfa(()))
        want = oracle_bfs_renumbered(t)
        assert _dfst_fields(got)[:-1] == _dfst_fields(want)[:-1]
        assert got.final_output == {} and want.final_output == {2: ""}
        assert dfst_to_text(t) == _canonical_text(want)



def _nfa_fields(n: Nfa):
    return n.alphabet, n.states, n.initial, n.accepting, n.transitions


def _image_cases():
    """Transducers writing 0 to 3 letters per edge, some with final
    outputs, against DFAs over their whole input alphabet or a proper
    subset of it, each machine under every relabelling."""
    rng = random.Random(1731)
    for _ in range(60):
        t = random_dfst(rng, rng.randint(1, 6), in_alphabet=("b", "a", "c"),
                        out_alphabet=rng.choice((("a", "b"), ("c",), ("z", "a", "b"))),
                        density=rng.choice((0.5, 0.9)), max_out=3, final_prob=0.5)
        a = random_dfa(rng, rng.randint(1, 6),
                       rng.choice((("b", "a", "c"), ("a", "b"), ("c",), ())),
                       density=rng.choice((0.5, 0.9)))
        for label_t in LABELS:
            for label_a in LABELS:
                yield _relabel(t, label_t), _relabel(a, label_a)


class TestImage:
    def test_matches_oracle_field_for_field(self):
        seen = {"final": 0, "subset": 0, "eps": 0, "long": 0}
        for t, a in _image_cases():
            got = image_nfa(t, a)
            assert _nfa_fields(got) == _nfa_fields(oracle_image_nfa(t, a))
            outputs = [out for out, _ in t.transitions.values()]
            seen["final"] += any(t.final_output.values())
            seen["subset"] += set(a.alphabet) < set(t.in_alphabet)
            seen["eps"] += "" in outputs
            seen["long"] += any(len(out) == 3 for out in outputs)
        assert min(seen.values()) > 100

    def test_sparse_state_numbers(self):
        t = Dfst(("a", "b"), ("x", "y"), frozenset({-4, 9, 10**30}), 10**30,
                 frozenset({-4, 10**30}),
                 {(10**30, "a"): ("xy", -4), (-4, "b"): ("", 9), (9, "a"): ("yyx", 10**30),
                  (-4, "a"): ("x", -4)},
                 {-4: "yx"})
        a = Dfa(("a", "b"), frozenset({3, 70, 5000}), 70, frozenset({3, 70}),
                {(70, "a"): 3, (3, "b"): 5000, (5000, "a"): 70, (3, "a"): 3})
        got = image_nfa(t, a)
        assert _nfa_fields(got) == _nfa_fields(oracle_image_nfa(t, a))
        assert got.transitions[:3] == ((1, None, 0), (1, "x", 3), (3, "y", 2))

    def test_alphabet_check_comes_first(self):
        t = random_dfst(random.Random(1733), 3)
        a = universal_dfa(("a", "z"))
        with pytest.raises(AlphabetError):
            image_nfa(t, a)
        with pytest.raises(AlphabetError):
            oracle_image_nfa(t, a)

    def test_cli_image_matches_oracle(self, tmp_path, capsys):
        rng = random.Random(1737)
        t_path, a_path = tmp_path / "t.txt", tmp_path / "a.txt"
        for _ in range(40):
            t = random_dfst(rng, rng.randint(1, 8), in_alphabet=("a", "b", "c"),
                            max_out=3, final_prob=0.5)
            a = random_dfa(rng, rng.randint(1, 8), rng.choice((("a", "b", "c"), ("b", "a"))))
            t_path.write_text(dfst_to_text(t))
            a_path.write_text(dfa_to_text(a))
            assert main(["image", str(t_path), str(a_path)]) == 0
            want = nfa_to_text(oracle_image_nfa(parse_dfst(t_path.read_text()),
                                                parse_dfa(a_path.read_text())))
            assert capsys.readouterr().out == want


def _nfas():
    rng = random.Random(1711)
    for _ in range(150):
        n = rng.randint(1, 7)
        nfa = random_nfa(rng, n, alphabet=rng.choice((("a", "b"), ("b", "a", "c"))),
                         edge_count=rng.randint(n, 3 * n), eps_prob=rng.choice((0.0, 0.2, 0.4)))
        for label in LABELS:
            yield _relabel_nfa(nfa, label)


def _kth_from_last(k) -> Nfa:
    """The k-th symbol from the end is `a`: 2**k reachable subsets."""
    triples = [(0, "a", 0), (0, "b", 0), (0, "a", 1)]
    triples += [(i, sym, i + 1) for i in range(1, k) for sym in ("a", "b")]
    return Nfa(("a", "b"), frozenset(range(k + 1)), frozenset({0}), frozenset({k}),
               tuple(triples))


class TestDeterminize:
    def test_matches_oracle_field_for_field(self):
        for nfa in _nfas():
            assert _dfa_fields(determinize(nfa)) == _dfa_fields(oracle_determinize(nfa))

    def test_empty_start_closure(self):
        for alphabet in ((), ("a",), ("b", "a")):
            nfa = Nfa(alphabet, frozenset({3, 5}), frozenset(), frozenset({5}),
                      tuple((3, sym, 5) for sym in alphabet))
            got = determinize(nfa)
            assert _dfa_fields(got) == _dfa_fields(oracle_determinize(nfa)) \
                == _dfa_fields(empty_dfa(alphabet))

    def test_empty_alphabet(self):
        nfa = Nfa((), frozenset({0, 1}), frozenset({0}), frozenset({1}), ((0, None, 1),))
        assert _dfa_fields(determinize(nfa)) == _dfa_fields(oracle_determinize(nfa))

    def test_more_than_a_thousand_subsets(self):
        nfa = _relabel_nfa(_kth_from_last(10), lambda q: 10**40 + 7 * q)
        got = determinize(nfa)
        assert len(got.states) == 1024
        assert _dfa_fields(got) == _dfa_fields(oracle_determinize(nfa))


def _looped_nfas():
    """NFAs with epsilon cycles and epsilon self-loops, some of whose states
    have no moves, over alphabets of one to three symbols."""
    rng = random.Random(1801)
    for _ in range(120):
        n = rng.randint(1, 8)
        alphabet = rng.choice((("a",), ("a", "b"), ("b", "a", "c")))
        idle = set(rng.sample(range(n), rng.randint(0, n - 1)))  # states with no moves
        triples = set()
        for _ in range(rng.randint(0, 3 * n)):
            q, t = rng.randrange(n), rng.randrange(n)
            sym = rng.choice((None, None, *alphabet))
            if q not in idle:
                triples.add((q, sym, t))
        cycle = rng.sample(range(n), rng.randint(1, n))
        triples.update((q, None, t) for q, t in zip(cycle, cycle[1:] + cycle[:1]))
        triples.update((q, None, q) for q in rng.sample(range(n), rng.randint(0, n)))
        nfa = Nfa(alphabet, frozenset(range(n)),
                  frozenset(rng.sample(range(n), rng.randint(1, n))),
                  frozenset(rng.sample(range(n), rng.randint(0, n))),
                  tuple(sorted(triples, key=repr)))
        yield _relabel_nfa(nfa, rng.choice(LABELS))


def _subset_members(nfa: Nfa) -> set[int]:
    """The Nfa states that some subset reached from the start closure
    holds, found by per-subset closures."""
    eps, moves = _index(nfa)
    start = _closure(nfa.initial, eps)
    seen, queue = {start}, [start]
    for subset in queue:  # the queue grows as the search goes
        for sym in nfa.alphabet:
            t = _subset_step(subset, sym, eps, moves)
            if t and t not in seen:
                seen.add(t)
                queue.append(t)
    return set().union(*seen)


class TestClosedSuccessors:
    """An Nfa side steps a subset by the union of its members' closed
    successors, each computed once: the subsets, their numbering and every
    search word stay those of the per-subset closure."""

    def test_determinize_matches_oracle(self):
        for nfa in _looped_nfas():
            assert _dfa_fields(determinize(nfa)) == _dfa_fields(oracle_determinize(nfa))

    def test_pair_search_matches_oracle(self):
        rng = random.Random(1803)
        machines = list(_looped_nfas())
        for a in machines:
            b = rng.choice(machines)
            if rng.random() < 0.3:
                b = determinize(b)
            # `z` is in no machine's alphabet: it kills both sides
            for alphabet in (merge_alphabets(a.alphabet, b.alphabet),
                             merge_alphabets(("z",), merge_alphabets(b.alphabet, a.alphabet)),
                             ("c", "z", "a")):
                for mode in (_MEET, _LEFT, _DIFF):
                    assert _pair_search(a, b, alphabet, mode) \
                        == oracle_pair_search(a, b, alphabet, mode)

    def test_one_closure_per_state_and_symbol(self, monkeypatch):
        calls = count_calls(monkeypatch, ["_closure"])
        kth = _kth_from_last(8)
        # an epsilon self-loop on every state: each move's targets need a
        # closure, and the 256 subsets share 9 states
        looped = Nfa(kth.alphabet, kth.states, kth.initial, kth.accepting,
                     kth.transitions + tuple((q, None, q) for q in kth.states))
        for nfa in [*_looped_nfas(), kth, looped]:
            members = _subset_members(nfa)
            calls["_closure"] = 0
            determinize(nfa)
            # the start closure, then at most one per (member, symbol)
            assert calls["_closure"] <= 1 + len(members) * len(nfa.alphabet)
        assert len(members) == 9 and calls["_closure"] == 1 + 8 * 2

    def test_at_most_one_closure_per_state_and_symbol_per_side(self, monkeypatch):
        calls = count_calls(monkeypatch, ["_closure"])
        machines = list(_looped_nfas())
        for a, b in zip(machines, machines[1:]):
            alphabet = merge_alphabets(merge_alphabets(a.alphabet, b.alphabet), ("z",))
            calls["_closure"] = 0
            _pair_search(a, b, alphabet, _DIFF)
            assert calls["_closure"] <= 2 + (len(a.states) + len(b.states)) * len(alphabet)


def _dfas():
    rng = random.Random(1721)
    for _ in range(150):
        d = random_dfa(rng, rng.randint(1, 8), rng.choice((("a", "b"), ("c", "a", "b"))),
                       density=rng.choice((0.3, 0.6, 0.9)))
        for label in LABELS:
            yield _relabel(d, label)


class TestCanonicalDfa:
    def test_matches_oracle(self):
        for d in _dfas():
            got, want = canonical_dfa(d), oracle_canonical_dfa(d)
            assert _dfa_fields(got)[:4] == _dfa_fields(want)[:4]
            assert got.transitions == want.transitions

    def test_transitions_by_source_then_alphabet_order(self):
        rng = random.Random(1723)
        for d in _dfas():
            edges = list(d.transitions.items())
            rng.shuffle(edges)
            shuffled = Dfa(d.alphabet, d.states, d.initial, d.accepting, dict(edges))
            rank = {sym: k for k, sym in enumerate(d.alphabet)}
            keys = list(canonical_dfa(shuffled).transitions)
            assert keys == sorted(keys, key=lambda e: (e[0], rank[e[1]]))
            want = oracle_canonical_dfa(shuffled)
            lines = [f"trans {q} {sym} {t}" for (q, sym), t in
                     sorted(want.transitions.items(), key=lambda e: (e[0][0], rank[e[0][1]]))]
            text = dfa_to_text(shuffled)
            assert text == dfa_to_text(d)
            assert text.splitlines()[5:] == lines
