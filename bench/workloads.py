"""The benchmark's three workloads, each a pool of CLI ops built from a seed.

An op is one `rrkit` command line over text files written during set-up,
plus the independent check its output must pass. Each pool deals its op
kinds out in a fixed block pattern. Within a kind, sizes take one draw
from each of equal strata of their range and are paired with the other
parameters (second machine's size, accepting states, diamond shape) in a
fixed way, so every seed runs the same profile of work; the seed changes
the machines' structure, the draws inside the strata and the order.

Size ranges (FULL; TINY is the self-test's scale):

easy-classify  ring-n filters n 80-200 with 1-3 accepting states;
               diamond-k filters k 5-7, plain
               and looped; every fifth op is `solve --counters` with a
               ring or diamond filter against a connected DFA, n 200-1000.
hard-cover     planted-hard connected complete DFAs over {a, b}, n 50-1000;
               cover targets are trimmed random DFAs over {a, b, c}, m 3-20;
               three `cover` ops to one `classify`.
solve-equiv    connected complete DFAs n 50-150 and epsilon NFAs n 20-60,
               in equal shares of planted-YES `solve`, planted-NO `solve`,
               planted-DIFFER `equiv`, planted-EQUIVALENT `equiv` and
               planted-YES `solve --nfa`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen
import oracle

FULL = {
    "blocks": {"easy-classify": 6, "hard-cover": 20, "solve-equiv": 20},
    "ring": (80, 200), "diamond": (5, 7), "counter_input": (200, 1000),
    "hard": (50, 1000), "target": (3, 20),
    "dfa": (50, 150), "copies": (3, 5), "nfa": (20, 60),
}
TINY = {
    "blocks": {"easy-classify": 1, "hard-cover": 2, "solve-equiv": 2},
    "ring": (6, 12), "diamond": (2, 3), "counter_input": (10, 30),
    "hard": (8, 30), "target": (3, 5),
    "dfa": (6, 16), "copies": (2, 3), "nfa": (6, 12),
}


@dataclass
class Op:
    kind: str
    argv: list[str]
    cost: int  # input size, used to pick the cheap ops that warm up
    check: Callable[[int, str, random.Random], str | None]  # (exit code, stdout, rng)


class _Files:
    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.count = 0

    def write(self, text: str) -> str:
        path = self.workdir / f"m{self.count}.txt"
        self.count += 1
        path.write_text(text, encoding="utf-8")
        return str(path)


def _ok(check):
    """Wrap a stdout check so that a non-zero exit fails it first."""
    return lambda rc, out, rng: f"exit code {rc}" if rc != 0 else check(out, rng)


def _cycle(items, count):
    return [items[i % len(items)] for i in range(count)]


def _pairing(count: int) -> list[int]:
    """A fixed permutation, the same for every seed, used to pair the
    size strata of two machines."""
    perm = list(range(count))
    random.Random(count).shuffle(perm)
    return perm


def _interleave(rng: random.Random, pattern: list[str], groups: dict[str, list[Op]]) -> list[Op]:
    """Shuffle each group of ops, then deal them out in blocks that follow
    `pattern`."""
    for ops in groups.values():
        rng.shuffle(ops)
    deal = {kind: iter(ops) for kind, ops in groups.items()}
    blocks = len(groups[pattern[0]]) // pattern.count(pattern[0])
    return [next(deal[kind]) for _ in range(blocks) for kind in pattern]


def easy_classify(rng: random.Random, files: _Files, size: dict) -> list[Op]:
    blocks = size["blocks"]["easy-classify"]
    kmin, kmax = size["diamond"]
    combos = [(k, looped) for k in range(kmin, kmax + 1) for looped in (False, True)]

    def classify(f: gen.Dfa) -> Op:
        return Op("classify", ["classify", files.write(gen.dfa_text(f))], f.n,
                  _ok(lambda out, r: oracle.check_easy(f, out, r)))

    def counters(f: gen.Dfa, n: int) -> Op:
        w = oracle.sample_accepted(f, rng, 2 * f.n)
        a = gen.connected_dfa(rng, n)
        a = gen.with_accepting(a, a.walk(0, w))
        argv = ["solve", files.write(gen.dfa_text(f)), files.write(gen.dfa_text(a)), "--counters"]
        return Op("solve-counters", argv, f.n, _ok(lambda out, r: oracle.check_counters(f, a, out)))

    rings = [classify(gen.ring(rng, n, 1 + i % 3))
             for i, n in enumerate(gen.sizes(rng, 2 * blocks, *size["ring"]))]
    diamonds = [classify(gen.diamond(rng, k, looped)) for k, looped in _cycle(combos, 2 * blocks)]
    counter_rings = gen.sizes(rng, (blocks + 1) // 2, *size["ring"])
    inputs = gen.sizes(rng, blocks, *size["counter_input"])
    pairing = _pairing(blocks)
    solves = []
    for j in range(blocks):
        if j % 2 == 0:
            f = gen.ring(rng, counter_rings[j // 2], 1 + j // 2 % 3)
        else:
            f = gen.diamond(rng, *combos[j // 2 % len(combos)])
        solves.append(counters(f, inputs[pairing[j]]))
    return _interleave(rng, ["ring", "diamond", "ring", "diamond", "counters"],
                       {"ring": rings, "diamond": diamonds, "counters": solves})


def hard_cover(rng: random.Random, files: _Files, size: dict) -> list[Op]:
    blocks = size["blocks"]["hard-cover"]
    targets = gen.sizes(rng, 3 * blocks, *size["target"])
    pairing = _pairing(3 * blocks)
    covers = []
    for i, n in enumerate(gen.sizes(rng, 3 * blocks, *size["hard"])):
        f = gen.planted_hard(rng, n)
        t = gen.cover_target(rng, targets[pairing[i]])
        argv = ["cover", files.write(gen.dfa_text(f)), files.write(gen.dfa_text(t))]
        covers.append(Op("cover", argv, n,
                         lambda rc, out, r, f=f, t=t: oracle.check_cover(f, t, rc, out, r)))
    classifies = []
    for n in gen.sizes(rng, blocks, *size["hard"]):
        f = gen.planted_hard(rng, n)
        classifies.append(Op("classify", ["classify", files.write(gen.dfa_text(f))], n,
                             _ok(lambda out, r, f=f: oracle.check_hard(f, out))))
    return _interleave(rng, ["cover", "cover", "cover", "classify"],
                       {"cover": covers, "classify": classifies})


def solve_equiv(rng: random.Random, files: _Files, size: dict) -> list[Op]:
    blocks = size["blocks"]["solve-equiv"]
    cmin, cmax = size["copies"]
    ab = gen.AB

    def pairs(sizes_of):
        left = gen.sizes(rng, blocks, *sizes_of)
        right = gen.sizes(rng, blocks, *sizes_of)
        return [(n, right[j]) for n, j in zip(left, _pairing(blocks))]

    def op(kind, argv_head, a, b, text, check):
        argv = [*argv_head[:1], files.write(text(a)), files.write(text(b)), *argv_head[1:]]
        return Op(kind, argv, a.n + b.n, _ok(check))

    groups: dict[str, list[Op]] = {kind: [] for kind in
                                   ("yes", "no", "differ", "equivalent", "nfa")}
    for n, m in pairs(size["dfa"]):
        a, b, _ = gen.yes_pair(rng, n, m)
        groups["yes"].append(op("solve-yes", ["solve"], a, b, gen.dfa_text,
                                lambda out, r, a=a, b=b: oracle.check_yes_least(a, b, ab, out)))
    for n, m in pairs(size["dfa"]):
        a, b = gen.no_pair(rng, n, m)
        groups["no"].append(op("solve-no", ["solve"], a, b, gen.dfa_text,
                               lambda out, r, a=a, b=b: oracle.check_no(a, b, ab, out)))
    for i, n in enumerate(gen.sizes(rng, blocks, *size["dfa"])):
        a, b, _ = gen.differ_pair(rng, n, cmin + i % (cmax - cmin + 1))
        groups["differ"].append(op("equiv-differ", ["equiv"], a, b, gen.dfa_text,
                                   lambda out, r, a=a, b=b: oracle.check_differ(a, b, ab, out)))
    equivalent = [(gen.dfa_text, n) for n in gen.sizes(rng, (blocks + 1) // 2, *size["dfa"])]
    equivalent += [(gen.nfa_text, n) for n in gen.sizes(rng, blocks // 2, *size["nfa"])]
    for i, (text, n) in enumerate(equivalent):
        if text is gen.dfa_text:
            a, b = gen.equivalent_pair(rng, n, cmin + i % (cmax - cmin + 1))
        else:
            a = gen.union_nfa(rng, n)
            b = gen.duplicated_nfa(rng, a)
        check = lambda out, r, a=a, b=b: oracle.check_equivalent(a, b, ab, out)  # noqa: E731
        groups["equivalent"].append(op("equiv-equivalent", ["equiv"], a, b, text, check))
    for n, m in pairs(size["nfa"]):
        a, b, _ = gen.nfa_yes_pair(rng, n, m)
        groups["nfa"].append(op("solve-nfa", ["solve", "--nfa"], a, b, gen.nfa_text,
                                lambda out, r, a=a, b=b: oracle.check_yes_least(a, b, ab, out)))
    return _interleave(rng, list(groups), groups)


WORKLOADS = {
    "easy-classify": easy_classify,
    "hard-cover": hard_cover,
    "solve-equiv": solve_equiv,
}


def build(name: str, seed: int, workdir: Path, size: dict = FULL) -> list[Op]:
    """The op pool of workload `name` for `seed`, with its files in `workdir`."""
    rng = random.Random(f"{name}/{seed}")
    return WORKLOADS[name](rng, _Files(workdir), size)
