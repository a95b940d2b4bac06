"""Covering transducers for hard filters.

A hard filter can be mapped onto any regular language. The construction
first builds a surjection onto Γ*: after silently consuming the access
word, the machine repeatedly distinguishes two loop codes at the pivot
state (reading one stands for bit 0, the other for bit 1) and after a
fixed number of bits emits the letter of Γ they encode; a third code word
leads to the single accepting state. From a witness with equal-length,
prefix-incomparable cycles u and v the three codes are

    zero word  u v      one word  v u      stop word  u u s

which are pairwise prefix-incomparable. The dispatch trie is one prefix
tree over int states: from the hub, each code of `bits_per_letter` bits,
spelled in zero and one words, returns to the hub writing its letter, and
the stop word leads to the accepting state; a nonempty access word leads
from the start state to the hub. As the three words form a prefix code,
so do the spelled codes and the stop word, and the tree is deterministic.
`cover` runs the trie in step with a DFA r of the target
language (`rrkit.transducer._restrict`): an edge that writes a letter
exists only where r reads it, and a state accepts only where the trie and
r both accept. That restricts the image to exactly L(r). The surjection
is the same construction with r the DFA of Γ*.

Both prove the image equal to the target before returning, with no
image automaton and no subset search. (a) The image lies within the
target: one pass over the transducer's transitions, in the breadth-first
order `_restrict` lists them, gives each transducer state the one target
state its outputs lead to, and every accepting state's target state must
accept after its final output. That proves the image of all input words
within the target. (b) The target lies within the image, by the trie's
right inverse e(w) = access · code(w) · u u s, where code(w) spells each
letter's bits in zero and one words: a deterministic walk checks that
for every target word w, e(w) lies in the filter and the transducer maps
it back to w. Both are sufficient, not necessary. When either fails (for
(a), on a machine its pass cannot settle), the one exact check,
`cover_gap`, decides, so a refused cover names the same separating word
as before.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import Dfa, _ranks, separating_word, universal_dfa
from .classify import (
    CertificateError,
    ClassificationMismatch,
    Hard,
    HardnessWitness,
    classify,
    verify_witness,
)
from .transducer import Dfst, _feed, _restrict, image_nfa


@dataclass(frozen=True)
class CoverPlan:
    """Dispatch data for one surjection: the three trie codes, the target
    letters, and the fixed-width bit code assigned to each letter."""

    witness: HardnessWitness
    zero_word: str
    one_word: str
    stop_word: str
    letters: tuple[str, ...]
    bits_per_letter: int
    letter_codes: tuple[tuple[str, str], ...]

    def __post_init__(self):
        words = [self.zero_word, self.one_word, self.stop_word]
        for i, a in enumerate(words):
            for b in words[i + 1:]:
                if a.startswith(b) or b.startswith(a):
                    raise CertificateError(
                        f"dispatch words {a!r} and {b!r} are prefix-comparable")


def plan_cover(witness: HardnessWitness, letters) -> CoverPlan:
    letters = tuple(letters)
    if not letters:
        raise ValueError("target alphabet must be nonempty")
    u, v, s = witness.cycle_a, witness.cycle_b, witness.exit_word
    bits = max(1, (len(letters) - 1).bit_length())
    codes = tuple(
        (letter, format(i, f"0{bits}b")) for i, letter in enumerate(letters)
    )
    return CoverPlan(witness, u + v, v + u, u + u + s, letters, bits, codes)


def _spell(plan: CoverPlan, bits: str) -> str:
    """A bit string spelled in the plan's zero and one words."""
    return "".join(plan.one_word if bit == "1" else plan.zero_word for bit in bits)


def _build_dispatch(plan: CoverPlan, in_alphabet) -> Dfst:
    """The dispatch trie as a transducer: one prefix tree of its words over
    int states, the hub 0 and the accepting state 1. From the hub each of
    the 2**bits_per_letter codes is spelled (`_spell`) and returns to the
    hub writing its letter, or the last letter for a code past the last,
    on its final edge; the stop word leads to 1. A nonempty access word
    leads from a fresh start state to the hub. A word that runs into
    another's final edge, or ends on an edge that leads elsewhere, raises
    `CertificateError`."""
    width, last = plan.bits_per_letter, len(plan.letters) - 1
    words = [(0, _spell(plan, format(i, f"0{width}b")), plan.letters[min(i, last)], 0)
             for i in range(2 ** width)]
    words.append((0, plan.stop_word, "", 1))
    start = 2 if plan.witness.access else 0
    if start:
        words.append((start, plan.witness.access, "", 0))
    size = 3 if start else 2  # the next fresh state
    transitions: dict[tuple[int, str], tuple[str, int]] = {}
    for q, word, out, dst in words:
        for c in word[:-1]:
            edge = transitions.setdefault((q, c), ("", size))
            if edge[1] < 2:  # only a final edge leads to the hub or to 1
                raise CertificateError(f"dispatch trie collision at {q} on {c!r}")
            if edge[1] == size:
                size += 1
            q = edge[1]
        if transitions.setdefault((q, word[-1]), (out, dst)) != (out, dst):
            raise CertificateError(f"dispatch trie collision at {q} on {word[-1]!r}")
    return Dfst(tuple(in_alphabet), plan.letters, frozenset(range(size)), start,
                frozenset({1}), transitions, {})


_UNSEEN = object()  # a transducer state no edge has reached yet


def _image_within(t: Dfst, r: Dfa) -> bool:
    """(a) image(t over f) ⊆ L(r), proved through the stronger claim that
    the image of all of t's inputs lies in L(r), so the filter f is never
    read. When t's states are 0..T-1, one pass over t's transitions in
    their listed order gives each state that an edge leads into the r
    state t's outputs lead to (None once r is dead). The claim holds when
    every edge's source is reached before it is listed, every reached
    state gets one r state, and every reached accepting state's r state
    accepts after t's final output. That settles every cover and
    surjection: a breadth-first `_restrict` product whose pairs carry
    their r state. Sufficient, not necessary: False means only "not
    proved", and `cover_gap` decides."""
    if _ranks(t.states) is not None:
        return False
    r_get = r.transitions.get
    at = [_UNSEEN] * len(t.states)  # each state's r state
    at[t.initial] = r.initial
    for (q, _), (out, dst) in t.transitions.items():
        qr = at[q]
        if qr is _UNSEEN:
            return False
        for c in out:
            qr = r_get((qr, c))  # (None, c) is no key: dead stays dead
        known = at[dst]
        if known is _UNSEEN:
            at[dst] = qr
        elif known != qr:
            return False
    r_accepting, final_output = r.accepting, t.final_output
    for q in t.accepting:
        qr = at[q]
        if qr is not _UNSEEN and r.walk(qr, final_output.get(q, "")) not in r_accepting:
            return False
    return True


def _inverse_reaches(t: Dfst, f: Dfa, r: Dfa, plan: CoverPlan) -> bool:
    """(b) L(r) ⊆ image(t over f), by the right inverse
    e(w) = access · code(w) · stop word, each letter's code spelled by
    `_spell` as the trie spells it. Walks the reachable (r, t, f)
    states from the access word: on every r letter c, f must be defined on
    code(c) and t must emit exactly c; at every accepting r state the stop
    word must take f to acceptance and t to an accepting state with empty
    output. r's letters must be among the plan's. Each code is walked
    through f once per f state that the walk meets, not once per (r, t, f)
    state; a cover meets only the pivot. Sufficient, not necessary: False
    means only "not proved"."""
    codes = {letter: _spell(plan, bits) for letter, bits in plan.letter_codes}
    rows: dict[int, dict[str, int | None]] = {}  # f state -> letter -> f after its code
    access = plan.witness.access
    fed = _feed(t, t.initial, access)
    qf = f.walk(f.initial, access)
    if fed is None or fed[0] or qf is None:
        return False
    stop = plan.stop_word
    start = (r.initial, fed[1], qf)
    seen = {start}
    stack = [start]
    while stack:
        qr, qt, qf = stack.pop()
        if qr in r.accepting:
            fed = _feed(t, qt, stop)
            if fed is None or fed[0] or fed[1] not in t.accepting \
                    or t.final_output.get(fed[1]) or f.walk(qf, stop) not in f.accepting:
                return False
        row = rows.get(qf)
        if row is None:
            row = rows[qf] = {c: f.walk(qf, code) for c, code in codes.items()}
        for c in r.alphabet:
            qr2 = r.transitions.get((qr, c))
            if qr2 is None:
                continue
            fed = _feed(t, qt, codes[c])
            qf2 = row[c]
            if fed is None or fed[0] != c or qf2 is None:
                return False
            state = (qr2, fed[1], qf2)
            if state not in seen:
                seen.add(state)
                stack.append(state)
    return True


def _dispatch_onto(f: Dfa, witness: HardnessWitness, letters, r: Dfa) -> tuple[Dfst, str | None]:
    """The dispatch trie of `witness` over `letters` run in step with r,
    and the word on which its image over L(f) differs from L(r): None when
    walks (a) and (b) prove them equal, else what `cover_gap` finds."""
    plan = plan_cover(witness, letters)
    t = _restrict(_build_dispatch(plan, f.alphabet), r)
    if _image_within(t, r) and _inverse_reaches(t, f, r, plan):
        return t, None
    gap = cover_gap(t, f, r)
    return t, None if gap is None else gap[0]


def surjection_to_star(f: Dfa, witness: HardnessWitness, letters) -> Dfst:
    """Transducer whose image over L(f) is exactly Γ* for Γ = `letters`:
    the dispatch trie of the witness run in step with the DFA of Γ*.

    The witness must be valid for trim(f). Before returning, the image is
    proved equal to Γ* as `cover` proves its image.
    """
    verify_witness(f, witness)
    star = universal_dfa(letters)
    t, gap = _dispatch_onto(f, witness, star.alphabet, star)
    if gap is not None:
        raise CertificateError(f"surjection image differs from the full language on {gap!r}")
    return t


def cover(f: Dfa, r: Dfa) -> Dfst:
    """Transducer mapping the hard filter f onto L(r): the dispatch trie of
    f's witness run in step with r, so it writes a word only where r
    reads it.

    Before it is returned, its image over L(f) is proved equal to L(r) by
    a pass over its transitions and a walk over the trie's right inverse
    (see the module docstring). Only when one of them does not prove its
    half does the exact check `cover_gap` run; a gap it finds raises
    `CertificateError` naming the word, and none returns the transducer.
    """
    verdict = classify(f)
    if not isinstance(verdict, Hard):
        raise ClassificationMismatch("filter is easy; it does not cover arbitrary languages",
                                     verdict)
    t, gap = _dispatch_onto(f, verdict.witness, r.alphabet or f.alphabet, r)
    if gap is not None:
        raise CertificateError(f"cover image differs from the target on {gap!r}")
    return t


def cover_gap(t: Dfst, f: Dfa, r: Dfa) -> tuple[str, str] | None:
    """None when image(t over f) equals L(r); otherwise the shortest
    separating word (`separating_word`'s tie rule) tagged with the side it
    belongs to ("image" or "target")."""
    gap = separating_word(image_nfa(t, f), r)
    if gap is None:
        return None
    return gap, "target" if r.walk(r.initial, gap) in r.accepting else "image"


def verify_cover(t: Dfst, f: Dfa, r: Dfa) -> bool:
    """True iff t's image over L(f) is exactly L(r)."""
    return cover_gap(t, f, r) is None
