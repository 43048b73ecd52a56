"""The five forbidden frames, the exclusion axiom, the two concise axioms,
and the finite-frame classifier.

A finite rooted S4 frame validates the logic iff no generated subframe of it
maps p-morphically onto any of the five forbidden frames B1..B5.  The
classifier decides this from the frame's structure, in B1..B5 order:

B1  some maximal cluster has two or more worlds;
B2  some other cluster has two or more worlds (from here on the frame is a
    poset);
B3  for some world u, the worlds strictly above u fall into three or more
    components of the comparability graph;
B4  some world has depth 4 or more (a strict chain of four worlds);
B5  for some world u, the worlds strictly above u fall into two or more
    components and one of them has more than one world.

Each test builds its own witness map; `classify_frame` gives the argument
that the tests are exact.  The tests work on whole rows and predecessor
masks, and the up-set flood fills walk set bits inline.  The five frames
are built once, at import, and a refutation re-checks its witness against
the one it names.  `kripke.find_subreduction` remains the generic search
and the tests' independent reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import StepBudget
from .formula import And, Box, Diamond, Formula, Implies, Not, Var, conj
from .kripke import (Frame, WorldMap, _mask_worlds, _onto_p_morphism,
                     jankov_fine)


@dataclass(frozen=True)
class ForbiddenFrame:
    id: str
    frame: Frame


# B1..B5 built once from their closed rows, world 0 the root: bit y of row
# x says x sees y.  Frames are immutable, so refutations and callers of
# forbidden_frames() share these
_FORBIDDEN = {i: ForbiddenFrame(i, Frame.from_rows(rows, root=0))
              for i, rows in (("B1", (3, 3)), ("B2", (7, 7, 4)),
                              ("B3", (15, 2, 4, 8)), ("B4", (15, 14, 12, 8)),
                              ("B5", (15, 6, 4, 8)))}


def forbidden_frames() -> list[ForbiddenFrame]:
    """The five minimal frames a valid frame must not subreduce to.

    B1  two-world cluster
    B2  two-world cluster seeing one extra reflexive point
    B3  root seeing three pairwise unrelated maximal points ("trident")
    B4  reflexive-transitive 4-chain
    B5  root seeing a 2-chain and, separately, a maximal point
    """
    return list(_FORBIDDEN.values())


def xi() -> Formula:
    """Conjunction of the negated frame formulas of B1..B5, with a disjoint
    variable family per conjunct."""
    parts = [Not(jankov_fine(ff.frame, prefix=f"b{i}w"))
             for i, ff in enumerate(forbidden_frames(), start=1)]
    return conj(parts)


def axiom_I() -> Formula:
    p = Var("p")
    return Implies(p, Box(Implies(Not(p), Box(Implies(p, Box(p))))))


def axiom_II() -> Formula:
    # gamma demands three incompatible regions near a marked point: two with
    # interior (they feed the p / ~p bridge in the consequent) and a third
    # that may be boundary-only.  Box-guarding the third as well would make
    # the premise unsatisfiable on the root-over-chain-plus-point frame,
    # which would then validate the axiom vacuously and escape the
    # classification.
    p, q, r = Var("p"), Var("q"), Var("r")
    rq = And(r, q)
    gamma = And(And(Diamond(Box(And(p, q))),
                    Diamond(Box(And(Not(p), q)))),
                Diamond(And(p, Not(q))))
    consequent = Implies(rq, Diamond(And(And(Not(rq), Diamond(Box(p))),
                                         Diamond(Box(Not(p))))))
    return Implies(Box(Implies(rq, gamma)), consequent)


@dataclass(frozen=True)
class Verdict:
    """Classification of a finite rooted frame; a refutation carries the
    p-morphism witnessing the subreduction onto the named forbidden frame."""

    validates: bool
    refuted_id: Optional[str] = None
    witness: Optional[WorldMap] = None

    def __bool__(self):
        return self.validates


def classify_frame(frame: Frame, budget: int = 2_000_000) -> Verdict:
    """Validates iff no generated subframe maps p-morphically onto any of
    B1..B5; else refutes with the first forbidden frame in that order and a
    witness map onto it.

    The tests, in order: B1 a maximal cluster of two or more worlds; B2 any
    other such cluster; B3 three or more comparability components among the
    worlds strictly above some world; B4 depth 4 or more; B5 two or more
    components above some world, one with more than one world.

    The tests are exact.  For B1, a world in a maximal cluster of the
    subreduction's domain sees only its cluster, yet must see preimages of
    both worlds of B1.  For B2 on a poset, a world maximal among those
    mapped into B2's cluster would need a preimage of the other cluster
    world strictly above it.  For B3..B5, pick a world y maximal among those
    the subreduction sends to the target's root.  Restricted to the up-set
    of y it is again a subreduction, and every world strictly above y maps
    to a non-root world.  Comparable worlds map to comparable worlds, so no
    comparability component above y straddles two of the target's
    incomparable branches, and the up-set of y has the shape the test looks
    for (for B4, a chain of four worlds from y).

    The witness is re-checked as an onto p-morphism and a bad one raises
    `VerificationError`.  `budget` bounds the flood fills over up-sets, one
    step per world visited; running out raises `BudgetExceededError`.
    """
    frame = frame.rooted()
    found = _find_forbidden(frame, budget)
    if found is None:
        return Verdict(True)
    refuted_id, mapping = found
    wm = _onto_p_morphism(mapping, frame, _FORBIDDEN[refuted_id].frame,
                          f"{refuted_id} witness")
    return Verdict(False, refuted_id, wm)


def _find_forbidden(frame: Frame, budget: int
                    ) -> Optional[tuple[str, dict[int, int]]]:
    """First of B1..B5 that a rooted frame subreduces to, with the witness
    mapping; None when the frame validates."""
    n, rows, preds = frame.n, frame.rows, frame._preds
    # x ascending meets every cluster first at its least world
    for x in range(n):
        cluster = rows[x] & preds[x]
        if cluster != 1 << x and rows[x] == cluster:
            return "B1", {w: int(w != x) for w in _mask_worlds(cluster)}
    for x in range(n):
        cluster = rows[x] & preds[x]
        if cluster != 1 << x:
            return "B2", {w: 0 if w == x else 1 if cluster >> w & 1 else 2
                          for w in _mask_worlds(rows[x])}

    # a poset from here on
    spend = StepBudget(budget, "classifier").spend
    comparable = [row | pred for row, pred in zip(rows, preds)]
    for u in range(n):
        rest = rows[u] & ~(1 << u)
        comps = []
        while rest:
            comp, front = 0, rest & -rest
            while front:
                comp |= front
                reach = 0
                while front:
                    low = front & -front
                    front ^= low
                    reach |= comparable[low.bit_length() - 1]
                front = reach & rest & ~comp
            # one step per world the flood fill visited
            spend(comp.bit_count(), "up-set components")
            rest &= ~comp
            comps.append(comp)
        if len(comps) >= 3:
            mapping = {u: 0}
            for i, comp in enumerate(comps):
                for w in _mask_worlds(comp):
                    mapping[w] = min(i + 1, 3)
            return "B3", mapping
        if u == frame.root:
            root_comps = comps

    # peel the maximal worlds three times; what is left has depth >= 4
    left, tops = (1 << n) - 1, []
    for _ in range(3):
        top, m = 0, left
        while m:
            low = m & -m
            m ^= low
            if rows[low.bit_length() - 1] & left == low:
                top |= low
        left &= ~top
        tops.append(top)
    if left:
        mapping = {x: image for image, top in zip((3, 2, 1), tops)
                   for x in _mask_worlds(top)}
        mapping.update((x, 0) for x in _mask_worlds(left))
        return "B4", mapping

    # a world below a two-world component has depth 3, so with depth <= 3
    # only the root can have the B5 shape
    big = next((c for c in root_comps if c & (c - 1)), None)
    if len(root_comps) >= 2 and big is not None:
        mapping = {frame.root: 0}
        for comp in root_comps:
            for w in _mask_worlds(comp):
                if comp != big:
                    mapping[w] = 3
                else:
                    mapping[w] = 2 if rows[w] == 1 << w else 1
        return "B5", mapping
    return None
