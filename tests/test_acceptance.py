"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete.
"""

import random
from fractions import Fraction
from math import ceil, log2

from polyplane.axioms import (axiom_I, axiom_II, classify_frame,
                              forbidden_frames)
from polyplane.crown import crown, crown_sat_oracle, reduce_to_crown
from polyplane.formula import And, Not, parse, pretty
from polyplane.geometry import (Line, build_arrangement, concurrent_crown_map,
                                eval_scene, realize_crown_model, scene_frame)
from polyplane.kripke import (Frame, Model, delta, eval_formula,
                              find_subreduction, jankov_fine,
                              sat_on_frame, sigma_bisimilar, valid_on_frame)
from polyplane.mosaic import (LabelSpace, check_path, decide_sat,
                              glue_reachable)

from helpers import (all_formulas, corpus_200, enumerate_rooted_s4,
                     enumerate_s4, frames_isomorphic, random_formula,
                     reference_is_p_morphism, shallow_rooted_family)


def report(num: int, name: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {num} ({name}): {status}", flush=True)
    assert not failures, f"criterion {num} ({name}): {failures[:5]}"


def test_acceptance_1_oracle_agreement():
    failures = []
    sweep = all_formulas(5, names=("p", "q"))
    for f in sweep:
        res = decide_sat(f)
        got = crown_sat_oracle(f, 6)
        if res.sat != (got is not None):
            failures.append(("sweep", pretty(f)))
        elif res.sat and not eval_formula(res.model, res.world, f):
            failures.append(("sweep-model", pretty(f)))
    for f in corpus_200():
        res = decide_sat(f)
        got = crown_sat_oracle(f, 6)
        if res.sat != (got is not None):
            failures.append(("corpus", pretty(f)))
    print(f"\n  [1] {len(sweep)} exhaustive + 200 corpus formulas vs oracle(maxN=6)")
    report(1, "oracle agreement", failures)


def test_acceptance_2_reference_fixtures():
    failures = []
    A = parse("[](r -> <>(~r & p & <>~p))")
    C = parse("(r & <>[]s & <>[]~s) -> <>(~r & <>[]s & <>[]~s)")
    if decide_sat(And(A, Not(C))).sat:
        failures.append("A & ~C satisfiable")
    for i, ff in enumerate(forbidden_frames(), 1):
        xi_i = jankov_fine(ff.frame, prefix=f"b{i}w")
        if decide_sat(xi_i).sat:
            failures.append(f"frame formula of B{i} satisfiable")
        if decide_sat(Not(Not(xi_i))).sat:
            failures.append(f"negated exclusion axiom of B{i} not valid")
    m2 = Model(Frame(3, [(0, 1), (0, 2)], root=0), {"r": {0}, "s": {1}})
    if eval_formula(m2, 0, C):
        failures.append("C true at the two-endpoint countermodel root")
    m0 = Model(Frame(2, [(0, 1)], root=0), {"r": {0}})
    m1 = Model(Frame(3, [(0, 1), (1, 2)], root=0), {"r": {0}, "p": {1}})
    if not eval_formula(m1, 0, A):
        failures.append("chosen three-chain model does not satisfy the premise")
    if not sigma_bisimilar(m1, 0, m0, 0, {"r"}):
        failures.append("three-chain root not r-bisimilar to the base model")
    if not sigma_bisimilar(m2, 0, m0, 0, {"r"}):
        failures.append("two-endpoint root not r-bisimilar to the base model")
    report(2, "reference fixtures", failures)


def test_acceptance_3_axiom_equivalence():
    failures = []
    count = 0
    for n in range(1, 6):
        for fr in enumerate_rooted_s4(n):
            count += 1
            by_subreduction = classify_frame(fr).validates
            by_axioms = (valid_on_frame(fr, axiom_I()).valid
                         and valid_on_frame(fr, axiom_II()).valid)
            if by_subreduction != by_axioms:
                failures.append((fr, by_subreduction, by_axioms))
    print(f"\n  [3] {count} rooted frames up to isomorphism")
    report(3, "axiom equivalence", failures)


def test_acceptance_4_crown_reduction():
    failures = []
    count = 0
    for fr in shallow_rooted_family(6):
        if not classify_frame(fr).validates:
            continue
        count += 1
        red = reduce_to_crown(fr)
        wm = red.world_map
        source = crown(red.n)
        if not reference_is_p_morphism(wm, source, fr):
            failures.append((fr, "not a p-morphism"))
        if not wm.is_onto(fr):
            failures.append((fr, "not onto"))
        if wm.domain != frozenset(range(source.n)):
            failures.append((fr, "domain incomplete"))
    print(f"\n  [4] {count} validating frames up to 6 worlds reduced")
    report(4, "crown reduction", failures)


def test_acceptance_5_crown_validity():
    failures = []
    for n in range(1, 7):
        for ff in forbidden_frames():
            if find_subreduction(crown(n), ff.frame) is not None:
                failures.append((n, ff.id))
    for n in (1, 2, 3):
        if not valid_on_frame(crown(n), axiom_I()).valid:
            failures.append((n, "axiom I exhaustive"))
        if not valid_on_frame(crown(n), axiom_II()).valid:
            failures.append((n, "axiom II exhaustive"))
    for n in range(4, 13):
        for name, ax in (("I", axiom_I()), ("II", axiom_II())):
            rep = valid_on_frame(crown(n), ax, mode="sampled",
                                 samples=10_000, seed=100 + n)
            if not rep.valid:
                failures.append((n, f"axiom {name} sampled", rep.counterexample))
    report(5, "crown validity", failures)


def _random_scene(rng: random.Random):
    lines = []
    while len(lines) < 4:
        a, b, c = rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4)
        if (a, b) == (0, 0):
            continue
        ln = Line.make(a, b, c)
        if ln not in lines:
            lines.append(ln)
    return build_arrangement(lines)


def test_acceptance_6_geometry():
    failures = []
    for L in (2, 3, 4, 5):
        scene = build_arrangement([Line.make(-k, 1, 0) for k in range(L)])
        try:
            concurrent_crown_map(scene)
        except (ValueError, AssertionError):
            failures.append((L, "crown map"))
        if not frames_isomorphic(scene_frame(scene), crown(2 * L)):
            failures.append((L, "not isomorphic to the crown"))

    rng = random.Random(606)
    for i in range(100):
        scene = _random_scene(rng)
        fr = scene_frame(scene)
        index = {c: i for i, c in enumerate(scene.cells)}
        cells = [index[c] for c in scene.cells if rng.random() < 0.4]
        d3 = delta(fr, delta(fr, delta(fr, cells)))
        if d3:
            failures.append((i, "delta cubed nonempty"))
        for a in scene.cells:
            for b in scene.cells:
                face = all(x == 0 or x == y for x, y in zip(a, b))
                wa, wb = scene.witness[a], scene.witness[b]
                mid = ((wa[0] + wb[0]) / 2, (wa[1] + wb[1]) / 2)
                if face and a != b and scene.signs_of(mid) != b:
                    failures.append((i, a, b, "face without limit witness"))
                if not face and not [k for k, (x, y) in enumerate(zip(a, b))
                                     if x != 0 and x != y]:
                    failures.append((i, a, b, "no separating line"))

    rng = random.Random(707)
    done = 0
    while done < 50:
        f = random_formula(rng, rng.randint(2, 6), ("p", "q"))
        res = decide_sat(f)
        if not res.sat or res.n > 12:
            continue
        real = realize_crown_model(res.model, res.world)
        if not eval_scene(real.scene, real.val, real.cell, f):
            failures.append(("realize", pretty(f)))
        done += 1
    print(f"\n  [6] 4 crown scenes, 100 random scenes, 50 realizations")
    report(6, "geometry", failures)


def test_acceptance_7_jankov_fine_correspondence():
    failures = []
    targets = [g for n in (1, 2, 3) for g in enumerate_rooted_s4(n)]
    frames = [f for n in (1, 2, 3, 4) for f in enumerate_s4(n)]
    pairs = 0
    for g in targets:
        xi_g = jankov_fine(g)
        for f in frames:
            pairs += 1
            satisfiable = sat_on_frame(f, xi_g) is not None
            reducible = find_subreduction(f, g) is not None
            if satisfiable != reducible:
                failures.append((g, f, satisfiable))
    print(f"\n  [7] {pairs} (target, frame) pairs")
    report(7, "frame formula correspondence", failures)


def test_acceptance_8_complexity_smoke():
    failures = []
    rng = random.Random(808)
    for _ in range(100):
        f = random_formula(rng, rng.randint(1, 5), ("p", "q"))
        res = decide_sat(f)
        if not res.sat:
            continue
        pool = list(res.mosaics)
        depth = ceil(log2(len(pool) + 1))
        for a in pool:
            reach = glue_reachable(a, pool)
            for b in pool:
                if check_path(a, b, pool, depth) != (b in reach or a == b):
                    failures.append((pretty(f), "path vs reachability"))
        # memory discipline: the placed pool is linear in the arc count and
        # the modal requirements of the input, never the full label space
        space = LabelSpace.for_formula(f)
        mods = len(space.dia_list) + len(space.box_list)
        if res.stats.pool_size > 2 * res.stats.arcs + 2 * (mods + 1):
            failures.append((pretty(f), "pool exceeds polynomial bound"))
        if res.stats.crown_n != res.stats.pool_size:
            failures.append((pretty(f), "model larger than the pool"))
    report(8, "complexity smoke", failures)
