import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyplane import axioms
from polyplane.axioms import (axiom_I, axiom_II, classify_frame,
                              forbidden_frames, xi)
from polyplane.crown import crown, crown_sat_oracle
from polyplane.errors import BudgetExceededError, VerificationError
from polyplane.formula import Not, Var, parse, variables
from polyplane.kripke import (Frame, Model, eval_formula, is_p_morphism,
                              jankov_fine, valid_on_frame)
from polyplane.mosaic import decide_sat

from helpers import enumerate_rooted_s4, reference_classify


def test_forbidden_frame_shapes():
    ffs = forbidden_frames()
    assert [ff.id for ff in ffs] == ["B1", "B2", "B3", "B4", "B5"]
    by_id = {ff.id: ff.frame for ff in ffs}
    b1 = by_id["B1"]
    assert b1.n == 2 and len(b1.pairs()) == 4
    b2 = by_id["B2"]
    assert b2.n == 3 and b2.sees(0, 1) and b2.sees(1, 0)
    assert b2.sees(0, 2) and b2.sees(1, 2) and not b2.sees(2, 0)
    b3 = by_id["B3"]
    assert len([y for y in b3.successors(0) if y != 0]) == 3
    assert all(not b3.sees(x, y) for x in (1, 2, 3) for y in (1, 2, 3) if x != y)
    b4 = by_id["B4"]
    assert b4.n == 4 and len(b4.pairs()) == 10
    b5 = by_id["B5"]
    assert b5.sees(0, 1) and b5.sees(1, 2) and b5.sees(0, 3) and b5.sees(0, 2)
    assert not b5.sees(1, 3) and not b5.sees(3, 1)
    for ff in ffs:
        assert not ff.frame.closure_applied or ff.id in ("B4", "B5")
        assert ff.frame.root == 0


def test_axiom_shapes():
    assert variables(axiom_I()) == {"p"}
    assert variables(axiom_II()) == {"p", "q", "r"}
    assert axiom_I() == parse("p -> [](~p -> [](p -> []p))")
    gamma = "<>[](p & q) & <>[](~p & q) & <>(p & ~q)"
    assert axiom_II() == parse(
        f"[]((r & q) -> ({gamma})) -> ((r & q) -> <>(~(r & q) & <>[]p & <>[]~p))")


def test_axiom_two_refutes_the_two_deep_forbidden_frames():
    # the axiom must fail on the trident and on the chain-plus-point frame,
    # and a fully box-guarded third region would miss the latter
    b3 = forbidden_frames()[2].frame
    b5 = forbidden_frames()[4].frame
    assert not valid_on_frame(b3, axiom_II()).valid
    assert not valid_on_frame(b5, axiom_II()).valid
    allbox = parse("[]((r & q) -> (<>[](p & q) & <>[](~p & q) & <>[](p & ~q)))"
                   " -> ((r & q) -> <>(~(r & q) & <>[]p & <>[]~p))")
    assert valid_on_frame(b5, allbox).valid  # the naive variant misses B5


def test_xi_variable_families_disjoint():
    f = xi()
    names = variables(f)
    assert len(names) == 2 + 3 + 4 + 4 + 4
    assert all(n.startswith("b") for n in names)


def test_crowns_validate_axioms():
    assert valid_on_frame(crown(2), axiom_I()).valid
    rep = valid_on_frame(crown(1), xi(), mode="sampled", samples=300, seed=5)
    assert rep.valid


def test_xi_refuted_on_forbidden_frames():
    # the frame formula of B4 is satisfied on B4 itself by the identity
    # labelling, so xi fails there
    b4 = forbidden_frames()[3].frame
    f = jankov_fine(b4)
    model = Model(b4, {f"p{w}": {w} for w in range(b4.n)})
    assert eval_formula(model, 0, f)
    assert not eval_formula(model, 0, Not(f))


def test_trident_conjunct_unsat():
    b3 = forbidden_frames()[2].frame
    f = jankov_fine(b3, prefix="b3w")
    assert not decide_sat(f).sat
    assert crown_sat_oracle(f, 2) is None


def test_classify_crown_validates():
    for n in (1, 2, 3, 4):
        assert classify_frame(crown(n)).validates


def test_classify_forbidden_frames_refute_themselves():
    for ff in forbidden_frames():
        verdict = classify_frame(ff.frame)
        assert not verdict.validates
        # earlier-indexed frames may shadow, but B1 and chain cases are exact
    verdict = classify_frame(forbidden_frames()[4].frame)
    assert verdict.refuted_id == "B5"
    assert verdict.witness.mapping == {0: 0, 1: 1, 2: 2, 3: 3}


def test_classify_disjoint_teeth_refutes_b5():
    # root over two disjoint depth-2 teeth: 0 -> 1 -> {2,3}, 0 -> 4 -> 5
    fr = Frame(6, [(0, 1), (0, 4), (1, 2), (1, 3), (4, 5)], root=0)
    verdict = classify_frame(fr)
    assert not verdict.validates and verdict.refuted_id == "B5"
    b5 = forbidden_frames()[4].frame
    assert is_p_morphism(verdict.witness, fr, b5)
    assert verdict.witness.is_onto(b5)
    # the stratified map works too: middles of one tooth to 1, its
    # endpoints to 2, the rest of the upper part to 3, root to 0
    hand = {0: 0, 1: 1, 2: 2, 3: 2, 4: 3, 5: 3}
    from polyplane.kripke import WorldMap
    assert is_p_morphism(WorldMap(hand), fr, b5)


def test_classify_requires_root():
    with pytest.raises(ValueError):
        classify_frame(Frame(2, []))


def test_axiom_equivalence_sample():
    # classification agrees with exhaustive validity of the two axioms
    for fr in enumerate_rooted_s4(3):
        v = classify_frame(fr).validates
        both = (valid_on_frame(fr, axiom_I()).valid
                and valid_on_frame(fr, axiom_II()).valid)
        assert v == both, fr


def test_validating_frames_are_shallow_posets():
    # consequences of forbidding the 4-chain and the clusters
    for fr in enumerate_rooted_s4(4):
        if not classify_frame(fr).validates:
            continue
        for x in range(fr.n):
            for y in range(fr.n):
                if x != y and fr.sees(x, y):
                    assert not fr.sees(y, x), "cluster survived"
        # no strict chain of length 4
        for a in range(fr.n):
            for b in range(fr.n):
                for c in range(fr.n):
                    for d in range(fr.n):
                        if len({a, b, c, d}) == 4:
                            assert not (fr.sees(a, b) and fr.sees(b, c)
                                        and fr.sees(c, d))


def assert_agrees_with_reference(fr):
    got, want = classify_frame(fr), reference_classify(fr)
    assert (got.validates, got.refuted_id) == (want.validates, want.refuted_id), fr
    if not got.validates:
        target = {ff.id: ff.frame for ff in forbidden_frames()}[got.refuted_id]
        assert is_p_morphism(got.witness, fr.rooted(), target), fr
        assert got.witness.is_onto(target), fr


@st.composite
def rooted_frames(draw):
    # a root below a random strict order, plus a few backward pairs that
    # close cycles into clusters, with the worlds renumbered
    n = draw(st.integers(1, 7))
    forward = [(x, y) for x in range(n) for y in range(x + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(forward),
                         max_size=len(forward)))
    back = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=2))
    perm = draw(st.permutations(range(n)))
    pairs = [(0, y) for y in range(1, n)]
    pairs += [p for p, k in zip(forward, keep) if k] + back
    return Frame(n, [(perm[x], perm[y]) for x, y in pairs if x != y])


@settings(max_examples=300, deadline=None)
@given(rooted_frames())
def test_classify_matches_search_on_random_frames(fr):
    assert_agrees_with_reference(fr)


def test_classify_matches_search_on_all_small_frames():
    for n in range(1, 6):
        for fr in enumerate_rooted_s4(n):
            assert_agrees_with_reference(fr)


@pytest.mark.parametrize("refuted_id, n, pairs, witness", [
    # a point below the two-world maximal cluster {1, 2}
    ("B1", 3, [(0, 1), (1, 2), (2, 1)], {1: 0, 2: 1}),
    # the root cluster {0, 1} below the chain 2 -> 3
    ("B2", 4, [(0, 1), (1, 0), (0, 2), (2, 3)], {0: 0, 1: 1, 2: 2, 3: 2}),
    # four components above the root, {1}, {2, 3}, {4}, {5}: the last two
    # both map to 3
    ("B3", 6, [(0, 1), (0, 2), (0, 4), (0, 5), (2, 3)],
     {0: 0, 1: 1, 2: 2, 3: 2, 4: 3, 5: 3}),
    # a 5-chain with a side branch 1 -> 5; depth 4 and 5 both map to 0, and
    # B4 wins over the B5 shape above world 1
    ("B4", 6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5)],
     {0: 0, 1: 0, 2: 1, 3: 2, 4: 3, 5: 3}),
    # two disjoint teeth 1 -> {2, 3} and 4 -> 5: the first tooth's middle
    # maps to 1, its endpoints to 2, the other tooth to 3
    ("B5", 6, [(0, 1), (0, 4), (1, 2), (1, 3), (4, 5)],
     {0: 0, 1: 1, 2: 2, 3: 2, 4: 3, 5: 3}),
])
def test_classify_witness_by_hand(refuted_id, n, pairs, witness):
    verdict = classify_frame(Frame(n, pairs, root=0))
    assert not verdict.validates
    assert verdict.refuted_id == refuted_id
    assert verdict.witness.mapping == witness


def test_classify_large_crowns():
    for n in range(1, 41):
        assert classify_frame(crown(n)).validates, n


def test_classify_budget():
    with pytest.raises(BudgetExceededError):
        classify_frame(crown(5), budget=5)
    assert classify_frame(crown(5), budget=20).validates


def test_classify_rechecks_its_witness(monkeypatch):
    monkeypatch.setattr(axioms, "_find_forbidden",
                        lambda frame, budget: ("B1", {0: 0, 1: 0, 2: 0}))
    with pytest.raises(VerificationError, match="B1 witness"):
        classify_frame(crown(1))
    monkeypatch.setattr(axioms, "_find_forbidden",
                        lambda frame, budget: ("B4", {w: min(w, 3) for w in range(frame.n)}))
    with pytest.raises(VerificationError, match="B4 witness"):
        classify_frame(crown(2))


def test_classify_recheck_survives_optimize():
    code = "\n".join([
        "import sys",
        "from polyplane import axioms",
        "from polyplane.crown import crown",
        "from polyplane.errors import VerificationError",
        "if __debug__:",
        "    sys.exit('assertions are enabled')",
        "axioms._find_forbidden = lambda frame, budget: ('B1', {0: 0, 1: 0, 2: 0})",
        "try:",
        "    axioms.classify_frame(crown(1))",
        "except VerificationError:",
        "    sys.exit(0)",
        "sys.exit('wrong witness accepted')",
    ])
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
