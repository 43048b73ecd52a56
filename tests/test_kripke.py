import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from polyplane import kripke
from polyplane.crown import crown
from polyplane.errors import BudgetExceededError
from polyplane.formula import (And, Bottom, Box, Diamond, Iff, Implies, Not,
                               Or, Var, conj, parse, substitute, variables)
from polyplane.kripke import (Frame, Model, ValidityReport, WorldMap,
                              _closed_walk, _even_degrees, _shortest_path,
                              closure_set, delta, eval_formula,
                              find_subreduction, frame_from_dict,
                              frame_to_dict, interior_set, is_p_morphism,
                              jankov_fine, model_from_dict, model_to_dict,
                              sat_on_frame, sigma_bisimilar, truth_mask,
                              valid_on_frame)

from helpers import (enumerate_rooted_s4, enumerate_s4, formula_pool,
                     random_formula, reference_is_p_morphism, reference_truth)

p = Var("p")


def chain(n):
    return Frame(n, [(i, i + 1) for i in range(n - 1)], root=0)


def test_frame_construction_closure():
    fr = Frame(3, [(0, 1), (1, 2)])
    assert fr.sees(0, 2)
    with pytest.raises(ValueError):
        Frame(2, [], root=0)  # 0 does not see 1


@pytest.mark.parametrize("root", [3, 9, -1])
def test_root_out_of_range(root):
    with pytest.raises(ValueError, match=f"root {root} out of range"):
        Frame(3, [(0, 1), (1, 2)], root=root)


def test_frame_from_rows():
    # a closed frame given by its rows equals the one built from its pairs
    fr = Frame(4, [(0, 1), (1, 2), (0, 3)], root=0)
    got = Frame.from_rows(fr.rows, root=0)
    assert got == fr
    assert [got.predecessors(y) for y in range(4)] == \
        [fr.predecessors(y) for y in range(4)]
    assert Frame.from_rows([0b1]).root is None
    with pytest.raises(ValueError, match="row 0 is not transitive"):
        Frame.from_rows([0b011, 0b110, 0b100])
    with pytest.raises(ValueError, match="row 1 is out of range or not reflexive"):
        Frame.from_rows([0b11, 0b01])
    with pytest.raises(ValueError, match="row 0 is out of range"):
        Frame.from_rows([0b101, 0b10])
    with pytest.raises(ValueError, match="at least one world"):
        Frame.from_rows([])
    with pytest.raises(ValueError, match="world 1 does not see every world"):
        Frame.from_rows([0b11, 0b10], root=1)
    with pytest.raises(ValueError, match="root 2 out of range"):
        Frame.from_rows([0b11, 0b10], root=2)


def test_eval_single_reflexive_point():
    m = Model(Frame(1, []), {"p": {0}})
    assert eval_formula(m, 0, parse("<>p & []p"))


def test_eval_crown_one_chain():
    # crown(1): r=0 sees all, s2=2 sees s1=1
    m = Model(crown(1), {"p": {1}})
    assert eval_formula(m, 0, parse("<><>p"))
    assert eval_formula(m, 1, parse("[]p"))
    assert not eval_formula(m, 0, parse("[]p"))


def test_eval_interpolation_countermodel():
    # root seeing two endpoints; r at root, s at one endpoint: the
    # consequent-chasing formula fails at the root
    m2 = Model(Frame(3, [(0, 1), (0, 2)], root=0), {"r": {0}, "s": {1}})
    C = parse("(r & <>[]s & <>[]~s) -> <>(~r & <>[]s & <>[]~s)")
    assert not eval_formula(m2, 0, C)
    assert eval_formula(m2, 0, parse("r & <>[]s & <>[]~s"))


def test_unknown_variable_is_empty_region():
    m = Model(Frame(1, []), {})
    assert not eval_formula(m, 0, parse("zzz"))
    assert eval_formula(m, 0, parse("~zzz"))


def test_box_diamond_duality_random():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 5)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(n * 2)]
        fr = Frame(n, pairs)
        val = {"p": {w for w in range(n) if rng.random() < 0.5},
               "q": {w for w in range(n) if rng.random() < 0.5}}
        model = Model(fr, val)
        f = random_formula(rng, rng.randint(1, 8), ("p", "q"))
        for w in range(n):
            assert eval_formula(model, w, Box(f)) == \
                eval_formula(model, w, Not(Diamond(Not(f))))


def test_valid_on_frame_tautology():
    fr = chain(3)
    assert valid_on_frame(fr, parse("p -> p")).valid


def test_axiom_one_valid_on_crown2_exhaustive():
    rep = valid_on_frame(crown(2), parse("p -> [](~p -> [](p -> []p))"))
    assert rep.valid and rep.exhaustive and rep.checked == 2 ** 5


def test_axiom_one_fails_on_four_chain():
    rep = valid_on_frame(chain(4), parse("p -> [](~p -> [](p -> []p))"))
    assert not rep.valid
    model = Model(chain(4), rep.counterexample)
    assert not eval_formula(model, rep.world, parse("p -> [](~p -> [](p -> []p))"))


def test_valid_budget():
    with pytest.raises(BudgetExceededError):
        valid_on_frame(crown(6), parse("p & q & r"), budget=2 ** 20)


def test_sampled_mode():
    rep = valid_on_frame(chain(2), parse("p -> <>p"), mode="sampled",
                         samples=50, seed=1)
    assert rep.valid and not rep.exhaustive and rep.checked == 50
    rep = valid_on_frame(chain(4), parse("p -> [](~p -> [](p -> []p))"),
                         mode="sampled", samples=2000, seed=0)
    assert not rep.valid


def test_p_morphism_identity_and_constant():
    fr = crown(2)
    ident = WorldMap({w: w for w in range(fr.n)})
    assert is_p_morphism(ident, fr, fr)
    point = Frame(1, [], root=0)
    const = WorldMap({w: 0 for w in range(fr.n)})
    assert is_p_morphism(const, fr, point)
    # non-up-set domain rejected
    assert not is_p_morphism(WorldMap({0: 0}), crown(1), point)
    # broken back condition: constant onto the bottom of a 2-chain leaves
    # the top without preimages along the relation
    two = chain(2)
    assert not is_p_morphism(WorldMap({0: 0, 1: 0, 2: 0}), crown(1), two)


@st.composite
def world_maps(draw):
    """(map, source, target): a domain that is R[u] or any set of worlds,
    with images drawn from the target's worlds and one past them."""
    source, target = draw(frames(max_n=4)), draw(frames(max_n=3))
    u = draw(st.integers(0, source.n - 1))
    dom = draw(st.one_of(st.just(source.successors(u)), st.lists(
        st.integers(0, source.n - 1), min_size=1, unique=True)))
    images = st.integers(0, target.n) if draw(st.booleans()) \
        else st.integers(0, target.n - 1)
    return WorldMap({w: draw(images) for w in dom}), source, target


@settings(max_examples=400, deadline=None)
@given(world_maps())
@example((WorldMap({0: 0, 1: 1, 2: 2, 3: 1, 4: 2}), crown(2), crown(1)))
@example((WorldMap({1: 1, 2: 2, 3: 1}), crown(2), crown(1)))
def test_p_morphism_matches_reference(case):
    assert is_p_morphism(*case) == reference_is_p_morphism(*case)


def test_negative_image_is_no_p_morphism():
    # a negative image names no target world
    assert not is_p_morphism(WorldMap({0: 0, 1: -1, 2: 0}), crown(1), Frame(1))


def test_find_subreduction_fixtures():
    b4 = chain(4)
    got = find_subreduction(b4, b4)
    assert got == WorldMap({0: 0, 1: 1, 2: 2, 3: 3})
    b3 = Frame(4, [(0, 1), (0, 2), (0, 3)], root=0)
    b1 = Frame(2, [(0, 1), (1, 0)], root=0)
    b5 = Frame(4, [(0, 1), (1, 2), (0, 3)], root=0)
    assert find_subreduction(crown(3), b3) is None
    assert find_subreduction(crown(3), b1) is None
    assert find_subreduction(crown(3), b5) is None


def test_subreduction_budget_error_names_its_phase():
    # each image tried is one step: the identity on B3 takes 14
    b3 = Frame(4, [(0, 1), (0, 2), (0, 3)], root=0)
    with pytest.raises(BudgetExceededError,
                       match=r"^subreduction search budget exhausted in "
                             r"image assignment \(14 of 13 steps\)$"):
        find_subreduction(b3, b3, budget=13)
    assert find_subreduction(b3, b3, budget=14) == WorldMap({w: w for w in range(4)})


def test_jankov_fine_point_satisfiable_everywhere():
    point = Frame(1, [], root=0)
    f = jankov_fine(point)
    for fr in [chain(2), crown(1), crown(2), Frame(2, [(0, 1), (1, 0)])]:
        assert sat_on_frame(fr, f) is not None


def test_jankov_fine_identity_satisfaction():
    b1 = Frame(2, [(0, 1), (1, 0)], root=0)
    f = jankov_fine(b1)
    model = Model(b1, {"p0": {0}, "p1": {1}})
    assert eval_formula(model, 0, f)


def test_jankov_fine_trident_not_sat_on_crown2():
    b3 = Frame(4, [(0, 1), (0, 2), (0, 3)], root=0)
    assert sat_on_frame(crown(2), jankov_fine(b3)) is None


def test_jankov_fine_correspondence_small():
    # satisfiable on F exactly when F subreduces to G
    targets = [g for n in (1, 2, 3) for g in enumerate_rooted_s4(n)]
    frames = [f for n in (1, 2, 3) for f in enumerate_s4(n)]
    for g in targets:
        xi_g = jankov_fine(g)
        for f in frames:
            sat = sat_on_frame(f, xi_g) is not None
            assert sat == (find_subreduction(f, g) is not None), (f, g)


def test_sigma_bisimilar_reflexive():
    m = Model(crown(1), {"p": {0, 1}})
    assert sigma_bisimilar(m, 0, m, 0, {"p"})


def test_sigma_bisimulations_of_interpolation_models():
    m0 = Model(chain(2), {"r": {0}})
    m1 = Model(chain(3), {"r": {0}, "p": {1}})
    m2 = Model(Frame(3, [(0, 1), (0, 2)], root=0), {"r": {0}, "s": {1}})
    assert sigma_bisimilar(m1, 0, m0, 0, {"r"})
    assert sigma_bisimilar(m2, 0, m0, 0, {"r"})
    # and with s tracked the second one breaks
    assert not sigma_bisimilar(m2, 0, m0, 0, {"r", "s"})


def test_sigma_bisimilar_agreement_property():
    rng = random.Random(11)
    pool = formula_pool()
    for _ in range(40):
        n1, n2 = rng.randint(1, 4), rng.randint(1, 4)
        f1 = Frame(n1, [(rng.randrange(n1), rng.randrange(n1)) for _ in range(n1 * 2)])
        f2 = Frame(n2, [(rng.randrange(n2), rng.randrange(n2)) for _ in range(n2 * 2)])
        v1 = {"p": {w for w in range(n1) if rng.random() < 0.5}}
        v2 = {"p": {w for w in range(n2) if rng.random() < 0.5}}
        m1, m2 = Model(f1, v1), Model(f2, v2)
        for w1 in range(n1):
            for w2 in range(n2):
                if sigma_bisimilar(m1, w1, m2, w2, {"p"}):
                    for f in pool:
                        assert eval_formula(m1, w1, f) == eval_formula(m2, w2, f)


def test_p_morphism_preservation_property():
    pool = formula_pool()
    sources = [f for n in (2, 3, 4) for f in enumerate_s4(n)]
    targets = [g for n in (1, 2, 3) for g in enumerate_rooted_s4(n)]
    for src in sources:
        for tgt in targets:
            found = None
            for code in range(tgt.n ** src.n):
                mapping = {}
                c = code
                for w in range(src.n):
                    mapping[w] = c % tgt.n
                    c //= tgt.n
                wm = WorldMap(mapping)
                if is_p_morphism(wm, src, tgt) and wm.is_onto(tgt):
                    found = wm
                    break
            if found is None:
                continue
            for f in pool[:8]:
                if valid_on_frame(src, f).valid:
                    assert valid_on_frame(tgt, f).valid, (src, tgt, f)


def test_closure_interior_delta_fixtures():
    c2 = crown(2)
    assert delta(c2, range(5)) == frozenset()
    assert closure_set(c2, {1}) == {0, 1, 2, 4}
    assert delta(c2, {1}) == {0, 2, 4}
    assert interior_set(c2, {0, 1, 2}) == {1}


def test_delta_cubed_empty_on_crowns():
    for n in range(1, 7):
        fr = crown(n)
        for mask in range(1 << fr.n):
            a = {w for w in range(fr.n) if mask >> w & 1}
            d1 = delta(fr, a)
            assert not (d1 & frozenset(a))
            d3 = delta(fr, delta(fr, d1))
            assert d3 == frozenset(), (n, a)


def test_json_round_trips():
    fr = crown(2)
    assert frame_from_dict(frame_to_dict(fr)) == fr
    m = Model(fr, {"p": {0, 3}})
    got = model_from_dict(model_to_dict(m))
    assert got.frame == fr and got.val == m.val
    # reflexive pairs omissible, closure applied on load
    fr2 = frame_from_dict({"worlds": 3, "rel": [[0, 1], [1, 2]]})
    assert fr2.sees(0, 2)


def test_vectorized_validity_matches_plain_loop():
    # 3 variables on 4 worlds give 12 valuation bits, all in one multi-lane
    # chunk; reference: per-valuation model checking, one lane at a time
    rng = random.Random(61)
    for _ in range(12):
        n = 4
        fr = Frame(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(7)])
        f = random_formula(rng, rng.randint(3, 8), ("p", "q", "r"))
        names = sorted({v for v in ("p", "q", "r")})
        rep = valid_on_frame(fr, f)
        full = (1 << n) - 1
        expected = None
        import polyplane.formula as fm
        used = sorted(fm.variables(f))
        for value in range(1 << (n * len(used))):
            val = {name: frozenset(w for w in range(n)
                                   if value >> (j * n + w) & 1)
                   for j, name in enumerate(used)}
            mask = truth_mask(Model(fr, val), f)
            if mask != full:
                world = next(w for w in range(n) if not mask >> w & 1)
                expected = (value, world, val)
                break
        if expected is None:
            assert rep.valid
        else:
            assert not rep.valid
            assert rep.counterexample == expected[2]
            assert rep.world == expected[1]


def test_subreduction_against_bruteforce_all_upsets():
    # reference search over every up-set domain and every map, validating
    # the restriction to single-world-generated domains
    from polyplane.axioms import forbidden_frames

    def brute(source, target):
        worlds = range(source.n)
        for dom_mask in range(1, 1 << source.n):
            dom = [w for w in worlds if dom_mask >> w & 1]
            if any(source.rows[w] & ~dom_mask for w in dom):
                continue  # not an up-set
            for code in range(target.n ** len(dom)):
                mapping, c = {}, code
                for w in dom:
                    mapping[w] = c % target.n
                    c //= target.n
                wm = WorldMap(mapping)
                if is_p_morphism(wm, source, target) and wm.is_onto(target):
                    return True
        return False

    rng = random.Random(62)
    targets = [ff.frame for ff in forbidden_frames()[:3]] + enumerate_rooted_s4(2)
    for _ in range(25):
        n = rng.randint(1, 4)
        fr = Frame(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)])
        for tgt in targets:
            got = find_subreduction(fr, tgt) is not None
            assert got == brute(fr, tgt), (fr, tgt)


# ---------------------------------------------------------------------------
# Evaluator against the definitional reference

NAMES = ("p", "q", "r")


@st.composite
def frames(draw, max_n=5):
    n = draw(st.integers(1, max_n))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    pairs = draw(st.lists(pair, max_size=2 * n))
    # pairs joined both ways make clusters
    both = draw(st.lists(pair, max_size=2))
    return Frame(n, pairs + both + [(y, x) for x, y in both])


formulas = st.recursive(
    st.sampled_from([Var(name) for name in NAMES] + [Bottom()]),
    lambda sub: st.one_of(
        st.builds(Not, sub), st.builds(Box, sub), st.builds(Diamond, sub),
        st.builds(And, sub, sub), st.builds(Or, sub, sub),
        st.builds(Implies, sub, sub), st.builds(Iff, sub, sub)),
    max_leaves=5)


def reference_exhaustive(frame, phi):
    """(valid, checked, counterexample, world) of the first failing
    valuation, enumerating valuations in valid_on_frame's documented order."""
    names = sorted(variables(phi))
    n = frame.n
    total = 1 << (n * len(names))
    for value in range(total):
        val = {name: frozenset(w for w in range(n) if value >> (j * n + w) & 1)
               for j, name in enumerate(names)}
        bad = set(range(n)) - reference_truth(frame, val, phi)
        if bad:
            return False, value + 1, val, min(bad)
    return True, total, None, None


def reference_sampled(frame, phi, samples, seed):
    """Same report, drawing one getrandbits(n) per sorted variable per
    sample from random.Random(seed)."""
    names = sorted(variables(phi))
    n = frame.n
    rng = random.Random(seed)
    for i in range(samples):
        val = {}
        for name in names:
            bits = rng.getrandbits(n)
            val[name] = frozenset(w for w in range(n) if bits >> w & 1)
        bad = set(range(n)) - reference_truth(frame, val, phi)
        if bad:
            return False, i + 1, val, min(bad)
    return True, samples, None, None


@settings(max_examples=120, deadline=None)
@given(frames(), formulas, st.integers(0, (1 << 15) - 1), st.integers(0, 400),
       st.integers(0, 1 << 32))
# 5 worlds x 3 variables = 15 valuation bits, past the 10 bits a
# per-valuation loop used to cover; the first fails late, the second is valid
@example(Frame(5, [(0, 1), (1, 2), (0, 3), (3, 4)]),
         parse("<>(p & q & r) | [](p | ~q) | ~r"), 12345, 300, 7)
@example(Frame(5, [(0, 1), (1, 2), (0, 3), (3, 4)]),
         parse("([]p & <>q) -> <>(p & q) | r | ~r"), 54321, 50, 8)
def test_evaluator_matches_reference(frame, phi, bits, samples, seed):
    n = frame.n
    val = {name: frozenset(w for w in range(n) if bits >> (j * n + w) & 1)
           for j, name in enumerate(NAMES)}
    want = sum(1 << w for w in reference_truth(frame, val, phi))
    assert truth_mask(Model(frame, val), phi) == want
    rep = valid_on_frame(frame, phi)
    assert rep.exhaustive
    assert (rep.valid, rep.checked, rep.counterexample, rep.world) == \
        reference_exhaustive(frame, phi)
    rep = valid_on_frame(frame, phi, mode="sampled", samples=samples, seed=seed)
    assert not rep.exhaustive
    assert (rep.valid, rep.checked, rep.counterexample, rep.world) == \
        reference_sampled(frame, phi, samples, seed)


@settings(max_examples=100, deadline=None)
@given(frames(max_n=9), formulas, st.integers(0, (1 << 27) - 1),
       st.integers(0, 60), st.integers(0, 1 << 32))
def test_evaluator_matches_reference_up_to_nine_worlds(frame, phi, bits,
                                                       samples, seed):
    # one lane under one valuation, sampled lanes over the three variables,
    # and exhaustive lanes over one variable (9 worlds x 3 variables would
    # be 2^27 valuations)
    n = frame.n
    val = {name: frozenset(w for w in range(n) if bits >> (j * n + w) & 1)
           for j, name in enumerate(NAMES)}
    want = sum(1 << w for w in reference_truth(frame, val, phi))
    assert truth_mask(Model(frame, val), phi) == want
    rep = valid_on_frame(frame, phi, mode="sampled", samples=samples, seed=seed)
    assert (rep.valid, rep.checked, rep.counterexample, rep.world) == \
        reference_sampled(frame, phi, samples, seed)
    psi = substitute(phi, {"q": Not(p), "r": Diamond(p)})
    rep = valid_on_frame(frame, psi)
    assert (rep.valid, rep.checked, rep.counterexample, rep.world) == \
        reference_exhaustive(frame, psi)


def _random_frame(rng, n):
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(n)]
    both = [(rng.randrange(n), rng.randrange(n)) for _ in range(3)]
    return Frame(n, pairs + both + [(y, x) for x, y in both])


@pytest.mark.parametrize("n", [33, 70])
def test_sampled_validity_on_wide_frames(n):
    # a draw of 33 or 70 bits spans more than one 32- or 64-bit word
    rng = random.Random(n)
    # on the chain, <>~p | r fails at the top world one draw in four
    phis = [parse("[]p -> p"), parse("<>[]p -> []<>p"), parse("<>~p | r"),
            parse("<>(p & q) | [](~p | r) | <>~q")]
    phis += [random_formula(rng, rng.randint(3, 7)) for _ in range(4)]
    outcomes = []
    for frame in (_random_frame(rng, n), chain(n)):
        for seed, phi in enumerate(phis, start=3):
            got = valid_on_frame(frame, phi, mode="sampled", samples=30, seed=seed)
            want = reference_sampled(frame, phi, 30, seed)
            assert (got.valid, got.checked, got.counterexample, got.world) == want
            outcomes.append((got.valid, got.checked > 1))
        val = {name: frozenset(w for w in range(n) if rng.random() < 0.5)
               for name in NAMES}
        for phi in phis:
            want = sum(1 << w for w in reference_truth(frame, val, phi))
            assert truth_mask(Model(frame, val), phi) == want
    # valid ones, and failures found after the first sample
    assert (True, True) in outcomes and (False, True) in outcomes


# no variable, one and three; on the chain <>~p | <>~q | r fails only at
# the top world, one sample in eight
WIDE_PHIS = [parse("F"), parse("~F"), parse("[]p -> p"), parse("p -> []p"),
             parse("<>~p | <>~q | r"), parse("<>(p & q) | [](~p | r) | <>~q")]


@pytest.mark.parametrize("n", [31, 32, 33, 64, 65])
def test_sampled_matches_reference_across_words_and_chunks(n, monkeypatch):
    # a draw of 31 or 32 bits is one 32-bit word, of 64 two whole words,
    # of 33 or 65 bits keeps the top bits of its last word; with 8 lanes a
    # chunk, 13 and 29 samples end in a part chunk
    monkeypatch.setattr(kripke, "_CHUNK", 8)
    rng = random.Random(n)
    for frame in (_random_frame(rng, n), chain(n)):
        for phi in WIDE_PHIS:
            for samples, seed in ((0, 1), (5, 2), (13, 3), (29, n)):
                got = valid_on_frame(frame, phi, mode="sampled",
                                     samples=samples, seed=seed)
                assert (got.valid, got.checked, got.counterexample, got.world) \
                    == reference_sampled(frame, phi, samples, seed)


@pytest.mark.parametrize("n, seed, first", [(31, 29, 20), (33, 10, 22),
                                            (65, 5, 23)])
def test_sampled_first_failure_in_a_later_chunk(n, seed, first, monkeypatch):
    # with 8 lanes a chunk the first failure lies in the third chunk, so
    # the draws continue one random stream from chunk to chunk
    monkeypatch.setattr(kripke, "_CHUNK", 8)
    phi = parse("<>~p | <>~q | r")
    got = valid_on_frame(chain(n), phi, mode="sampled", samples=29, seed=seed)
    assert (got.valid, got.checked, got.world) == (False, first, n - 1)
    assert (got.valid, got.checked, got.counterexample, got.world) == \
        reference_sampled(chain(n), phi, 29, seed)


def test_sampled_reports_pinned():
    # any change to which draw bit gives which world shows here
    phi = parse("<>~p | <>~q | r")
    rep = valid_on_frame(crown(2), phi, mode="sampled", samples=29, seed=1)
    assert rep == ValidityReport(False, False, 2, {
        "p": frozenset({0, 3, 4}), "q": frozenset({3, 4}),
        "r": frozenset({1})}, 3)
    rep = valid_on_frame(chain(33), phi, mode="sampled", samples=29, seed=0)
    masks = {name: sum(1 << w for w in ws)
             for name, ws in rep.counterexample.items()}
    assert (rep.valid, rep.exhaustive, rep.checked, rep.world) == \
        (False, False, 3, 32)
    assert masks == {"p": 0x1c8a70639, "q": 0x14da5e709, "r": 0x7a024204}


@pytest.mark.parametrize("samples", [-5, -1, 1.5, 2.0, "10", None, True, False])
def test_sampled_rejects_bad_sample_counts(samples):
    with pytest.raises(ValueError, match="samples"):
        valid_on_frame(crown(2), parse("p"), mode="sampled", samples=samples)


def test_zero_samples_check_nothing():
    rep = valid_on_frame(crown(2), parse("p"), mode="sampled", samples=0)
    assert rep == ValidityReport(True, False, 0)


def test_exhaustive_first_failure_past_first_chunk_on_crown():
    # crown(3) has 7 worlds; p, q, r take bits 0-6, 7-13 and 14-20.  The
    # negated formula holds only at the root, through a middle u with r
    # and p true there: r must hold at a middle, and the least such bit is
    # r at world 2 (bit 16).  Then p at world 2 (bit 2) and q at the root
    # (bit 7) give the first failing valuation, in the second chunk.
    phi = parse("~(<>(r & <>~r & p) & ~r & <>q)")
    rep = valid_on_frame(crown(3), phi)
    value = (1 << 16) + (1 << 2) + (1 << 7)
    assert (rep.valid, rep.exhaustive, rep.checked, rep.world) == \
        (False, True, value + 1, 0)
    assert rep.counterexample == {"p": frozenset({2}), "q": frozenset({0}),
                                  "r": frozenset({2})}


def test_validity_reports_first_failure_past_first_chunk():
    # exhaustive: 18 valuation bits span four chunks of 2^16.  [](p0&..&p8)
    # first holds at world 1 of the 2-chain under the least valuation that
    # makes every p_j true there (bits 2j+1), in the third chunk
    ps = [Var(f"p{j}") for j in range(9)]
    rep = valid_on_frame(chain(2), Not(Box(conj(ps))))
    value = sum(1 << (2 * j + 1) for j in range(9))
    assert value >= 2 << 16
    assert (rep.valid, rep.checked, rep.world) == (False, value + 1, 1)
    assert rep.counterexample == {f"p{j}": frozenset({1}) for j in range(9)}

    # sampled: 17 variables on one point make the conjunction true in one
    # draw out of 2^17; this seed first draws it past the first chunk
    qs = [Var(f"q{j:02d}") for j in range(17)]
    rng = random.Random(21)
    first = 0
    while sum(rng.getrandbits(1) for _ in qs) < len(qs):
        first += 1
    assert first >= 1 << 16
    point = Frame(1, [])
    rep = valid_on_frame(point, Not(conj(qs)), mode="sampled",
                         samples=first + 5, seed=21)
    assert (rep.valid, rep.checked, rep.world) == (False, first + 1, 0)
    assert rep.counterexample == {q.name: frozenset({0}) for q in qs}


def test_deep_formula_evaluates_without_recursion():
    f = p
    for _ in range(1500):
        f = Diamond(Not(f))  # 3000 nodes deep
    assert variables(f) == {"p"}
    # on one reflexive point <>~ is negation, and an even count cancels
    point = Frame(1, [])
    assert truth_mask(Model(point, {"p": {0}}), f) == 1
    assert not eval_formula(Model(point, {}), 0, f)
    rep = valid_on_frame(point, f)
    assert (rep.valid, rep.checked, rep.counterexample, rep.world) == \
        (False, 1, {"p": frozenset()}, 0)
    rep = valid_on_frame(point, f, mode="sampled", samples=20, seed=0)
    assert (rep.valid, rep.checked, rep.counterexample, rep.world) == \
        reference_sampled(point, Var("p"), 20, 0)


def test_closed_walk_least_edge_first():
    # the least (other end, label) first: 0 -a- 1 -b- 0 closes early, and
    # the walk splices 1 -c- 2 -d- 1 in where it left 1
    edges = [(0, 1, "a"), (1, 0, "b"), (1, 2, "c"), (2, 1, "d")]
    assert _closed_walk(edges, 0) == [(0, "a"), (1, "c"), (2, "d"), (1, "b")]
    # an edge is crossed whichever way round it is listed: from 0, a and b
    # are walked from their second end; from 2, whose least other end is
    # 0, c is
    edges = [(1, 0, "a"), (0, 2, "c"), (2, 1, "b")]
    assert _closed_walk(edges, 0) == [(0, "a"), (1, "b"), (2, "c")]
    assert _closed_walk(edges, 2) == [(2, "c"), (0, "a"), (1, "b")]


def test_closed_walk_shared_keys_and_loop():
    # two parallel edges sharing the label x between 0 and 1 and a loop z
    # at 1; each edge is walked once, so x comes up twice
    edges = [(0, 1, "x"), (1, 0, "x"), (1, 1, "z")]
    assert _closed_walk(edges, 0) == [(0, "x"), (1, "z"), (1, "x")]
    assert _closed_walk(edges, 1) == [(1, "x"), (0, "x"), (1, "z")]


def test_closed_walk_raises_when_it_misses_or_stays_open():
    with pytest.raises(ValueError, match="misses"):
        _closed_walk([(0, 1, "a"), (1, 0, "a"), (2, 2, "b")], 0)
    with pytest.raises(ValueError, match="does not close"):
        _closed_walk([(0, 1, "a")], 0)
    assert _closed_walk([], 0) == []


def test_even_degrees_pairs_odd_nodes_in_order():
    # a star on centre 0 with leaves 1..4; adj also has a direct arc e
    # between 3 and 4 that the star does not use
    star = [(0, 1, "a"), (0, 2, "b"), (0, 3, "c"), (0, 4, "d")]
    adj = {0: {1: "a", 2: "b", 3: "c", 4: "d"}, 1: {0: "a"}, 2: {0: "b"},
           3: {0: "c", 4: "e"}, 4: {0: "d", 3: "e"}}
    edges = list(star)
    assert _even_degrees(edges, adj) is None
    # 1 pairs with 2 through the centre, 3 with 4 along the direct arc
    assert edges == star + [(1, 0, "a"), (0, 2, "b"), (3, 4, "e")]
    degree = Counter(x for a, b, _ in edges for x in (a, b))
    assert all(d % 2 == 0 for d in degree.values())
    assert len(_closed_walk(edges, 0)) == len(edges)
    # even degrees already: nothing is added
    assert _even_degrees(edges, adj) is None and len(edges) == 7


def test_shortest_path_tie_breaking():
    # 0 - 1 - 2 and 4 - 3 - 2 reach 2 in two steps; 0 - 5 - 2 ties with 1
    adj = {0: {5, 1}, 1: {0, 2}, 2: {1, 3, 5}, 3: {2, 4}, 4: {3}, 5: {0, 2},
           6: set()}
    assert _shortest_path(adj, [0, 4], {2}) == [0, 1, 2]
    assert _shortest_path(adj, [4, 0], {2}) == [4, 3, 2]
    assert _shortest_path(adj, [4, 0], {2, 3}) == [4, 3]
    assert _shortest_path(adj, [6], {2}) is None
    assert _shortest_path(adj, [], {2}) is None
