import random
from math import ceil, log2

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyplane.axioms import xi
from polyplane.crown import crown_sat_oracle
from polyplane.errors import BudgetExceededError
from polyplane.formula import (AND, BOT, BOX, DIA, IFF, IMP, OR, And, Box,
                               Diamond, Not, Var, ast_size, closure, conj,
                               parse, pretty)
from polyplane.kripke import eval_formula
from polyplane.mosaic import (LabelSpace, Mosaic, MosaicError, StepBudget,
                              check_path, decide_sat, extract_model,
                              glue_reachable, hintikka_sets, is_coherent,
                              mirror, sat_at_root, valid)

from helpers import (all_formulas, formulas, random_formula,
                     reference_decide_sat, reference_enumerate_labels)


def label_of(space, formulas):
    """The unique Hintikka label whose positive members are exactly these."""
    want = set(formulas)
    for lab in space.enumerate_labels():
        got = {f for f in space.positives if space.member(lab, f)}
        if got == want:
            return lab
    raise AssertionError(f"no label with members {sorted(map(pretty, want))}")


def test_hintikka_atom():
    assert len(hintikka_sets(closure(parse("p")))) == 2


def test_hintikka_diamond():
    space = LabelSpace.for_formula(parse("<>p"))
    labs = space.enumerate_labels()
    assert len(labs) == 3
    shown = {frozenset(map(pretty, space.label_formulas(l) & set(space.positives)))
             for l in labs}
    assert frozenset({"p", "<>p"}) in shown
    assert frozenset({"<>p"}) in shown
    assert frozenset() in shown  # neither p nor <>p
    # {p, ~<>p} is ruled out by reflexivity


def test_hintikka_conjunction():
    assert len(hintikka_sets(closure(parse("p & q")))) == 4


def test_hintikka_order_deterministic():
    labs = hintikka_sets(closure(parse("<>p | q")))
    assert labs == sorted(labs)


def test_coherence_fixtures():
    space = LabelSpace.for_formula(parse("<>p"))
    dia, atom = parse("<>p"), parse("p")
    l_both = label_of(space, {dia, atom})
    l_dia = label_of(space, {dia})
    l_none = label_of(space, {})
    # diamond everywhere, witness at an edge
    assert is_coherent(Mosaic(l_dia, l_dia, l_both, l_none), space)
    # p at an edge but the root missing the diamond breaks propagation
    assert not is_coherent(Mosaic(l_none, l_dia, l_both, l_none), space)
    # an edge claiming the diamond without p breaks the reflexive witness
    assert not is_coherent(Mosaic(l_dia, l_dia, l_dia, l_none), space)
    # labels must come from the Hintikka enumeration
    assert not is_coherent(Mosaic(1 << space.size, l_dia, l_both, l_none), space)


def test_mirror_preserves_coherence():
    space = LabelSpace.for_formula(parse("<>p"))
    rng = random.Random(4)
    labs = space.enumerate_labels()
    for _ in range(60):
        m = Mosaic(*(rng.choice(labs) for _ in range(4)))
        assert is_coherent(m, space) == is_coherent(mirror(m), space)


def test_check_path_fixtures():
    space = LabelSpace.for_formula(parse("<>p & <>~p"))
    both = parse("<>p & <>~p")
    p_, dp, dnp = parse("p"), parse("<>p"), parse("<>~p")
    e_p = label_of(space, {p_, dp})            # endpoint carrying p
    e_np = label_of(space, {dnp})              # endpoint carrying ~p
    rho = label_of(space, {dp, dnp, both})     # root without p
    m_np = rho                                 # middle witnessing ~p itself
    m_p = label_of(space, {p_, dp, dnp, both})
    a = Mosaic(rho, m_np, e_p, e_p)
    b = Mosaic(rho, m_p, e_p, e_np)
    c = Mosaic(rho, m_p, e_np, e_np)
    assert is_coherent(a, space) and is_coherent(b, space) and is_coherent(c, space)
    pool = [a, b, c]
    # self chain and direct glue
    assert check_path(a, a, pool, 0)
    assert check_path(a, b, pool, 0)
    # a to c needs the intermediate b: false at depth 0, true at depth 1
    assert not check_path(a, c, pool, 0)
    assert check_path(a, c, pool, 1)


def test_check_path_equals_bfs_reachability():
    rng = random.Random(9)
    for _ in range(30):
        f = random_formula(rng, rng.randint(2, 6), ("p", "q"))
        res = decide_sat(f)
        if not res.sat:
            continue
        pool = list(res.mosaics)
        depth = ceil(log2(len(pool) + 1))
        for a in pool:
            reach = glue_reachable(a, pool)
            for b in pool:
                assert check_path(a, b, pool, depth) == (b in reach or a == b)


def test_decide_sat_bottom():
    assert not decide_sat(parse("F")).sat
    assert decide_sat(parse("T")).sat


def test_decide_sat_interpolation_pair_unsat():
    A = parse("[](r -> <>(~r & p & <>~p))")
    C = parse("(r & <>[]s & <>[]~s) -> <>(~r & <>[]s & <>[]~s)")
    from polyplane.formula import And
    assert not decide_sat(And(A, Not(C))).sat
    assert valid(parse("([](r -> <>(~r & p & <>~p))) -> "
                       "((r & <>[]s & <>[]~s) -> <>(~r & <>[]s & <>[]~s))"))


def test_decide_sat_two_box_witnesses():
    f = parse("<>[]p & <>[]~p")
    res = decide_sat(f)
    oracle = crown_sat_oracle(f, 4)
    assert res.sat and oracle is not None
    assert eval_formula(res.model, res.world, f)


def test_models_always_verified():
    rng = random.Random(17)
    for _ in range(120):
        f = random_formula(rng, rng.randint(1, 7))
        res = decide_sat(f)
        if res.sat:
            assert eval_formula(res.model, res.world, f)
            assert res.model.frame.root == 0


def test_strict_middle_flag():
    # a world with p & <>~p & ~<>[]q is neither an endpoint (no reflexive
    # witness for <>~p there) nor the root (which sees the []q endpoint), so
    # the only witness sits at a middle; the literal middle rule has no
    # reflexive witness and wrongly rejects
    th = parse("<>[]q & <>[]~q & <>(p & <>~p & ~<>[]q)")
    assert decide_sat(th).sat
    assert crown_sat_oracle(th, 6) is not None
    assert not decide_sat(th, strict_middle=True).sat


def test_strict_flag_agrees_when_root_witnesses():
    th = parse("<>(p & <>~p)")
    assert decide_sat(th).sat and decide_sat(th, strict_middle=True).sat


def test_double_negation_wrapper():
    rng = random.Random(23)
    for _ in range(60):
        f = random_formula(rng, rng.randint(1, 6), ("p", "q"))
        assert decide_sat(f).sat == (not valid(Not(f)))


def test_anywhere_pass_equivalence():
    rng = random.Random(31)
    for _ in range(80):
        f = random_formula(rng, rng.randint(1, 6), ("p", "q"))
        assert decide_sat(f).sat == decide_sat(f, exhaustive_anywhere=True).sat
    assert sat_at_root(parse("p | ~p")).sat


def test_extract_single_tile_self_glue_gives_crown_one():
    space = LabelSpace.for_formula(parse("p"))
    lab = space.enumerate_labels()[-1]  # p true
    n, model, witness = extract_model([Mosaic(lab, lab, lab, lab)], space, lab)
    assert n == 1 and witness == 0
    assert 0 in model.val["p"]


def test_extract_mirrors_close_the_cycle():
    space = LabelSpace.for_formula(parse("<>p"))
    l_both = label_of(space, {parse("p"), parse("<>p")})
    l_none = label_of(space, {})
    tile = Mosaic(l_both, l_both, l_both, l_none)
    assert is_coherent(tile, space)
    n, model, witness = extract_model([tile], space)
    assert n == 2
    assert eval_formula(model, 0, parse("<>p"))


def test_extract_rejects_mixed_roots():
    space = LabelSpace.for_formula(parse("p"))
    l0, l1 = space.enumerate_labels()
    with pytest.raises(MosaicError):
        extract_model([Mosaic(l0, l0, l0, l0), Mosaic(l1, l1, l1, l1)], space)


def test_extract_rejects_disconnected_pool():
    # two coherent self-glued tiles under one root whose edge labels differ
    # cannot be laid around one crown cycle
    space = LabelSpace.for_formula(parse("p"))
    l0, l1 = space.enumerate_labels()
    pool = [Mosaic(l0, l0, l0, l0), Mosaic(l0, l1, l1, l1)]
    assert all(is_coherent(t, space) for t in pool)
    with pytest.raises(MosaicError, match="single cycle"):
        extract_model(pool, space)


def test_extract_verifies_truth_lemma():
    space = LabelSpace.for_formula(parse("<>p"))
    l_dia = label_of(space, {parse("<>p")})
    bogus = Mosaic(l_dia, l_dia, l_dia, l_dia)  # diamond with no witness
    with pytest.raises(MosaicError):
        extract_model([bogus], space)


def test_small_model_bound():
    # extracted crown size stays within the coherent-tile count + 1
    rng = random.Random(37)
    for _ in range(25):
        f = random_formula(rng, rng.randint(2, 5), ("p", "q"))
        res = decide_sat(f)
        if not res.sat:
            continue
        space = LabelSpace.for_formula(f)
        labs = space.enumerate_labels()
        coherent = sum(1 for m in labs for e0 in labs for e1 in labs
                       if is_coherent(Mosaic(res.root_label, m, e0, e1), space))
        assert res.n <= coherent + 1, pretty(f)
        assert res.stats.pool_size == res.n


def test_oracle_agreement_smoke():
    for f in all_formulas(3):
        assert decide_sat(f).sat == (crown_sat_oracle(f, 6) is not None), pretty(f)


@settings(max_examples=200)
@given(formulas())
def test_oracle_agreement_three_variables(f):
    assert decide_sat(f).sat == (crown_sat_oracle(f, 6) is not None)


def brute_hintikka(space):
    """Independent reference: filter all bit vectors by the truth tables
    and the reflexivity rules, without propagation."""
    out = []
    for mask in range(1 << space.size):
        def mem(ref):
            idx, pol = ref
            return bool(mask >> idx & 1) == pol
        ok = True
        for i, op in enumerate(space.ops):
            c = bool(mask >> i & 1)
            ops = space.operands[i]
            if op == BOT:
                want = False
            elif op == AND:
                want = mem(ops[0]) and mem(ops[1])
            elif op == OR:
                want = mem(ops[0]) or mem(ops[1])
            elif op == IMP:
                want = (not mem(ops[0])) or mem(ops[1])
            elif op == IFF:
                want = mem(ops[0]) == mem(ops[1])
            elif op == DIA:
                if mem(ops[0]) and not c:
                    ok = False
                continue
            elif op == BOX:
                if c and not mem(ops[0]):
                    ok = False
                continue
            else:
                continue
            if c != want:
                ok = False
                break
        if ok:
            out.append(mask)
    return out


def test_hintikka_enumeration_matches_bruteforce():
    rng = random.Random(55)
    for _ in range(40):
        f = random_formula(rng, rng.randint(1, 7), ("p", "q"))
        space = LabelSpace.for_formula(f)
        if space.size > 14:
            continue
        assert space.enumerate_labels() == brute_hintikka(space), pretty(f)


def test_constrained_enumeration_matches_filtering():
    rng = random.Random(56)
    for _ in range(25):
        f = random_formula(rng, rng.randint(2, 7), ("p", "q"))
        space = LabelSpace.for_formula(f)
        if space.size > 12:
            continue
        all_labels = space.enumerate_labels()
        pick = rng.sample(range(space.size), k=min(2, space.size))
        must = [(i, True, bool(rng.getrandbits(1))) for i in pick]
        got = space.enumerate_labels(must=must)
        want = [lab for lab in all_labels
                if all(bool(lab >> i & 1) == v for i, _, v in must)]
        assert got == want, pretty(f)


def test_check_path_depth_doubling_boundary():
    # a bare 4-tile chain: three glue steps need depth 2 (2^1 = 2 < 3)
    a = Mosaic(9, 9, 0, 1)
    b = Mosaic(9, 9, 1, 2)
    c = Mosaic(9, 9, 2, 3)
    d = Mosaic(9, 9, 3, 4)
    pool = [a, b, c, d]
    assert not check_path(a, d, pool, 1)
    assert check_path(a, d, pool, 2)
    assert glue_reachable(a, pool) == {a, b, c, d}


def test_two_box_model_content():
    res = decide_sat(parse("<>[]p & <>[]~p"))
    box_p = [w for w in range(res.model.frame.n)
             if eval_formula(res.model, w, parse("[]p"))]
    box_np = [w for w in range(res.model.frame.n)
              if eval_formula(res.model, w, parse("[]~p"))]
    assert box_p and box_np and not (set(box_p) & set(box_np))


def test_three_way_agreement_with_frame_search():
    # third route: satisfiability over explicit small crowns by exhaustive
    # valuation search agrees with the oracle and the tile solver whenever
    # the tile solver's model fits those crowns
    from polyplane.crown import crown, crown_sat_oracle
    from polyplane.kripke import sat_on_frame
    rng = random.Random(71)
    for _ in range(80):
        f = random_formula(rng, rng.randint(1, 6), ("p", "q"))
        by_frames = any(sat_on_frame(crown(n), f) is not None for n in (1, 2, 3))
        by_oracle = crown_sat_oracle(f, 3) is not None
        assert by_frames == by_oracle, pretty(f)
        if by_oracle:
            assert decide_sat(f).sat, pretty(f)


# -- the search over root keys and label classes against the per-root search

def answer(res):
    """Everything of a SatResult but its counters, whose meaning differs."""
    return (res.sat, res.n, res.model, res.world, res.root_label, res.mosaics)


@settings(max_examples=300, deadline=None)
@given(formulas(), st.booleans(), st.booleans())
def test_search_matches_per_root_reference(f, strict, anywhere):
    kw = dict(strict_middle=strict, exhaustive_anywhere=anywhere)
    assert answer(decide_sat(f, **kw)) == answer(reference_decide_sat(f, **kw))


def test_search_matches_per_root_reference_on_all_small_formulas():
    for f in all_formulas(5):
        assert answer(decide_sat(f)) == answer(reference_decide_sat(f)), pretty(f)


def test_search_matches_reference_on_a_former_budget_out():
    # one of the random formulas the per-root search could not answer
    # within 500k steps
    f = parse("[](~((r <-> p) <-> s <-> s) -> q -> []~~(r -> []F -> ~F)) "
              "<-> ~(<>p | <>F)")
    with pytest.raises(BudgetExceededError):
        reference_decide_sat(f, budget=500_000)
    got = decide_sat(f, budget=500_000)
    assert got.sat
    assert answer(got) == answer(reference_decide_sat(f, budget=10**9))


def test_long_conjunction_pinned():
    # the per-root search needs seconds here (one root, 512 labels below
    # it, all in one class); its answer is the single all-true tile
    f = conj([Var(f"p{i}") for i in range(9)])
    res = decide_sat(f)
    top = (1 << 17) - 1
    assert (res.sat, res.n, res.world, res.root_label) == (True, 1, 0, top)
    assert res.mosaics == (Mosaic(top, 0, 0, 0),)
    assert res.model.val == {f"p{i}": frozenset({0}) for i in range(9)}
    assert (res.stats.roots_tried, res.stats.glue_graphs,
            res.stats.labels_built, res.stats.label_classes) == (1, 1, 512, 2)


def test_long_conjunction_within_budget():
    f = conj([Var(f"p{i}") for i in range(11)])
    res = decide_sat(f, budget=500_000)
    assert res.sat and eval_formula(res.model, res.world, f)


def test_enumeration_spends_from_the_budget():
    space = LabelSpace.for_formula(parse("<>p & []q & (r | s)"))
    labels = space.enumerate_labels()
    budget = StepBudget(10**6)
    assert space.enumerate_labels(budget=budget) == labels
    assert budget.used >= len(labels)
    with pytest.raises(BudgetExceededError, match="label enumeration"):
        space.enumerate_labels(budget=StepBudget(budget.used - 1))


def test_enumeration_rechecks_complete_labels(monkeypatch):
    # a propagation that derives nothing leaves `p & q` undecided once p and
    # q are; the check must hold under python -O as well
    space = LabelSpace.for_formula(parse("p & q"))
    monkeypatch.setattr(space, "_propagate", lambda values, trail, head: True)
    with pytest.raises(MosaicError, match="undecided"):
        space.enumerate_labels()


def test_xi_runs_out_of_budget():
    # unbudgeted, the root enumeration alone runs for minutes
    with pytest.raises(BudgetExceededError, match="label enumeration"):
        decide_sat(xi(), budget=100_000)


def test_label_space_of_a_deep_formula():
    # ordering the closure by (size, text) once recursed down each member
    f = Var("p")
    for _ in range(600):
        f = Diamond(f)
    space = LabelSpace.for_formula(f)
    assert space.size == 601 and space.positives[-1] == f
    assert space.positives[1] == Diamond(Var("p"))


# -- the trail search and the one-pass label space against their references

@settings(max_examples=300)
@given(formulas(max_size=14), st.data())
def test_enumeration_matches_sweep_reference(f, data):
    space = LabelSpace.for_formula(f)
    must = data.draw(st.lists(st.tuples(st.integers(0, space.size - 1),
                                        st.booleans(), st.booleans()),
                              max_size=4))
    got_steps, want_steps = StepBudget(10**9), StepBudget(10**9)
    got = space.enumerate_labels(must=must, budget=got_steps)
    assert got == reference_enumerate_labels(space, must=must,
                                             budget=want_steps)
    assert got_steps.used == want_steps.used


def by_size_and_text(members):
    return sorted(members, key=lambda g: (ast_size(g), pretty(g)))


@settings(max_examples=200)
@given(formulas(max_size=14))
def test_member_order_is_size_then_text(f):
    want = by_size_and_text(closure(f))
    assert LabelSpace.for_formula(f).members == want
    assert LabelSpace(closure(f)).members == want


@pytest.mark.parametrize("prefix", [Diamond, Not, lambda g: Box(Not(g))])
def test_member_order_of_deep_towers(prefix):
    f = Var("p")
    for _ in range(1000):
        f = prefix(f)
    want = by_size_and_text(closure(f))
    assert LabelSpace.for_formula(f).members == want
    assert LabelSpace(closure(f)).members == want


def test_deep_diamond_budget_out_is_pinned():
    # every search node spends one step per positive member, so the
    # message reads the same whatever the propagation does inside a node
    with pytest.raises(BudgetExceededError,
                       match=r"\(500499 of 500000 steps\)"):
        decide_sat(parse("<>" * 500 + "p"), budget=500_000)
