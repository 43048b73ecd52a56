import functools
import random
from math import ceil, log2

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyplane.axioms import xi
from polyplane.crown import crown, crown_sat_oracle
from polyplane.errors import BudgetExceededError, VerificationError
from polyplane.formula import (AND, BOT, BOX, DIA, IFF, IMP, OR, And, Box,
                               Diamond, Iff, Not, Var, ast_size, closure,
                               compile, conj, disj, parse, pretty, simplify)
from polyplane.kripke import Model, eval_formula, program_masks
from polyplane.mosaic import (LabelSpace, Mosaic, MosaicError, SolverStats,
                              StepBudget, check_path, decide_sat,
                              extract_model, glue_reachable, is_coherent,
                              mirror, valid)

from helpers import (all_formulas, counter_formula, formulas, random_formula,
                     reference_decide_sat, reference_enumerate_labels,
                     reference_label_tables)


def label_of(space, formulas):
    """The unique Hintikka label whose positive members are exactly these."""
    want = set(formulas)
    for lab in space.enumerate_labels():
        got = {f for f in space.positives if space.member(lab, f)}
        if got == want:
            return lab
    raise AssertionError(f"no label with members {sorted(map(pretty, want))}")


def test_hintikka_atom():
    assert len(LabelSpace.for_formula(parse("p")).enumerate_labels()) == 2


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
    assert len(LabelSpace.for_formula(parse("p & q")).enumerate_labels()) == 4


def test_hintikka_order_deterministic():
    labs = LabelSpace.for_formula(parse("<>p | q")).enumerate_labels()
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


def test_middle_witnesses_its_own_diamonds():
    # a world with p & <>~p & ~<>[]q is neither an endpoint (no reflexive
    # witness for <>~p there) nor the root (which sees the []q endpoint), so
    # the only witness sits at a middle, which sees itself
    th = parse("<>[]q & <>[]~q & <>(p & <>~p & ~<>[]q)")
    res = decide_sat(th)
    assert res.sat and eval_formula(res.model, res.world, th)
    assert crown_sat_oracle(th, 6) is not None
    wit = parse("p & <>~p & ~<>[]q")
    middles = range(2, res.model.frame.n, 2)
    assert [w for w in middles if eval_formula(res.model, w, wit)]
    assert decide_sat(parse("<>(p & <>~p)")).sat


def test_double_negation_wrapper():
    rng = random.Random(23)
    for _ in range(60):
        f = random_formula(rng, rng.randint(1, 6), ("p", "q"))
        assert decide_sat(f).sat == (not valid(Not(f)))


def test_anywhere_pass_equivalence():
    # the root pass is complete: a second pass over root labels without
    # theta, placing theta anywhere below, finds nothing more
    rng = random.Random(31)
    for _ in range(80):
        f = random_formula(rng, rng.randint(1, 6), ("p", "q"))
        want = reference_decide_sat(f, exhaustive_anywhere=True)
        assert answer(decide_sat(f)) == answer(want), pretty(f)


def test_extract_single_tile_self_glue_gives_crown_one():
    space = LabelSpace.for_formula(parse("p"))
    lab = space.enumerate_labels()[-1]  # p true
    n, model, witness = extract_model([Mosaic(lab, lab, lab, lab)], space, lab)
    assert n == 1 and witness == 0
    assert 0 in model.val["p"]


def test_extract_mirrors_close_the_cycle():
    # a tile with two different edges has two odd-degree edge labels: alone
    # it has no closed walk, and a second copy, either way round, closes it
    space = LabelSpace.for_formula(parse("<>p"))
    l_both = label_of(space, {parse("p"), parse("<>p")})
    l_none = label_of(space, {})
    tile = Mosaic(l_both, l_both, l_both, l_none)
    assert is_coherent(tile, space)
    with pytest.raises(MosaicError, match="single cycle"):
        extract_model([tile], space)
    n, model, witness = extract_model([tile, tile], space)
    assert n == 2
    assert eval_formula(model, 0, parse("<>p"))
    assert extract_model([tile, mirror(tile)], space) == (n, model, witness)


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


def test_extract_rejects_a_pool_where_theta_holds_nowhere():
    # label 0 makes p false at every world
    space = LabelSpace.for_formula(parse("p"))
    with pytest.raises(MosaicError, match="no world holds p"):
        extract_model([Mosaic(0, 0, 0, 0)], space)


def test_extract_verifies_truth_lemma():
    space = LabelSpace.for_formula(parse("<>p"))
    l_dia = label_of(space, {parse("<>p")})
    bogus = Mosaic(l_dia, l_dia, l_dia, l_dia)  # diamond with no witness
    with pytest.raises(MosaicError):
        extract_model([bogus], space)


@pytest.mark.parametrize("bad", [-1, 4])
def test_extract_refuses_labels_beyond_the_closure_set(bad):
    # "p" has one positive member, so a label is 0 or 1
    space = LabelSpace.for_formula(parse("p"))
    with pytest.raises(MosaicError, match="bits beyond the closure set"):
        extract_model([Mosaic(1, bad, 1, 1)], space)


def test_extract_catches_an_incoherent_tile_by_the_truth_lemma():
    # p true at the root but false at the middle below it breaks []p
    space = LabelSpace.for_formula(parse("[]p"))
    l_all = label_of(space, {parse("p"), parse("[]p")})
    l_none = label_of(space, {})
    tile = Mosaic(l_all, l_none, l_all, l_all)
    assert not is_coherent(tile, space)
    with pytest.raises(MosaicError, match="truth lemma fails"):
        extract_model([tile], space)


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
@given(formulas(), st.booleans())
def test_search_matches_per_root_reference(f, anywhere):
    want = reference_decide_sat(f, exhaustive_anywhere=anywhere)
    assert answer(decide_sat(f)) == answer(want)


def test_search_matches_per_root_reference_on_all_small_formulas():
    for f in all_formulas(5):
        assert answer(decide_sat(f)) == answer(reference_decide_sat(f)), pretty(f)


def test_search_matches_reference_on_a_former_budget_out():
    # one of the random constant-free formulas the per-root search could
    # not answer within 500k steps (a formula with constants is searched
    # folded by both, and the one pinned here before folding now answers)
    f = parse("<>(<>[](([](q -> s) <-> q) & (q -> s) | <>~(s -> ~p)) "
              "& <>(<>s & r))")
    with pytest.raises(BudgetExceededError):
        reference_decide_sat(f, budget=500_000)
    got = decide_sat(f, budget=500_000)
    assert got.sat
    assert answer(got) == answer(reference_decide_sat(f, budget=10**9))


def test_long_conjunction_pinned():
    # the per-root search needs seconds here (one root, 512 labels below
    # it, all in one class); its answer is the single all-true tile, found
    # without enumerating a label below the root
    f = conj([Var(f"p{i}") for i in range(9)])
    res = decide_sat(f)
    top = (1 << 17) - 1
    assert (res.sat, res.n, res.world, res.root_label) == (True, 1, 0, top)
    assert res.mosaics == (Mosaic(top, 0, 0, 0),)
    assert res.model.val == {f"p{i}": frozenset({0}) for i in range(9)}
    assert (res.stats.roots_tried, res.stats.glue_graphs,
            res.stats.labels_built, res.stats.label_classes) == (1, 0, 0, 0)


def test_long_conjunction_within_budget():
    f = conj([Var(f"p{i}") for i in range(11)])
    res = decide_sat(f, budget=500_000)
    assert res.sat and eval_formula(res.model, res.world, f)


# -- closures without diamonds and boxes: the least tile, from two least labels

def least_meeting(labels, must):
    return min((lab for lab in labels
                if all((lab >> idx & 1) == (pol == v) for idx, pol, v in must)),
               default=None)


@settings(max_examples=300)
@given(formulas(max_size=14), st.data())
def test_least_label_is_the_least_enumerated(f, data):
    space = LabelSpace.for_formula(f)
    must = data.draw(st.lists(st.tuples(st.integers(0, space.size - 1),
                                        st.booleans(), st.booleans()),
                              max_size=3))
    got = space.least_label(must)
    assert got == min(space.enumerate_labels(must), default=None)
    if space.size <= 10:
        assert got == least_meeting(brute_hintikka(space), must)


def test_least_label_spends_from_the_budget():
    # 2^41 labels, and the least is found without listing them
    space = LabelSpace(conj([Var(f"p{i}") for i in range(41)]))
    budget = StepBudget(10**6)
    assert space.least_label(budget=budget) == 0
    assert budget.used % space.size == 0 and 0 < budget.used < 10**4
    with pytest.raises(BudgetExceededError, match="label enumeration"):
        space.least_label(budget=StepBudget(budget.used - 1))
    top = [(space.size - 1, True, True)]
    assert space.least_label(top) == (1 << space.size) - 1


def modal_free(f):
    space = LabelSpace.for_formula(f)
    return not (space.dia_list or space.box_list)


def test_modal_free_answers_match_reference_on_all_small_formulas():
    # every formula of up to 6 nodes over p, q and F without a modality, and
    # the formulas of up to 5 nodes whose modalities fold away (<>F, []F)
    small = all_formulas(6, unary=(Not,))
    seen = set(small)
    small += [f for f in all_formulas(5) if f not in seen and modal_free(f)]
    for f in small:
        res = decide_sat(f)
        assert answer(res) == answer(reference_decide_sat(f)), pretty(f)
        stats = (res.stats.roots_tried, res.stats.glue_graphs,
                 res.stats.labels_built, res.stats.label_classes,
                 res.stats.arcs, res.stats.components, res.stats.pool_size,
                 res.stats.crown_n)
        assert stats == ((1, 0, 0, 0, 0, 0, 1, 1) if res.sat else (0,) * 8)


P = [Var(f"p{i}") for i in range(41)]


@pytest.mark.parametrize("f", [
    conj(P),
    disj(P[:16]),
    functools.reduce(Iff, P[:12]),
    conj([Iff(a, b) for a, b in zip(P[:11], P[1:12])]),
    parse("(p & F) -> q"),
], ids=["and41", "or16", "iff12", "iffchain12", "folds_to_T"])
def test_modal_free_inputs_answer_within_the_default_budget(f):
    assert modal_free(f)
    res = decide_sat(f)
    assert res.sat and res.n == 1 and res.world == 0
    assert eval_formula(res.model, res.world, f)


def test_modal_free_budget_out_names_label_enumeration():
    with pytest.raises(BudgetExceededError,
                       match=r"^mosaic search budget exhausted in label "
                             r"enumeration \(\d+ of 1000 steps\)$"):
        decide_sat(conj(P), budget=1000)


def test_two_bit_counter_needs_crown_six():
    # the counter steps 0, 1, 2, 3 and back around the crown, so its least
    # crown is 2^3 - 2 = 6 (see the README); the solver finds some crown
    # at least that large, within its default budget
    f = counter_formula(2)
    assert ast_size(f) == 104
    res = decide_sat(f)
    assert res.sat and res.n >= 6
    assert eval_formula(res.model, res.world, f)


# The two pins below take seconds each, too long for tier-1; `-m slow` runs
# them (CI does, in its own step).

@pytest.mark.slow
def test_oracle_finds_the_two_bit_counter_on_crown_six():
    # the crown oracle settles the least crown exactly: none below 6
    res = crown_sat_oracle(counter_formula(2), 8)
    assert res is not None and res.n == 6
    assert eval_formula(res.model, res.world, counter_formula(2))


@pytest.mark.slow
def test_two_bit_counter_without_its_middle_value_is_unsat():
    # forbidding the counter value 2 leaves no way from 1 up to 3
    assert not decide_sat(counter_formula(2, unsat=True)).sat


def test_enumeration_spends_from_the_budget():
    space = LabelSpace.for_formula(parse("<>p & []q & (r | s)"))
    labels = space.enumerate_labels()
    budget = StepBudget(10**6)
    assert space.enumerate_labels(budget=budget) == labels
    assert budget.used >= len(labels)
    with pytest.raises(BudgetExceededError, match="label enumeration"):
        space.enumerate_labels(budget=StepBudget(budget.used - 1))


def test_enumeration_without_a_budget_still_runs_out():
    # 2^41 labels: the default budget is decide_sat's
    space = LabelSpace(conj([Var(f"p{i}") for i in range(41)]))
    with pytest.raises(BudgetExceededError,
                       match=r"^mosaic search budget exhausted in label "
                             r"enumeration \(\d+ of 20000000 steps\)$"):
        space.enumerate_labels()


def test_enumeration_rechecks_complete_labels(monkeypatch):
    # a propagation that derives nothing leaves `p & q` undecided once p and
    # q are; the check must hold under python -O as well
    def set_only(t, f, lits):
        # literal 2j sets member j true, 2j + 1 sets it false
        for lit in lits:
            if lit & 1:
                f |= 1 << (lit >> 1)
            else:
                t |= 1 << (lit >> 1)
        return t, f

    space = LabelSpace.for_formula(parse("p & q"))
    monkeypatch.setattr(space, "_propagate", set_only)
    with pytest.raises(MosaicError, match="undecided"):
        space.enumerate_labels()


def test_one_walk_per_formula_object(monkeypatch):
    # compile keeps its program on the formula object: the search, the
    # model's truth-lemma check and the oracle share one walk, and an equal
    # but distinct object gets its own
    from polyplane import formula

    walks = []

    def counted(*args):
        walks.append(args[0][-1])  # the root node
        return program(*args)

    program = formula.Program
    monkeypatch.setattr(formula, "Program", counted)
    f, g = parse("<>[]p & <>[]~p"), parse("<>[]p & <>[]~p")
    assert f == g and f is not g
    assert decide_sat(f).sat and crown_sat_oracle(f, 4) is not None
    assert len(walks) == 1 and walks[0] is f
    assert decide_sat(g).sat and crown_sat_oracle(g, 4) is not None
    assert len(walks) == 2 and walks[1] is g


def test_constants_are_folded_before_the_search():
    # the space holds the folded formula's closure; theta stands for its
    # root, and the model, over the folded formula's atoms, holds theta
    theta = parse("(p & ~F -> <>q) & ([]F | r <-> T)")
    space = LabelSpace.for_formula(theta)
    assert space.theta is theta and space.searched == parse("(p -> <>q) & r")
    assert space.ref(theta) == space.ref(space.searched)
    res = decide_sat(theta)
    assert res.sat and set(res.model.masks) == {"p", "q", "r"}
    assert eval_formula(res.model, res.world, theta)
    assert not decide_sat(parse("p & <>F")).sat


def test_a_wrong_fold_is_caught_by_the_recheck(monkeypatch):
    # the model of the searched formula is re-checked on theta itself
    from polyplane import mosaic
    monkeypatch.setattr(mosaic, "simplify", lambda f: Not(f))
    with pytest.raises(VerificationError, match="fails p at world 0"):
        decide_sat(parse("p"))


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

def agrees_with_sweep_reference(space, must):
    got_steps, want_steps = StepBudget(10**9), StepBudget(10**9)
    got = space.enumerate_labels(must=must, budget=got_steps)
    assert got == reference_enumerate_labels(space, must=must,
                                             budget=want_steps)
    assert got_steps.used == want_steps.used


@settings(max_examples=300)
@given(formulas(max_size=14), st.data())
def test_enumeration_matches_sweep_reference(f, data):
    space = LabelSpace.for_formula(f)
    must = data.draw(st.lists(st.tuples(st.integers(0, space.size - 1),
                                        st.booleans(), st.booleans()),
                              max_size=4))
    agrees_with_sweep_reference(space, must)


# operands filling two positions of one clause, the unit clause of F, and
# subformulas shared between operands
FIXED_SHAPES = [
    "p & p", "p | p", "p -> p", "p <-> p", "p <-> ~p", "~p <-> p",
    "<>p -> <>p", "[]p & ~[]p", "F", "~F", "F <-> F", "p & F",
    "(<>p & q) | (q -> <>p)", "[](p & q) <-> (<>(p & q) & ~(p & q))",
    "(p <-> q) & (q <-> p) & ~(p <-> ~q)"]


@pytest.mark.parametrize("text", FIXED_SHAPES)
def test_enumeration_matches_sweep_reference_on_fixed_shapes(text):
    space = LabelSpace.for_formula(parse(text))
    for must in [[], *([(j, pol, v)] for j in range(space.size)
                       for pol in (True, False) for v in (True, False))]:
        agrees_with_sweep_reference(space, must)


def tower(k, ops):
    """ops applied k times over p, the first outermost: ([]<>~)^k p for
    (Box, Diamond, Not)."""
    f = Var("p")
    for _ in range(k):
        for op in reversed(ops):
            f = op(f)
    return f


DEEP_TOWERS = [
    (100, (Box, Diamond, Not)), (100, (Diamond, Box, Not)),
    (75, (Box, Not, Diamond, Not)), (150, (Box, Not)), (300, (Diamond,)),
    (300, (Box,))]


def pinned_musts(space, worlds):
    """For each of the worlds of a crown(2) model, every decision but the
    five lowest and five highest pinned to its truth there: the search
    stays small while propagation runs along a whole tower."""
    masks = program_masks(Model(crown(2), {"p": {1, 2}}), space.program)
    top = space.size - 1
    return [[(j, True, bool(masks[i] >> w & 1))
             for j, i in enumerate(space.nodes) if 5 <= j < top - 4]
            for w in worlds]


@pytest.mark.parametrize("k,ops", DEEP_TOWERS)
def test_enumeration_matches_sweep_reference_on_deep_towers(k, ops):
    # one-operator towers have few labels and are also enumerated unpinned
    space = LabelSpace.for_formula(tower(k, ops))
    top = space.size - 1
    musts = [[], [(top, True, True)], [(top, False, True), (0, True, True)]
             ] if len(ops) == 1 else []
    for must in musts + pinned_musts(space, range(5)):
        agrees_with_sweep_reference(space, must)


def agrees_with_table_reference(f, musts=((),)):
    # is_hintikka reads the search's tables, so it is held against the
    # reference's clause masks on every label enumerated under the musts,
    # and on each label with one bit flipped, up to one past the closure set;
    # the space holds the closure of f with its constants folded out
    space, want = LabelSpace.for_formula(f), reference_label_tables(simplify(f))
    masks = want.pop("_clause_masks")
    assert {name: getattr(space, name) for name in want} == want
    labels = {lab for must in musts for lab in space.enumerate_labels(must)}
    for lab in labels:
        for x in [lab] + [lab ^ 1 << j for j in range(space.size + 1)]:
            assert space.is_hintikka(x) == (not x >> space.size and all(
                x & ones or ~x & zeros for ones, zeros in masks)), x


@settings(max_examples=300)
@given(formulas(max_size=14))
def test_label_tables_match_reference(f):
    agrees_with_table_reference(f)


@pytest.mark.parametrize("text", FIXED_SHAPES)
def test_label_tables_match_reference_on_fixed_shapes(text):
    agrees_with_table_reference(parse(text))


@pytest.mark.parametrize("k,ops", DEEP_TOWERS)
def test_label_tables_match_reference_on_deep_towers(k, ops):
    # the labels pinned at the root and at a middle
    f = tower(k, ops)
    agrees_with_table_reference(f, pinned_musts(LabelSpace.for_formula(f),
                                                 (0, 2)))


def positives_in_bit_order(f):
    """The non-negation members of the closure set of f, by (size, text)."""
    return sorted((g for g in closure(f) if not isinstance(g, Not)),
                  key=lambda g: (ast_size(g), pretty(g)))


def true_members(model, world, f):
    """The members of the closure set of f that hold at a world, read off one
    evaluation of f's program (one `eval_formula` per member would compile
    each member again: quadratic on a deep tower).  A member outside the
    program negates one inside it."""
    prog = compile(f)
    masks = program_masks(model, prog)

    def holds(g):
        i = prog.index.get(g)
        return bool(masks[i] >> world & 1) if i is not None else not holds(g.sub)

    return {g for g in closure(f) if holds(g)}


@settings(max_examples=200)
@given(formulas(max_size=14))
def test_bit_order_is_size_then_text(f):
    assert (LabelSpace.for_formula(f).positives
            == positives_in_bit_order(simplify(f)))


@settings(max_examples=200)
@given(formulas(max_size=14))
def test_root_label_formulas_hold_at_the_root(f):
    res = decide_sat(f)
    if res.sat:
        space = LabelSpace.for_formula(f)
        assert (space.label_formulas(res.root_label)
                == true_members(res.model, 0, space.searched))


@pytest.mark.parametrize("prefix", [Diamond, Not, lambda g: Box(Not(g))])
def test_bit_order_and_labels_of_deep_towers(prefix):
    # the labels of a crown(2) model's worlds: a 1000-deep []~ tower runs
    # out of decide_sat's default budget
    f = Var("p")
    for _ in range(1000):
        f = prefix(f)
    space = LabelSpace.for_formula(f)
    assert space.positives == positives_in_bit_order(f)
    model = Model(crown(2), {"p": {1, 2}})
    masks = program_masks(model, space.program)
    for w in range(5):
        label = sum(1 << j for j, i in enumerate(space.nodes)
                    if masks[i] >> w & 1)
        assert space.label_formulas(label) == true_members(model, w, f)


def test_deep_diamond_budget_out_is_pinned():
    # every search node spends one step per positive member, so the
    # message reads the same whatever the propagation does inside a node
    with pytest.raises(BudgetExceededError,
                       match=r"\(500499 of 500000 steps\)"):
        decide_sat(parse("<>" * 500 + "p"), budget=500_000)


# -- exact answers, counters and budget-outs of two random formulas, both
# constant-free, so they are searched as written

DEEP_SAT = ("<>[]<>([]q & p & []<>([]<>q | ((t <-> r) -> []s) -> ~<>p "
            "| (~r <-> ~r)))")
WIDE_UNSAT = "~[](<>[]<>s | <>~s <-> q & []<><>(~<>r <-> []q) -> q)"


def test_many_keys_sat_is_pinned():
    # 753 roots under 64 keys before one places every witness
    res = decide_sat(parse(DEEP_SAT))
    assert (res.sat, res.n, res.world, res.root_label) == (True, 6, 0, 5723232)
    assert len(res.mosaics) == 6
    assert res.stats == SolverStats(
        roots_tried=753, labels_built=15632, arcs=540, pool_size=6,
        components=64, crown_n=6, glue_graphs=64, label_classes=4064)


def test_many_keys_unsat_is_pinned():
    res = decide_sat(parse(WIDE_UNSAT))
    assert not res.sat and res.mosaics is None
    assert res.stats == SolverStats(
        roots_tried=330, labels_built=4800, arcs=360, components=84,
        glue_graphs=112, label_classes=4944)


@pytest.mark.parametrize("budget,used", [(200_000, 200_002),
                                         (220_000, 220_023)])
def test_many_keys_budget_out_is_pinned(budget, used):
    with pytest.raises(BudgetExceededError,
                       match=rf"glue-graph arcs \({used} of {budget} steps\)$"):
        decide_sat(parse(DEEP_SAT), budget=budget)


def test_many_keys_placement_budget_out_is_pinned():
    # witness placement spends one step per pair_ok test; this key's
    # placements start at step 210,810 and take 98 steps
    with pytest.raises(BudgetExceededError,
                       match=r"witness placement \(210831 of 210830 steps\)$"):
        decide_sat(parse(DEEP_SAT), budget=210_830)


# -- endpoint formulas: one <>[] per atom pattern of p, q, r

# pattern a makes the i-th of p, q, r true when bit i of a is set
ENDPOINTS = ["<>[](~p & ~q & ~r)", "<>[](p & ~q & ~r)", "<>[](~p & q & ~r)",
             "<>[](p & q & ~r)", "<>[](~p & ~q & r)", "<>[](p & ~q & r)",
             "<>[](~p & q & r)", "<>[](p & q & r)"]


@pytest.mark.parametrize("k", range(1, 9))
def test_endpoint_crowns_are_pinned(k):
    # k endpoints, one per pattern, each tile used once and the odd-degree
    # edge classes paired: crown(k + ceil(k/2))
    theta = parse(" & ".join(ENDPOINTS[:k]))
    res = decide_sat(theta)
    assert res.sat and res.n == k + ceil(k / 2)
    assert len(res.mosaics) == res.stats.pool_size == res.n
    assert eval_formula(res.model, res.world, theta)
