import random
import time
from importlib import import_module

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polyplane.axioms import classify_frame, forbidden_frames
from polyplane.crown import (_CrownTables, _stratify, crown,
                             crown_sat_bruteforce, crown_sat_oracle,
                             reduce_to_crown)
from polyplane.errors import BudgetExceededError, StepBudget, VerificationError
from polyplane.formula import Diamond, Var, conj, parse, variables
from polyplane.kripke import (Frame, Model, eval_formula, find_subreduction,
                              jankov_fine, truth_mask)

from helpers import (all_formulas, enumerate_rooted_s4, formulas,
                     random_formula, reference_crown_sat_oracle,
                     reference_is_p_morphism, shallow_rooted_family)


def test_crown_one():
    c = crown(1)
    assert c.n == 3 and c.root == 0
    assert sorted(c.strict_pairs()) == [(0, 1), (0, 2), (2, 1)]


def test_crown_two():
    c = crown(2)
    assert c.n == 5
    assert c.sees(2, 1) and c.sees(2, 3)
    assert c.sees(4, 3) and c.sees(4, 1)
    assert not c.sees(2, 4) and not c.sees(1, 3)


def test_crown_three_pair_count():
    # 7 reflexive + 6 from the root + 6 middle-to-endpoint
    assert len(crown(3).pairs()) == 19


def test_crown_rejects_zero():
    with pytest.raises(ValueError):
        crown(0)


def test_crown_depth_and_no_clusters():
    for n in (1, 2, 3, 4):
        c = crown(n)
        for x in range(c.n):
            for y in range(c.n):
                if x != y and c.sees(x, y):
                    assert not c.sees(y, x)


def test_crowns_not_subreducible_to_forbidden():
    for n in (1, 2, 3):
        for ff in forbidden_frames():
            assert find_subreduction(crown(n), ff.frame) is None, (n, ff.id)


def test_crown_upper_part_connected():
    # removing the root leaves one undirected component and no split into
    # two disjoint nonempty up-sets
    for n in (1, 2, 3):
        c = crown(n)
        upper = list(range(1, c.n))
        adj = {x: {y for y in upper if y != x and (c.sees(x, y) or c.sees(y, x))}
               for x in upper}
        seen = {upper[0]}
        frontier = [upper[0]]
        while frontier:
            nxt = [y for x in frontier for y in adj[x] if y not in seen]
            seen.update(nxt)
            frontier = nxt
        assert seen == set(upper)
        for mask in range(1, 1 << len(upper)):
            part = {upper[i] for i in range(len(upper)) if mask >> i & 1}
            rest = set(upper) - part
            if not rest:
                continue
            up_part = all(y in part or y == 0
                          for x in part for y in c.successors(x))
            up_rest = all(y in rest or y == 0
                          for x in rest for y in c.successors(x))
            assert not (up_part and up_rest), (n, part)


def test_reduce_crown_to_itself():
    red = reduce_to_crown(crown(3))
    assert not red.embedded
    assert reference_is_p_morphism(red.world_map, crown(red.n), crown(3))
    assert red.world_map.is_onto(crown(3))


def test_reduce_shallow_cases():
    point = Frame(1, [], root=0)
    red = reduce_to_crown(point)
    assert red.embedded and red.n == 1 and red.embedding == {0: 1}
    two = Frame(2, [(0, 1)], root=0)
    red = reduce_to_crown(two)
    assert red.embedded and red.n == 1
    assert red.world_map.is_onto(two)
    tooth = Frame(3, [(0, 1), (0, 2)], root=0)
    red = reduce_to_crown(tooth)
    assert red.embedded and red.n == 2
    assert reference_is_p_morphism(red.world_map, crown(2), tooth)
    assert red.world_map.is_onto(tooth)
    emb = red.embedding
    c2 = crown(2)
    assert all(tooth.sees(x, y) == c2.sees(emb[x], emb[y])
               for x in emb for y in emb)


def test_reduce_three_chain_reports_embedding():
    chain = Frame(3, [(0, 1), (1, 2)], root=0)
    red = reduce_to_crown(chain)
    assert red.n == 1 and red.embedded
    assert red.world_map.is_onto(chain)


def test_reduce_shared_teeth():
    # root with middles 1, 2; endpoints 3 private, 4 shared
    fr = Frame(5, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 4)], root=0)
    red = reduce_to_crown(fr)
    assert red.n <= 4
    assert reference_is_p_morphism(red.world_map, crown(red.n), fr)
    assert red.world_map.is_onto(fr)


def test_reduce_walk_covers_every_edge():
    fr = Frame(5, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 4)], root=0)
    red = reduce_to_crown(fr)
    c = crown(red.n)
    seen = set()
    for x in range(1, c.n):
        for y in range(1, c.n):
            if x != y and c.sees(x, y):
                seen.add((red.world_map[x], red.world_map[y]))
    want = {(u, w) for u in (1, 2) for w in (3, 4) if fr.sees(u, w)}
    assert want <= seen


def test_reduce_rejects_refuted_frames():
    with pytest.raises(ValueError):
        reduce_to_crown(Frame(4, [(0, 1), (1, 2), (2, 3)], root=0))


def test_reduce_walk_already_closed():
    # covering the edges of this frame returns to the start vertex on its
    # own, so the cycle closure must not duplicate it
    fr = Frame(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 4), (2, 3), (2, 4)],
               root=0)
    red = reduce_to_crown(fr)
    assert reference_is_p_morphism(red.world_map, crown(red.n), fr)
    assert red.world_map.is_onto(fr)


def test_reduce_random_shallow_frames():
    rng = random.Random(424)
    done = 0
    while done < 60:
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        pairs = [(0, w) for w in range(1, 1 + a + b)]
        for i in range(a):
            for j in range(b):
                if rng.random() < 0.55:
                    pairs.append((1 + i, 1 + a + j))
        fr = Frame(1 + a + b, pairs, root=0)
        if not classify_frame(fr).validates:
            continue
        red = reduce_to_crown(fr)
        assert reference_is_p_morphism(red.world_map, crown(red.n), fr)
        assert red.world_map.is_onto(fr)
        done += 1


def test_reduce_whole_shallow_family():
    for fr in shallow_rooted_family(5):
        if not classify_frame(fr).validates:
            continue
        red = reduce_to_crown(fr)
        assert reference_is_p_morphism(red.world_map, crown(red.n), fr)
        assert red.world_map.is_onto(fr)


def test_reduce_crowns():
    for n in range(1, 13):
        cr = crown(n)
        red = reduce_to_crown(cr)
        assert red.n == n
        assert red.world_map.mapping == {w: w for w in range(2 * n + 1)}, n
        assert reference_is_p_morphism(red.world_map, crown(red.n), cr), n
        assert red.world_map.is_onto(cr), n


@pytest.mark.parametrize("n, pairs, message", [
    (4, [(0, 1), (0, 2), (0, 3)], "three incomparable successors"),
    (4, [(0, 1), (1, 2), (2, 3)], "not an onto p-morphism"),
    (5, [(0, 1), (1, 2), (2, 3), (3, 4)], "one or two successors"),
    (6, [(0, 1), (0, 4), (1, 2), (1, 3), (4, 5)], "upper part disconnected"),
    (3, [(0, 1), (1, 2), (2, 1)], "without a middle world"),
])
def test_reduce_rechecks_its_map(monkeypatch, n, pairs, message):
    # a classifier that wrongly accepts a refuted frame must not yield a map
    axioms = import_module("polyplane.axioms")
    monkeypatch.setattr(import_module("polyplane.crown"), "classify_frame",
                        lambda g, budget: axioms.Verdict(True))
    with pytest.raises(VerificationError, match=message):
        reduce_to_crown(Frame(n, pairs, root=0))


@st.composite
def validating_models(draw):
    """A root below middles with one or two successors among the endpoints,
    with the middles chained so the upper part is connected, and a
    valuation of p, q, r on it."""
    ends = draw(st.integers(1, 4))
    links = [(i, i + 1) for i in range(ends - 1)] or [(0, 0)]
    links += draw(st.lists(st.tuples(st.integers(0, ends - 1),
                                     st.integers(0, ends - 1)), max_size=3))
    mids = len(links)
    n = 1 + mids + ends
    pairs = [(0, w) for w in range(1, n)]
    pairs += [(1 + i, 1 + mids + e) for i, link in enumerate(links) for e in link]
    fr = Frame(n, pairs, root=0)
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=3, max_size=3))
    val = {name: frozenset(w for w in range(n) if m >> w & 1)
           for name, m in zip("pqr", masks)}
    return Model(fr, val)


@settings(max_examples=150)
@given(validating_models(), formulas())
def test_reduction_preserves_truth(model, f):
    # truth at a crown world is truth at its image under the p-morphism
    fr = model.frame
    assume(classify_frame(fr).validates)
    red = reduce_to_crown(fr)
    wm = red.world_map
    cr = crown(red.n)
    pulled = {name: frozenset(w for w in range(cr.n) if wm[w] in worlds)
              for name, worlds in model.val.items()}
    got = truth_mask(Model(cr, pulled), f)
    want = truth_mask(model, f)
    assert got == sum(1 << w for w in range(cr.n) if want >> wm[w] & 1)


def test_oracle_atom():
    got = crown_sat_oracle(Var("p"), 3)
    assert got.n == 1 and got.model.val["p"] == {0} and got.world == 0


def test_oracle_two_box_witnesses():
    got = crown_sat_oracle(parse("<>[]p & <>[]~p"), 4)
    assert got.n == 2 and got.model.val["p"] == {1} and got.world == 0


def test_oracle_unsat_and_depth():
    assert crown_sat_oracle(parse("F"), 4) is None
    b4 = forbidden_frames()[3].frame
    assert crown_sat_oracle(jankov_fine(b4), 2) is None
    assert crown_sat_oracle(jankov_fine(b4), 3) is None


def test_oracle_matches_bruteforce_exhaustive():
    for f in all_formulas(4, names=("p",)):
        a = crown_sat_oracle(f, 2)
        b = crown_sat_bruteforce(f, 2)
        assert (a is None) == (b is None), f
        if a is not None:
            assert (a.n, a.model.val, a.world) == (b.n, b.model.val, b.world), f


def test_oracle_matches_bruteforce_random():
    rng = random.Random(20)
    for _ in range(150):
        f = random_formula(rng, rng.randint(1, 6), ("p", "q"))
        a = crown_sat_oracle(f, 2)
        b = crown_sat_bruteforce(f, 2)
        assert (a is None) == (b is None), f
        if a is not None:
            assert (a.n, a.model.val, a.world) == (b.n, b.model.val, b.world), f


def answer(got):
    return None if got is None else (got.n, got.model.val, got.world)


@settings(max_examples=200)
@given(formulas(), st.integers(1, 6))
def test_oracle_matches_reference(f, max_n):
    assert answer(crown_sat_oracle(f, max_n)) == \
        answer(reference_crown_sat_oracle(f, max_n))


def test_unsat_answers_stop_on_a_closed_state_set():
    # written against start/extend/accepts alone, as an UNSAT certificate
    # checker would be: every formula over p, q of size <= 4 that the oracle
    # refutes on crowns up to 6 reaches, within those rounds, a state set
    # that extends to itself and accepts nothing, and so holds on no crown
    rounds = []
    for f in all_formulas(4, names=("p", "q")):
        if crown_sat_oracle(f, 6) is not None:
            continue
        steps = StepBudget(1_000_000)
        tables = _CrownTables(f, steps)
        states = tables.start()
        for n in range(1, 7):
            assert not tables.accepts(states, steps), f
            grown = tables.extend(states, steps)
            if grown == states:
                rounds.append(n)
                break
            states = grown
        else:
            pytest.fail(f"no closed state set within 6 rounds for {f}")
    assert (len(rounds), rounds.count(1), rounds.count(2)) == (89, 81, 8)


def test_pattern_tables_fill_in_time_linear_in_the_pattern_count():
    # 2^16 patterns: each tracked node's lanes are read off its binary
    # digits, not by a set-bit walk that costs O(P) per lane
    f = conj([Diamond(Var(f"p{j}")) for j in range(16)])
    started = time.perf_counter()
    got = crown_sat_oracle(f, 1)
    assert time.perf_counter() - started < 1
    assert (got.n, got.world) == (1, 0)
    assert got.model.masks == {f"p{j}": 1 for j in range(16)}


def test_oracle_witness_world_is_least():
    got = crown_sat_oracle(parse("~p & <>p"), 3)
    assert got is not None
    f = parse("~p & <>p")
    for w in range(got.world):
        assert not eval_formula(got.model, w, f)
    assert eval_formula(got.model, got.world, f)


def test_oracle_rechecks_its_answer(monkeypatch):
    cr = import_module("polyplane.crown")  # the package re-exports crown()
    monkeypatch.setattr(cr, "_crown_lex_search", lambda *args: [0])
    with pytest.raises(VerificationError, match="world patterns"):
        crown_sat_oracle(Var("p"), 3)
    monkeypatch.setattr(cr, "_model_from_patterns",
                        lambda tables, n, pins: Model(crown(n), {}))
    with pytest.raises(VerificationError, match="non-model"):
        crown_sat_oracle(Var("p"), 3)
    monkeypatch.setattr(cr, "_crown_lex_search", lambda *args: None)
    with pytest.raises(VerificationError, match="reconstruction"):
        crown_sat_oracle(Var("p"), 3)


def test_oracle_budgets():
    b4 = forbidden_frames()[3].frame
    with pytest.raises(BudgetExceededError):
        crown_sat_oracle(jankov_fine(b4), 2, step_budget=50)
    with pytest.raises(BudgetExceededError):
        crown_sat_bruteforce(parse("p & ~p & q"), 6, budget=1 << 10)


def test_oracle_budget_bounds_pattern_tables():
    ps = [Var(f"p{j}") for j in range(40)]
    # 2^16 patterns against 1,000 steps, 2^40 against the default budget:
    # both are refused before any table is built
    with pytest.raises(BudgetExceededError):
        crown_sat_oracle(conj(ps[:16] + [parse("~p0")]), 1, step_budget=1000)
    with pytest.raises(BudgetExceededError):
        crown_sat_oracle(conj(ps), 1)
    # 2^10 patterns fit, but the endpoint, middle and root tables do not
    with pytest.raises(BudgetExceededError):
        crown_sat_oracle(conj(ps[:10] + [parse("~p0")]), 1, step_budget=3000)


@pytest.mark.parametrize("budget, phase, used", [
    (1, "signature tables", 2),
    (4, "feasibility pass", 6),
    (16, "lexicographic reconstruction", 17),
])
def test_oracle_budget_error_names_its_phase(budget, phase, used):
    f = parse("[](p -> <>~p) & p")
    with pytest.raises(BudgetExceededError,
                       match=rf"^crown oracle budget exhausted in {phase} "
                             rf"\({used} of {budget} steps\)$"):
        crown_sat_oracle(f, 4, step_budget=budget)
    assert crown_sat_oracle(f, 4, step_budget=17) is not None


@pytest.mark.parametrize("max_n", [0, -1])
def test_oracle_rejects_bounds_below_one(max_n):
    with pytest.raises(ValueError, match="crown bound"):
        crown_sat_oracle(Var("p"), max_n)
    with pytest.raises(ValueError, match="crown bound"):
        crown_sat_bruteforce(Var("p"), max_n)


def test_stratify_matches_predecessor_sets():
    # middles, read off the rows, are the non-root worlds whose only
    # predecessors are the root and themselves
    frames = [f.rooted() for n in range(1, 6) for f in enumerate_rooted_s4(n)]
    for g in frames + [crown(n) for n in range(1, 13)]:
        root = g.root
        g1 = [x for x in range(g.n)
              if x != root and set(g.predecessors(x)) == {root, x}]
        g2 = [x for x in range(g.n) if x != root and x not in g1]
        assert _stratify(g) == (root, g1, g2), g
