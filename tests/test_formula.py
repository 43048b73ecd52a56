import random

import pytest

from polyplane.crown import crown
from polyplane.formula import (And, Bottom, Box, Diamond, Iff, Implies, Not,
                               Or, ParseError, Var, ast_size, closure, compile,
                               modal_depth, negate, parse, pretty, simplify,
                               subformulas, substitute, variables)
from polyplane.kripke import Model, truth_mask
from polyplane.mosaic import decide_sat

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (all_formulas, enumerate_rooted_s4, formulas,
                     random_formula, reference_closure, reference_modal_depth,
                     reference_subformulas, reference_substitute)

p, q, r = Var("p"), Var("q"), Var("r")


def test_parse_single_token():
    assert parse("p") == p
    assert parse("F") == Bottom()
    assert parse("T") == Not(Bottom())


def test_parse_axiom_one():
    got = parse("p -> [](~p -> [](p -> []p))")
    want = Implies(p, Box(Implies(Not(p), Box(Implies(p, Box(p))))))
    assert got == want


def test_precedence_table():
    assert parse("<>p & ~q | r") == Or(And(Diamond(p), Not(q)), r)
    assert parse("p -> q -> r") == Implies(p, Implies(q, r))
    assert parse("p <-> q <-> r") == Iff(p, Iff(q, r))
    assert parse("p & q & r") == And(And(p, q), r)
    assert parse("p | q & r") == Or(p, And(q, r))
    assert parse("~[]<>p") == Not(Box(Diamond(p)))


def test_roundtrip_exhaustive_small():
    for f in all_formulas(4):
        assert parse(pretty(f)) == f


def test_roundtrip_random():
    rng = random.Random(42)
    for _ in range(300):
        f = random_formula(rng, rng.randint(1, 14))
        assert parse(pretty(f)) == f


def test_parse_error_position_and_expectation():
    with pytest.raises(ParseError) as ei:
        parse("p &\n& q")
    assert ei.value.line == 2 and ei.value.col == 1
    assert any("identifier" in e for e in ei.value.expected)
    with pytest.raises(ParseError):
        parse("p q")
    with pytest.raises(ParseError):
        parse("(p -> q")
    with pytest.raises(ParseError):
        parse("")


OPERAND = ("identifier", "T", "F", "~", "[]", "<>", "(")
AFTER_FORMULA = ("end of input", "<->", "->", "|", "&")


@pytest.mark.parametrize("text,message,line,col,expected", [
    ("", "unexpected 'end of input'", 1, 1, OPERAND),
    ("p q", "unexpected 'q'", 1, 3, AFTER_FORMULA),
    ("(p -> q", "unexpected 'end of input'", 1, 8, (")",)),
    ("p &\n& q", "unexpected '&'", 2, 1, OPERAND),
    ("p ->", "unexpected 'end of input'", 1, 5, OPERAND),
    ("p)", "unexpected ')'", 1, 2, AFTER_FORMULA),
    ("(p ~q)", "unexpected '~'", 1, 4, (")",)),
    ("p\n\t$", "unexpected character '$'", 2, 2, ("formula",)),
    ("9p", "unexpected character '9'", 1, 1, ("formula",)),
    ("²p", "unexpected character '²'", 1, 1, ("formula",)),
    ("p <- q", "unexpected character '<'", 1, 3, ("formula",)),
])
def test_parse_error_exact(text, message, line, col, expected):
    with pytest.raises(ParseError) as ei:
        parse(text)
    e = ei.value
    assert str(e) == (f"{message} at line {line}, column {col} "
                      f"(expected: {', '.join(expected)})")
    assert (e.line, e.col, e.expected) == (line, col, expected)


def test_nested_parentheses_cost_two_frames_each():
    # 300 levels need 600 frames, under the default recursion limit
    assert parse("(" * 300 + "p" + ")" * 300) == p


def test_var_name_rules():
    # a letter (str.isalpha()) or '_', then str.isalnum() characters or '_'
    assert Var("p_1").name == "p_1"
    assert parse("π & p²") == And(Var("π"), Var("p²"))
    assert parse("_1") == Var("_1")
    for name in ("T", "1p", "", "²p", "p q", "~"):
        with pytest.raises(ValueError):
            Var(name)


def test_closure_atom():
    assert closure(p) == frozenset({p, Not(p)})


def test_closure_diamond():
    assert closure(Diamond(p)) == frozenset(
        {Diamond(p), Not(Diamond(p)), p, Not(p)})


def test_closure_axiom_one_membership():
    # hand enumeration: 8 subformulas; single negation adds one partner per
    # non-negated member, and ~p's partner p is already there, so 14 total
    ax = parse("p -> [](~p -> [](p -> []p))")
    inner = parse("[](p -> []p)")
    mid = parse("~p -> [](p -> []p)")
    positives = [p, Box(p), Implies(p, Box(p)), inner, mid, Box(mid), ax]
    want = set(positives) | {Not(f) for f in positives}
    assert closure(ax) == frozenset(want)
    assert len(closure(ax)) == 14


def test_closure_properties():
    rng = random.Random(7)
    for _ in range(100):
        f = random_formula(rng, rng.randint(1, 10))
        cl = closure(f)
        assert len(cl) <= 2 * len(subformulas(f))
        for g in cl:
            assert negate(g) in cl
            for child in subformulas(g):
                assert child in cl or Not(child) in cl or (
                    isinstance(child, Not) and child.sub in cl)


@settings(max_examples=300, deadline=None)
@given(formulas(max_size=20))
def test_subformulas_and_closure_match_the_recursive_versions(f):
    assert subformulas(f) == reference_subformulas(f)
    assert closure(f) == reference_closure(f)


def test_substitute():
    assert substitute(Or(p, q), {"p": Bottom()}) == Or(Bottom(), q)
    assert substitute(Diamond(p), {"p": Diamond(p)}) == Diamond(Diamond(p))
    ax = parse("p -> [](~p -> [](p -> []p))")
    assert variables(substitute(ax, {"p": q})) == {"q"}
    assert substitute(ax, {}) == ax


def test_ast_size_and_variables():
    assert ast_size(parse("p & q -> <>r")) == 6
    assert variables(parse("p & q -> <>r")) == {"p", "q", "r"}
    assert variables(Bottom()) == frozenset()


def test_printing_and_size_without_recursion():
    # 5,000 nested operators of each shape, built in loops; both functions
    # once recursed per level
    n = 5000
    chain, left, right, nested = p, p, p, q
    for i in range(n):
        chain = Diamond(chain) if i % 2 else Not(chain)
        left = And(left, q)
        right = Implies(q, right)
        nested = And(p, nested)
    assert pretty(chain) == "<>~" * (n // 2) + "p"
    assert pretty(left) == "p" + " & q" * n
    assert pretty(right) == "q -> " * n + "p"
    assert pretty(nested) == "p & (" * (n - 1) + "p & q" + ")" * (n - 1)
    assert ast_size(chain) == n + 1 and ast_size(left) == 2 * n + 1


def test_repr_without_recursion():
    # 5,000 nested operators of mixed shapes; repr once recursed per level
    n = 5000
    f = p
    for i in range(n):
        f = (Not, Diamond, lambda g: And(g, q), lambda g: Iff(r, g))[i % 4](f)
    got = repr(f)
    assert got.count("(") == got.count(")") == 3 * n // 2 + 1
    assert got.startswith("Iff(Var('r'), And(Diamond(Not(Iff(Var('r'), ")
    assert repr(parse("p & " * 2000 + "p")).startswith("And(" * 2000 + "Var('p')")


@pytest.mark.parametrize("text,want", [
    ("p", "Var('p')"), ("F", "Bottom()"), ("T", "Not(Bottom())"),
    ("~p & (q -> <>F)",
     "And(Not(Var('p')), Implies(Var('q'), Diamond(Bottom())))"),
    ("[](p <-> q) | r", "Or(Box(Iff(Var('p'), Var('q'))), Var('r'))"),
    ("p & p", "And(Var('p'), Var('p'))")])
def test_repr_of_small_formulas(text, want):
    assert repr(parse(text)) == want


def _deep_chain(n):
    g = p
    for i in range(n):
        g = (Box, Not, Diamond)[i % 3](g) if i % 4 else And(q, g)
    return g


def test_depth_and_substitution_match_the_recursive_versions():
    # shared inputs: one 300-deep subtree twice by identity, and equal to a
    # separately built copy
    images = {"p": Diamond(q), "q": And(p, Not(q))}
    g = _deep_chain(300)
    for f in all_formulas(5) + [And(g, g), Iff(g, _deep_chain(300))]:
        assert modal_depth(f) == reference_modal_depth(f), pretty(f)
        assert substitute(f, images) == reference_substitute(f, images)
        assert substitute(f, {}) == f


def test_depth_and_substitution_without_recursion():
    # 5,000 nested operators of each shape, built in loops; both functions
    # once recursed per level
    n = 5000
    chain, left, nested = p, p, q
    for i in range(n):
        chain = Diamond(chain) if i % 2 else Box(Not(chain))
        left = And(left, Box(q))
        nested = Implies(Diamond(p), nested)
    assert modal_depth(chain) == n
    assert modal_depth(left) == 1 and modal_depth(nested) == 1
    got = substitute(chain, {"p": Box(r)})
    assert pretty(got) == "<>[]~" * (n // 2) + "[]r"
    assert modal_depth(got) == n + 1
    got = substitute(left, {"q": r})
    assert pretty(got) == "p" + " & []r" * n
    got = substitute(nested, {"p": r, "q": Diamond(p)})
    assert pretty(got) == "<>r -> " * n + "<>p"
    assert modal_depth(got) == 1


def test_equality_without_recursion():
    # two 5,000-deep towers built separately; equality once recursed per level
    def tower(leaf):
        f = p
        for i in range(5000):
            f = Diamond(f) if i % 2 else And(f, leaf)
        return f
    a, b = tower(q), tower(q)
    assert a is not b and a == b
    assert a != tower(r) and a != Not(a) and a != "p"


def test_equal_deep_operands():
    # the two conjuncts are equal but built separately, so every set or dict
    # keyed by formulas compares them
    f = parse("(" + "~" * 400 + "p) & (" + "~" * 400 + "p)")
    assert f.left == f.right and f.left is not f.right
    assert len(compile(f).code) == 402
    assert len(closure(f)) == 403  # ~^k p for k <= 400, f and ~f
    assert decide_sat(f).sat


# -- constant folding

# crowns and every rooted S4 frame of at most 3 worlds: all reflexive
FOLD_FRAMES = ([crown(n) for n in range(1, 5)]
               + [g for n in (1, 2, 3) for g in enumerate_rooted_s4(n)])


@settings(max_examples=500)
@given(formulas(), st.sampled_from(FOLD_FRAMES), st.data())
def test_simplify_keeps_the_truth_on_reflexive_frames(f, frame, data):
    masks = {name: data.draw(st.integers(0, (1 << frame.n) - 1))
             for name in "pqr"}
    model = Model(frame, masks=masks)
    g = simplify(f)
    assert truth_mask(model, g) == truth_mask(model, f)
    # constants survive only as the whole formula
    assert Bottom() not in subformulas(g) or g in (Bottom(), Not(Bottom()))
    if Bottom() not in subformulas(f):
        assert g is f


@pytest.mark.parametrize("text,want", [
    ("p & ~F -> <>q", "p -> <>q"), ("p -> F", "~p"), ("F -> p", "T"),
    ("p <-> F", "~p"), ("T <-> p", "p"), ("[]F | <>T", "T"),
    ("<>(p | T) & q", "q"), ("(p -> F) -> F", "~~p"), ("~[]<>F", "T")])
def test_simplify_folds_constants(text, want):
    f = parse(text)
    g = simplify(f)
    assert g == parse(want) and g is not f


@pytest.mark.parametrize("text", ["F", "T", "p & q"])
def test_simplify_returns_what_does_not_fold(text):
    f = parse(text)
    assert simplify(f) is f


def test_simplify_shares_what_does_not_fold():
    f = parse("(<>p & []q) & ~F")
    assert simplify(f) is f.left


def test_simplify_without_recursion():
    f = And(Var("p"), Not(Bottom()))
    for _ in range(5000):
        f = Diamond(f)
    g = simplify(f)
    for _ in range(5000):
        g = g.sub
    assert g == Var("p")
