"""Checks on the package source itself."""

import ast
from pathlib import Path

import polyplane

SRC = Path(polyplane.__file__).parent


def test_no_assert_statements():
    # `python -O` strips assert statements, so none may serve as a check
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_no_unused_imports():
    # every name a module imports at module level is used in it; the
    # package's __init__.py imports only to re-export
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [f"{path.name}:{node.lineno} {name}"
                          for name in ((a.asname or a.name).split(".")[0]
                                       for a in node.names)
                          if name not in used]
    assert found == []


def _functions(tree):
    """(function name, node) for every node inside a function, naming the
    innermost function around it."""
    def walk(node, name):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else name
            yield inner, child
            yield from walk(child, inner)
    yield from walk(tree, None)


CACHED_CONSTRUCTORS = {"crown.py:crown"}


def test_caches_only_on_structure_constructors():
    # the benchmark keeps each op's fastest pass, so a memo keyed by a
    # formula, model or frame would fake a gain; only constructors of fixed
    # structures may cache
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        decorated = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    for sub in ast.walk(dec):
                        decorated[id(sub)] = node.name
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name in ("cache", "lru_cache"):
                found.add(f"{path.name}:{decorated.get(id(node), '<not a decorator>')}")
    assert found <= CACHED_CONSTRUCTORS


def test_one_opcode_dispatch():
    # the evaluator is the only code that branches on opcodes: IFF is
    # compared in kripke._evaluate and nowhere else
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func, node in _functions(tree):
            if isinstance(node, ast.Compare) and any(
                    isinstance(sub, ast.Name) and sub.id == "IFF"
                    or isinstance(sub, ast.Attribute) and sub.attr == "IFF"
                    for operand in [node.left, *node.comparators]
                    for sub in ast.walk(operand)):
                found.add(f"{path.name}:{func}")
    assert found == {"kripke.py:_evaluate"}


def _calls(name, where=lambda call: True):
    """file:function of every call in src to a function of this name, of
    those calls that `where` accepts."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func, node in _functions(tree):
            if isinstance(node, ast.Call) and (
                    isinstance(node.func, ast.Name) and node.func.id == name
                    or isinstance(node.func, ast.Attribute)
                    and node.func.attr == name) and where(node):
                found.add(f"{path.name}:{func}")
    return found


def test_one_walk_site():
    # crown cycles are laid out by one closed walk over edges whose degrees
    # one postman doubling made even; no tile is added mirrored
    assert _calls("_closed_walk") == {"crown.py:reduce_to_crown",
                                      "mosaic.py:extract_model"}
    assert _calls("_even_degrees") == {"crown.py:reduce_to_crown",
                                       "mosaic.py:_try_component"}
    assert _calls("mirror") == set()


def test_one_crown_transition_system():
    # the crown-size loop runs on start/extend/accepts alone; middles are
    # looked up, teeth added and cycles closed only inside extend and
    # accepts and in the reconstruction's dfs, which shares their code
    assert _calls("start") & _calls("extend") & _calls("accepts") == {
        "crown.py:crown_sat_oracle"}
    assert _calls("mid") == {"crown.py:extend", "crown.py:accepts",
                             "crown.py:dfs"}
    assert _calls("_add_tooth") == {"crown.py:extend", "crown.py:dfs"}
    assert _calls("close") == {"crown.py:accepts", "crown.py:dfs"}
    # the root test is the one table evaluation besides the signature fill
    assert {site for site in _calls("_evaluate") if site.startswith("crown.py")} \
        == {"crown.py:_sigs", "crown.py:close"}


def test_one_random_draw_site():
    # sampled validity reads every valuation off one wide draw per chunk
    assert _calls("getrandbits") == {"kripke.py:valid_on_frame"}


def test_one_breadth_first_search():
    # shortest paths and glue-graph components read the predecessor map of
    # one breadth-first search
    assert _calls("_breadth_first") == {"kripke.py:_shortest_path",
                                        "mosaic.py:_glue_graph"}


def _set_bit_walks():
    """file:function of every loop `while m:` that takes the lowest set bit
    `m & -m` and clears it (`m &= m - 1`, or `m ^= low`)."""
    def lowest(node, name):
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd)
                and ast.unparse(node.left) == name
                and ast.unparse(node.right) == f"-{name}")

    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func, node in _functions(tree):
            if not (isinstance(node, ast.While) and isinstance(node.test, ast.Name)):
                continue
            m = node.test.id
            inner = list(ast.walk(node))
            clears = any(
                isinstance(sub, ast.AugAssign) and ast.unparse(sub.target) == m
                and (isinstance(sub.op, ast.BitAnd)
                     and ast.unparse(sub.value) == f"{m} - 1"
                     or isinstance(sub.op, ast.BitXor)) for sub in inner)
            if clears and any(lowest(sub, m) for sub in inner):
                found.add(f"{path.name}:{func}")
    return found


def test_one_set_bit_walk():
    # set bits are listed by _mask_worlds; four hot loops keep the walk
    # inline, where a call per row, per propagation round or per flood-fill
    # front measured slower (inline, the classifier's flood fills and peel
    # took 19% less time over the structures workload's classify frames)
    assert _set_bit_walks() == {"kripke.py:_mask_worlds",
                                "kripke.py:_transitive_pass",
                                "kripke.py:_preds", "mosaic.py:_propagate",
                                "axioms.py:_find_forbidden"}


def test_successors_read_the_cached_table():
    # Frame.successors hands out the table built once per frame
    tree = ast.parse((SRC / "kripke.py").read_text())
    [node] = [node for func, node in _functions(tree)
              if func == "successors" and isinstance(node, ast.Return)]
    assert ast.unparse(node.value) == "self._succs[x]"


def test_sign_masks_built_once_per_scene():
    # cells are ORed into per-line sign masks only in Scene.sign_masks; the
    # specialization frame and polygons read that property
    built, read = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func, node in _functions(tree):
            if (isinstance(node, ast.AugAssign) and isinstance(node.op, ast.BitOr)
                    and isinstance(node.target, ast.Subscript)
                    and isinstance(node.target.value, ast.Subscript)):
                built.add(f"{path.name}:{func}")
            if isinstance(node, ast.Attribute) and node.attr == "sign_masks":
                read.add(f"{path.name}:{func}")
    assert built == {"geometry.py:sign_masks"}
    assert read == {"geometry.py:scene_frame", "geometry.py:compile_polygon"}


def test_scene_witnesses_read_as_integers():
    # Scene.witness, the cells' points in Fractions, is a view for callers,
    # built on first read from Scene.points; library code reads the integer
    # points, so the one `.witness` read in src is of a Verdict's world map
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func, node in _functions(tree):
            if isinstance(node, ast.Attribute) and node.attr == "witness":
                found.add(f"{path.name}:{func}")
    assert found == {"cli.py:_cmd_classify"}


def test_label_space_keeps_clauses_once():
    # a member's clauses live as implication closures (_closure) and long
    # clauses (_long), which is_hintikka reads too; no third table of them
    tree = ast.parse((SRC / "mosaic.py").read_text())
    [cls] = [node for node in tree.body
             if isinstance(node, ast.ClassDef) and node.name == "LabelSpace"]
    [init] = [node for node in cls.body
              if isinstance(node, ast.FunctionDef) and node.name == "__init__"]
    stored = {node.attr for node in ast.walk(init)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
              and isinstance(node.value, ast.Name) and node.value.id == "self"}
    assert stored == {"theta", "program", "nodes", "positives", "size",
                      "_lit_of", "ops", "operands", "dia_list", "box_list",
                      "_bottoms", "_long", "_closure", "_watched",
                      "_decisions", "_vec_cache"}


def test_one_reuse_site():
    # only frame validity hands _evaluate the previous chunk's values: it
    # alone knows which worlds' blocks changed, and the crown oracle's and
    # the one-lane evaluations stay full passes
    def passes_reuse(call):
        return len(call.args) > 5 or any(kw.arg in ("reuse", None)
                                         for kw in call.keywords)

    assert _calls("_evaluate", passes_reuse) == {"kripke.py:valid_on_frame"}


def test_one_morphism_check_site():
    # every map a function returns is checked by one routine, which raises
    # VerificationError naming the map
    assert _calls("is_p_morphism") == {"kripke.py:_onto_p_morphism"}
    assert _calls("is_onto") == {"kripke.py:_onto_p_morphism"}


def test_predecessor_table_readers():
    # Frame._preds is built on first read, so the evaluator and every
    # closure operator must work from the rows alone
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func, node in _functions(tree):
            if isinstance(node, ast.Attribute) and node.attr == "_preds":
                found.add(f"{path.name}:{func}")
    assert found == {"kripke.py:predecessors", "axioms.py:_find_forbidden"}


def test_one_budget_error_site():
    # searches spend from one StepBudget, whose spend is the only place a
    # budget runs out; the two up-front size guards refuse before any work
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func, node in _functions(tree):
            if isinstance(node, ast.Raise) and node.exc is not None and any(
                    isinstance(sub, ast.Name)
                    and sub.id == "BudgetExceededError"
                    for sub in ast.walk(node.exc)):
                found.add(f"{path.name}:{func}")
    assert found == {"errors.py:spend", "kripke.py:valid_on_frame",
                     "crown.py:crown_sat_bruteforce"}


FORMULA_CLASSES = {"Var", "Bottom", "Not", "Box", "Diamond", "And", "Or",
                   "Implies", "Iff", "_UNARY", "_BINARY"}


def test_formula_analyses_read_the_compiled_program():
    # compile is the one walk that dispatches on node classes; besides it
    # only the tree printer, one-step helpers and LabelSpace.ref (which
    # strips negations off a caller's formula) call isinstance on them
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func, node in _functions(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2
                    and any(isinstance(sub, ast.Name) and sub.id in FORMULA_CLASSES
                            or isinstance(sub, ast.Attribute)
                            and sub.attr in FORMULA_CLASSES
                            for sub in ast.walk(node.args[1]))):
                found.add(f"{path.name}:{func}")
    assert found == {"formula.py:children", "formula.py:compile",
                     "formula.py:negate", "formula.py:pretty", "mosaic.py:ref"}


def _statement_key(node):
    if isinstance(node, ast.Assign):
        return ast.unparse(node.targets[0])
    if isinstance(node, ast.If):
        return "if " + ast.unparse(node.test)
    return ast.unparse(node).splitlines()[0]


IMPORT_TIME_CALLS = {
    "__init__.py:__all__", "axioms.py:_FORBIDDEN",
    "cli.py:if __name__ == '__main__'",
    "crown.py:_POINT", "formula.py:TOP", "formula.py:_TOKEN",
    "formula.py:(VAR, BOT, NOT, AND, OR, IMP, IFF, DIA, BOX)",
    "mosaic.py:_SLOTS"}


def test_import_time_calls_are_known():
    # every import of the package runs the module-level statements, and the
    # benchmark's set-up time of every workload includes one import; so a
    # statement outside a function or class that calls anything is a new
    # import-time cost and must be added here on purpose
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom, ast.FunctionDef,
                                 ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if any(isinstance(sub, ast.Call) for sub in ast.walk(node)):
                found.add(f"{path.name}:{_statement_key(node)}")
    assert found == IMPORT_TIME_CALLS
