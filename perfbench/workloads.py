"""The benchmark workloads: seeded inputs, the timed op of each input, its
answer check, and the sub-steps a traced pass re-runs.

A workload is a sequence of sections (sat_sweep, sat_hard, frames,
scenes); the report breaks the end-to-end figures down by section.

Every op is a closure over inputs built during set-up.  `run(calls)` is the
op's timed region and makes its library calls through `calls`, which either
calls straight through or records a span (see spans.py).  `check` runs once,
untimed, on the first answer; later passes only compare `key(answer)` with
the first pass.  `substeps` runs in traced passes only, after the timer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from importlib import import_module
from itertools import permutations
from typing import Callable, Optional

# import_module: the package re-exports the function crown() under the
# name of its submodule
A = import_module("polyplane.axioms")
C = import_module("polyplane.crown")
F = import_module("polyplane.formula")
G = import_module("polyplane.geometry")
K = import_module("polyplane.kripke")
M = import_module("polyplane.mosaic")

import checks
from checks import WrongAnswer

# Step budgets, recorded in every report.
SAT_BUDGET = 500_000            # decide_sat, every op of every workload
ORACLE_MAX_N = 6                # crown_sat_oracle in sat_sweep ops and checks
CLASSIFY_BUDGET = 2_000_000     # classify_frame / reduce_to_crown
SAMPLES = 1_000                 # valid_on_frame sampled mode, per call

# The sat_hard random formulas come from this fixed corpus seed; --seed
# renames their variables and reorders commutative operands.  Fresh draws
# per seed spread latency_p50_ms by 10-20% between seeds at a few hundred
# formulas, because single-formula cost spans four orders of magnitude.
HARD_CORPUS_SEED = 1807_02868
HARD_RANDOM = 77


@dataclass
class Op:
    kind: str
    text: str                       # canonical input, hashed into the fingerprint
    nodes: int                      # AST nodes of the op's formula inputs
    run: Callable                   # run(calls) -> answer; the timed region
    check: Callable                 # check(answer, calls); raises WrongAnswer
    key: Callable                   # key(answer) -> comparable summary
    substeps: Optional[Callable] = None   # substeps(answer, calls), traced only
    prepare: Optional[Callable] = None    # prepare(), untimed, before each run
    section: str = ""


@dataclass(frozen=True)
class Failed:
    """An op that raised BudgetExceededError or RecursionError."""

    error: str
    message: str


# ---------------------------------------------------------------------------
# Formula inputs

UNARY = (F.Not, F.Box, F.Diamond)
BINARY = (F.And, F.Or, F.Implies, F.Iff)
COMMUTATIVE = (F.And, F.Or, F.Iff)


def all_formulas(max_size: int, names=("p", "q")) -> list:
    """Every formula of at most max_size AST nodes over names and F, by size."""
    by_size = [[], [F.Var(n) for n in names] + [F.Bottom()]]
    for size in range(2, max_size + 1):
        layer = [op(f) for op in UNARY for f in by_size[size - 1]]
        for op in BINARY:
            for ls in range(1, size - 1):
                layer += [op(l, r) for l in by_size[ls] for r in by_size[size - 1 - ls]]
        by_size.append(layer)
    return [f for layer in by_size for f in layer]


def random_formula(rng: random.Random, size: int, names) -> F.Formula:
    if size <= 1:
        return rng.choice([F.Var(n) for n in names] + [F.Bottom()])
    if size == 2 or rng.random() < 0.4:
        return rng.choice(UNARY)(random_formula(rng, size - 1, names))
    split = rng.randint(1, size - 2)
    return rng.choice(BINARY)(random_formula(rng, split, names),
                              random_formula(rng, size - 1 - split, names))


def perturb(f: F.Formula, rename: dict, rng: random.Random) -> F.Formula:
    """Rename variables and swap commutative operands at random; keeps the
    size, the closure size and satisfiability."""
    if isinstance(f, F.Var):
        return F.Var(rename.get(f.name, f.name))
    if isinstance(f, F.Bottom):
        return f
    if isinstance(f, UNARY):
        return type(f)(perturb(f.sub, rename, rng))
    left, right = perturb(f.left, rename, rng), perturb(f.right, rename, rng)
    if isinstance(f, COMMUTATIVE) and rng.random() < 0.5:
        left, right = right, left
    return type(f)(left, right)


# ---------------------------------------------------------------------------
# Shared op pieces

def _failed_key(ans):
    return ("failed", ans.error) if isinstance(ans, Failed) else None


def _val_key(model):
    return tuple(sorted((k, tuple(sorted(v))) for k, v in model.val.items()))


def _sat_key(res):
    if not res.sat:
        return (False,)
    return (True, res.n, res.world, res.root_label, _val_key(res.model))


def _oracle_key(orc):
    return None if orc is None else (orc.n, orc.world, _val_key(orc.model))


def _mosaic_substeps(calls, theta, res):
    """Counters from SolverStats and the re-run sub-steps of decide_sat."""
    st = res.stats
    for name in ("roots_tried", "labels_built", "arcs", "components",
                 "pool_size", "crown_n"):
        calls.add("mosaic." + name, getattr(st, name))
    calls.add("mosaic.sat_answers", int(res.sat))
    space = calls.call("mosaic.label_space", M.LabelSpace.for_formula, theta)
    idx, pol = space.ref(theta)
    roots = calls.call("mosaic.root_labels", space.enumerate_labels,
                       must=[(idx, pol, True)])
    calls.add("mosaic.root_labels", len(roots))
    if res.sat:
        calls.call("mosaic.extract", M.extract_model, res.mosaics, space,
                   res.root_label)
        calls.call("kripke.eval", K.eval_formula, res.model, res.world, theta)


# ---------------------------------------------------------------------------
# sat_sweep: the `polyplane fuzz` traffic

def sweep_op(text: str, nodes: int) -> Op:
    def run(calls):
        f = calls.call("formula.parse", F.parse, text)
        res = calls.call("mosaic.decide_sat", M.decide_sat, f, budget=SAT_BUDGET)
        orc = calls.call("crown.oracle", C.crown_sat_oracle, f, ORACLE_MAX_N)
        return f, res, orc

    def check(ans, calls):
        f, res, orc = ans
        checks.sat_agrees(f, res, orc)
        checks.model_holds(res, f)
        if orc is not None:
            checks.oracle_model_holds(orc, f)

    def key(ans):
        return _failed_key(ans) or (_sat_key(ans[1]), _oracle_key(ans[2]))

    def substeps(ans, calls):
        f, res, orc = ans
        calls.add("formula.nodes", nodes)
        calls.add("crown.oracle_n", orc.n if orc is not None else ORACLE_MAX_N)
        _mosaic_substeps(calls, f, res)
        if orc is not None:
            calls.call("kripke.eval", K.eval_formula, orc.model, orc.world, f)

    return Op("sweep", text, nodes, run, check, key, substeps)


def sat_sweep(seed: int, tiny: bool = False) -> list[Op]:
    """Every formula of size <= 5 over {p, q}, then 200 seeded formulas of
    size 3..9 and modal depth <= 3 over {p, q, r}."""
    formulas = all_formulas(3 if tiny else 5)
    rng = random.Random(seed)
    seen = set(formulas)
    extra = []
    while len(extra) < (10 if tiny else 200):
        f = random_formula(rng, rng.randint(3, 9), ("p", "q", "r"))
        if F.modal_depth(f) <= 3 and f not in seen:
            seen.add(f)
            extra.append(f)
    return [sweep_op(F.pretty(f), F.ast_size(f)) for f in formulas + extra]


# ---------------------------------------------------------------------------
# sat_hard: deep mosaic search, SAT and UNSAT paths

S4_THEOREMS = [
    "[](p -> q) -> ([]p -> []q)",
    "[]p -> p",
    "[]p -> [][]p",
    "p -> <>p",
    "<><>p -> <>p",
    "[](p & q) <-> ([]p & []q)",
    "<>(p | q) <-> (<>p | <>q)",
    "[]<>[]<>p <-> []<>p",
    "<>[]<>[]p <-> <>[]p",
    "~<>F",
]
A_TO_C = ("[](r -> <>(~r & p & <>~p)) -> "
          "((r & <>[]s & <>[]~s) -> <>(~r & <>[]s & <>[]~s))")
DEEP_NOT = "~" * 5000 + "p"
DEEP_DIAMOND = "<>" * 500 + "p"


def hard_op(kind: str, text: str, nodes: int, expect: Optional[bool] = None) -> Op:
    """kind "sat" decides the formula, kind "valid" decides its negation;
    `expect` is the known verdict (SAT, or valid), None when unknown."""

    def run(calls):
        f = calls.call("formula.parse", F.parse, text)
        theta = F.Not(f) if kind == "valid" else f
        res = calls.call("mosaic.decide_sat", M.decide_sat, theta, budget=SAT_BUDGET)
        return theta, res

    def check(ans, calls):
        theta, res = ans
        verdict = (not res.sat) if kind == "valid" else res.sat
        if expect is not None and verdict != expect:
            raise WrongAnswer(f"{kind} verdict {verdict}, known {expect}")
        if text == DEEP_DIAMOND:
            return  # too deep for the recursive references
        if expect is None:
            # known verdicts stand in for the oracle, which needs 23 s for
            # jankov_fine(B3) on crowns up to 3 alone
            checks.sat_agrees(theta, res, checks.oracle_for(theta, res, ORACLE_MAX_N))
        checks.model_holds(res, theta)

    def key(ans):
        return _failed_key(ans) or _sat_key(ans[1])

    def substeps(ans, calls):
        theta, res = ans
        calls.add("formula.nodes", nodes)
        _mosaic_substeps(calls, theta, res)

    return Op(kind, text, nodes, run, check, key, substeps)


def deep_parse_op() -> Op:
    def run(calls):
        return calls.call("formula.parse", F.parse, DEEP_NOT)

    def check(f, calls):
        checks.is_negation_tower(f, 5000, "p")

    return Op("parse", DEEP_NOT, 5001, run, check,
              lambda ans: _failed_key(ans) or ("parsed",))


def sat_hard(seed: int, tiny: bool = False) -> list[Op]:
    corpus_rng = random.Random(HARD_CORPUS_SEED)
    names = ("p", "q", "r", "s")
    sizes = [10 + i % 6 for i in range(6)] if tiny else [25 + i % 11 for i in range(HARD_RANDOM)]
    base = [random_formula(corpus_rng, size, names) for size in sizes]
    rng = random.Random(seed)
    ops = []
    for f in base:
        rename = dict(zip(names, rng.sample(names, len(names))))
        g = perturb(f, rename, rng)
        ops.append(hard_op("sat", F.pretty(g), F.ast_size(g)))
    for k in range(4, 7 if tiny else 11):
        text = " & ".join(f"p{i}" for i in range(k + 1))
        ops.append(hard_op("sat", text, 2 * k + 1, expect=True))
    valid = S4_THEOREMS[:3] if tiny else S4_THEOREMS
    valid = valid + [F.pretty(A.axiom_I()), A_TO_C]
    if not tiny:
        valid.append(F.pretty(A.axiom_II()))
    for text in valid:
        ops.append(hard_op("valid", text, F.ast_size(F.parse(text)), expect=True))
    for i, ff in enumerate(A.forbidden_frames()[: 1 if tiny else 5], 1):
        jf = K.jankov_fine(ff.frame, prefix=f"b{i}w")
        ops.append(hard_op("sat", F.pretty(jf), F.ast_size(jf), expect=False))
        ops.append(hard_op("valid", F.pretty(F.Not(jf)), F.ast_size(jf) + 1,
                           expect=True))
    ops.append(deep_parse_op())
    ops.append(hard_op("sat", DEEP_DIAMOND, 501, expect=True))
    return ops


# ---------------------------------------------------------------------------
# frames: classifier, reduction, frame validity

def _transitive(rows: list[int]) -> bool:
    for x, row in enumerate(rows):
        m = row
        while m:
            y = (m & -m).bit_length() - 1
            m &= m - 1
            if rows[y] & ~row:
                return False
    return True


def _canonical(rows: list[int]) -> tuple:
    """Least relation table over relabellings fixing world 0 (a root; any
    two root-cluster worlds are interchangeable, so fixing it is safe)."""
    n = len(rows)
    best = None
    for rest in permutations(range(1, n)):
        perm = (0,) + rest
        out = [0] * n
        for x in range(n):
            for y in range(n):
                if rows[x] >> y & 1:
                    out[perm[x]] |= 1 << perm[y]
        t = tuple(out)
        if best is None or t < best:
            best = t
    return best


def _frame(rows: list[int]) -> K.Frame:
    n = len(rows)
    return K.Frame(n, [(x, y) for x in range(n) for y in range(n)
                       if x != y and rows[x] >> y & 1], root=0)


def rooted_s4_frames(max_n: int) -> list[K.Frame]:
    """Every rooted S4 frame with at most max_n worlds, one per
    isomorphism class, rooted at world 0."""
    out = []
    for n in range(1, max_n + 1):
        full = (1 << n) - 1
        free = [(x, y) for x in range(1, n) for y in range(n) if y != x]
        seen = set()
        for mask in range(1 << len(free)):
            rows = [full] + [1 << x for x in range(1, n)]
            for i, (x, y) in enumerate(free):
                if mask >> i & 1:
                    rows[x] |= 1 << y
            if _transitive(rows):
                key = _canonical(rows)
                if key not in seen:
                    seen.add(key)
                    out.append(_frame(rows))
    return out


def shallow_frames(max_n: int) -> list[K.Frame]:
    """Root below a middles, below b endpoints, with edges only from
    middles to endpoints and every endpoint covered; up to isomorphism."""
    out = []
    seen = set()
    for a in range(max_n):
        for b in range(max_n - a):
            if b and not a:
                continue
            n = 1 + a + b
            for mask in range(1 << (a * b)):
                rows = [(1 << n) - 1] + [1 << x for x in range(1, n)]
                covered = 0
                for i in range(a):
                    for j in range(b):
                        if mask >> (i * b + j) & 1:
                            rows[1 + i] |= 1 << (1 + a + j)
                            covered |= 1 << j
                if covered != (1 << b) - 1:
                    continue
                key = _canonical(rows)
                if key not in seen:
                    seen.add(key)
                    out.append(_frame(rows))
    return out


def _frame_text(kind: str, frame: K.Frame) -> str:
    d = K.frame_to_dict(frame)
    return f"{kind} {d['worlds']} {d['rel']} {d.get('root')}"


def classify_op(frame: K.Frame, known: Optional[bool]) -> Op:
    """`known` is the verdict fixed in advance (crowns validate); frames
    with at most 5 worlds are checked against exhaustive validity."""

    def run(calls):
        return calls.call("axioms.classify", A.classify_frame, frame,
                          budget=CLASSIFY_BUDGET)

    def check(v, calls):
        checks.verdict_ok(frame, v, known)

    def substeps(v, calls):
        calls.add("axioms.refuted", int(not v.validates))
        rooted = frame.rooted()
        for ff in A.forbidden_frames():
            calls.call(f"axioms.find_{ff.id}", K.find_subreduction, rooted,
                       ff.frame, budget=CLASSIFY_BUDGET)

    return Op("classify", _frame_text("classify", frame), 0, run, check,
              lambda v: _failed_key(v) or (v.validates, v.refuted_id,
                                           tuple(sorted(v.witness.mapping.items()))
                                           if v.witness else None),
              substeps)


def reduce_op(frame: K.Frame) -> Op:
    def run(calls):
        return calls.call("crown.reduce", C.reduce_to_crown, frame,
                          budget=CLASSIFY_BUDGET)

    def check(red, calls):
        checks.reduction_ok(frame, red)

    def substeps(red, calls):
        calls.add("crown.reduce_worlds", 2 * red.n + 1)

    return Op("reduce", _frame_text("reduce", frame), 0, run, check,
              lambda r: _failed_key(r) or (r.n, tuple(sorted(r.world_map.mapping.items()))),
              substeps)


def validity_op(n: int, name: str, axiom: F.Formula, sampled_seed: Optional[int],
                samples: int = SAMPLES) -> Op:
    frame = C.crown(n)
    mode = "exhaustive" if sampled_seed is None else "sampled"
    span = "kripke.valid_" + mode

    def run(calls):
        if sampled_seed is None:
            return calls.call(span, K.valid_on_frame, frame, axiom)
        return calls.call(span, K.valid_on_frame, frame, axiom, mode="sampled",
                          samples=samples, seed=sampled_seed)

    def check(rep, calls):
        checks.crown_validates(rep, mode == "exhaustive")

    def substeps(rep, calls):
        calls.add("kripke.valuations_checked", rep.checked)

    return Op("valid_" + mode, f"{mode} crown({n}) axiom {name} seed {sampled_seed}",
              F.ast_size(axiom), run, check,
              lambda r: _failed_key(r) or (r.valid, r.checked), substeps)


def frames(seed: int, tiny: bool = False) -> list[Op]:
    # the frames are fixed by definition; the seed drives the sampled
    # validity checks only.  (Renumbering worlds by seed changed the cost of
    # the sub-millisecond classifications enough to spread latency_p50_ms by
    # 40% between seeds.)
    rng = random.Random(seed)
    max_small = 3 if tiny else 5
    enumerated = rooted_s4_frames(max_small) + [
        f for f in shallow_frames(max_small + 1) if f.n > max_small]
    crowns = [C.crown(n) for n in range(1, 5 if tiny else 13)]
    ops = [classify_op(f, None) for f in enumerated]
    ops += [classify_op(f, True) for f in crowns]
    # a reduction needs a validating frame: crowns are known to validate, the
    # enumerated frames are classified here once, untimed (the classify
    # checks confirm those verdicts)
    ops += [reduce_op(f) for f in enumerated
            if A.classify_frame(f, budget=CLASSIFY_BUDGET).validates]
    # crowns past 8 add nothing but another classification inside
    # reduce_to_crown; the crown(n) -> crown(n+2) excess shows on all of them
    ops += [reduce_op(f) for f in crowns[:8]]
    axioms = [("I", A.axiom_I()), ("II", A.axiom_II())]
    for n in (1, 2) if tiny else (1, 2, 3):
        ops += [validity_op(n, name, ax, None) for name, ax in axioms]
    # two sample sets per crown and axiom: the sampled checks then form the
    # dense band of ops that latency_p90_ms falls in
    for n in (4, 5) if tiny else range(4, 13):
        ops += [validity_op(n, name, ax, rng.randrange(1 << 30), 100 if tiny else SAMPLES)
                for name, ax in axioms for _ in range(2)]
    return ops


# ---------------------------------------------------------------------------
# scenes: each arrangement is built once per pass, then queried;
# crown-model realization

def _random_lines(rng: random.Random, count: int) -> list[G.Line]:
    """Lines in general position: no two parallel, no three through one
    point, so the cell count depends on the line count alone."""
    lines: list[G.Line] = []
    crossings: set = set()
    while len(lines) < count:
        a, b, c = (rng.randint(-9, 9) for _ in range(3))
        if (a, b) == (0, 0):
            continue
        ln = G.Line.make(a, b, c)
        new = [_crossing(ln, other) for other in lines]
        if None in new or any(ln.at(p) == 0 for p in crossings):
            continue
        lines.append(ln)
        crossings.update(new)
    return lines


def _crossing(l1: G.Line, l2: G.Line):
    det = l1.a * l2.b - l2.a * l1.b
    if det == 0:
        return None
    return ((l1.b * l2.c - l2.b * l1.c) / det, (l2.a * l1.c - l1.a * l2.c) / det)


def _concurrent_lines(rng: random.Random, count: int) -> list[G.Line]:
    x0, y0 = Fraction(rng.randint(-5, 5), rng.randint(1, 3)), Fraction(rng.randint(-5, 5))
    lines: list[G.Line] = []
    while len(lines) < count:
        a, b = rng.randint(-6, 6), rng.randint(-6, 6)
        if (a, b) != (0, 0):
            ln = G.Line.make(a, b, -(a * x0 + b * y0))
            if ln not in lines:
                lines.append(ln)
    return lines


def _random_polygon(rng: random.Random, nlines: int) -> list:
    rels = ["<", "<=", "=", ">=", ">"]
    return [[(rng.randrange(nlines), rng.choice(rels))
             for _ in range(rng.randint(1, 3))] for _ in range(rng.randint(1, 3))]


class Arrangement:
    """Lines of one scene.  `scene` is whatever the build op of the current
    pass returned; the queries read it from there."""

    def __init__(self, lines: list):
        self.coeffs = [(l.a, l.b, l.c) for l in lines]
        self.lines = lines
        self.scene = None
        self._reference = None

    def reference(self) -> checks.SceneReference:
        if self._reference is None:
            self._reference = checks.SceneReference(self.scene)
        return self._reference

    def point_cell(self, p) -> tuple:
        return tuple(l.sign_at(p) for l in self.lines)


def build_op(arr: Arrangement) -> Op:
    def run(calls):
        arr.scene = calls.call("geometry.build", G.build_arrangement, arr.coeffs)
        return arr.scene

    def check(scene, calls):
        checks.witnesses_ok(scene)

    def substeps(scene, calls):
        calls.add("geometry.cells", len(scene.cells))

    text = "build " + " ".join(f"{a},{b},{c}" for a, b, c in arr.coeffs)
    return Op("build", text, 0, run, check,
              lambda s: _failed_key(s) or (s.cells, tuple(sorted(s.witness.items()))),
              substeps)


def eval_op(arr: Arrangement, polygons: dict, cell: tuple, f: F.Formula) -> Op:
    val = {}

    def prepare():
        # polygons become cell sets once, from the first pass's scene
        if not val:
            val.update((name, G.compile_polygon(arr.scene, dnf))
                       for name, dnf in polygons.items())

    def run(calls):
        return calls.call("geometry.eval_scene", G.eval_scene, arr.scene, val, cell, f)

    def check(got, calls):
        want = arr.reference().truth(val, f, cell)
        if got != want:
            raise WrongAnswer(f"eval_scene gave {got}, reference {want}")

    def substeps(got, calls):
        calls.call("geometry.scene_frame", G.scene_frame, arr.scene)

    text = f"eval {F.pretty(f)} at {cell} polygons {sorted(polygons.items())}"
    return Op("eval", text, F.ast_size(f), run, check,
              lambda got: _failed_key(got) or got, substeps, prepare)


def _query_point(rng: random.Random, lines: list):
    """A random point inside a face, on a line, or at a crossing, so queries
    reach cells of every dimension."""
    def coord():
        return Fraction(rng.randint(-40, 40), rng.randint(1, 7))

    kind = rng.randrange(3)
    l1, l2 = rng.sample(lines, 2)
    if kind == 2 and _crossing(l1, l2) is not None:
        return _crossing(l1, l2)
    if kind == 1:
        if l1.b != 0:
            x = coord()
            return (x, -(l1.a * x + l1.c) / l1.b)
        return (-l1.c / l1.a, coord())
    return (coord(), coord())


def realize_op(model: K.Model, witness: int, formulas: list) -> Op:
    def run(calls):
        return calls.call("geometry.realize", G.realize_crown_model, model, witness)

    def check(real, calls):
        checks.realization_ok(model, witness, real, formulas)

    text = f"realize {K.model_to_dict(model)} at {witness}"
    return Op("realize", text, sum(F.ast_size(f) for f in formulas), run, check,
              lambda r: _failed_key(r) or (r.cell, tuple(sorted(r.cell_world.items()))))


def _endpoint_formula(rng: random.Random, k: int, names) -> F.Formula:
    """<>[] of k distinct atom patterns: needs k distinct endpoints, so the
    least crown grows with k."""
    pats = rng.sample(range(1 << len(names)), k)
    parts = [F.Diamond(F.Box(F.conj([F.Var(n) if pat >> i & 1 else F.Not(F.Var(n))
                                     for i, n in enumerate(names)])))
             for pat in pats]
    return F.conj(parts)


QUERIES = 6


def scenes(seed: int, tiny: bool = False) -> list[Op]:
    rng = random.Random(seed)
    arrangements = [_random_lines(rng, L) for L in ((4, 5) if tiny else range(4, 13))]
    arrangements += [_concurrent_lines(rng, L) for L in ((2,) if tiny else range(2, 7))]
    ops = []
    for lines in arrangements:
        arr = Arrangement(lines)
        ops.append(build_op(arr))
        for _ in range(2 if tiny else QUERIES):
            polygons = {name: _random_polygon(rng, len(lines)) for name in ("p", "q")}
            cell = arr.point_cell(_query_point(rng, lines))
            f = random_formula(rng, rng.randint(2, 8), ("p", "q"))
            ops.append(eval_op(arr, polygons, cell, f))
    names = ("p", "q", "r")
    for k in ((1, 2) if tiny else range(1, 7)):
        theta = _endpoint_formula(rng, k, names)
        res = M.decide_sat(theta, budget=SAT_BUDGET)   # untimed preparation
        if not res.sat or res.n > G.MAX_LINES:
            raise RuntimeError(f"realization input {F.pretty(theta)} unusable")
        extra = [random_formula(rng, rng.randint(2, 6), names) for _ in range(2)]
        ops.append(realize_op(res.model, res.world, [theta] + extra))
    return ops


SECTIONS = {"sat_sweep": sat_sweep, "sat_hard": sat_hard,
            "frames": frames, "scenes": scenes}

# Two workloads rather than four: on the noisy 2-CPU VM this was tuned on,
# four workloads left room for 25 s runs only, and slow spells of up to a
# minute then spread sat_hard and frames by up to a third between runs.
# Each layer's mechanism is exercised by one workload and bypassed by the
# other.
WORKLOADS = {"sat": ("sat_sweep", "sat_hard"),
             "structures": ("frames", "scenes")}


def build(workload: str, seed: int, tiny: bool = False) -> list[Op]:
    ops = []
    for section in WORKLOADS[workload]:
        for op in SECTIONS[section](seed, tiny):
            op.section = section
            ops.append(op)
    return ops
