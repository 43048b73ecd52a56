import copy
import os
import pickle
import random
import subprocess
import sys
import time
from fractions import Fraction
from functools import cached_property
from math import atan2, cos, sin
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from polyplane import geometry
from polyplane.axioms import classify_frame
from polyplane.crown import crown
from polyplane.errors import VerificationError
from polyplane.formula import Box, Diamond, Not, Var, conj, parse
from polyplane.geometry import (CellSet, Line, Scene, build_arrangement,
                                cells_to_dnf,
                                compile_polygon, concurrent_crown_map,
                                eval_scene, realize_crown_model, scene_closure,
                                scene_delta, scene_frame, scene_from_dict,
                                scene_interior, scene_to_dict, scene_to_svg,
                                wrap_map)
from polyplane.kripke import Frame, Model, WorldMap, eval_formula, is_p_morphism
from polyplane.mosaic import decide_sat

from helpers import (formulas, frames_isomorphic, random_formula,
                     reference_arrangement, reference_scene_frame,
                     reference_truth)


def concurrent(L):
    return build_arrangement([Line.make(-k, 1, 0) for k in range(L)])


def test_line_normalization():
    assert Line.make(2, 4, 6) == Line.make(1, 2, 3)
    assert Line.make(-1, -2, -3) == Line.make(1, 2, 3)
    assert Line.make(Fraction(1, 2), 1, 0) == Line.make(1, 2, 0)
    assert Line.make(0, -3, 6) == Line.make(0, 1, -2)
    with pytest.raises(ValueError):
        Line.make(0, 0, 5)


def test_duplicate_lines_rejected():
    with pytest.raises(ValueError):
        build_arrangement([(1, 0, 0), (2, 0, 0)])
    with pytest.raises(ValueError):
        build_arrangement([(k, 1, 0) for k in range(geometry.MAX_LINES + 1)])


def test_single_line_cells():
    s = build_arrangement([(1, 0, 0)])
    assert s.cells == ((-1,), (0,), (1,))


def test_two_concurrent_lines_nine_cells():
    s = build_arrangement([(1, 0, 0), (0, 1, 0)])
    assert len(s.cells) == 9
    zeros = [sum(1 for v in c if v == 0) for c in s.cells]
    assert zeros.count(2) == 1 and zeros.count(1) == 4 and zeros.count(0) == 4


def test_two_parallel_lines_five_cells():
    s = build_arrangement([(1, 0, 0), (1, 0, -1)])
    assert s.cells == ((-1, -1), (0, -1), (1, -1), (1, 0), (1, 1))
    xs = [s.witness[c][0] for c in s.cells]
    assert xs == [Fraction(-1, 2), 0, Fraction(1, 2), 1, Fraction(3, 2)]


def test_zero_line_scene():
    s = build_arrangement([])
    assert s.cells == ((),)
    assert s.witness == {(): (0, 0)}
    fr = scene_frame(s)
    assert fr.n == 1 and fr.root == 0


def test_all_parallel_lines():
    # no line crosses another, so each line is a single edge
    s = build_arrangement([(1, 0, 0), (1, 0, -1), (1, 0, -3)])
    assert s.cells == ((-1, -1, -1), (0, -1, -1), (1, -1, -1), (1, 0, -1),
                       (1, 1, -1), (1, 1, 0), (1, 1, 1))
    assert [s.witness[c] for c in s.cells] == \
        [(Fraction(-1, 2), 0), (0, 0), (Fraction(1, 2), 0), (1, 0),
         (Fraction(3, 2), 0), (3, 0), (4, 0)]
    fr = scene_frame(s)
    assert fr.root is None
    assert sorted(fr.strict_pairs()) == [(1, 0), (1, 2), (3, 2), (3, 4), (5, 4), (5, 6)]


small_lines = st.lists(
    st.tuples(*[st.integers(-2, 2)] * 3).filter(lambda t: t[:2] != (0, 0)).map(
        lambda t: Line.make(*t)),
    max_size=7, unique=True)


@settings(max_examples=100, deadline=None)
@given(small_lines)
def test_build_matches_reference(lines):
    # coefficients in -2..2 make parallel and concurrent lines common; the
    # witnesses are other points than the reference's, but attain the cells
    s, ref = build_arrangement(lines), reference_arrangement(lines)
    assert s.lines == ref.lines and s.cells == ref.cells
    assert scene_frame(s) == scene_frame(ref)
    for c in s.cells:  # in Fractions, apart from the build's integer re-check
        values = [l.at(s.witness[c]) for l in s.lines]
        assert tuple((v > 0) - (v < 0) for v in values) == c


@settings(max_examples=60, deadline=None)
@given(small_lines)
def test_scene_frame_matches_pairwise(lines):
    s = build_arrangement(lines)
    assert scene_frame(s) == reference_scene_frame(s)


def test_build_rechecks_witnesses(monkeypatch):
    walk = geometry._walk
    monkeypatch.setattr(geometry, "_walk",
                        lambda rows: {c: (5, 5, 1) for c in walk(rows)})
    with pytest.raises(VerificationError, match="does not attain"):
        build_arrangement([(1, 0, 0), (0, 1, 0)])


def test_build_recheck_survives_optimize():
    code = "\n".join([
        "import sys",
        "from polyplane import geometry",
        "from polyplane.errors import VerificationError",
        "if __debug__:",
        "    sys.exit('assertions are enabled')",
        "walk = geometry._walk",
        "geometry._walk = lambda rows: {c: (5, 5, 1) for c in walk(rows)}",
        "try:",
        "    geometry.build_arrangement([(1, 0, 0)])",
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


def test_foreign_cells_rejected():
    s = build_arrangement([(1, 0, 0)])
    foreign = (0, 0)
    for op in (scene_closure, scene_interior, scene_delta):
        with pytest.raises(ValueError, match="does not belong to the scene"):
            op(s, {(1,), foreign})
    with pytest.raises(ValueError, match="does not belong to the scene"):
        eval_scene(s, {}, foreign, parse("p"))
    with pytest.raises(ValueError, match="does not belong to the scene"):
        eval_scene(s, {"p": frozenset({foreign})}, (0,), parse("p"))


def test_witnesses_attain_signs():
    rng = random.Random(8)
    for _ in range(20):
        lines = []
        while len(lines) < 4:
            cand = (rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3))
            if cand[:2] == (0, 0):
                continue
            ln = Line.make(*cand)
            if ln not in lines:
                lines.append(ln)
        s = build_arrangement(lines)
        for c in s.cells:
            assert s.signs_of(s.witness[c]) == c


def test_scene_frame_one_line():
    s = build_arrangement([(1, 0, 0)])
    fr = scene_frame(s)
    assert sorted(fr.strict_pairs()) == [(1, 0), (1, 2)]
    assert fr.root == 1


def test_concurrent_scenes_are_crowns():
    for L in (2, 3, 4, 5):
        s = concurrent(L)
        mapping = concurrent_crown_map(s)  # asserts the relation transfer
        assert frames_isomorphic(scene_frame(s), crown(2 * L))
        assert sorted(mapping.values()) == list(range(4 * L + 1))


def test_compile_polygon():
    s = build_arrangement([(1, 0, 0)])
    assert compile_polygon(s, [[(0, ">=")]]) == {(0,), (1,)}
    s2 = build_arrangement([(1, 0, 0), (0, 1, 0)])
    assert len(compile_polygon(s2, [[]])) == 9
    assert compile_polygon(s2, []) == frozenset()
    quad = compile_polygon(s2, [[(0, ">"), (1, ">")]])
    assert quad == {(1, 1)}


def test_eval_scene_boundary():
    s = build_arrangement([(1, 0, 0)])
    val = {"p": frozenset({(1,)})}
    assert eval_scene(s, val, (0,), parse("<>p"))
    assert not eval_scene(s, val, (0,), parse("[]p"))
    with pytest.raises(ValueError):
        eval_scene(s, val, (0, 0), parse("p"))


TWELVE_LINES = [(1, 0, 0), (0, 1, 0), (1, 1, -1), (1, -1, 2), (2, 1, 3),
                (1, 2, -4), (3, -1, 5), (1, -3, -2), (4, 1, -7), (1, 4, 6),
                (5, -2, 1), (2, -5, -3)]


def test_eval_scene_matches_reference_on_twelve_lines():
    # several queries read one scene's frame and cell index, and each
    # answer is checked world by world on the pairwise frame
    rng = random.Random(12)
    s = build_arrangement(TWELVE_LINES)
    ref = reference_scene_frame(s)
    assert len(s.lines) == 12 and len(s.cells) == 271
    for _ in range(8):
        val = {name: frozenset(c for c in s.cells if rng.random() < 0.4)
               for name in ("p", "q")}
        phi = random_formula(rng, rng.randint(2, 8), ("p", "q"))
        kv = {name: frozenset(s.cells.index(c) for c in cs)
              for name, cs in val.items()}
        want = reference_truth(ref, kv, phi)
        for cell in rng.sample(s.cells, 5):
            assert eval_scene(s, val, cell, phi) == (s.cells.index(cell) in want)
    assert s.frame is s.frame and s.frame == ref
    foreign = (0,) * 11
    with pytest.raises(ValueError, match="does not belong to the scene"):
        eval_scene(s, {}, foreign, parse("p"))
    with pytest.raises(ValueError, match="does not belong to the scene"):
        eval_scene(s, {"p": frozenset({foreign})}, s.cells[0], parse("p"))


def test_eval_scene_builds_no_predecessor_table():
    # one-lane evaluation reads the rows alone, and never the many-lane plan
    s = build_arrangement(TWELVE_LINES)
    assert eval_scene(s, {"p": frozenset(s.cells[:40])}, s.cells[0],
                      parse("[]<>p -> <>[]p"))
    assert not {"_preds", "_succs", "_plan"} & set(vars(s.frame))


def test_compile_polygon_matches_per_cell_reference():
    rng = random.Random(23)
    s = build_arrangement(TWELVE_LINES)
    rels = {"<": {-1}, "<=": {-1, 0}, "=": {0}, ">=": {0, 1}, ">": {1}}
    for _ in range(60):
        dnf = [[(rng.randrange(12), rng.choice(sorted(rels)))
                for _ in range(rng.randint(0, 4))]
               for _ in range(rng.randint(0, 3))]
        want = frozenset(c for c in s.cells
                         if any(all(c[i] in rels[rel] for i, rel in clause)
                                for clause in dnf))
        assert compile_polygon(s, dnf) == want, dnf


def test_scene_file_builds_sign_masks_once(monkeypatch):
    # three valuation names compile against one set of sign masks, kept
    # with the scene, and scene_frame builds its frame from the same ones
    built = []
    build = geometry.Scene.sign_masks.func
    counted = cached_property(lambda scene: built.append(scene) or build(scene))
    counted.__set_name__(geometry.Scene, "sign_masks")
    monkeypatch.setattr(geometry.Scene, "sign_masks", counted)
    dnfs = {"p": [[[0, ">"], [3, "<="]]], "q": [[[5, "="]], [[1, "<"]]],
            "r": [[[11, ">="], [2, ">"], [7, "<"]]]}
    scene, val = scene_from_dict({
        "lines": [[str(c) for c in line] for line in TWELVE_LINES],
        "val": {name: {"dnf": dnf} for name, dnf in dnfs.items()}})
    assert built == [scene]
    rels = {"<": {-1}, "<=": {-1, 0}, "=": {0}, ">=": {0, 1}, ">": {1}}
    for name, dnf in dnfs.items():
        assert val[name] == frozenset(
            c for c in scene.cells
            if any(all(c[i] in rels[rel] for i, rel in clause) for clause in dnf))
    assert scene_frame(scene) == scene.frame
    assert built == [scene]


def test_eval_scene_checks_names_the_formula_lacks():
    s = build_arrangement([(1, 0, 0)])
    val = {"p": frozenset({(1,)}), "q": frozenset({(0, 0)})}
    with pytest.raises(ValueError, match="does not belong to the scene"):
        eval_scene(s, val, (0,), parse("<>p"))


def test_eval_scene_matches_eval_formula_with_unused_names():
    # val names p, q and two names no formula uses; the formulas also use
    # s, which val lacks and so holds nowhere
    rng = random.Random(19)
    s = build_arrangement(TWELVE_LINES)
    for _ in range(8):
        val = {name: frozenset(c for c in s.cells if rng.random() < 0.4)
               for name in ("p", "q", "extra", "z")}
        model = Model(s.frame, {name: frozenset(s.index[c] for c in cs)
                                for name, cs in val.items()})
        phi = random_formula(rng, rng.randint(2, 8), ("p", "q", "s"))
        for cell in rng.sample(s.cells, 5):
            assert eval_scene(s, val, cell, phi) == \
                eval_formula(model, s.index[cell], phi)


def test_eval_scene_vertex_sees_ray():
    s = build_arrangement([(1, 0, 0), (0, 1, 0)])
    ray = next(c for c in s.cells if sum(1 for v in c if v == 0) == 1)
    val = {"p": frozenset({ray})}
    vertex = (0, 0)
    assert eval_scene(s, val, vertex, parse("<>(p & <>~p)"))


def test_scene_closure_interior_delta():
    s = build_arrangement([(1, 0, 0)])
    plus = frozenset({(1,)})
    assert scene_closure(s, plus) == {(0,), (1,)}
    assert scene_interior(s, {(0,), (1,)}) == {(1,)}
    assert scene_delta(s, plus) == {(0,)}
    # boundary of everything is empty
    assert scene_delta(s, set(s.cells)) == frozenset()


def test_delta_drops_dimension_and_cubes_out():
    rng = random.Random(12)
    s = build_arrangement([(1, 0, 0), (0, 1, 0), (1, 1, -1), (1, -2, 3)])
    for _ in range(50):
        a = frozenset(c for c in s.cells if rng.random() < 0.4)
        d = scene_delta(s, a)
        assert not (d & a)
        full = [c for c in d if all(v != 0 for v in c)]
        open_a = [c for c in a if all(v != 0 for v in c)]
        # the external boundary contains no full-dimensional cell of a's own
        assert not set(full) & set(open_a)
        assert scene_delta(s, scene_delta(s, d)) == frozenset()


def test_face_order_oracle():
    # the face test agrees with the limit test by midpoints, and failures
    # come with a separating line
    rng = random.Random(3)
    scenes = [build_arrangement([(1, 0, 0), (0, 1, 0), (1, 1, -1)]),
              build_arrangement([(1, 0, 0), (1, 0, -1)]),
              concurrent(2)]
    for s in scenes:
        for a in s.cells:
            for b in s.cells:
                face = all(x == 0 or x == y for x, y in zip(a, b))
                wa, wb = s.witness[a], s.witness[b]
                mid = ((wa[0] + wb[0]) / 2, (wa[1] + wb[1]) / 2)
                if face:
                    assert s.signs_of(mid) == b or a == b
                else:
                    sep = [i for i, (x, y) in enumerate(zip(a, b))
                           if x != 0 and x != y]
                    assert sep


def test_small_scene_frames_validate():
    # every point-generated piece of a finite cell quotient of the plane
    # must pass the classifier, whether or not the whole scene has a root
    scenes = [build_arrangement([(1, 0, 0)]),
              build_arrangement([(1, 0, 0), (1, 0, -1)]),
              build_arrangement([(1, 0, 0), (0, 1, 0), (1, 1, -1)]),
              concurrent(2)]
    for s in scenes:
        fr = scene_frame(s)
        if fr.root is not None:
            assert classify_frame(fr).validates
        for x in range(fr.n):
            worlds = sorted(fr.successors(x))
            relabel = {w: i for i, w in enumerate(worlds)}
            sub = Frame(len(worlds),
                        [(relabel[a], relabel[b]) for a in worlds
                         for b in fr.successors(a) if b in relabel and a != b],
                        root=relabel[x])
            assert classify_frame(sub).validates, (s.lines, x)


def test_wrap_map_validity():
    assert wrap_map(4, 1)[1] == 1 and wrap_map(4, 1)[2] == 2
    assert wrap_map(4, 2)[5] == 1
    with pytest.raises(ValueError):
        wrap_map(3, 2)


@pytest.mark.parametrize("big, small", [(3, 0), (0, 0), (0, 1), (-2, 1), (2, -1)])
def test_wrap_map_rejects_parameters_below_one(big, small):
    # each parameter is checked before the divisibility test divides by it
    with pytest.raises(ValueError, match="crown parameter must be >= 1"):
        wrap_map(big, small)


def test_realize_crown_two_model():
    model = Model(crown(2), {"p": {1}})
    real = realize_crown_model(model, 0, formula=parse("<>[]p"))
    assert len(real.scene.lines) == 2
    assert all(v == 0 for v in real.cell)
    assert eval_scene(real.scene, real.val, real.cell, parse("<>[]p"))
    wm = WorldMap(real.cell_world)
    assert is_p_morphism(wm, scene_frame(real.scene), crown(2))


def test_realize_crown_one_uses_wrap():
    model = Model(crown(1), {"p": {1}})
    real = realize_crown_model(model, 0, formula=parse("<>[]p & <><>p"))
    assert len(real.scene.lines) == 2  # crown(4) scene wrapped onto crown(1)
    wm = WorldMap(real.cell_world)
    assert is_p_morphism(wm, scene_frame(real.scene), crown(1))
    assert wm.is_onto(crown(1))


@pytest.mark.parametrize("m,lines", [(30, 15), (48, 24)])
def test_realize_even_crown_on_half_the_lines(m, lines):
    # L concurrent lines give crown(2L), so an even crown(m) needs m/2
    # lines; crown(30) and crown(48) fit under the line cap
    model = Model(crown(m), {"p": {1, 2, 3, m + 1}, "q": set(range(2, 2 * m, 4))})
    f = parse("<>[]p & <>(q & <>~p) & ~[]q")
    for witness in (0, 2, m + 1):
        real = realize_crown_model(model, witness, formula=f)
        assert len(real.scene.lines) == lines
        assert real.cell_world[real.scene.index[real.cell]] == witness
        assert eval_scene(real.scene, real.val, real.cell, f) \
            == eval_formula(model, witness, f)
    assert eval_formula(model, 0, f)


def test_realize_odd_crown_over_the_line_cap():
    # an odd crown(m) still takes m lines
    with pytest.raises(ValueError, match="more than 24 lines"):
        realize_crown_model(Model(crown(25), {}), 0)


def test_realize_nonroot_witness():
    model = Model(crown(2), {"p": {2}})
    real = realize_crown_model(model, 2, formula=parse("p & <>~p"))
    assert real.cell_world[real.scene.cells.index(real.cell)] == 2


def test_realize_rejects_non_crown():
    from polyplane.kripke import Frame
    with pytest.raises(ValueError):
        realize_crown_model(Model(Frame(4, [(0, 1), (1, 2), (2, 3)], root=0), {}), 0)


def test_realize_solver_witnesses_roundtrip():
    rng = random.Random(77)
    done = 0
    while done < 10:
        f = random_formula(rng, rng.randint(2, 6), ("p", "q"))
        res = decide_sat(f)
        if not res.sat or res.n > 12:
            continue
        real = realize_crown_model(res.model, res.world, formula=f)
        assert eval_scene(real.scene, real.val, real.cell, f)
        done += 1


def endpoint_formula(patterns):
    """<>[] of each sign pattern of p, q, r: one endpoint for each."""
    return conj([Diamond(Box(conj([Var(n) if pat >> i & 1 else Not(Var(n))
                                   for i, n in enumerate("pqr")])))
                 for pat in sorted(patterns)])


@settings(max_examples=60, derandomize=True)
@given(st.sets(st.integers(0, 7), min_size=1, max_size=6))
def test_endpoint_models_realize(patterns):
    # the least crown grows with the number of patterns
    theta = endpoint_formula(patterns)
    res = decide_sat(theta)
    assert res.sat
    real = realize_crown_model(res.model, res.world, formula=theta)
    assert eval_scene(real.scene, real.val, real.cell, theta) \
        == eval_formula(res.model, res.world, theta)


def test_scene_json_roundtrip():
    s = concurrent(2)
    val = {"p": frozenset({s.cells[0], s.cells[3]})}
    d = scene_to_dict(s, val)
    s2, val2 = scene_from_dict(d)
    assert s2.lines == s.lines and s2.cells == s.cells
    assert val2 == val


def test_cells_to_dnf_roundtrip():
    s = concurrent(3)
    chosen = frozenset(s.cells[i] for i in (0, 2, 5))
    assert compile_polygon(s, cells_to_dnf(s, chosen)) == chosen


def test_svg_output():
    model = Model(crown(2), {"p": {1, 2}})
    real = realize_crown_model(model, 0)
    svg = scene_to_svg(real.scene, real.val)
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert svg == scene_to_svg(real.scene, real.val)  # deterministic
    with pytest.raises(ValueError):
        scene_to_svg(build_arrangement([(1, 0, 0), (1, 0, -1)]), {})
    # the rays of y = 0, y = x and y = 2x, counterclockwise from the
    # positive x-axis, on a circle of radius 160
    real = realize_crown_model(Model(crown(3), {"p": {1, 2}, "q": {4}}), 0)
    ends = [line.split('x2="')[1].split('" stroke')[0]
            for line in scene_to_svg(real.scene, real.val).splitlines()
            if line.startswith("<line")]
    assert ends == ['160.00" y2="0.00', '113.14" y2="113.14', '71.55" y2="143.11',
                    '-160.00" y2="0.00', '-113.14" y2="-113.14',
                    '-71.55" y2="-143.11']


def _quadrant_key(u):
    """Exact angle key of a nonzero Fraction direction: its quadrant, then
    the tangent of its angle past the quadrant's start, which grows with
    the angle there."""
    x, y = u
    if x > 0 and y >= 0:
        return (0, y / x)
    if x <= 0 and y > 0:
        return (1, -x / y)
    if x < 0 and y <= 0:
        return (2, y / x)
    return (3, -x / y)


_rational = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 9))
_long = st.builds(Fraction, st.integers(-10 ** 60, 10 ** 60),
                  st.integers(10 ** 59, 10 ** 60))
_normals = st.lists(st.sampled_from([(1, 0), (0, 1)])
                    | st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
                    min_size=2, max_size=8)


@settings(max_examples=80, deadline=None)
@given(st.just((Fraction(0), Fraction(0))) | st.tuples(_rational, _rational)
       | st.tuples(_long, _long), _normals)
@example((Fraction(10 ** 60 + 7, 3 * 10 ** 59 + 1),
          Fraction(-10 ** 59 - 3, 10 ** 60 - 9)),
         [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (3, -1), (1, -3)])
def test_pencil_order_matches_fraction_angles(centre, normals):
    # 2..8 lines through one rational centre, vertical and horizontal ones
    # among them, the centre's coordinates up to 60 digits
    cx, cy = centre
    lines = {Line.make(a, b, -(a * cx + b * cy))
             for a, b in normals if (a, b) != (0, 0)}
    assume(len(lines) >= 2)
    s = build_arrangement(sorted(lines, key=repr))
    vertex, around, _ = geometry._around(s)
    vx, vy = s.witness[vertex]
    want = sorted(around, key=lambda c: _quadrant_key(
        (s.witness[c][0] - vx, s.witness[c][1] - vy)))
    assert around == want
    mapping = concurrent_crown_map(s)
    target = crown(2 * len(lines))
    assert sorted(mapping.values()) == list(range(target.n))
    assert is_p_morphism(WorldMap(mapping), s.frame, target)
    # each ray's end in the figure lies on the ray, at radius 160
    rays = [c for c in around if 0 in c]
    svg = scene_to_svg(s, {})
    ends = [tuple(float(line.split(f'{k}="')[1].split('"')[0]) for k in ("x2", "y2"))
            for line in svg.splitlines() if line.startswith("<line")]
    assert len(ends) == len(rays) == 2 * len(lines)
    for (x, y), c in zip(ends, rays):
        dx, dy = s.witness[c][0] - vx, s.witness[c][1] - vy
        big = max(abs(dx), abs(dy))
        angle = atan2(dy / big, dx / big)
        assert abs(x - 160 * cos(angle)) < 0.006 and abs(y - 160 * sin(angle)) < 0.006


def test_witness_view_is_built_on_first_read():
    # the library reads the integer points; the Fraction points are a view
    # for callers, built on first read and kept
    s = build_arrangement(TWELVE_LINES)
    scene_frame(s)
    compile_polygon(s, [[(0, ">"), (3, "<=")]])
    assert eval_scene(s, {"p": frozenset(s.cells[:40])}, s.cells[0],
                      parse("[]<>p -> <>[]p"))
    pencil = concurrent(4)
    concurrent_crown_map(pencil)
    real = realize_crown_model(Model(crown(3), {"p": {1, 2}}), 2,
                               formula=parse("p & <>~p"))
    scene_to_svg(real.scene, real.val)
    loaded, _ = scene_from_dict(scene_to_dict(real.scene, real.val))
    for scene in (s, pencil, real.scene, loaded):
        assert "witness" not in vars(scene)
        witness = scene.witness
        assert scene.witness is witness and list(witness) == list(scene.cells)
        for c, (x, y, d) in scene.points.items():
            assert d > 0 and witness[c] == (Fraction(x, d), Fraction(y, d))
            values = [l.at(witness[c]) for l in scene.lines]
            assert tuple((v > 0) - (v < 0) for v in values) == c


def test_two_line_scene_maps_onto_crown_four():
    # vertex to the root, rays to the even worlds, sectors to the odd ones
    s = build_arrangement([(1, 0, 0), (0, 1, 0)])
    mapping = concurrent_crown_map(s)
    wm = WorldMap(mapping)
    assert is_p_morphism(wm, scene_frame(s), crown(4))
    assert wm.is_onto(crown(4))
    vertex_idx = s.cells.index((0, 0))
    assert mapping[vertex_idx] == 0
    for i, cell in enumerate(s.cells):
        zeros = sum(1 for v in cell if v == 0)
        if zeros == 1:
            assert mapping[i] % 2 == 0 and mapping[i] != 0
        elif zeros == 0:
            assert mapping[i] % 2 == 1


def test_foreign_cell_message_names_the_cell():
    s = build_arrangement([(1, 0, 0), (0, 1, 0)])
    for call in (lambda: eval_scene(s, {}, (1, 1, 1), parse("p")),
                 lambda: eval_scene(s, {"p": [(1, 1), (1, 1, 1)]}, (0, 0),
                                    parse("p")),
                 lambda: scene_closure(s, iter([(1, 1), (1, 1, 1), (2, 0)]))):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == "cell (1, 1, 1) does not belong to the scene"
        # no lookup error shows in a traceback
        assert err.value.__cause__ is None and (
            err.value.__context__ is None or err.value.__suppress_context__)


@pytest.mark.parametrize("coefficient", ["1e200000", "1E-200000", "1e1_000",
                                         "1e0100", "1" * 101, 10 ** 100, 1e-300])
def test_scene_coefficients_are_bounded(coefficient):
    # Fraction expands a decimal exponent in full; an over-long coefficient
    # is refused before it sees one
    started = time.perf_counter()
    with pytest.raises(ValueError) as err:
        scene_from_dict({"lines": [[coefficient, "1", "0"], ["1", "-1", "1"]]})
    assert time.perf_counter() - started < 0.1
    assert str(err.value) == ('"lines" holds a coefficient over 100 characters '
                              'or with an exponent beyond 99')


def test_scene_coefficients_within_the_bound_build():
    for coefficient in ["1e99", "-1E-99", "1e0099", " 2.5e1_0 ", "1" * 100,
                        10 ** 99, 1e99, "3/4"]:
        scene, _ = scene_from_dict({"lines": [[coefficient, "1", "0"],
                                              ["1", "-1", "1"]]})
        assert scene.lines[0] == Line.make(Fraction(coefficient), 1, 0)


def test_line_count_is_checked_before_any_row():
    # 200,000 rows are refused before a Fraction or a Line is built, and a
    # scene over the cap that repeats a line gets the count message too
    rows = [[str(k), "1", "0"] for k in range(200_000)]
    started = time.perf_counter()
    with pytest.raises(ValueError, match="^more than 24 lines$"):
        scene_from_dict({"lines": rows})
    assert time.perf_counter() - started < 0.1
    for lines in ([["1", "0", "0"]] * 25, [[1, 0, k] for k in range(24)] + [[2, 0, 0]]):
        with pytest.raises(ValueError, match="^more than 24 lines$"):
            scene_from_dict({"lines": lines})
        with pytest.raises(ValueError, match="^more than 24 lines$"):
            build_arrangement(lines)
    with pytest.raises(ValueError, match="^duplicate line in arrangement$"):
        scene_from_dict({"lines": [[1, 0, k] for k in range(23)] + [[2, 0, 0]]})


# ---------------------------------------------------------------------------
# Cell sets: masks kept with the frozenset of their cells

def _pencil(draw, size):
    """Lines through one rational point, with distinct directions."""
    x, y = (draw(st.fractions(-3, 3, max_denominator=3)) for _ in range(2))
    return draw(st.lists(
        st.tuples(st.integers(-4, 4), st.integers(-4, 4))
        .filter(lambda d: d != (0, 0))
        .map(lambda d: Line.make(d[0], d[1], -d[0] * x - d[1] * y)),
        min_size=size, max_size=size, unique=True))


@st.composite
def scenes_and_polygons(draw):
    """(lines, polygons): 2 to 6 lines, either tangents to a parabola
    (y = 2tx - t^2, so no two are parallel and no three concurrent),
    lines through one point, or lines with small coefficients (parallel
    and concurrent ones common); and one to three polygon DNFs on them."""
    size = draw(st.integers(2, 6))
    kind = draw(st.sampled_from(["general", "pencil", "small"]))
    if kind == "general":
        ts = draw(st.lists(st.integers(-5, 5), min_size=size, max_size=size,
                           unique=True))
        lines = [Line.make(2 * t, -1, -t * t) for t in ts]
    elif kind == "pencil":
        lines = _pencil(draw, size)
    else:
        lines = draw(st.lists(
            st.tuples(*[st.integers(-3, 3)] * 3).filter(lambda t: t[:2] != (0, 0))
            .map(lambda t: Line.make(*t)), min_size=size, max_size=size, unique=True))
    clause = st.lists(st.tuples(st.integers(0, size - 1),
                                st.sampled_from(["<", "<=", "=", ">=", ">"])),
                      max_size=3)
    polygons = draw(st.dictionaries(st.sampled_from(["p", "q", "r"]),
                                    st.lists(clause, max_size=3), min_size=1))
    return lines, polygons


@settings(max_examples=150, deadline=None)
@given(scenes_and_polygons(), formulas(max_size=8), st.integers(0, 10 ** 6))
def test_cell_sets_read_as_their_frozensets(drawn, phi, pick):
    lines, polygons = drawn
    s = build_arrangement(lines)
    val = {name: compile_polygon(s, dnf) for name, dnf in polygons.items()}
    plain = {name: frozenset(cs) for name, cs in val.items()}
    worlds = {name: frozenset(map(s.index.__getitem__, cs)) for name, cs in val.items()}
    ref = reference_scene_frame(s)
    cell = s.cells[pick % len(s.cells)]
    want = s.index[cell] in reference_truth(ref, worlds, phi)
    assert eval_scene(s, val, cell, phi) == want
    assert eval_scene(s, plain, cell, phi) == want
    for name, cs in val.items():
        other = plain[name]
        assert type(cs) is CellSet and type(other) is frozenset
        assert cs == other and other == cs and hash(cs) == hash(other)
        assert {cs: name}[other] == name and {other, cs} == {other}
        assert len(cs) == len(other) and sorted(cs) == sorted(other)
        assert all((c in cs) == (c in other) for c in s.cells)
        assert cs != other | {("x",)} and type(cs | other) is frozenset
        for op, f in ((scene_closure, "<>p"), (scene_interior, "[]p"),
                      (scene_delta, "<>p & ~p")):
            got = op(s, cs)
            assert type(got) is CellSet and got == op(s, other)
            assert got == {s.cells[i] for i in
                           reference_truth(ref, {"p": worlds[name]}, parse(f))}
    # the same lines, built again, take the cell sets; other lines refuse
    # them, even where each cell's sign vector is also one of theirs
    again = build_arrangement([(l.a, l.b, l.c) for l in lines])
    assert eval_scene(again, val, cell, phi) == want
    assert scene_closure(again, val[name]) == scene_closure(s, val[name])
    last = lines[-1]
    moved = next(m for k in range(1, 9)
                 if (m := Line.make(last.a, last.b, last.c + k)) not in lines)
    elsewhere = build_arrangement([*lines[:-1], moved])
    for call in (lambda: eval_scene(elsewhere, val, elsewhere.cells[0], phi),
                 lambda: scene_interior(elsewhere, val[name])):
        with pytest.raises(ValueError, match="^cell set of a scene with other lines$"):
            call()


def test_eval_scene_looks_up_only_the_query_cell():
    # a cell set's mask is read as it is, on its own scene and on one built
    # again from the same lines; plain frozensets are looked up cell by cell
    looked = []

    class Counting(dict):
        def __getitem__(self, key):
            looked.append(key)
            return super().__getitem__(key)

    s, again = build_arrangement(TWELVE_LINES), build_arrangement(TWELVE_LINES)
    val = {"p": compile_polygon(s, [[(0, ">"), (3, "<=")]]),
           "q": compile_polygon(s, [[(5, "=")], [(1, "<")]])}
    phi = parse("<>p & ~[]q")
    for scene in (s, again):
        vars(scene)["index"] = Counting(scene.index)
        looked.clear()
        answer = eval_scene(scene, val, scene.cells[40], phi)
        assert looked == [scene.cells[40]]
    looked.clear()
    assert eval_scene(s, {name: frozenset(cs) for name, cs in val.items()},
                      s.cells[40], phi) == answer
    assert len(looked) == 1 + len(val["p"]) + len(val["q"])


def test_realized_and_loaded_valuations_are_cell_sets():
    model = Model(crown(3), {"p": {1, 2}, "q": set()})
    real = realize_crown_model(model, 2)
    assert all(type(cs) is CellSet for cs in real.val.values())
    assert real.val["q"] == frozenset()
    scene, val = scene_from_dict(scene_to_dict(real.scene, real.val))
    assert val == real.val and all(type(cs) is CellSet for cs in val.values())
    # copies and pickles are plain frozensets of the same cells
    assert copy.deepcopy(real) == real
    assert pickle.loads(pickle.dumps(real.val)) == real.val
    for f in ("p & <>~p", "[]p", "<>q", "<>(p & []~q)"):
        assert eval_scene(scene, real.val, real.cell, parse(f)) == \
            eval_formula(model, 2, parse(f))
