"""Exact-rational line arrangements as finite stand-ins for the plane with
polygonal valuations.

Cells are the maximal regions of constant sign against every line of a
scene, encoded as sign vectors with stored rational witness points.  The
specialization order of the cells (a cell sees the cells it is a limit of
touching) is a finite reflexive-transitive frame, which is how formulas get
evaluated topologically.  Scenes of concurrent lines realize crown models
geometrically.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key
from math import gcd, isfinite, lcm
from typing import Iterable, Optional, Sequence

from .crown import crown
from .errors import VerificationError
from .formula import Formula, compile
from .kripke import (Frame, Model, WorldMap, _closure, _evaluate, _interior,
                     _ints, _mask_worlds, _onto_p_morphism, _rows,
                     _worlds_mask, eval_formula)

Point = tuple[Fraction, Fraction]
IntPoint = tuple[int, int, int]
SignVector = tuple[int, ...]


@dataclass(frozen=True)
class Line:
    """Locus a*x + b*y + c = 0 with integer coefficients, content 1, and the
    first nonzero of (a, b) positive, so equal lines compare equal."""

    a: Fraction
    b: Fraction
    c: Fraction

    @classmethod
    def make(cls, a, b, c) -> "Line":
        """The line of the coefficients: ints and Fractions are read by their
        numerator and denominator, anything else goes through `Fraction`."""
        terms = [v if hasattr(v, "denominator") else Fraction(v) for v in (a, b, c)]
        if terms[0] == 0 and terms[1] == 0:
            raise ValueError("degenerate line: a = b = 0")
        mult = lcm(*(v.denominator for v in terms))
        ai, bi, ci = (v.numerator * (mult // v.denominator) for v in terms)
        g = gcd(ai, bi, ci)
        if (ai or bi) < 0:
            g = -g
        return cls(Fraction(ai // g), Fraction(bi // g), Fraction(ci // g))

    def at(self, p: Point) -> Fraction:
        return self.a * p[0] + self.b * p[1] + self.c

    @cached_property
    def row(self) -> tuple[int, int, int]:
        """(a, b, c) as ints, for exact sign tests in integers."""
        return (self.a.numerator, self.b.numerator, self.c.numerator)

    def sign_at(self, p: Point) -> int:
        """Sign of a*x + b*y + c at p: the value times the positive
        denominators of x and y, in integers."""
        a, b, c = self.row
        (xn, xd), (yn, yd) = ((v.numerator, v.denominator) for v in p)
        v = a * xn * yd + b * yn * xd + c * xd * yd
        return (v > 0) - (v < 0)


# ---------------------------------------------------------------------------
# Scenes

@dataclass(frozen=True)
class Scene:
    """Arrangement of distinct lines; cells are exactly the realizable sign
    vectors, each with a rational witness attaining it, stored in `points`
    as integers (X, Y, D) with D > 0 for the point (X/D, Y/D).

    The witnesses as Fraction points (`witness`), the specialization frame
    (`frame`), the cell -> index map (`index`), the lines' integer rows
    (`rows`) and the sign masks the frame and polygons are built from
    (`sign_masks`) are built on first use and kept with the scene, so every
    query on one scene reads the same ones."""

    lines: tuple[Line, ...]
    cells: tuple[SignVector, ...]
    points: dict[SignVector, IntPoint]

    @cached_property
    def witness(self) -> dict[SignVector, Point]:
        """Each cell's witness point in Fractions, for callers; the library
        reads `points`."""
        out = {}
        for c in self.cells:
            x, y, d = self.points[c]
            out[c] = (Fraction(x, d), Fraction(y, d))
        return out

    @cached_property
    def frame(self) -> Frame:
        return scene_frame(self)

    @cached_property
    def index(self) -> dict[SignVector, int]:
        return {c: i for i, c in enumerate(self.cells)}

    @cached_property
    def rows(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(l.row for l in self.lines)

    @cached_property
    def sign_masks(self) -> list[list[int]]:
        """Per line, the cells below, on and above it, by sign + 1."""
        masks = [[0, 0, 0] for _ in self.lines]
        for k, cell in enumerate(self.cells):
            for i, s in enumerate(cell):
                masks[i][s + 1] |= 1 << k
        return masks

    def signs_of(self, p: Point) -> SignVector:
        return tuple(l.sign_at(p) for l in self.lines)


class CellSet(frozenset):
    """The frozenset of some cells' sign vectors, which keeps their mask of
    cell indices and its scene's `rows`: equal rows make equal cells in equal
    order, so any scene with these rows reads the mask.  Set operations,
    copies and pickles give plain frozensets."""

    __slots__ = ("mask", "rows")

    def __new__(cls, scene: Scene, mask: int) -> "CellSet":
        self = super().__new__(cls, map(scene.cells.__getitem__, _mask_worlds(mask)))
        self.mask, self.rows = mask, scene.rows
        return self

    def __reduce__(self):
        return (frozenset, (tuple(self),))


MAX_LINES = 24


def build_arrangement(lines: Sequence) -> Scene:
    """Scene of the given lines.  One walk along each line (`_walk`) gives
    the cells and a witness point for each; every witness is re-checked
    against every line, on the integer rows, before it is stored."""
    if len(lines) > MAX_LINES:
        raise ValueError(f"more than {MAX_LINES} lines")
    norm = tuple(l if isinstance(l, Line) else Line.make(*l) for l in lines)
    if len(set(norm)) != len(norm):
        raise ValueError("duplicate line in arrangement")
    rows = [l.row for l in norm]
    points = _walk(rows)
    cells = tuple(sorted(points))
    for cell in cells:
        x, y, d = points[cell]
        if tuple([((v := a * x + b * y + c * d) > 0) - (v < 0)
                  for a, b, c in rows]) != cell:
            raise VerificationError(f"witness {(Fraction(x, d), Fraction(y, d))} "
                                    f"does not attain cell {cell}")
    return Scene(norm, cells, points)


def _walk(rows: list[tuple[int, int, int]]) -> dict[SignVector, IntPoint]:
    """Every cell of the lines with integer rows `rows`, mapped to a witness
    (X, Y, D) with D > 0 that stands for the point (X/D, Y/D).

    Line i = (a, b, c) is walked from a point p0 on it in the direction
    (-b, a); each crossing zeroes the lines through it, and beyond it their
    signs are fixed.  Every vertex is a crossing, and its witness is the
    crossing point.  Every edge holds the midpoint of two consecutive
    crossings of its line, or the point one step past the first or the last
    one, or p0 on a line that crosses nothing.  Every face has an edge on its
    boundary (see `_add_edge`).  A point is built only for a cell not seen
    yet.  The arithmetic is in integers throughout."""
    if not rows:
        return {(): (0, 0, 1)}
    out: dict[SignVector, IntPoint] = {}
    for i, (a, b, c) in enumerate(rows):
        d0 = b or a
        x0, y0 = (0, -c) if b else (-c, 0)
        if d0 < 0:
            x0, y0, d0 = -x0, -y0, -d0
        # line j has the value (w + t*d0*k) / d0 at p0 + t*(-b, a)
        signs = [0] * len(rows)
        crossers = []
        for j, (aj, bj, cj) in enumerate(rows):
            if j != i:
                k = a * bj - aj * b
                w = aj * x0 + bj * y0 + cj * d0
                if k:
                    signs[j] = -1 if k > 0 else 1
                    crossers.append((j, k, w))
                else:
                    signs[j] = (w > 0) - (w < 0)
        # line j crosses at t = -w / (d0*k); times d0*m, for m the least
        # common multiple of the |k|, that is the integer -w*m/k
        m = lcm(*(abs(k) for _, k, _ in crossers))
        crossings: dict[int, tuple[tuple[int, int, int], list]] = {}
        for j, k, w in crossers:
            t = -w * (m // k)
            if t not in crossings:
                aj, bj, cj = rows[j]
                x, y = b * cj - bj * c, aj * c - a * cj
                crossings[t] = ((x, y, k) if k > 0 else (-x, -y, -k), [])
            crossings[t][1].append((j, 1 if k > 0 else -1))
        stops = [crossings[t] for t in sorted(crossings)]
        vertices = [p for p, _ in stops]
        if vertices:
            (x, y, d), (u, v, e) = vertices[0], vertices[-1]
            edges = [(x + b * d, y - a * d, d), *map(_midpoint, vertices, vertices[1:]),
                     (u - b * e, v + a * e, e)]
        else:
            edges = [(x0, y0, d0)]
        for (vertex, through), q in zip(stops, edges):
            _add_edge(out, rows, signs, i, q)
            for j, _ in through:
                signs[j] = 0
            out.setdefault(tuple(signs), vertex)
            for j, sk in through:
                signs[j] = sk
        _add_edge(out, rows, signs, i, edges[-1])
    return out


def _midpoint(p: IntPoint, q: IntPoint) -> IntPoint:
    (x, y, d), (u, v, e) = p, q
    return (x * e + u * d, y * e + v * d, 2 * d * e)


def _add_edge(out: dict, rows: list[tuple[int, int, int]], signs: list[int],
              i: int, q: IntPoint) -> None:
    """Add the edge of line i through q, with these signs elsewhere, and the
    two faces beside it.  Moving q = (X, Y, D) by e*(a, b), the normal of
    line i, changes line j's value by e*(a*aj + b*bj) from wj/D, where wj is
    aj*X + bj*Y + cj*D; so for e = half the least |wj| / (D*|a*aj + b*bj|)
    over the other lines, capped at 1, q - e*(a, b) and q + e*(a, b) keep
    every sign but line i's."""
    signs[i] = 0
    out[tuple(signs)] = q
    signs[i] = -1
    below = tuple(signs)
    signs[i] = 1
    above = tuple(signs)
    signs[i] = 0
    if below in out and above in out:
        return
    x, y, d = q
    a, b, _ = rows[i]
    en, ed = 1, 1
    for j, (aj, bj, cj) in enumerate(rows):
        g = abs(a * aj + b * bj)
        if j != i and g:
            w = abs(aj * x + bj * y + cj * d)
            if w * ed < 2 * d * g * en:
                en, ed = w, 2 * d * g
    x, y, dx, dy, d = x * ed, y * ed, en * a * d, en * b * d, d * ed
    if below not in out:
        out[below] = (x - dx, y - dy, d)
    if above not in out:
        out[above] = (x + dx, y + dy, d)


def scene_frame(scene: Scene) -> Frame:
    """Specialization order of the cells: a cell sees the cells whose
    closure it lies in, i.e. it agrees with them wherever it is off the
    lines.  So a cell's row is the AND of its sign masks (`sign_masks`)
    over the lines it is off.  The rows are already reflexive and
    transitive, which `Frame.from_rows` checks, and a root is a cell that
    sees every cell."""
    full = (1 << len(scene.cells)) - 1
    masks = scene.sign_masks
    rows = []
    for cell in scene.cells:
        row = full
        for i, s in enumerate(cell):
            if s:
                row &= masks[i][s + 1]
        rows.append(row)
    return Frame.from_rows(rows, root=rows.index(full) if full in rows else None)


_REL_SIGNS = {"<": {-1}, "<=": {-1, 0}, "=": {0}, ">=": {0, 1}, ">": {1}}


def compile_polygon(scene: Scene, dnf: Iterable[Iterable[tuple[int, str]]]
                    ) -> CellSet:
    """Cells of the polygon described by a disjunction of conjunctions of
    (line index, relation) constraints: a constraint holds on the (disjoint)
    sign masks its relation allows, read from the scene's `sign_masks`."""
    clauses = [list(cl) for cl in dnf]
    for clause in clauses:
        for i, rel in clause:
            if not 0 <= i < len(scene.lines):
                raise ValueError(f"line index {i} out of range")
            if rel not in _REL_SIGNS:
                raise ValueError(f"unknown relation {rel!r}")
    masks = scene.sign_masks
    got = 0
    for clause in clauses:
        m = (1 << len(scene.cells)) - 1
        for i, rel in clause:
            m &= sum(masks[i][s + 1] for s in _REL_SIGNS[rel])
        got |= m
    return CellSet(scene, got)


def cells_to_dnf(scene: Scene, cells: Iterable[SignVector]) -> list[list[tuple[int, str]]]:
    """Each cell as the conjunction of its own sign constraints."""
    sign_rel = {-1: "<", 0: "=", 1: ">"}
    return [[(i, sign_rel[s]) for i, s in enumerate(cell)]
            for cell in sorted(cells)]


def _cell_ids(scene: Scene, cells: Iterable[SignVector]) -> list[int]:
    """Indices of the cells in the scene; a cell of another scene is a
    ValueError."""
    try:
        return list(map(scene.index.__getitem__, cells))
    except KeyError as e:
        raise ValueError(f"cell {e.args[0]} does not belong to the scene") from None


def _cell_mask(scene: Scene, cells: Iterable[SignVector]) -> int:
    """Bitmask of the cells' indices: a CellSet's own, refused if its scene
    has other lines; any other iterable is looked up cell by cell."""
    if isinstance(cells, CellSet):
        if cells.rows != scene.rows:
            raise ValueError("cell set of a scene with other lines")
        return cells.mask
    return _worlds_mask(_cell_ids(scene, cells))


def eval_scene(scene: Scene, val: dict[str, Iterable[SignVector]],
               cell: SignVector, phi: Formula) -> bool:
    """Topological truth at any point of the cell, for the cell-constant
    valuation, on the specialization frame.

    Each entry of `val` becomes one bitmask of cell indices (`_cell_mask`),
    so a cell of another scene is a ValueError under any name, used by phi
    or not.  The masks of phi's variables, in its compiled program's order
    and empty for names `val` lacks, are evaluated once by `_evaluate`."""
    [world] = _cell_ids(scene, [cell])
    masks = {name: _cell_mask(scene, cs) for name, cs in val.items()}
    prog = compile(phi)
    columns = [masks.get(name, 0) for name in prog.names]
    return bool(_evaluate(scene.frame, prog, columns)[prog.root] >> world & 1)


def scene_closure(scene: Scene, cells: Iterable[SignVector]) -> CellSet:
    return CellSet(scene, _closure(scene.frame.rows, _cell_mask(scene, cells)))


def scene_interior(scene: Scene, cells: Iterable[SignVector]) -> CellSet:
    return CellSet(scene, _interior(scene.frame.rows, _cell_mask(scene, cells)))


def scene_delta(scene: Scene, cells: Iterable[SignVector]) -> CellSet:
    m = _cell_mask(scene, cells)
    return CellSet(scene, _closure(scene.frame.rows, m) & ~m)


# ---------------------------------------------------------------------------
# Realizing crown models as concurrent-line scenes

def _angle_order(u: tuple[int, int], v: tuple[int, int]) -> int:
    """Compare two nonzero integer directions by their angles
    counterclockwise from the positive x-axis, exactly: by half-plane
    (angles [0, pi), then [pi, 2*pi)), and within one half by the sign of
    the cross product, positive when v lies counterclockwise of u."""
    hu, hv = u[1] < 0 or u[1] == 0 and u[0] < 0, v[1] < 0 or v[1] == 0 and v[0] < 0
    if hu != hv:
        return hu - hv
    cross = u[0] * v[1] - u[1] * v[0]
    return (cross < 0) - (cross > 0)


def _around(scene: Scene) -> tuple[SignVector, list[SignVector],
                                   dict[SignVector, tuple[int, int]]]:
    """The vertex of a scene of L >= 2 concurrent lines, its 2L rays and
    2L sectors in counterclockwise order from the positive x-axis, and the
    direction from the vertex's witness to each of their witnesses, in
    integers: from (vx, vy, vd) to (wx, wy, wd) it is
    (wx*vd - vx*wd, wy*vd - vy*wd), vd*wd > 0 times the direction between
    the points.  A scene of another shape is a ValueError."""
    L = len(scene.lines)
    vertex = [c for c in scene.cells if all(s == 0 for s in c)]
    rays = [c for c in scene.cells if c.count(0) == 1]
    sectors = [c for c in scene.cells if 0 not in c]
    if not (len(vertex) == 1 and len(rays) == 2 * L and len(sectors) == 2 * L):
        raise ValueError("scene is not a concurrent-line arrangement")
    points = scene.points
    vx, vy, vd = points[vertex[0]]
    direction = {}
    for c in rays + sectors:
        wx, wy, wd = points[c]
        direction[c] = (wx * vd - vx * wd, wy * vd - vy * wd)
    order = cmp_to_key(_angle_order)
    around = sorted(rays + sectors, key=lambda c: order(direction[c]))
    if any((0 in c) == (0 in around[i - 1]) for i, c in enumerate(around)):
        raise VerificationError("rays and sectors do not alternate around the vertex")
    return vertex[0], around, direction


def concurrent_crown_map(scene: Scene) -> dict[int, int]:
    """For a scene of L >= 2 concurrent lines: the isomorphism from cell
    indices onto crown(2L), sending the vertex to the root, rays to the
    even worlds in angular order, and sectors to the odd worlds between
    them."""
    vertex, around, _ = _around(scene)
    m = len(around)
    p = next(i for i, c in enumerate(around) if 0 in c)  # first ray
    index = scene.index
    out = {index[vertex]: 0}
    for j in range(m):
        out[index[around[(p + j) % m]]] = 2 + j if j < m - 1 else 1
    # the map is one-to-one onto the worlds, so as an onto p-morphism it is
    # an isomorphism
    _onto_p_morphism(out, scene.frame, crown(m // 2), f"cell map onto crown({m // 2})")
    return out


def wrap_map(big: int, small: int) -> WorldMap:
    """The p-morphism crown(big) -> crown(small) wrapping the cycle, valid
    when the small cycle length divides the big one."""
    source, target = crown(big), crown(small)  # each refuses a parameter < 1
    if (2 * big) % (2 * small) != 0:
        raise ValueError("cycle lengths incompatible")
    mapping = {0: 0}
    for i in range(1, 2 * big + 1):
        mapping[i] = (i - 1) % (2 * small) + 1
    return _onto_p_morphism(mapping, source, target,
                            f"wrap crown({big}) -> crown({small})")


@dataclass(frozen=True)
class Realization:
    """A crown model realized in the plane: scene, pulled-back valuation,
    distinguished cell, and the composite cell -> crown world map."""

    scene: Scene
    val: dict[str, CellSet]
    cell: SignVector
    cell_world: dict[int, int]


def realize_crown_model(model: Model, witness: int,
                        formula: Optional[Formula] = None) -> Realization:
    """Realize a crown model as a scene of concurrent rational lines through
    the origin, with the valuation pulled back along the composite
    cells -> crown(2L) -> crown(m) map.  L lines give crown(2L), so an even
    m takes m/2 lines and the wrap is the identity; an odd m takes m lines
    (at least 2).

    Truth of any formula at the distinguished cell then equals truth at the
    witness world; when `formula` is given this is verified directly.
    """
    m = (model.frame.n - 1) // 2
    if m < 1 or model.frame != crown(m):
        raise ValueError("model frame is not a crown")
    if not 0 <= witness < model.frame.n:
        raise ValueError("witness world out of range")
    L = max(2, m // 2 if m % 2 == 0 else m)
    lines = [Line.make(-k, 1, 0) for k in range(L)]
    scene = build_arrangement(lines)
    iso = concurrent_crown_map(scene)
    wrap = wrap_map(2 * L, m)
    composite = {ci: wrap[w] for ci, w in iso.items()}
    val = {name: CellSet(scene, sum(1 << ci for ci, w in composite.items()
                                    if m >> w & 1))
           for name, m in model.masks.items()}
    if witness == 0:
        cell_idx = next(ci for ci, w in iso.items() if w == 0)
    else:
        cell_idx = min(ci for ci, w in composite.items() if w == witness)
    cell = scene.cells[cell_idx]
    if formula is not None and (eval_scene(scene, val, cell, formula)
                                != eval_formula(model, witness, formula)):
        raise VerificationError("realized cell and witness world disagree on the formula")
    return Realization(scene, val, cell, composite)


# ---------------------------------------------------------------------------
# Interchange and figure output

def scene_to_dict(scene: Scene, val: Optional[dict[str, CellSet]] = None) -> dict:
    d = {"lines": [[str(l.a), str(l.b), str(l.c)] for l in scene.lines]}
    if val is not None:
        d["val"] = {name: {"dnf": [[[i, rel] for i, rel in clause]
                                   for clause in cells_to_dnf(scene, cs)]}
                    for name, cs in sorted(val.items())}
    return d


def _coefficients(field: str, values: Iterable) -> None:
    """A ValueError naming the field if a value is a JSON boolean, which
    would read as 0 or 1, a number that is not finite, which no rational
    equals (a JSON 1e400 reads as inf), or one written in over 100
    characters or with an exponent beyond 99, which `Fraction` expands."""
    for v in values:
        if isinstance(v, bool) or isinstance(v, float) and not isfinite(v):
            shown = "a boolean" if isinstance(v, bool) else repr(v)
            raise ValueError(f'"{field}" holds {shown} where a finite number '
                             f'is needed')
        if len(str(v)) > 100 or re.search(r"e[-+]?0*(?!0)\d{3}",
                                           str(v).replace("_", ""), re.I):
            raise ValueError(f'"{field}" holds a coefficient over 100 '
                             f'characters or with an exponent beyond 99')


def scene_from_dict(d: dict) -> tuple[Scene, dict[str, CellSet]]:
    # the count first, before any row is read; it wins over a duplicate
    if len(d["lines"]) > MAX_LINES:
        raise ValueError(f"more than {MAX_LINES} lines")
    _rows("lines", d["lines"], 3, "a row of three coefficients")
    _coefficients("lines", [v for row in d["lines"] for v in row])
    lines = [Line.make(a, b, c) for a, b, c in d["lines"]]
    scene = build_arrangement(lines)
    val = {}
    for name, entry in d.get("val", {}).items():
        dnf = entry["dnf"]
        _rows(f"val.{name}.dnf", [lit for clause in dnf for lit in clause], 2,
              "an [index, relation] pair")
        _ints(f"val.{name}.dnf", [i for clause in dnf for i, _ in clause])
        val[name] = compile_polygon(scene, dnf)
    return scene, val


_PALETTE = ["#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#b07aa1",
            "#76b7b2", "#edc948", "#ff9da7", "#9c755f", "#bab0ac"]


def scene_to_svg(scene: Scene, val: dict[str, CellSet]) -> str:
    """Plain SVG figure of a concurrent-line scene: sectors and rays
    coloured by the set of atoms true on them."""
    radius = 160
    vertex, around, direction = _around(scene)
    names = sorted(val)
    key_of = {}
    for c in scene.cells:
        key_of[c] = tuple(name for name in names if c in val[name])
    combos = sorted(set(key_of.values()))
    color = {k: _PALETTE[i % len(_PALETTE)] for i, k in enumerate(combos)}

    def unit(c):
        # the direction over its larger coordinate: a correctly rounded int
        # division that stays in [-1, 1] however long the integers are
        dx, dy = direction[c]
        big = max(abs(dx), abs(dy))
        ux, uy = dx / big, dy / big
        norm = (ux ** 2 + uy ** 2) ** 0.5
        return (ux / norm * radius, uy / norm * radius)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{-radius-10} '
             f'{-radius-10} {2*radius+20} {2*radius+20}">',
             '<g transform="scale(1,-1)">']
    k = len(around)
    for i, c in enumerate(around):
        if 0 not in c:  # a sector
            x1, y1 = unit(around[(i - 1) % k])
            x2, y2 = unit(around[(i + 1) % k])
            parts.append(
                f'<path d="M 0 0 L {x1:.2f} {y1:.2f} A {radius} {radius} 0 0 1 '
                f'{x2:.2f} {y2:.2f} Z" fill="{color[key_of[c]]}" '
                f'fill-opacity="0.6" stroke="none"/>')
    for c in around:
        if 0 in c:  # a ray
            x, y = unit(c)
            parts.append(f'<line x1="0" y1="0" x2="{x:.2f}" y2="{y:.2f}" '
                         f'stroke="{color[key_of[c]]}" stroke-width="3"/>')
    parts.append(f'<circle cx="0" cy="0" r="4" fill="{color[key_of[vertex]]}" '
                 f'stroke="black" stroke-width="0.5"/>')
    parts.append('</g>')
    legend_y = -radius - 8
    for i, kk in enumerate(combos):
        # XML-escaped by hand: xml.sax.saxutils would load urllib on import
        label = ("{" + ",".join(kk) + "}").replace("&", "&amp;").replace(
            "<", "&lt;").replace(">", "&gt;")
        parts.append(f'<rect x="{-radius-8}" y="{legend_y + 12*i}" width="10" '
                     f'height="10" fill="{color[kk]}"/>')
        parts.append(f'<text x="{-radius+6}" y="{legend_y + 12*i + 9}" '
                     f'font-size="9">{label}</text>')
    parts.append('</svg>')
    return "\n".join(parts)
