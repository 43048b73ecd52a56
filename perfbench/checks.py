"""Answer checks.  They run untimed and raise WrongAnswer instead of using
`assert`, so they also run under `python -O`."""

from __future__ import annotations

from importlib import import_module

# import_module: the package re-exports the function crown() under the
# name of its submodule
A = import_module("polyplane.axioms")
C = import_module("polyplane.crown")
F = import_module("polyplane.formula")
G = import_module("polyplane.geometry")
K = import_module("polyplane.kripke")


class WrongAnswer(Exception):
    """A library answer that an independent check rejects."""


def sat_agrees(theta, res, orc) -> None:
    """The mosaic verdict agrees with the crown oracle's."""
    if res.sat != (orc is not None):
        raise WrongAnswer(f"decide_sat says {'SAT' if res.sat else 'UNSAT'}, "
                          f"crown_sat_oracle says {'SAT' if orc else 'UNSAT'}")


def oracle_for(theta, res, max_n: int):
    """Oracle answer to compare with a decide_sat result: up to the
    solver's own crown when SAT (a smaller one must exist or that one),
    up to max_n when UNSAT."""
    return C.crown_sat_oracle(theta, res.n if res.sat else max_n)


def model_holds(res, theta) -> None:
    if res.sat and not K.eval_formula(res.model, res.world, theta):
        raise WrongAnswer("SAT model is false at its witness world")


def oracle_model_holds(orc, theta) -> None:
    if not K.eval_formula(orc.model, orc.world, theta):
        raise WrongAnswer("oracle model is false at its witness world")


def is_negation_tower(f, depth: int, name: str) -> None:
    for _ in range(depth):
        if not isinstance(f, F.Not):
            raise WrongAnswer("deep negation parsed to the wrong shape")
        f = f.sub
    if f != F.Var(name):
        raise WrongAnswer("deep negation parsed to the wrong atom")


def verdict_ok(frame, verdict, known) -> None:
    """A refutation carries an onto p-morphism witness; frames with at most
    5 worlds agree with exhaustive validity of axioms (I) and (II); `known`
    is a verdict fixed in advance."""
    rooted = frame.rooted()
    if not verdict.validates:
        target = {ff.id: ff.frame for ff in A.forbidden_frames()}.get(verdict.refuted_id)
        wm = verdict.witness
        if (target is None or wm is None or not K.is_p_morphism(wm, rooted, target)
                or not wm.is_onto(target)):
            raise WrongAnswer(f"refutation by {verdict.refuted_id} has a bad witness")
    if known is not None and verdict.validates != known:
        raise WrongAnswer(f"classify_frame says validates={verdict.validates}, "
                          f"known {known}")
    if frame.n <= 5:
        by_axioms = (K.valid_on_frame(rooted, A.axiom_I()).valid
                     and K.valid_on_frame(rooted, A.axiom_II()).valid)
        if by_axioms != verdict.validates:
            raise WrongAnswer(f"classify_frame says validates={verdict.validates}, "
                              f"exhaustive axiom validity says {by_axioms}")


def reduction_ok(frame, red) -> None:
    src = C.crown(red.n)
    wm = red.world_map
    if wm.domain != frozenset(range(src.n)):
        raise WrongAnswer("reduction map is not total on the crown")
    if not K.is_p_morphism(wm, src, frame.rooted()):
        raise WrongAnswer("reduction map is not a p-morphism")
    if not wm.is_onto(frame):
        raise WrongAnswer("reduction map is not onto")


def crown_validates(rep, exhaustive: bool) -> None:
    if not rep.valid:
        raise WrongAnswer(f"axiom refuted on a crown: {rep.counterexample}")
    if rep.exhaustive != exhaustive:
        raise WrongAnswer("validity report has the wrong mode")


def _sign(line, point) -> int:
    v = line.a * point[0] + line.b * point[1] + line.c
    return (v > 0) - (v < 0)


def witnesses_ok(scene) -> None:
    """Every cell's stored witness point lies in that cell."""
    for cell in scene.cells:
        p = scene.witness[cell]
        if tuple(_sign(l, p) for l in scene.lines) != cell:
            raise WrongAnswer(f"witness {p} does not reproduce cell {cell}")


class SceneReference:
    """Independent topological evaluator on a scene's cells: a cell sees
    another when it agrees with it wherever it is off the lines."""

    def __init__(self, scene):
        self.index = {c: i for i, c in enumerate(scene.cells)}
        self.full = (1 << len(scene.cells)) - 1
        self.sees = []
        for s in scene.cells:
            m = 0
            for j, t in enumerate(scene.cells):
                if all(a == 0 or a == b for a, b in zip(s, t)):
                    m |= 1 << j
            self.sees.append(m)

    def truth(self, val, phi, cell) -> bool:
        atoms = {}
        for name, cells in val.items():
            m = 0
            for c in cells:
                m |= 1 << self.index[c]
            atoms[name] = m
        return bool(self._mask(phi, atoms) >> self.index[cell] & 1)

    def _mask(self, f, atoms) -> int:
        if isinstance(f, F.Var):
            return atoms.get(f.name, 0)
        if isinstance(f, F.Bottom):
            return 0
        if isinstance(f, F.Not):
            return self.full & ~self._mask(f.sub, atoms)
        if isinstance(f, (F.Diamond, F.Box)):
            s = self._mask(f.sub, atoms)
            out = 0
            for i, row in enumerate(self.sees):
                if (row & s if isinstance(f, F.Diamond) else row & ~s == 0):
                    out |= 1 << i
            return out
        a, b = self._mask(f.left, atoms), self._mask(f.right, atoms)
        if isinstance(f, F.And):
            return a & b
        if isinstance(f, F.Or):
            return a | b
        if isinstance(f, F.Implies):
            return (self.full & ~a) | b
        return self.full & ~(a ^ b)


def realization_ok(model, witness, real, formulas) -> None:
    """Truth at the realized cell equals truth at the witness world."""
    witnesses_ok(real.scene)
    for f in formulas:
        if (G.eval_scene(real.scene, real.val, real.cell, f)
                != K.eval_formula(model, witness, f)):
            raise WrongAnswer(f"realization disagrees on {F.pretty(f)}")
