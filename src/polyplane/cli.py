"""Command-line front end.

Exit codes: 0 success / SAT / validates; 1 UNSAT / invalid / disagreement;
2 usage or syntax errors, a formula ("error: formula nested too deeply") or
an input file nested too deeply to process, an input too large for the
available memory ("error: out of memory"), or an answer that failed its
own re-check ("internal error: ..."); 3 a frame is refuted; 4 a search
budget ran out.  Every error is one line on stderr, never a traceback.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from math import ceil, log2
from typing import Callable, Optional

from . import axioms as ax
from . import geometry as geo
from . import kripke as kr
from . import mosaic as mo
from .crown import crown_sat_oracle, reduce_to_crown
from .errors import BudgetExceededError, VerificationError
from .formula import (And, Bottom, Box, Diamond, Formula, Iff, Implies, Not,
                      Or, ParseError, Var, parse, pretty)


def _load(path: str, convert: Callable):
    """convert applied to the JSON read from path; data nested too deeply
    or of the wrong shape for it is a ValueError naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return convert(json.load(fh))
    except RecursionError:
        raise ValueError(f"input in {path} nested too deeply") from None
    except (TypeError, AttributeError, ZeroDivisionError) as e:
        raise ValueError(f"malformed input in {path}: {e}") from None


def _dump_json(data: dict) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _write_model(path: Optional[str], model: kr.Model) -> None:
    """Write the model as one line of JSON to path, when one is given."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_dump_json(kr.model_to_dict(model)) + "\n")


def _cmd_sat(args) -> int:
    theta = parse(args.formula)
    if args.oracle is not None:
        got = crown_sat_oracle(theta, args.oracle)
        if got is None:
            print(f"UNSAT (oracle, crowns up to {args.oracle})")
            return 1
        _write_model(args.model_out, got.model)
        print(f"SAT on crown({got.n}) at world {got.world} (oracle)")
        return 0
    res = mo.decide_sat(theta)
    if res.sat:
        _write_model(args.model_out, res.model)
        print(f"SAT on crown({res.n}) at world {res.world}")
        if args.trace:
            space = mo.LabelSpace.for_formula(theta)
            if space.searched is not theta:
                print("searched", pretty(space.searched), file=sys.stderr)
            for t in res.mosaics:
                row = [sorted(map(pretty, space.label_formulas(lab)))
                       for lab in t]
                print("mosaic", json.dumps(row), file=sys.stderr)
        return 0
    print("UNSAT")
    return 1


def _cmd_valid(args) -> int:
    theta = parse(args.formula)
    res = mo.decide_sat(Not(theta))
    if res.sat:
        _write_model(args.model_out, res.model)
        print(f"invalid: countermodel on crown({res.n}) at world {res.world}")
        return 1
    print("valid")
    return 0


def _cmd_classify(args) -> int:
    frame = _load(args.frame, kr.frame_from_dict)
    verdict = ax.classify_frame(frame)
    if verdict.validates:
        print("validates")
        return 0
    print(f"refutes {verdict.refuted_id}; witness "
          f"{_dump_json({str(k): v for k, v in sorted(verdict.witness.mapping.items())})}")
    return 3


def _cmd_reduce(args) -> int:
    frame = _load(args.frame, kr.frame_from_dict)
    red = reduce_to_crown(frame)
    out = {"n": red.n,
           "map": {str(k): v for k, v in sorted(red.world_map.mapping.items())}}
    if red.embedded:
        out["embedding"] = {str(k): v for k, v in sorted(red.embedding.items())}
    print(_dump_json(out))
    return 0


def _cmd_jankov(args) -> int:
    frame = _load(args.frame, kr.frame_from_dict).rooted()
    print(pretty(kr.jankov_fine(frame)))
    return 0


def _cmd_eval_scene(args) -> int:
    scene, val = _load(args.scene, geo.scene_from_dict)
    signs = {"+": 1, "0": 0, "-": -1}
    # argparse drops a value of exactly "--", taken as the end of options
    text = "--" if args.cell == [] else args.cell
    if any(ch not in signs for ch in text):
        raise ValueError("--cell takes one of the characters +, 0, - per line")
    cell = tuple(signs[ch] for ch in text)
    if len(cell) != len(scene.lines):
        raise ValueError("cell signature length does not match the line count")
    ok = geo.eval_scene(scene, val, cell, parse(args.formula))
    print("true" if ok else "false")
    return 0 if ok else 1


def _cmd_realize(args) -> int:
    model = _load(args.model, kr.model_from_dict)
    witness = args.world
    real = geo.realize_crown_model(model, witness)
    out = geo.scene_to_dict(real.scene, real.val)
    out["cell"] = "".join({1: "+", 0: "0", -1: "-"}[s] for s in real.cell)
    # the figure first: a failed write must leave no answer on stdout
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(geo.scene_to_svg(real.scene, real.val) + "\n")
    print(_dump_json(out))
    return 0


def _cmd_axioms(_args) -> int:
    print("(I) ", pretty(ax.axiom_I()))
    print("(II)", pretty(ax.axiom_II()))
    print("xi  ", pretty(ax.xi()))
    return 0


def _random_formula(rng: random.Random, size: int, names: list[str]) -> Formula:
    if size <= 1:
        leaves = [Var(n) for n in names] + [Bottom()]
        return rng.choice(leaves)
    if size == 2 or rng.random() < 0.4:
        op = rng.choice([Not, Box, Diamond])
        return op(_random_formula(rng, size - 1, names))
    split = rng.randint(1, size - 2)
    op = rng.choice([And, Or, Implies, Iff])
    return op(_random_formula(rng, split, names),
              _random_formula(rng, size - 1 - split, names))


def _cmd_fuzz(args) -> int:
    if args.max_size < 1:
        raise ValueError("formula size bound must be >= 1")
    if args.count < 0:
        raise ValueError("formula count must be >= 0")
    if args.max_crown < 1:
        raise ValueError("crown bound must be >= 1")
    rng = random.Random(args.seed)
    print(f"seed {args.seed}", file=sys.stderr)
    names = ["p", "q", "r"]
    bad = 0
    for i in range(args.count):
        f = _random_formula(rng, rng.randint(1, args.max_size), names)
        res = mo.decide_sat(f)
        got = crown_sat_oracle(f, args.max_crown)
        if res.sat != (got is not None):
            bad += 1
            print(f"disagreement on {pretty(f)}: solver "
                  f"{'SAT' if res.sat else 'UNSAT'}, oracle "
                  f"{'SAT' if got else 'UNSAT'}", file=sys.stderr)
            continue
        if res.sat and not kr.eval_formula(res.model, res.world, f):
            bad += 1
            print(f"bad model for {pretty(f)}", file=sys.stderr)
        if res.sat:
            # path checking agrees with plain reachability on the tile pool
            pool = list(res.mosaics)
            depth = ceil(log2(len(pool) + 1))
            for a in pool[:4]:
                reach = mo.glue_reachable(a, pool)
                for b in pool[:4]:
                    if mo.check_path(a, b, pool, depth) != (b in reach or a == b):
                        bad += 1
                        print(f"check_path mismatch on {pretty(f)}", file=sys.stderr)
    print(f"{args.count} formulas, {bad} disagreements")
    return 0 if bad == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="polyplane",
                                 description=__doc__.strip().splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sat", help="decide satisfiability of a formula")
    p.add_argument("formula")
    p.add_argument("--model-out", metavar="FILE")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--oracle", type=int, metavar="MAXN",
                   help="use the exhaustive crown search up to MAXN instead")
    p.set_defaults(fn=_cmd_sat)

    p = sub.add_parser("valid", help="decide validity of a formula")
    p.add_argument("formula")
    p.add_argument("--model-out", metavar="FILE",
                   help="write the countermodel when invalid")
    p.set_defaults(fn=_cmd_valid)

    p = sub.add_parser("classify-frame", help="validates / refutes for a frame")
    p.add_argument("frame")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("reduce", help="crown reduction of a validated frame")
    p.add_argument("frame")
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("jankov", help="frame formula of a rooted frame")
    p.add_argument("frame")
    p.set_defaults(fn=_cmd_jankov)

    p = sub.add_parser("eval-scene", help="evaluate a formula at a cell")
    p.add_argument("scene")
    p.add_argument("formula")
    p.add_argument("--cell", required=True,
                   help="sign signature, e.g. +0- (one of +,0,- per line)")
    p.set_defaults(fn=_cmd_eval_scene)

    p = sub.add_parser("realize", help="realize a crown model in the plane")
    p.add_argument("--model", required=True)
    p.add_argument("--world", type=int, default=0)
    p.add_argument("--svg", metavar="FILE")
    p.set_defaults(fn=_cmd_realize)

    p = sub.add_parser("fuzz", help="differential test of solver vs oracle")
    p.add_argument("--max-size", type=int, default=5)
    p.add_argument("--max-crown", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=100)
    p.set_defaults(fn=_cmd_fuzz)

    p = sub.add_parser("axioms", help="print the axioms")
    p.set_defaults(fn=_cmd_axioms)
    for p in (ap, *sub.choices.values()):  # one line, no usage line
        p.error = lambda message: ap.exit(
            2, "error: " + message.replace("\n", "\\n") + "\n")
    return ap


def run(argv: list[str]) -> int:
    # attached, a cell signature such as -+ is not read as an option;
    # argparse takes --c, --ce and --cel for --cell as well
    i = next((i for i, a in enumerate(argv[:-1])
              if len(a) > 2 and "--cell".startswith(a)), None)
    if i is not None:
        argv = [*argv[:i], f"{argv[i]}={argv[i + 1]}", *argv[i + 2:]]
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return args.fn(args)
    except ParseError as e:
        code, text = 2, f"syntax error: {e}"
    except BudgetExceededError as e:
        code, text = 4, f"budget exhausted: {e}"
    except RecursionError:
        code, text = 2, "error: formula nested too deeply"
    except MemoryError:
        code, text = 2, "error: out of memory"
    except (mo.MosaicError, VerificationError) as e:
        code, text = 2, f"internal error: {e}"
    except (ValueError, KeyError, OSError) as e:
        code, text = 2, f"error: {e}"
    print(text.replace("\n", "\\n"), file=sys.stderr)
    return code


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
