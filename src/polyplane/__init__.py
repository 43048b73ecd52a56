"""Modal logic of planar polygons: satisfiability over crown frames,
finite-frame classification, and exact line-arrangement semantics."""

from .axioms import (ForbiddenFrame, Verdict, axiom_I, axiom_II,
                     classify_frame, forbidden_frames, xi)
from .crown import (CrownReduction, OracleResult, crown, crown_sat_bruteforce,
                    crown_sat_oracle, reduce_to_crown)
from .errors import BudgetExceededError, VerificationError
from .formula import (And, Bottom, Box, Diamond, Formula, Iff, Implies, Not,
                      Or, ParseError, Var, ast_size, closure, modal_depth,
                      parse, pretty, subformulas, substitute, variables)
from .geometry import (CellSet, Line, Realization, Scene, build_arrangement,
                       cells_to_dnf, compile_polygon, concurrent_crown_map,
                       eval_scene, realize_crown_model, scene_closure,
                       scene_delta, scene_frame, scene_from_dict,
                       scene_interior, scene_to_dict, scene_to_svg, wrap_map)
from .kripke import (Frame, Model, ValidityReport, WorldMap, closure_set,
                     delta, eval_formula, find_subreduction, frame_from_dict,
                     frame_to_dict, interior_set, is_p_morphism, jankov_fine,
                     model_from_dict, model_to_dict, sat_on_frame,
                     sigma_bisimilar, truth_mask, valid_on_frame)
from .mosaic import (LabelSpace, Mosaic, MosaicError, SatResult, SolverStats,
                     check_path, decide_sat, extract_model, glue_reachable,
                     is_coherent, mirror, valid)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
