"""Thurston-style hyperbolic gluing equations and their cone generalisation
on ideal triangulations: combinatorics, solvers, developing maps, holonomy
representations, volumes and essential-edge certificates."""

from .corpus import CORPUS_NAMES, corpus, export_corpus
from .develop import (DevelopedComplex, develop_across_face,
                      develop_spanning_tree, edge_holonomy_matrix)
from .errors import (BranchCut, DegenerateShape, DevelopFailure,
                     EdgeCycleNotClosed, IdealGlueError, NotConverged,
                     NotUnitModulus, ParseError, UnknownCorpusEntry,
                     ValidationError)
from .fileio import format_triangulation, parse_triangulation
from .geometry import (FLAT_TOL, V_TET, VolumeReport, bloch_wigner,
                       dihedral_angles, dilog, edge_cone_angles,
                       solution_volume)
from .gluing import (ConeTarget, ExponentMatrix, ShapeAssignment,
                     all_holonomies, build_exponent_matrix,
                     derive_shape_triple, edge_slot_label, evaluate_residual,
                     jacobian, xi_from_shapes)
from .report import build_solution_report, verify_report
from .solver import (Certificate, CoverDegreeReport, REGULAR_SHAPE,
                     SolveResult, SolverConfig, branched_cover_report,
                     cone_locus_sample, essential_edge_certificate,
                     newton_solve, order_of_root_of_unity, random_starts,
                     regular_solution, sweep_family)
from .triangulation import (EDGE_SLOTS, EdgeClass, FaceGluing, Triangulation,
                            ValidationReport, VertexClass, VertexPermutation,
                            compute_edge_classes, compute_vertex_classes,
                            make_triangulation, random_triangulation,
                            self_identification_report, validate)

__version__ = "0.1.0"
