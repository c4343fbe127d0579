"""Twin-width contraction sequences for planar graphs.

Builds witnessing contraction sequences of width at most 8 for simple
planar graphs and at most 6 for simple bipartite planar graphs, in linear
time, via left-aligned BFS trees and a recursive decomposition of the
plane embedding; ships an exact brute-force oracle for cross-validation
on small instances.
"""

from .plane_graph import (PlaneGraph, VertexMap, PlaneError, FormatError,
                          build, faces, connect_components, triangulate,
                          quadrangulate, parse_plane, write_plane,
                          parse_edge_list, write_edge_list, embed_abstract)
from .layering import (BfsTree, LayeringError, bfs_layering,
                       left_aligned_bfs_tree, is_left_of, check_left_aligned,
                       vertical_path)
from .trigraph import (Trigraph, ContractionSequence, WidthReport,
                       SequenceError, verify_sequence,
                       classify_step, min_level_update, is_good_assignment,
                       restrict_sequence, parse_seq, write_seq,
                       LEVEL_PRESERVING, LEVEL_RESPECTING, VIOLATION)
from .skeletal import (Bridge, WrappedFace, SkeletalError, bridges,
                       natural_assignment, check_s_aware, wrapped_info,
                       is_k_reduced, is_maximally_k_reduced,
                       validate_vh_division, assert_sink_black,
                       assert_left_align_exclusion)
from .seq_planar import planar_sequence, planar_sequence_full
from .seq_bipartite import bipartite_sequence, bipartite_sequence_full
from .oracle import ExactResult, OracleError, exact_twinwidth, reference_verify
from .generators import (gen_triangulation, gen_quadrangulation, gen_grid,
                         gen_stacked_quadrangulation, platonic_solids)
from .instrument import InvariantChecker, InvariantViolation
from .buildctx import BuilderError

__all__ = [
    "PlaneGraph", "VertexMap", "PlaneError", "FormatError", "build", "faces",
    "connect_components", "triangulate", "quadrangulate", "parse_plane",
    "write_plane", "parse_edge_list", "write_edge_list", "embed_abstract",
    "BfsTree", "LayeringError", "bfs_layering", "left_aligned_bfs_tree",
    "is_left_of", "check_left_aligned", "vertical_path",
    "Trigraph", "ContractionSequence", "WidthReport", "SequenceError",
    "verify_sequence", "classify_step", "min_level_update",
    "is_good_assignment", "restrict_sequence", "parse_seq", "write_seq",
    "LEVEL_PRESERVING", "LEVEL_RESPECTING", "VIOLATION",
    "Bridge", "WrappedFace", "SkeletalError", "bridges", "natural_assignment",
    "check_s_aware", "wrapped_info", "is_k_reduced", "is_maximally_k_reduced",
    "validate_vh_division", "assert_sink_black", "assert_left_align_exclusion",
    "planar_sequence", "planar_sequence_full",
    "bipartite_sequence", "bipartite_sequence_full",
    "ExactResult", "OracleError", "exact_twinwidth", "reference_verify",
    "gen_triangulation", "gen_quadrangulation", "gen_grid",
    "gen_stacked_quadrangulation", "platonic_solids",
    "InvariantChecker", "InvariantViolation", "BuilderError",
]
