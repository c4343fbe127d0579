"""Twin-width contraction sequences for planar graphs.

Builds witnessing contraction sequences of width at most 8 for simple
planar graphs and at most 6 for simple bipartite planar graphs, in linear
time, via left-aligned BFS trees and a recursive decomposition of the
plane embedding; ships an exact brute-force oracle for cross-validation
on small instances.

The names below are the supported API; everything else is reached through
its module (``twinplanar.layering``, ``twinplanar.trigraph``, ...).
"""

from .plane_graph import (PlaneGraph, PlaneError, FormatError, build,
                          parse_plane, write_plane, parse_edge_list,
                          write_edge_list, embed_abstract)
from .trigraph import (ContractionSequence, WidthReport, SequenceError,
                       verify_sequence, restrict_sequence, parse_seq,
                       write_seq)
from .seq_planar import planar_sequence, planar_sequence_full
from .seq_bipartite import bipartite_sequence, bipartite_sequence_full
from .oracle import ExactResult, OracleError, exact_twinwidth, reference_verify
from .generators import (gen_triangulation, gen_quadrangulation, gen_grid,
                         gen_stacked_quadrangulation, platonic_solids)
from .instrument import InvariantChecker, InvariantViolation
from .buildctx import BuilderError

__all__ = [
    "PlaneGraph", "PlaneError", "FormatError", "build", "parse_plane",
    "write_plane", "parse_edge_list", "write_edge_list", "embed_abstract",
    "ContractionSequence", "WidthReport", "SequenceError", "verify_sequence",
    "restrict_sequence", "parse_seq", "write_seq",
    "planar_sequence", "planar_sequence_full",
    "bipartite_sequence", "bipartite_sequence_full",
    "ExactResult", "OracleError", "exact_twinwidth", "reference_verify",
    "gen_triangulation", "gen_quadrangulation", "gen_grid",
    "gen_stacked_quadrangulation", "platonic_solids",
    "InvariantChecker", "InvariantViolation", "BuilderError",
]
