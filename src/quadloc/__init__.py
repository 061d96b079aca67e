"""Exact toolkit for graphs embedded in surfaces: quadrangulation parity,
local colorings, universal graphs, partially commutative group certificates,
and the surgeries connecting them."""

from .localcolor import (
    Coloring,
    UGraph,
    build_U,
    hom_to_U,
    is_local_coloring,
    local_chromatic_number,
    search_local_coloring,
)
from .quadform import (
    ParityProfile,
    classify_phi_type,
    crosscap_hexagon,
    cycle_parity_profile,
    excess_report,
    identify_face_diagonal,
    phi3_certificate,
    quad_parity,
    refine_3x3,
)
from .semifree import (
    CommutationGraph,
    GroupWord,
    is_identity,
    kneser_graph,
    reduce_word,
    verify_table,
    walk_label,
    x_pair,
)
from .surface_map import (
    EmbeddedGraph,
    FaceListComplex,
    FaceWalk,
    SurfaceClass,
    assemble_embedding,
    classify_surface,
    medial_graph,
    orientation_double_cover,
)
from .textio import parse_graph, write_graph
from .trisub import Triangulation, face_subdivision, fisk_check, link_winding, tq_lower_bound_check

__version__ = "0.1.0"

__all__ = [
    "Coloring", "UGraph", "build_U", "hom_to_U", "is_local_coloring",
    "local_chromatic_number", "search_local_coloring",
    "ParityProfile", "classify_phi_type", "crosscap_hexagon",
    "cycle_parity_profile", "excess_report", "identify_face_diagonal",
    "phi3_certificate", "quad_parity", "refine_3x3",
    "CommutationGraph", "GroupWord", "is_identity", "kneser_graph",
    "reduce_word", "verify_table", "walk_label", "x_pair",
    "EmbeddedGraph", "FaceListComplex", "FaceWalk", "SurfaceClass",
    "assemble_embedding", "classify_surface", "medial_graph",
    "orientation_double_cover",
    "parse_graph", "write_graph",
    "Triangulation", "face_subdivision", "fisk_check", "link_winding",
    "tq_lower_bound_check",
]
