"""Hypergraph dilutions, exact width oracles, jigsaw extraction, and
conjunctive-query reductions at desk scale."""

from .errors import (
    BudgetExceededError,
    ConstructionError,
    HgError,
    InvalidInputError,
    InvalidStepError,
    LimitExceededError,
    ParseError,
)
from .hypergraph import (
    Hypergraph,
    IsoWitness,
    Path,
    PreJigsawWitness,
    canonical_form,
    dual,
    dual_with_map,
    find_path,
    is_connected,
    isomorphic,
    primal_graph,
)
from .dilution import (
    DeleteSubedge,
    DeleteVertex,
    DilutionSequence,
    EdgeLabeling,
    MergeOn,
    apply_sequence,
    apply_step,
    delete_subedge,
    delete_vertex,
    merge_on,
    reduce_hypergraph,
    search_dilution,
    track_labels,
    valid_steps,
    verify_dilution,
)
from .decomposition import (
    GHDecomposition,
    TreeDecomposition,
    WidthReport,
    exact_ghw,
    exact_treewidth,
    ghd_from_dual_td,
    merge_transform,
    validate_ghd,
    validate_td,
)
from .minors import (
    ExpressiveMinorMap,
    MinorMap,
    decide_dilution,
    expressive_from_minor,
    find_grid_minor,
    find_minor,
    jigsaw_from_grid_minor,
    minor_from_dilution,
    prejigsaw_from_expressive_minor,
    prejigsaw_to_jigsaw,
    trivial_prejigsaw_witness,
    validate_expressive_minor,
    validate_minor_map,
    validate_prejigsaw,
)
from .generators import (
    grid,
    jigsaw,
    mesh,
    random_hypergraph,
    subdivided_jigsaw,
)
from .cq import (
    Assignment,
    Atom,
    ConjunctiveQuery,
    Database,
    compute_core,
    count,
    eliminate_self_joins,
    evaluate,
    hypergraph_of,
    query_from_hypergraph,
    reduce_along_dilution,
    semantic_ghw,
)

__version__ = "0.1.0"
