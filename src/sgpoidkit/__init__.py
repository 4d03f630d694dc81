"""sgpoidkit: computational exploration of finite semigroupoids.

Partial composition tables with an absorbing not-composable value,
generalized associativity, type-structure inference, strict and permissive
morphism search, enumeration of arrow-type graphs (transitively closed
digraphs) with an isomorphism-class database, and transformation
representations via embeddings into full transformation semigroupoids.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigurationError,
    DomainError,
    ResourceLimitError,
    SgpoidkitError,
    StaleDatabaseError,
)
from .search import Problem, solve_all, solve_first
from .tables import (
    NC,
    UNSET,
    CompositionTable,
    associative_table_orbits,
    compose,
    enumerate_associative_tables,
    first_nonassociative_triple,
    is_associative,
    pairs_composing_to,
    triple_associative,
)
from .typestructure import (
    TypeStructure,
    infer_types,
    is_semigroupoid,
    minimal_objects,
    satisfies_typing,
    typing_orbits,
)
from .morphisms import (
    ArrowMap,
    CompositionRelation,
    check_morphism,
    composition_relation,
    find_injective_morphisms,
    find_morphisms,
    induced_type_map,
)
from .arrowtype import (
    ArrowTypeGraph,
    ClassDatabase,
    GraphSignature,
    arrow_type_of,
    canonical_form,
    count_table,
    digraph_isomorphisms,
    enumerate_brute_force,
    enumerate_by_closure,
    enumerate_incremental,
    extend_census,
    functional_digraph_count,
    graph_composition_table,
    is_transitively_closed,
    one_more_arrow,
    signature,
    transitive_closure,
    type_quotient_map,
)
from .genrep import (
    ConcreteSemigroupoid,
    FullTransformationSgpoid,
    TransformationArrow,
    compose_arrows,
    derive_table,
    embed,
    full_transformation_arrows,
    full_transformation_sgpoid,
    generate,
    minimal_representation,
    validate_arrow,
)
from . import catalog
