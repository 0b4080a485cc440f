"""Polyadic concept analysis: n-contexts, concepts, introducers, diagrams."""

from .concepts import (
    DEFAULT_ORACLE_CAP,
    ConceptLimitError,
    ConceptSet,
    OracleInfeasibleError,
    brute_force_concepts,
    enumerate_concepts,
    oracle_cost,
)
from .context import (
    ArityError,
    ComponentTuple,
    Dimension,
    InputError,
    NContext,
)
from .formats import (
    ParseError,
    export_dot,
    format_record,
    generate_random,
    parse_context,
    parse_cross_table,
    parse_tuples,
    serialize_concepts,
    serialize_tuples,
)
from .introducers import (
    ConsistencyError,
    IntroducerRecord,
    extend_height,
    introducer_dim,
    introducer_oracle,
    introducers,
    nontrivial_filter,
)
from .order import (
    DiagramNode,
    DimensionDiagram,
    OrderReport,
    check_n_ordered,
    dimension_diagram,
    gsh_2d,
)

__version__ = "0.1.0"

__all__ = [
    "ArityError",
    "ComponentTuple",
    "ConceptLimitError",
    "ConceptSet",
    "ConsistencyError",
    "DEFAULT_ORACLE_CAP",
    "DiagramNode",
    "Dimension",
    "DimensionDiagram",
    "InputError",
    "IntroducerRecord",
    "NContext",
    "OracleInfeasibleError",
    "OrderReport",
    "ParseError",
    "brute_force_concepts",
    "check_n_ordered",
    "dimension_diagram",
    "enumerate_concepts",
    "export_dot",
    "extend_height",
    "format_record",
    "generate_random",
    "gsh_2d",
    "introducer_dim",
    "introducer_oracle",
    "introducers",
    "nontrivial_filter",
    "oracle_cost",
    "parse_context",
    "parse_cross_table",
    "parse_tuples",
    "serialize_concepts",
    "serialize_tuples",
]
