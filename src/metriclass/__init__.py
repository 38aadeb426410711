"""metriclass: metric and scale-type classification of IR evaluation measures.

The library evaluates a catalogue of set-based, user-oriented, and
rank-based retrieval measures in exact rational arithmetic (floats only
where logarithms force them), enumerates explicit finite domains, builds
each measure's induced weak order and Hasse chain, and classifies the
measure as ordinal/pseudometric, ordinal/metric, or interval/metric on
that domain, with machine-found witnesses for every negative verdict.
"""

from .enumeration import (
    DEFAULT_CAP,
    Domain,
    cardinality,
    element_to_str,
    enumerate_domain,
    format_domain,
    parse_domain,
)
from .errors import (
    ConstraintError,
    DomainTooLargeError,
    MetriclassError,
    ParameterError,
    ParseError,
    UndefinedValueError,
    UnsatisfiableNeedError,
)
from .ingest import QrelsSet, RunSet, parse_qrels, parse_run, to_rankings
from .intrinsic import (
    INTERVAL_METRIC,
    ORDINAL_METRIC,
    ORDINAL_PSEUDOMETRIC,
    CollisionWitness,
    EquivalenceClass,
    HasseDiagram,
    OrderedDomain,
    ValueSummary,
    Verdict,
    build_hasse,
    check_equispaced,
    check_injective,
    classify,
    distance,
    induced_order,
    interval_scale_oracle,
    interval_span,
    order_values,
    summarize,
)
from .measures import (
    PERMISSIBILITY_WARNING,
    Measure,
    aggregate,
    list_measure_ids,
    measure_from_id,
)
from .model import (
    ContingencyTable,
    GradeScheme,
    LeveledOutput,
    Ranking,
    Universe,
    UserContext,
)
from .report import (
    ClassificationReport,
    ReportRow,
    build_published_suite,
    emit_json_report,
    export_dot,
    parse_json_report,
    render_table,
)
from .values import Approx, Exact, Value, absdiff, exact, fmt, value_eq, value_le
from .version import VERSION

__version__ = VERSION

__all__ = [
    "Approx",
    "ClassificationReport",
    "CollisionWitness",
    "ConstraintError",
    "ContingencyTable",
    "DEFAULT_CAP",
    "Domain",
    "DomainTooLargeError",
    "EquivalenceClass",
    "Exact",
    "GradeScheme",
    "HasseDiagram",
    "INTERVAL_METRIC",
    "LeveledOutput",
    "Measure",
    "MetriclassError",
    "ORDINAL_METRIC",
    "ORDINAL_PSEUDOMETRIC",
    "OrderedDomain",
    "ParameterError",
    "ParseError",
    "PERMISSIBILITY_WARNING",
    "QrelsSet",
    "Ranking",
    "ReportRow",
    "RunSet",
    "UndefinedValueError",
    "Universe",
    "UnsatisfiableNeedError",
    "UserContext",
    "Value",
    "ValueSummary",
    "Verdict",
    "VERSION",
    "absdiff",
    "aggregate",
    "build_hasse",
    "build_published_suite",
    "cardinality",
    "check_equispaced",
    "check_injective",
    "classify",
    "distance",
    "element_to_str",
    "emit_json_report",
    "enumerate_domain",
    "exact",
    "export_dot",
    "fmt",
    "format_domain",
    "induced_order",
    "interval_scale_oracle",
    "interval_span",
    "list_measure_ids",
    "measure_from_id",
    "order_values",
    "parse_domain",
    "parse_json_report",
    "parse_qrels",
    "parse_run",
    "render_table",
    "summarize",
    "to_rankings",
    "value_eq",
    "value_le",
]
