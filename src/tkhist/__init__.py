"""Top-k histograms for join cardinality estimation."""

from .catalog import (KeyDomain, Schema, TableData, ingest_table, load_schema,
                      schema_from_document)
from .errors import TKHistError
from .estimator import (EstimationReport, discover_correlations, estimate,
                        evaluate_workload, parse_workload, q_error)
from .histcore import TKHist1D, TKHist2D, build_tkhist1d, build_tkhist2d
from .joinengine import CompositeHist, jtkh_join, join_star_group
from .oracle import oracle_count
from .queryfront import parse_sql
from .state import (BuildConfig, EstimatorState, apply_rows, build_state,
                    ingest_all, load_state, save_state)
from .synth import SyntheticSpec, generate_synthetic, write_benchmark

__version__ = "0.1.0"

__all__ = [
    "BuildConfig", "CompositeHist", "EstimationReport", "EstimatorState",
    "KeyDomain", "Schema", "SyntheticSpec", "TKHist1D", "TKHist2D",
    "TKHistError", "TableData", "apply_rows", "build_state",
    "build_tkhist1d", "build_tkhist2d", "discover_correlations", "estimate",
    "evaluate_workload", "generate_synthetic", "ingest_all", "ingest_table",
    "jtkh_join", "join_star_group", "load_schema", "load_state",
    "oracle_count", "parse_sql", "parse_workload", "q_error", "save_state",
    "schema_from_document", "write_benchmark",
]
