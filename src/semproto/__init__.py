"""Mining of set-of-sets class descriptions and prototype-based explanations.

The pipeline: represent each data point as a set of entities (each a set of
attributes), mine per-class rules that describe only that class, pick a small
rule set by greedy coverage, and for every rule surface the covered sample
with the least redundancy as its prototype.
"""
__version__ = "0.1.0"  # the one place the version is set; pyproject.toml reads it

from .asd import ASD, Vocabulary, canonicalize, jaccard, merge, similarity, subsumes, trim
from .data import (CLEVR_HANS3_RULES, Dataset, GeneratorConfig,
                   convert_attribute_matrix, generate_clevr_hans3, load_dataset,
                   load_ground_truth, scan_dataset, validate_dataset, write_dataset,
                   write_ground_truth)
from .errors import (BudgetError, ConfigError, DatasetValidationError, Diagnostic,
                     GenerationError, InseparableDataError, SemprotoError)
from .mining import (ClassClusterDescription, NegativeAttributeIndex, Sample,
                     SelectionStep, check_ccd, greedy_cover, mine_ccds, select_ccds)
from .oracle import (OracleBudget, oracle_coverage_opt, oracle_edit_distance,
                     random_asds, subsuming_pairs)
from .pipeline import ClassResult, PipelineResult, equivalent, run_pipeline
from .prototypes import (EditDistanceBreakdown, PrototypeRecord, distance_metric_select,
                         edit_distance, find_prototype)
from .report import build_report, render_explanation, render_markdown, serialize_report

__all__ = [
    "ASD", "Vocabulary", "canonicalize", "jaccard", "merge", "similarity",
    "subsumes", "trim",
    "Sample", "ClassClusterDescription", "NegativeAttributeIndex",
    "SelectionStep", "check_ccd", "greedy_cover", "mine_ccds", "select_ccds",
    "EditDistanceBreakdown", "PrototypeRecord", "distance_metric_select",
    "edit_distance", "find_prototype",
    "Dataset", "GeneratorConfig", "CLEVR_HANS3_RULES", "convert_attribute_matrix",
    "generate_clevr_hans3", "load_dataset", "load_ground_truth", "scan_dataset",
    "validate_dataset", "write_dataset", "write_ground_truth",
    "ClassResult", "PipelineResult", "equivalent", "run_pipeline",
    "build_report", "render_explanation", "render_markdown", "serialize_report",
    "OracleBudget", "oracle_coverage_opt", "oracle_edit_distance", "random_asds",
    "subsuming_pairs",
    "SemprotoError", "ConfigError", "DatasetValidationError", "Diagnostic",
    "GenerationError", "InseparableDataError", "BudgetError",
]
