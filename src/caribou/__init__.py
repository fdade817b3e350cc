"""Differentially private multi-layer graph message passing with a
convergent privacy accountant, a contractive aggregation layer, a small
trainable classifier, and an empirical membership-inference audit harness.

The brute-force verification oracles live with the tests, in
``tests/verify.py``; the package neither holds nor exports them.
"""

from .accountant import (
    CalibrationError,
    NoisePlan,
    PrivacySpec,
    calibrate_sigma,
    convergent_factor,
    edge_sensitivity,
    gaussian_tradeoff,
    node_sensitivity,
    noise_table,
    rdp_to_dp,
)
from .audit import (
    Attacker,
    AuditConfig,
    AuditReport,
    auc,
    edge_influence_score,
    node_confidence_score,
    run_mia_game,
)
from .graphs import (
    DegreeStats,
    Graph,
    LabeledDataset,
    ParseError,
    build_graph,
    degree_stats,
    gen_chain_dataset,
    load_dataset,
    normalized_adjacency,
    stratified_split,
    write_dataset,
)
from .layers import (
    LayerParams,
    layer_forward,
    normalize_rows,
    project_rows,
)
from .model import (
    DpSgdConfig,
    LinearEncoder,
    MlpHead,
    TrainConfig,
    evaluate,
    predict_proba,
    train_head,
    train_linear_encoder,
)
from .pipeline import PipelineConfig, RunArtifacts, run_pipeline
from .prng import stream

__version__ = "0.1.0"

__all__ = [
    "Attacker",
    "AuditConfig",
    "AuditReport",
    "CalibrationError",
    "DegreeStats",
    "DpSgdConfig",
    "Graph",
    "LabeledDataset",
    "LayerParams",
    "LinearEncoder",
    "MlpHead",
    "NoisePlan",
    "ParseError",
    "PipelineConfig",
    "PrivacySpec",
    "RunArtifacts",
    "TrainConfig",
    "auc",
    "build_graph",
    "calibrate_sigma",
    "convergent_factor",
    "degree_stats",
    "edge_influence_score",
    "edge_sensitivity",
    "evaluate",
    "gaussian_tradeoff",
    "gen_chain_dataset",
    "layer_forward",
    "load_dataset",
    "node_confidence_score",
    "node_sensitivity",
    "noise_table",
    "normalize_rows",
    "normalized_adjacency",
    "predict_proba",
    "project_rows",
    "rdp_to_dp",
    "run_mia_game",
    "run_pipeline",
    "stratified_split",
    "stream",
    "train_head",
    "train_linear_encoder",
    "write_dataset",
]
