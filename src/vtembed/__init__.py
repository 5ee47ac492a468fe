"""Visual-token-compressed multimodal embedding pipeline.

A desk-scale retrieval stack built from scratch: numpy reverse-mode
autodiff, a toy causal transformer with parameter-free bilinear visual
token compression, contrastive / generative / reranking objectives,
global hard-negative mining, judge-based data curation, staged training,
exact retrieval with metrics, and an analytic+measured cost profiler.
"""

from .autograd import (
    DegenerateInputError,
    Grid2D,
    ParameterError,
    ShapeError,
    Tensor,
    bilinear_downsample,
    bilinear_downsample_t,
    downsample_matrix,
)
from .curation import (
    AlwaysIrrelevantJudge,
    ClassOracleJudge,
    CuratedSample,
    JudgeVerdict,
    MinedNegatives,
    ModelJudge,
    build_stage3_batch,
    curate_all,
    judge_pair,
    mine_from_index,
    retrieve_and_judge,
)
from .data import SyntheticTaskSpec, generate_corpus, load_corpus, save_corpus
from .experiment import (
    ExperimentConfig,
    TrainSettings,
    evaluate_embedder,
    evaluate_two_stage,
    load_config,
    run_experiment,
    run_seed_pipeline,
)
from .model import (
    Embedding,
    Model,
    ModelConfig,
    MultimodalExample,
    SerializedInput,
    serialize,
)
from .objectives import (
    ContrastiveBatch,
    info_nce,
    listwise_loss,
    ntp_loss,
    pointwise_loss,
    total_rerank_loss,
)
from .profiler import attention_cost, emit_efficiency_table, measure_encode, token_budget
from .retrieval import (
    CandidateIndex,
    RankedResult,
    ndcg_at_5,
    ndcg_at_k,
    precision_at_1,
    recall_at_k,
    rerank_topk,
    search,
)
from .trainer import (
    AdamState,
    StagePlan,
    TrainReport,
    optimizer_step,
    run_global_hnm,
    run_reranker,
    run_stage1,
    run_stage3,
    run_warmup,
)

__version__ = "0.1.0"

__all__ = [
    "AdamState", "AlwaysIrrelevantJudge", "CandidateIndex", "ClassOracleJudge",
    "ContrastiveBatch", "CuratedSample", "DegenerateInputError", "Embedding",
    "ExperimentConfig", "Grid2D", "JudgeVerdict", "MinedNegatives", "Model",
    "ModelConfig", "ModelJudge", "MultimodalExample", "ParameterError",
    "RankedResult", "SerializedInput", "ShapeError", "StagePlan",
    "SyntheticTaskSpec", "Tensor", "TrainReport", "TrainSettings",
    "attention_cost", "bilinear_downsample", "bilinear_downsample_t",
    "build_stage3_batch", "curate_all", "downsample_matrix",
    "emit_efficiency_table", "evaluate_embedder", "evaluate_two_stage",
    "generate_corpus", "info_nce", "judge_pair", "listwise_loss",
    "load_config", "load_corpus", "measure_encode", "mine_from_index",
    "ndcg_at_5", "ndcg_at_k", "ntp_loss", "optimizer_step", "pointwise_loss",
    "precision_at_1", "recall_at_k", "rerank_topk", "retrieve_and_judge",
    "run_experiment", "run_global_hnm", "run_reranker", "run_seed_pipeline",
    "run_stage1", "run_stage3", "run_warmup", "save_corpus", "search",
    "serialize", "token_budget", "total_rerank_loss",
]
