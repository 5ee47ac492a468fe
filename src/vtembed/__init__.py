"""Visual-token-compressed multimodal embedding pipeline.

A desk-scale retrieval stack built from scratch: numpy reverse-mode
autodiff, a toy causal transformer with parameter-free bilinear visual
token compression, contrastive / generative / reranking objectives,
global hard-negative mining, judge-based data curation, staged training,
exact retrieval with metrics, and an analytic+measured cost profiler.
"""
