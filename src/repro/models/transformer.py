"""Transformer (Vaswani et al., 2017) base configuration for IWSLT'15.

12 layers total (6 encoder + 6 decoder, matching Table 2), model dimension
512, 8 heads, feed-forward inner dimension 2048, shared 17,188-token
vocabulary.  Following the paper's Fig. 4d/6d x-axes (64 .. 4096), the
mini-batch is counted in **tokens**: a "sample" for Transformer throughput
is one token.

Unlike the LSTM Seq2Seq, every attention/FFN layer lowers to a handful of
*large* GEMMs per iteration, so GPU compute utilization is high even though
the application domain (machine translation) is the same — the paper's
evidence that low utilization is a property of the recurrent layer type,
not of the task (Observation 5).
"""

from __future__ import annotations

from repro.graph.layer import LayerGraph
from repro.graph.lowering import (
    attention_layer,
    dropout_layer,
    embedding_layer,
    feedforward_layer,
    layernorm_layer,
    residual_add_layer,
    softmax_cross_entropy_kernels,
)
from repro.kernels.gemm import gemm
from repro.graph.layer import Layer

VOCAB_SIZE = 17188
MODEL_DIM = 512
HEADS = 8
FFN_DIM = 2048
ENCODER_LAYERS = 6
DECODER_LAYERS = 6
SEQ_LEN = 25  # average IWSLT sentence length after subword splitting
#: The tensor2tensor-style trainer pads every sentence in a token batch to
#: the bucket boundary, so activation buffers are sized well beyond the
#: average-length tokens actually computed.
PAD_STASH_FACTOR = 3


def _encoder_block(graph: LayerGraph, name: str, batch: int, seq: int) -> None:
    tokens = batch * seq
    graph.add(attention_layer(f"{name}_self_attn", batch, HEADS, seq, seq, MODEL_DIM))
    graph.add(residual_add_layer(f"{name}_attn_residual", tokens * MODEL_DIM))
    graph.add(layernorm_layer(f"{name}_attn_ln", tokens * MODEL_DIM, MODEL_DIM))
    graph.add(feedforward_layer(f"{name}_ffn", tokens, MODEL_DIM, FFN_DIM))
    graph.add(residual_add_layer(f"{name}_ffn_residual", tokens * MODEL_DIM))
    graph.add(layernorm_layer(f"{name}_ffn_ln", tokens * MODEL_DIM, MODEL_DIM))
    graph.add(dropout_layer(f"{name}_dropout", tokens * MODEL_DIM))


def _decoder_block(graph: LayerGraph, name: str, batch: int, seq: int) -> None:
    tokens = batch * seq
    graph.add(
        attention_layer(f"{name}_masked_attn", batch, HEADS, seq, seq, MODEL_DIM)
    )
    graph.add(residual_add_layer(f"{name}_masked_residual", tokens * MODEL_DIM))
    graph.add(layernorm_layer(f"{name}_masked_ln", tokens * MODEL_DIM, MODEL_DIM))
    graph.add(
        attention_layer(f"{name}_cross_attn", batch, HEADS, seq, seq, MODEL_DIM)
    )
    graph.add(residual_add_layer(f"{name}_cross_residual", tokens * MODEL_DIM))
    graph.add(layernorm_layer(f"{name}_cross_ln", tokens * MODEL_DIM, MODEL_DIM))
    graph.add(feedforward_layer(f"{name}_ffn", tokens, MODEL_DIM, FFN_DIM))
    graph.add(residual_add_layer(f"{name}_ffn_residual", tokens * MODEL_DIM))
    graph.add(layernorm_layer(f"{name}_ffn_ln", tokens * MODEL_DIM, MODEL_DIM))
    graph.add(dropout_layer(f"{name}_dropout", tokens * MODEL_DIM))


def build_transformer(batch_tokens: int, seq_len: int = SEQ_LEN) -> LayerGraph:
    """Build the Transformer for a token-counted mini-batch.

    ``batch_tokens`` is the total number of tokens per iteration (the
    quantity the paper sweeps from 64 to 4096+); the sentence count is
    derived from the average sequence length.
    """
    if batch_tokens < seq_len:
        # Tiny token budgets still process one (short) sentence.
        seq_len = max(batch_tokens, 4)
    # A token budget covers source + target sides of each sentence pair.
    sentences = max(1, batch_tokens // (2 * seq_len))
    graph = LayerGraph(
        model_name="Transformer",
        batch_size=batch_tokens,
        input_bytes=batch_tokens * 2 * 4,  # source + target token ids
        samples_per_iteration=float(sentences * seq_len),
    )
    graph.add(
        embedding_layer("src_embedding", sentences * seq_len, VOCAB_SIZE, MODEL_DIM)
    )
    for index in range(ENCODER_LAYERS):
        _encoder_block(graph, f"encoder{index}", sentences, seq_len)
    graph.add(
        embedding_layer("tgt_embedding", sentences * seq_len, VOCAB_SIZE, MODEL_DIM)
    )
    for index in range(DECODER_LAYERS):
        _decoder_block(graph, f"decoder{index}", sentences, seq_len)

    tokens = sentences * seq_len
    graph.add(
        Layer(
            name="output_projection",
            kind="dense",
            weight_elements=MODEL_DIM * VOCAB_SIZE,
            output_elements=2 * tokens * VOCAB_SIZE,
            forward_kernels=[gemm(tokens, VOCAB_SIZE, MODEL_DIM, name="logits_sgemm")],
            backward_kernels=[
                gemm(tokens, MODEL_DIM, VOCAB_SIZE, name="logits_sgemm_dgrad"),
                gemm(MODEL_DIM, VOCAB_SIZE, tokens, name="logits_sgemm_wgrad"),
            ],
        )
    )
    graph.extra_kernels = softmax_cross_entropy_kernels(tokens, VOCAB_SIZE)
    for layer in graph.layers:
        if layer.name != "output_projection":
            layer.output_elements *= PAD_STASH_FACTOR
    return graph
