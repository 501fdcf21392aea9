// Transformer (GPT-style) model descriptions and the derived quantities the
// configurator consumes: parameter counts, per-layer FLOPs, activation bytes,
// and communication message sizes. Formulas follow Megatron-LM (Shoeybi et
// al.; Narayanan et al. SC'21) and the activation accounting of Korthikanti
// et al. — the same sources the paper's models are built on.
#pragma once

#include <cstdint>
#include <string>

namespace pipette::model {

struct TransformerConfig {
  std::string name;
  int num_layers = 0;
  int hidden_size = 0;
  int num_heads = 0;
  int seq_len = 1024;
  int vocab_size = 51200;  // Megatron-LM GPT default (padded)
};

/// Parameters of one transformer layer: QKV + projection + 2-layer MLP (4h)
/// + biases + two layernorms.
std::int64_t layer_parameters(const TransformerConfig& m);

/// Token + position embedding parameters (weights tied with the output head).
std::int64_t embedding_parameters(const TransformerConfig& m);

/// Total model parameters (layers + embeddings + final layernorm).
std::int64_t total_parameters(const TransformerConfig& m);

/// Forward FLOPs of one layer for a microbatch of `micro_batch` sequences:
/// 24*b*s*h^2 for the GEMMs plus 4*b*s^2*h for attention scores/context.
double layer_fwd_flops(const TransformerConfig& m, int micro_batch);

/// Forward FLOPs of the output logits GEMM (2*b*s*h*V), charged to the last
/// pipeline stage.
double logits_fwd_flops(const TransformerConfig& m, int micro_batch);

/// FLOPs of the attention core (scores + context, 4*b*s^2*h) — the part
/// selective recomputation re-executes during the backward pass.
double layer_attention_core_flops(const TransformerConfig& m, int micro_batch);

/// Activation bytes one layer must keep resident for its backward pass, per
/// microbatch, under tensor parallelism `tp` (fp16, no recomputation, no
/// sequence parallelism): s*b*h*(34 + 5*a*s/h) / tp   [Korthikanti et al.].
double layer_activation_bytes(const TransformerConfig& m, int micro_batch, int tp);

/// Resident bytes under selective recomputation: the attention score/softmax
/// residency (5*a*s/h per token) is recomputed, the linear 34 B/token stay.
double layer_activation_bytes_selective(const TransformerConfig& m, int micro_batch, int tp);

/// Resident bytes under full recomputation: only the layer's fp16 input.
double layer_activation_bytes_checkpoint(const TransformerConfig& m, int micro_batch, int tp);

/// Bytes of the stage boundary tensor (b*s*h fp16 values) — the pipeline P2P
/// message size msg_PP of Eq. (5).
double pp_message_bytes(const TransformerConfig& m, int micro_batch);

/// Bytes all-reduced per tensor-parallel collective: one b*s*h fp16 tensor.
/// Each layer performs two such all-reduces in forward and two in backward.
double tp_message_bytes(const TransformerConfig& m, int micro_batch);

/// A training job: the model plus the batch geometry the cluster must run.
/// The parallel configuration (pp, tp, dp, microbatch) is what the
/// configurators search for; it is deliberately *not* part of the job.
struct TrainingJob {
  TransformerConfig model;
  int global_batch = 512;  ///< the paper's "total minibatch size"
};

/// Why `job` cannot be configured — the first non-positive size, named by its
/// field path (e.g. "model.hidden_size must be positive, got 0") — or an
/// empty string when every size is positive.
std::string validate(const TrainingJob& job);

/// Stable 64-bit digest of every TransformerConfig field. Two configs with
/// equal digests are indistinguishable to every cost/memory model, which is
/// what the compute-profile and memory-estimate memos key on.
std::uint64_t config_digest(const TransformerConfig& m);

/// config_digest folded with the batch geometry — the memo key for anything
/// that depends on the whole job.
std::uint64_t job_digest(const TrainingJob& job);

}  // namespace pipette::model
