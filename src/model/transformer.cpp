#include "model/transformer.h"

#include <utility>

#include "common/hashing.h"

namespace pipette::model {

std::int64_t layer_parameters(const TransformerConfig& m) {
  const std::int64_t h = m.hidden_size;
  // Attention: QKV (3h^2 + 3h) + output projection (h^2 + h).
  // MLP: h->4h (4h^2 + 4h) + 4h->h (4h^2 + h).
  // Two layernorms: 2 * 2h.
  return 12 * h * h + 13 * h;
}

std::int64_t embedding_parameters(const TransformerConfig& m) {
  const std::int64_t h = m.hidden_size;
  return (static_cast<std::int64_t>(m.vocab_size) + m.seq_len) * h;
}

std::int64_t total_parameters(const TransformerConfig& m) {
  const std::int64_t h = m.hidden_size;
  return static_cast<std::int64_t>(m.num_layers) * layer_parameters(m) +
         embedding_parameters(m) + 2 * h;  // final layernorm
}

double layer_fwd_flops(const TransformerConfig& m, int micro_batch) {
  const double b = micro_batch, s = m.seq_len, h = m.hidden_size;
  return 24.0 * b * s * h * h + 4.0 * b * s * s * h;
}

double logits_fwd_flops(const TransformerConfig& m, int micro_batch) {
  const double b = micro_batch, s = m.seq_len, h = m.hidden_size;
  return 2.0 * b * s * h * static_cast<double>(m.vocab_size);
}

double layer_attention_core_flops(const TransformerConfig& m, int micro_batch) {
  const double b = micro_batch, s = m.seq_len, h = m.hidden_size;
  return 4.0 * b * s * s * h;
}

double layer_activation_bytes(const TransformerConfig& m, int micro_batch, int tp) {
  const double b = micro_batch, s = m.seq_len, h = m.hidden_size;
  const double a = m.num_heads;
  return s * b * h * (34.0 + 5.0 * a * s / h) / static_cast<double>(tp);
}

double layer_activation_bytes_selective(const TransformerConfig& m, int micro_batch, int tp) {
  // Selective recomputation drops the attention score/softmax/dropout
  // residency (the 5*a*s/h term of Korthikanti et al.); the linear-part 34
  // bytes per token stay resident.
  const double b = micro_batch, s = m.seq_len, h = m.hidden_size;
  return s * b * h * 34.0 / static_cast<double>(tp);
}

double layer_activation_bytes_checkpoint(const TransformerConfig& m, int micro_batch, int tp) {
  // Full recomputation stores only each layer's fp16 input (2 bytes per
  // hidden value) and re-runs the forward inside the backward pass.
  const double b = micro_batch, s = m.seq_len, h = m.hidden_size;
  return s * b * h * 2.0 / static_cast<double>(tp);
}

double pp_message_bytes(const TransformerConfig& m, int micro_batch) {
  const double b = micro_batch, s = m.seq_len, h = m.hidden_size;
  return 2.0 * b * s * h;  // fp16
}

double tp_message_bytes(const TransformerConfig& m, int micro_batch) {
  return pp_message_bytes(m, micro_batch);  // same tensor shape, fp16
}

std::uint64_t config_digest(const TransformerConfig& m) {
  using common::hash_combine;
  std::uint64_t h = 0x7f0full;
  h = common::hash_string(h, m.name);
  h = hash_combine(h, static_cast<std::uint64_t>(m.num_layers));
  h = hash_combine(h, static_cast<std::uint64_t>(m.hidden_size));
  h = hash_combine(h, static_cast<std::uint64_t>(m.num_heads));
  h = hash_combine(h, static_cast<std::uint64_t>(m.seq_len));
  h = hash_combine(h, static_cast<std::uint64_t>(m.vocab_size));
  return h;
}

std::string validate(const TrainingJob& job) {
  const std::pair<const char*, int> sizes[] = {
      {"global_batch", job.global_batch},
      {"model.num_layers", job.model.num_layers},
      {"model.hidden_size", job.model.hidden_size},
      {"model.num_heads", job.model.num_heads},
      {"model.seq_len", job.model.seq_len},
      {"model.vocab_size", job.model.vocab_size},
  };
  for (const auto& [field, value] : sizes) {
    if (value < 1) return std::string(field) + " must be positive, got " + std::to_string(value);
  }
  return {};
}

std::uint64_t job_digest(const TrainingJob& job) {
  return common::hash_combine(config_digest(job.model),
                              static_cast<std::uint64_t>(job.global_batch));
}

}  // namespace pipette::model
