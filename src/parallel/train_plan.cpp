#include "parallel/train_plan.h"

#include <tuple>

#include "common/hashing.h"

namespace pipette::parallel {

bool TrainPlan::valid_for(int num_layers, int global_batch) const {
  if (pc.pp < 1 || pc.tp < 1 || pc.dp < 1 || micro_batch < 1) return false;
  if (global_batch % pc.dp != 0) return false;
  const int mini = global_batch / pc.dp;
  if (mini % micro_batch != 0) return false;
  const int nmb = mini / micro_batch;
  if (schedule == PipeSchedule::kInterleaved1F1B) {
    // Megatron's interleaving constraints: at least two chunks on at least
    // two ranks, layers split evenly over every virtual stage, and the
    // microbatch stream divides into pp-sized interleaving groups.
    if (virtual_stages < 2 || pc.pp < 2) return false;
    if (num_layers % (pc.pp * virtual_stages) != 0) return false;
    if (nmb % pc.pp != 0) return false;
  } else if (virtual_stages != 1) {
    return false;
  }
  return pc.pp <= num_layers;
}

std::string TrainPlan::str() const {
  std::string s = pc.str() + "-mb" + std::to_string(micro_batch);
  if (schedule == PipeSchedule::kInterleaved1F1B) s += "-i" + std::to_string(virtual_stages);
  if (schedule == PipeSchedule::kMemoryUnaware) s += "-munaware";
  if (recompute == Recompute::kSelective) s += "-rcsel";
  if (recompute == Recompute::kFull) s += "-rcfull";
  if (zero1) s += "-z1";
  return s;
}

std::uint64_t TrainPlan::hash() const {
  using common::hash_combine;
  std::uint64_t h = 0x7a91ull;
  h = hash_combine(h, static_cast<std::uint64_t>(pc.pp));
  h = hash_combine(h, static_cast<std::uint64_t>(pc.tp));
  h = hash_combine(h, static_cast<std::uint64_t>(pc.dp));
  h = hash_combine(h, static_cast<std::uint64_t>(micro_batch));
  h = hash_combine(h, static_cast<std::uint64_t>(schedule));
  h = hash_combine(h, static_cast<std::uint64_t>(virtual_stages));
  h = hash_combine(h, static_cast<std::uint64_t>(recompute));
  h = hash_combine(h, static_cast<std::uint64_t>(zero1));
  return h;
}

bool operator<(const TrainPlan& a, const TrainPlan& b) {
  return std::tuple(a.pc.pp, a.pc.tp, a.pc.dp, a.micro_batch, static_cast<int>(a.schedule),
                    a.virtual_stages, static_cast<int>(a.recompute), a.zero1) <
         std::tuple(b.pc.pp, b.pc.tp, b.pc.dp, b.micro_batch, static_cast<int>(b.schedule),
                    b.virtual_stages, static_cast<int>(b.recompute), b.zero1);
}

int layers_of_position(int num_layers, const TrainPlan& plan, int position) {
  int layers = 0;
  for (int chunk = 0; chunk < plan.virtual_stages; ++chunk) {
    layers += layers_of_stage(num_layers, plan.total_stages(), chunk * plan.pc.pp + position);
  }
  return layers;
}

std::vector<TrainPlan> enumerate_base_plans(int num_gpus, int gpus_per_node, int num_layers,
                                            int global_batch, const ConfigConstraints& c) {
  std::vector<TrainPlan> out;
  for (const auto& pc : enumerate_parallel_configs(num_gpus, gpus_per_node, num_layers, c)) {
    for (int micro : micro_batch_options(global_batch, pc, c)) {
      TrainPlan plain{pc, micro};
      out.push_back(plain);
      if (!c.enable_interleaved || pc.pp < 2) continue;
      TrainPlan inter = plain;
      inter.schedule = PipeSchedule::kInterleaved1F1B;
      inter.virtual_stages = kInterleavedChunks;
      if (inter.valid_for(num_layers, global_batch)) out.push_back(inter);
    }
  }
  return out;
}

std::vector<TrainPlan> memory_relief_variants(const TrainPlan& base, const ConfigConstraints& c) {
  std::vector<TrainPlan> out;
  const bool recompute_ok = c.enable_recompute && base.recompute == Recompute::kNone;
  const bool zero_ok = c.enable_zero1 && base.pc.dp >= 2 && !base.zero1;
  auto push = [&](Recompute r, bool z) {
    TrainPlan v = base;
    v.recompute = r;
    v.zero1 = z;
    out.push_back(v);
  };
  if (recompute_ok) {
    push(Recompute::kSelective, base.zero1);
    push(Recompute::kFull, base.zero1);
  }
  if (zero_ok) {
    push(base.recompute, true);
    if (recompute_ok) {
      push(Recompute::kSelective, true);
      push(Recompute::kFull, true);
    }
  }
  return out;
}

}  // namespace pipette::parallel
