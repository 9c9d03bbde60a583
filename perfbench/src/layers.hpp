// Layer-by-layer replay of an execution plan through the library's public
// per-layer kernels, each call wrapped in a span. This is how the traced
// run attributes a forward pass's time to layers and modules from outside
// the library: the plan executor itself carries no instrumentation.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"
#include "host.hpp"
#include "nn/plan.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

/// Median per-call figures of one layer over the replay.
struct LayerTiming {
  std::string name;  ///< conv layer name, "pool<i>" or "fc<i>"
  wino::nn::LayerKind kind = wino::nn::LayerKind::kConv;
  wino::nn::ConvAlgo algo = wino::nn::ConvAlgo::kIm2col;
  const wino::nn::ConvLayerSpec* conv = nullptr;  ///< kConv only
  double ms = 0;            ///< median span duration for the whole batch
  double ops = 0;           ///< modelled ops for the whole batch
  double predicted_ms = 0;  ///< planner's estimate for the whole batch
};

struct Replay {
  std::vector<LayerTiming> layers;
  std::size_t batch = 0;   ///< images per replayed chain
  std::size_t chains = 0;  ///< complete replays timed
  /// The replayed chain's output equals forward(plan) bit for bit.
  bool matches_forward = false;
};

/// Replay `plan` on `input` for about `seconds` (whole chains only), with
/// tracing on. `forward_out` is forward(plan, weights, input), which the
/// replay's own output is compared against. The planner prices layers per
/// image at PlannerOptions::batch = `planned_batch`; predicted_ms is scaled
/// to the replayed batch.
[[nodiscard]] Replay replay_plan(const wino::nn::ExecutionPlan& plan,
                                 const wino::nn::WeightBank& weights,
                                 const wino::tensor::Tensor4f& input,
                                 const wino::tensor::Tensor4f& forward_out,
                                 std::size_t planned_batch, double seconds);

/// Modelled arithmetic of one conv layer under `algo` (the planner's dse::
/// op model): Winograd forms count 2 x tiled multiplications plus data and
/// inverse transform ops; every other form counts delivered spatial ops.
/// Int8 forms use their fp32 family's count.
[[nodiscard]] double modelled_ops(const wino::nn::ConvLayerSpec& layer,
                                  wino::nn::ConvAlgo algo, std::size_t batch);

/// Reconciliation tolerance: the replay's summed layer times must lie
/// within this factor of the untraced chain time, either way. The replay
/// calls each layer's kernel on the whole batch, which allocates its output
/// and forks and joins the pool once per layer; the executor fans images
/// out once per forward. On 16x16 maps that costs the replay up to ~1.6x.
inline constexpr double kReconcileFactor = 2.0;

/// Print each replay's per-layer table (observed, predicted, roofline
/// bound) and add the per-layer metrics, averaged over the replays (one per
/// plan, all of the same layer stack): nn.<conv>.ms, nn.pool_ms, nn.fc_ms,
/// the winograd/conv/quant module times and rates, nn.predicted_abs_err_ms
/// and nn.executor_overhead_ms (chain time minus the summed layer times).
/// `chain_ms` is the untraced forward time averaged the same way. Checks
/// the reconciliation against kReconcileFactor and every replay's output
/// against forward.
void report_replay(const std::vector<Replay>& replays, double chain_ms,
                   const HostRoof& roof, Result& result);

/// Module a conv algorithm's kernels live in: "winograd", "conv" or
/// "quant".
[[nodiscard]] const char* module_of(wino::nn::ConvAlgo algo);

/// One line per step: layer, algorithm, output handoff.
[[nodiscard]] std::string describe_plan(const wino::nn::ExecutionPlan& plan);

}  // namespace perfbench
