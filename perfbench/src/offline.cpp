// offline_fp32_32px: closed-loop batch inference on the planned fp32 stack.
//
// vgg16_d_scaled(7, 8) (32x32 input), batch 8. Each plan is built cold by
// the measuring planner with default options, as a user's first
// add_model_planned builds it, kSetupReps times; nn::forward(plan, weights,
// in, out) then runs back to back over a fixed set of seeded input batches
// and every plan, one whole round at a time.
#include <cstdio>
#include <stdexcept>

#include "common.hpp"
#include "layers.hpp"
#include "nn/forward.hpp"
#include "nn/plan.hpp"
#include "reference.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using wino::nn::ConvAlgo;
using wino::nn::ExecutionPlan;
using wino::tensor::Tensor4f;

constexpr std::size_t kScale = 7;
constexpr std::size_t kChannelDiv = 8;
constexpr std::size_t kBatch = 8;
constexpr std::size_t kInputBatches = 4;
constexpr std::uint64_t kWeightSeed = 1;
/// fp32 plans against the double reference: max |err| / max |ref|.
constexpr double kFp32Tolerance = 1e-4;

/// Median batch ms of every mode, interleaved with rotating order so drift
/// on a shared host hits every mode alike.
std::vector<double> race_plans(const std::vector<ExecutionPlan>& modes,
                               const wino::nn::WeightBank& weights,
                               const Tensor4f& input, double seconds) {
  std::vector<std::vector<double>> ms(modes.size());
  Tensor4f out;
  for (const auto& m : modes) wino::nn::forward(m, weights, input, out);
  const auto t0 = Clock::now();
  for (std::size_t rep = 0; rep < 5 || ms_since(t0) < seconds * 1e3; ++rep) {
    for (std::size_t off = 0; off < modes.size(); ++off) {
      const std::size_t i = (off + rep) % modes.size();
      const auto t = Clock::now();
      wino::nn::forward(modes[i], weights, input, out);
      ms[i].push_back(ms_since(t));
    }
  }
  std::vector<double> med;
  for (auto& v : ms) med.push_back(median(v));
  return med;
}

}  // namespace

Result run_offline(const Options& opt) {
  Result res;
  const auto layers = wino::nn::vgg16_d_scaled(kScale, kChannelDiv);
  const std::size_t hw = 224 / kScale;
  const wino::nn::WeightBank weights =
      wino::nn::random_weights(layers, kWeightSeed);

  std::vector<Tensor4f> inputs;
  std::vector<std::vector<double>> refs;
  for (std::size_t i = 0; i < kInputBatches; ++i) {
    inputs.push_back(random_batch(kBatch, 3, hw, opt.seed * 1000 + i));
    refs.push_back(reference_forward(layers, weights, inputs.back()));
  }

  // Set-up: cold measuring planner + workspace prewarm, kSetupReps times.
  // Each cold plan is what a user's first registration could get; the
  // closed loop rotates over all of them, so img/s is the expectation over
  // the planner's run-to-run choices rather than one draw of it.
  std::vector<double> setup_s, plan_s, prewarm_s;
  std::vector<ExecutionPlan> plans;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    wino::nn::clear_measured_state();
    wino::nn::clear_transform_cache();
    const auto t0 = Clock::now();
    {
      const Tracer::Span span("nn.plan_execution");
      plans.push_back(wino::nn::plan_execution(layers));
    }
    const auto t1 = Clock::now();
    {
      const Tracer::Span span("nn.prewarm_workspaces");
      wino::nn::prewarm_workspaces(plans.back(), weights, kBatch);
    }
    const auto t2 = Clock::now();
    plan_s.push_back(ms_between(t0, t1) / 1e3);
    prewarm_s.push_back(ms_between(t1, t2) / 1e3);
    setup_s.push_back(ms_between(t0, t2) / 1e3);
    std::printf("setup %d: %.3f s, plan %s (predicted %.3f ms/image)\n", rep,
                setup_s.back(), describe_plan(plans.back()).c_str(),
                plans.back().predicted_total_ms);
  }
  for (const auto& p : plans) wino::nn::prewarm_workspaces(p, weights, kBatch);
  const std::size_t kp = plans.size();

  // First output per (plan, input batch): checked against the reference,
  // then the bit pattern every later repeat must reproduce.
  std::vector<Tensor4f> first(kp * kInputBatches);
  double worst_err = 0;
  for (std::size_t p = 0; p < kp; ++p) {
    for (std::size_t i = 0; i < kInputBatches; ++i) {
      Tensor4f& f = first[p * kInputBatches + i];
      wino::nn::forward(plans[p], weights, inputs[i], f);
      worst_err = std::max(worst_err, relative_error(f, refs[i]));
    }
  }
  std::printf("fp32 plans vs double reference: max rel error %.3g "
              "(tolerance %.0e)\n",
              worst_err, kFp32Tolerance);
  res.check(worst_err <= kFp32Tolerance,
            "fp32 plan output outside tolerance of the reference");

  // Closed loop, whole rounds: one round runs every input batch through
  // every plan. A traced run alternates untraced and traced rounds; the gap
  // is the tracing overhead.
  const double loop_s = opt.trace ? opt.seconds * 0.3 : opt.seconds;
  std::vector<double> batch_ms, traced_ms;
  std::vector<std::vector<double>> plan_ms(kp);
  std::uint64_t mismatches = 0;
  Tensor4f out;
  const auto loop_t0 = Clock::now();
  for (std::size_t round = 0; ms_since(loop_t0) < loop_s * 1e3; ++round) {
    const bool traced = opt.trace && round % 2 == 1;
    Tracer::enable(traced);
    for (std::size_t p = 0; p < kp; ++p) {
      for (std::size_t i = 0; i < kInputBatches; ++i) {
        ++res.attempted;
        try {
          const Tracer::Span span("nn.forward");
          const auto t0 = Clock::now();
          wino::nn::forward(plans[p], weights, inputs[i], out);
          const double ms = ms_since(t0);
          (traced ? traced_ms : batch_ms).push_back(ms);
          if (!traced) plan_ms[p].push_back(ms);
        } catch (const std::exception& e) {
          ++res.failed;
          std::printf("forward failed: %s\n", e.what());
          continue;
        }
        if (!same_bits(out, first[p * kInputBatches + i])) ++mismatches;
      }
    }
  }
  const double loop_ms = ms_since(loop_t0);
  Tracer::enable(false);
  res.check(mismatches == 0, "a repeated input changed its output bits");
  std::printf("closed loop: %zu batches of %zu in %.2f s, %llu repeat "
              "mismatches\n",
              batch_ms.size() + traced_ms.size(), kBatch, loop_ms / 1e3,
              static_cast<unsigned long long>(mismatches));
  std::vector<double> plan_img_per_s;
  for (std::size_t p = 0; p < kp; ++p) {
    plan_img_per_s.push_back(static_cast<double>(kBatch) /
                             (median(plan_ms[p]) / 1e3));
    std::printf("  plan %zu: median %.4f ms/batch, %.1f img/s\n", p,
                median(plan_ms[p]), plan_img_per_s.back());
  }

  const double chain_ms = median(batch_ms);
  if (!opt.trace) {
    res.add("setup_s", fastest(setup_s), "s");
    res.add("peak_rss_mib", peak_rss_mib(), "MiB");
    // Per plan the images per second of its median batch, median over the
    // plans: one slow cold plan moves the figure no more than a fast one,
    // where a mean rate would follow which plans the run drew.
    res.add("ops_per_s", median(plan_img_per_s), "1/s");
    res.add("op_ms", chain_ms, "ms");
    std::printf("batch ms: p50 %.4f p90 %.4f p99 %.4f%s\n", chain_ms,
                quantile(batch_ms, 0.9), quantile(batch_ms, 0.99),
                p99_supported(batch_ms.size()) ? "" : " (too few for p99)");
    return res;
  }

  res.add("nn.plan_s", fastest(plan_s), "s");
  res.add("nn.prewarm_s", fastest(prewarm_s), "s");
  double slab = 0;
  for (const auto& p : plans) slab += static_cast<double>(p.memory.peak_bytes(1));
  res.add("nn.slab_kib_per_image", slab / static_cast<double>(kp) / 1024.0,
          "KiB");
  res.add("trace.overhead_pct",
          (median(traced_ms) / chain_ms - 1.0) * 100.0, "%");

  // The cold plans against every uniform fp32 Winograd/im2col plan.
  const std::vector<ConvAlgo> uniform = {ConvAlgo::kIm2col, ConvAlgo::kWinograd2,
                                         ConvAlgo::kWinograd3,
                                         ConvAlgo::kWinograd4};
  std::vector<ExecutionPlan> modes = plans;
  for (const ConvAlgo a : uniform) {
    modes.push_back(wino::nn::uniform_plan(layers, a));
    wino::nn::prewarm_workspaces(modes.back(), weights, kBatch);
  }
  const auto med = race_plans(modes, weights, inputs[0], opt.seconds * 0.2);
  double planned = 0, best_uniform = med[kp];
  for (std::size_t i = 0; i < med.size(); ++i) {
    if (i < kp) {
      planned += med[i] / static_cast<double>(kp);
      std::printf("planned %zu                      %.4f ms/batch\n", i,
                  med[i]);
    } else {
      best_uniform = std::min(best_uniform, med[i]);
      std::printf("uniform %-22s %.4f ms/batch\n",
                  wino::nn::to_string(uniform[i - kp]).c_str(), med[i]);
    }
  }
  res.add("nn.planned_over_best_uniform", planned / best_uniform, "ratio");

  // Layer replay of every cold plan; per-layer figures are the mean over
  // the plans, as the closed loop's chain time is.
  std::vector<Replay> replays;
  double mean_chain_ms = 0;
  for (std::size_t p = 0; p < kp; ++p) {
    replays.push_back(replay_plan(plans[p], weights, inputs[0],
                                  first[p * kInputBatches], 1,
                                  opt.seconds * 0.4 / static_cast<double>(kp)));
    mean_chain_ms += median(plan_ms[p]) / static_cast<double>(kp);
  }
  report_replay(replays, mean_chain_ms, measure_host_roof(), res);
  return res;
}

}  // namespace perfbench
