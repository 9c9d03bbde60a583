#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>

#include "conv/im2col.hpp"
#include "dse/complexity.hpp"
#include "quant/int8.hpp"
#include "trace.hpp"
#include "winograd/kernels.hpp"

namespace perfbench {

using wino::nn::ConvAlgo;
using wino::nn::LayerKind;
using wino::tensor::LayoutKind;
using wino::tensor::PackedActivation;
using wino::tensor::Tensor4f;

double modelled_ops(const wino::nn::ConvLayerSpec& layer, ConvAlgo algo,
                    std::size_t batch) {
  const int m = wino::nn::winograd_m(algo) > 0
                    ? wino::nn::winograd_m(algo)
                    : wino::nn::int8_winograd_m(algo);
  if (m > 0) {
    const auto costs = wino::dse::TransformCosts::from_generated(
        m, static_cast<int>(layer.r));
    const auto t = wino::dse::transform_complexity_tiled(layer, m, costs, batch);
    return 2.0 * static_cast<double>(
                     wino::dse::mult_complexity_tiled(layer, m, batch)) +
           t.data + t.inverse;
  }
  return static_cast<double>(layer.spatial_ops(batch));
}

const char* module_of(ConvAlgo algo) {
  if (wino::nn::is_int8(algo)) return "quant";
  if (wino::nn::winograd_m(algo) > 0) return "winograd";
  return "conv";
}

std::string describe_plan(const wino::nn::ExecutionPlan& plan) {
  std::ostringstream os;
  std::size_t pool = 0, fc = 0;
  for (std::size_t i = 0; i < plan.layers.size(); ++i) {
    const auto& l = plan.layers[i];
    const auto& s = plan.steps[i];
    if (l.kind == LayerKind::kConv) {
      os << l.conv.name << '=' << wino::nn::to_string(s.algo);
    } else if (l.kind == LayerKind::kMaxPool) {
      os << "pool" << ++pool;
    } else {
      os << "fc" << ++fc;
    }
    os << "->" << wino::tensor::to_string(s.output_kind);
    if (s.output_kind == LayoutKind::kWinogradTile) os << s.out_tile_m;
    os << (i + 1 < plan.layers.size() ? " " : "");
  }
  return os.str();
}

namespace {

/// Per-conv-layer state the public kernels need, built once before timing
/// (the executor keeps the same objects in its cross-call caches).
struct Prepared {
  std::unique_ptr<wino::winograd::TileTransformer> xf;
  std::unique_ptr<wino::winograd::TransformedKernels> tk;
  std::unique_ptr<wino::quant::QuantizedFilter> qf;
  std::unique_ptr<wino::quant::QuantizedWinogradKernels> qk;
};

Tensor4f to_nchw(const PackedActivation& a) {
  return wino::tensor::unpack(a);
}

void relu(std::vector<float>& v) {
  for (float& x : v) x = x > 0.0F ? x : 0.0F;
}

}  // namespace

Replay replay_plan(const wino::nn::ExecutionPlan& plan,
                   const wino::nn::WeightBank& weights, const Tensor4f& input,
                   const Tensor4f& forward_out, std::size_t planned_batch,
                   double seconds) {
  const auto& layers = plan.layers;
  const std::size_t batch = input.shape().n;
  std::vector<Prepared> prep(layers.size());
  Replay result;
  result.batch = batch;
  std::vector<const char*> outer(layers.size());
  std::size_t conv_idx = 0, pool_idx = 0, fc_idx = 0;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const auto& l = layers[i];
    const auto& step = plan.steps[i];
    LayerTiming t;
    t.kind = l.kind;
    if (l.kind == LayerKind::kConv) {
      const Tensor4f& kern = weights.conv_kernels.at(conv_idx++);
      const int r = static_cast<int>(kern.shape().h);
      t.name = l.conv.name;
      t.algo = step.algo;
      t.conv = &l.conv;
      t.ops = modelled_ops(l.conv, step.algo, batch);
      t.predicted_ms = step.predicted_ms * static_cast<double>(batch) /
                       static_cast<double>(planned_batch);
      const int m = wino::nn::winograd_m(step.algo);
      const int qm = wino::nn::int8_winograd_m(step.algo);
      if (m > 0 || qm > 0) {
        prep[i].xf = std::make_unique<wino::winograd::TileTransformer>(
            wino::winograd::transforms(m > 0 ? m : qm, r));
      }
      if (m > 0) {
        prep[i].tk = std::make_unique<wino::winograd::TransformedKernels>(
            *prep[i].xf, kern);
      } else if (qm > 0) {
        prep[i].qk = std::make_unique<wino::quant::QuantizedWinogradKernels>(
            wino::quant::quantize_winograd_kernels(*prep[i].xf, kern));
      } else if (step.algo == ConvAlgo::kInt8Im2col) {
        prep[i].qf = std::make_unique<wino::quant::QuantizedFilter>(
            wino::quant::quantize_filters(kern));
      }
    } else if (l.kind == LayerKind::kMaxPool) {
      t.name = "pool" + std::to_string(++pool_idx);
    } else {
      t.name = "fc" + std::to_string(++fc_idx);
    }
    outer[i] = Tracer::intern("nn." + t.name);
    result.layers.push_back(std::move(t));
  }

  auto chain = [&]() {
    PackedActivation cur = PackedActivation::from_nchw(Tensor4f(input));
    std::size_t ci = 0, fi = 0;
    for (std::size_t i = 0; i < layers.size(); ++i) {
      const auto& l = layers[i];
      const auto& step = plan.steps[i];
      const Prepared& p = prep[i];
      if (l.kind == LayerKind::kConv) {
        const Tensor4f& kern = weights.conv_kernels[ci++];
        const int pad = l.conv.pad;
        if (p.tk) {
          const Tracer::Span outer_span(outer[i]);
          const Tracer::Span span("winograd.conv2d_winograd_layout");
          wino::winograd::WinogradConvOptions wopt;
          wopt.pad = pad;
          cur = wino::winograd::conv2d_winograd_layout(
              cur, *p.tk, *p.xf, wopt, step.output_kind, step.fused_relu);
          if (!step.fused_relu) relu(cur.data);
          continue;
        }
        const Tensor4f in = to_nchw(cur);
        Tensor4f out;
        {
          const Tracer::Span outer_span(outer[i]);
          if (p.qk) {
            const Tracer::Span span("quant.conv2d_winograd_int8");
            out = wino::quant::conv2d_winograd_int8(in, *p.qk, *p.xf, pad,
                                                    step.act_scale);
          } else if (p.qf) {
            const Tracer::Span span("quant.conv2d_im2col_int8");
            out = wino::quant::conv2d_im2col_int8(in, *p.qf, pad,
                                                  step.act_scale);
          } else if (step.algo == ConvAlgo::kIm2col) {
            const Tracer::Span span("conv.conv2d_im2col");
            out = wino::conv::conv2d_im2col(in, kern, {.pad = pad});
          } else {
            const Tracer::Span span("conv.run_conv");
            out = wino::nn::run_conv(step.algo, in, kern, pad);
          }
          wino::nn::relu_inplace(out);
        }
        if (step.output_kind == LayoutKind::kNCHW) {
          cur = PackedActivation::from_nchw(std::move(out));
        } else {
          cur = wino::tensor::pack(
              out, wino::tensor::Layout::winograd_tile(out.shape(),
                                                       step.out_tile_m));
        }
      } else if (l.kind == LayerKind::kMaxPool) {
        const Tracer::Span outer_span(outer[i]);
        const Tracer::Span span("nn.maxpool2x2_packed");
        cur = wino::nn::maxpool2x2_packed(cur, step.output_kind,
                                          step.out_tile_m);
      } else {
        const Tensor4f in = to_nchw(cur);
        Tensor4f out;
        {
          const Tracer::Span outer_span(outer[i]);
          const Tracer::Span span("nn.fully_connected");
          out = wino::nn::fully_connected(in, weights.fc_weights[fi],
                                          weights.fc_bias[fi], l.fc_out);
          ++fi;
          if (fi < weights.fc_weights.size()) wino::nn::relu_inplace(out);
        }
        cur = PackedActivation::from_nchw(std::move(out));
      }
    }
    return cur;
  };

  const bool was_on = Tracer::enabled();
  Tracer::enable(false);
  const PackedActivation warm = chain();
  result.matches_forward =
      warm.layout.kind == LayoutKind::kNCHW &&
      warm.data.size() == forward_out.flat().size() &&
      std::memcmp(warm.data.data(), forward_out.flat().data(),
                  warm.data.size() * sizeof(float)) == 0;
  // Every plan names its layer spans alike; only this replay's spans count.
  const std::size_t first_span = Tracer::size();
  Tracer::enable(true);
  const auto t0 = Clock::now();
  do {
    (void)chain();
    ++result.chains;
  } while (ms_since(t0) < seconds * 1e3);
  Tracer::enable(was_on);

  const auto totals = Tracer::totals(first_span);
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const auto it = totals.find(outer[i]);
    if (it != totals.end()) result.layers[i].ms = median(it->second.samples_ms);
  }
  return result;
}

}  // namespace perfbench

namespace perfbench {

void report_replay(const std::vector<Replay>& replays, double chain_ms,
                   const HostRoof& roof, Result& result) {
  const double w = 1.0 / static_cast<double>(replays.size());
  std::vector<double> layer_ms(replays.front().layers.size(), 0.0);
  double pool_ms = 0, fc_ms = 0, abs_err = 0;
  struct Module {
    double ms = 0, ops = 0;
  };
  std::map<std::string, Module> modules = {
      {"winograd", {}}, {"conv", {}}, {"quant", {}}};
  bool matches = true;
  for (std::size_t p = 0; p < replays.size(); ++p) {
    const Replay& replay = replays[p];
    matches = matches && replay.matches_forward;
    std::printf("plan %zu layer replay (%zu chains of %zu images; ms per "
                "chain; roofline from dse::arithmetic_intensity at host peak "
                "%.1f GFLOP/s, copy %.1f GB/s)\n",
                p, replay.chains, replay.batch, roof.peak_gflops,
                roof.copy_gbps);
    std::printf("  %-8s %-22s %9s %9s %9s\n", "layer", "algo", "observed",
                "predicted", "roofline");
    for (std::size_t i = 0; i < replay.layers.size(); ++i) {
      const LayerTiming& t = replay.layers[i];
      layer_ms[i] += t.ms * w;
      if (t.kind == wino::nn::LayerKind::kMaxPool) {
        pool_ms += t.ms * w;
      } else if (t.kind == wino::nn::LayerKind::kFullyConnected) {
        fc_ms += t.ms * w;
      } else {
        const int m = std::max({1, wino::nn::winograd_m(t.algo),
                                wino::nn::int8_winograd_m(t.algo)});
        std::printf("  %-8s %-22s %9.4f %9.4f %9.4f\n", t.name.c_str(),
                    wino::nn::to_string(t.algo).c_str(), t.ms, t.predicted_ms,
                    roofline_bound_ms(*t.conv, m, replay.batch, roof));
        abs_err += std::abs(t.predicted_ms - t.ms) * w;
        Module& mod = modules[module_of(t.algo)];
        mod.ms += t.ms * w;
        mod.ops += t.ops * w;
      }
    }
  }
  double sum_ms = 0;
  const auto& names = replays.front().layers;
  for (std::size_t i = 0; i < layer_ms.size(); ++i) {
    sum_ms += layer_ms[i];
    if (names[i].kind == wino::nn::LayerKind::kConv) {
      result.add("nn." + names[i].name + ".ms", layer_ms[i], "ms");
    }
  }
  std::printf("reconciliation: summed layer self times %.4f ms vs untraced "
              "chain %.4f ms (ratio %.3f, tolerance x%.2f); pool %.4f ms, fc "
              "%.4f ms\n",
              sum_ms, chain_ms, sum_ms / chain_ms, kReconcileFactor, pool_ms,
              fc_ms);
  result.add("nn.pool_ms", pool_ms, "ms");
  result.add("nn.fc_ms", fc_ms, "ms");
  result.add("nn.predicted_abs_err_ms", abs_err, "ms");
  result.add("nn.executor_overhead_ms", chain_ms - sum_ms, "ms");
  const auto rate = [](const Module& m) {
    return m.ms > 0 ? m.ops / (m.ms * 1e6) : 0.0;
  };
  result.add("winograd.ms", modules["winograd"].ms, "ms");
  result.add("winograd.gflops", rate(modules["winograd"]), "GFLOP/s");
  result.add("conv.ms", modules["conv"].ms, "ms");
  result.add("conv.gflops", rate(modules["conv"]), "GFLOP/s");
  result.add("quant.ms", modules["quant"].ms, "ms");
  result.add("quant.gops", rate(modules["quant"]), "GOP/s");
  result.check(sum_ms <= chain_ms * kReconcileFactor &&
                   sum_ms * kReconcileFactor >= chain_ms,
               "summed layer times do not reconcile with the chain time");
  result.check(matches, "layer replay output differs from forward(plan)");
}

}  // namespace perfbench
