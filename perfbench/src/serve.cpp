// serve_int8_16px: the int8 plan behind InferenceServer.
//
// InferenceServer::add_model_quantized registers vgg16_d_scaled(14, 8)
// (16x16 input) under a 0.10 error budget with the default EDF config, no
// deadlines and kBlock backpressure, cold on each of kSetupReps servers.
// One client thread runs a closed loop in segments, rotating over the
// servers: each segment keeps kBatchesInFlight batches in flight on one
// server, submitting the next batch as soon as the oldest completes. A
// traced run alternates untraced segments with segments that record spans
// and the server's batch hooks; the gap is the tracing overhead.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <random>

#include "common.hpp"
#include "layers.hpp"
#include "nn/forward.hpp"
#include "reference.hpp"
#include "runtime/gemm.hpp"
#include "runtime/igemm.hpp"
#include "serve/inference_server.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using wino::tensor::Tensor4f;

constexpr std::size_t kScale = 14;
constexpr std::size_t kChannelDiv = 8;
constexpr std::uint64_t kWeightSeed = 1;
constexpr std::uint64_t kCalibrationSeed = 77;
constexpr double kBudget = 0.10;
constexpr std::size_t kImages = 32;
/// Requests per batch the client submits (ServerConfig::max_batch).
constexpr std::size_t kBatch = 8;
/// Batches the client keeps in flight. While the worker runs one batch,
/// the next ones wait assembled in its queue, so the worker never waits
/// for the client's or the batcher's thread to be scheduled: on a shared
/// host those wake-ups, not the forward pass, set the rate of a loop with
/// one batch in flight.
constexpr std::size_t kBatchesInFlight = 4;
/// Batches per segment, the loop's unit of measurement on one server.
constexpr std::size_t kSegmentBatches = 24;
constexpr std::size_t kSegmentRequests = kSegmentBatches * kBatch;
/// The budget probe: image 31 of the 32-image pool drawn from seed 74, an
/// input of the served distribution on which every plan that runs the
/// conv5 tower in int8 breaks the 0.10 budget (network output 0.137-0.150
/// relative error against the double reference; 15 of 6368 seeded images
/// break it at all). Every segment ends with one request of it on a
/// server whose plan comes from the analytic cost model, the same plan in
/// every run, whatever the seed; a reply over the budget counts as failed.
constexpr std::uint64_t kProbeSeed = 74;
constexpr std::size_t kProbeImage = 31;

/// The server's batch hooks, recording only while `active` (the traced
/// segments): the assembly time of each request slot and, per executed
/// batch, its start time and slots. The server calls them on its batcher
/// and worker threads before the batch's futures resolve, so the client
/// reads them once every future of its segment has resolved.
struct Hooks {
  std::atomic<bool> active{false};
  std::mutex mu;
  std::vector<Clock::time_point> assembled =
      std::vector<Clock::time_point>(kSegmentRequests);  // guarded by mu
  // Assembled batches not yet started, in order; guarded by mu.
  std::deque<std::vector<std::uint64_t>> pending;
  std::vector<std::pair<Clock::time_point, std::vector<std::uint64_t>>>
      started;  // guarded by mu

  void on_assembled(const std::vector<wino::serve::BatchRequestInfo>& info) {
    if (!active.load()) return;
    const auto now = Clock::now();
    std::vector<std::uint64_t> slots;
    const std::lock_guard<std::mutex> lock(mu);
    for (const auto& r : info) {
      assembled[r.tag] = now;
      slots.push_back(r.tag);
    }
    pending.push_back(std::move(slots));
  }
  void on_execute() {
    if (!active.load()) return;
    const auto now = Clock::now();
    const std::lock_guard<std::mutex> lock(mu);
    if (pending.empty()) return;
    started.emplace_back(now, std::move(pending.front()));
    pending.pop_front();
  }
};

/// Worst relative error of the plan's int8 conv layers, each run on the
/// reference's input activation of that layer (`trail` holds the
/// reference's output of every layer for `input`).
double int8_layer_error(const wino::nn::ExecutionPlan& plan,
                        const wino::nn::WeightBank& weights,
                        const Tensor4f& input,
                        const std::vector<Tensor4f>& trail) {
  double worst = 0;
  for (std::size_t li = 0, ci = 0; li < plan.layers.size(); ++li) {
    const auto& l = plan.layers[li];
    if (l.kind != wino::nn::LayerKind::kConv) continue;
    const auto& step = plan.steps[li];
    const Tensor4f& kern = weights.conv_kernels[ci++];
    if (!wino::nn::is_int8(step.algo)) continue;
    Tensor4f out = wino::nn::run_conv(step.algo, li == 0 ? input : trail[li - 1],
                                      kern, l.conv.pad, step.act_scale);
    wino::nn::relu_inplace(out);
    const auto ref = trail[li].flat();
    worst = std::max(worst, relative_error(out, {ref.begin(), ref.end()}));
  }
  return worst;
}

/// Relative error of one image's output against image `n` of a reference
/// batch (reference_forward's per-image layout).
double image_error(const Tensor4f& out, const std::vector<double>& refs,
                   std::size_t images, std::size_t n) {
  const std::size_t per = refs.size() / images;
  const auto first = refs.begin() + static_cast<std::ptrdiff_t>(n * per);
  return relative_error(out, {first, first + static_cast<std::ptrdiff_t>(per)});
}

/// What the closed-loop client measured on one server.
struct ClosedLoop {
  std::vector<double> latency_ms;  ///< untraced, submit to completion
  std::vector<double> segment_rate;  ///< untraced, requests per second
  std::vector<double> traced_latency_ms;
  std::vector<double> queue_wait_ms;  ///< traced: submit to batch assembly
  std::vector<double> exec_ms;  ///< traced: batch start to its last result
  std::vector<double> batch_sizes;  ///< traced
  std::uint64_t attempted = 0, failed = 0, mismatches = 0;
};

/// One segment of the closed loop on one server: kSegmentBatches batches
/// of kBatch requests from one client thread, at most kBatchesInFlight
/// batches in flight, the next batch submitted as soon as the oldest has
/// completed, and every future waited for before it returns. A served
/// output must equal `expected` of its image bit for bit. With `hooks`,
/// the segment is traced.
void run_segment(wino::serve::InferenceServer& server,
                 wino::serve::ModelId model,
                 const std::vector<Tensor4f>& images,
                 const std::vector<Tensor4f>& expected, std::mt19937_64& rng,
                 Hooks* hooks, ClosedLoop& out) {
  std::uniform_int_distribution<std::size_t> pick(0, images.size() - 1);
  std::vector<std::size_t> img(kSegmentRequests);
  std::vector<Clock::time_point> sent(kSegmentRequests),
      done(kSegmentRequests);
  std::vector<std::future<Tensor4f>> futures(kSegmentRequests);
  const bool traced = hooks != nullptr;
  Tracer::enable(traced);
  if (traced) hooks->active = true;
  const auto submit_batch = [&](std::size_t b) {
    for (std::size_t i = b * kBatch; i < (b + 1) * kBatch; ++i) {
      img[i] = pick(rng);
      sent[i] = Clock::now();
      const Tracer::Span span("serve.submit", out.attempted + 1);
      futures[i] = server.submit(model, images[img[i]], {.tag = i});
      ++out.attempted;
    }
  };
  const auto t0 = Clock::now();
  std::size_t next = 0;
  for (; next < kBatchesInFlight; ++next) submit_batch(next);
  for (std::size_t b = 0; b < kSegmentBatches; ++b) {
    for (std::size_t i = b * kBatch; i < (b + 1) * kBatch; ++i) {
      try {
        const Tensor4f result = futures[i].get();
        done[i] = Clock::now();
        (traced ? out.traced_latency_ms : out.latency_ms)
            .push_back(ms_between(sent[i], done[i]));
        if (!same_bits(result, expected[img[i]])) ++out.mismatches;
      } catch (const std::exception& e) {
        done[i] = Clock::now();
        ++out.failed;
        std::printf("request failed: %s\n", e.what());
      }
    }
    if (next < kSegmentBatches) submit_batch(next++);
  }
  Tracer::enable(false);
  if (!traced) {
    out.segment_rate.push_back(static_cast<double>(kSegmentRequests) /
                               (ms_since(t0) / 1e3));
    return;
  }
  hooks->active = false;
  const std::lock_guard<std::mutex> lock(hooks->mu);
  for (std::size_t i = 0; i < kSegmentRequests; ++i) {
    out.queue_wait_ms.push_back(ms_between(sent[i], hooks->assembled[i]));
  }
  for (const auto& [start, slots] : hooks->started) {
    Clock::time_point end = start;
    for (const std::uint64_t s : slots) end = std::max(end, done[s]);
    out.exec_ms.push_back(ms_between(start, end));
    out.batch_sizes.push_back(static_cast<double>(slots.size()));
  }
  hooks->started.clear();
}

/// GFLOP/s (fp32) or GOP/s (int8) of the GEMM core on every im2col GEMM
/// shape of `layers` (K x outHW x C r^2), `seconds` in total.
double gemm_rate(const std::vector<wino::nn::LayerSpec>& layers, bool int8,
                 double seconds) {
  struct Shape {
    std::size_t m, n, k;
  };
  std::vector<Shape> shapes;
  for (const auto& l : layers) {
    if (l.kind == wino::nn::LayerKind::kConv) {
      shapes.push_back({l.conv.k, l.conv.out_h() * l.conv.out_w(),
                        l.conv.c * l.conv.r * l.conv.r});
    }
  }
  double ops = 0, ms = 0;
  const auto t0 = Clock::now();
  do {
    for (const Shape& s : shapes) {
      if (int8) {
        std::vector<std::int8_t> a(s.m * s.k, 3), b(s.n * s.k, -2);
        std::vector<std::int32_t> c(s.m * s.n);
        const Tracer::Span span("runtime.igemm_nt");
        const auto t = Clock::now();
        wino::runtime::igemm_nt(s.m, s.n, s.k, a.data(), s.k, b.data(), s.k,
                                c.data(), s.n);
        ms += ms_since(t);
      } else {
        std::vector<float> a(s.m * s.k, 0.5F), b(s.k * s.n, 0.25F),
            c(s.m * s.n);
        const Tracer::Span span("runtime.sgemm");
        const auto t = Clock::now();
        wino::runtime::sgemm(s.m, s.n, s.k, 1.0F, a.data(), s.k, b.data(),
                             s.n, 0.0F, c.data(), s.n);
        ms += ms_since(t);
      }
      ops += 2.0 * static_cast<double>(s.m * s.n * s.k);
    }
  } while (ms_since(t0) < seconds * 1e3);
  return ops / (ms * 1e6);
}

}  // namespace

Result run_serve(const Options& opt) {
  Result res;
  const auto layers = wino::nn::vgg16_d_scaled(kScale, kChannelDiv);
  const std::size_t hw = 224 / kScale;
  const wino::nn::WeightBank weights =
      wino::nn::random_weights(layers, kWeightSeed);
  const Tensor4f sample = random_batch(2, 3, hw, kCalibrationSeed);
  const Tensor4f pool = random_batch(kImages, 3, hw, opt.seed);
  const Tensor4f probe =
      image_of(random_batch(kImages, 3, hw, kProbeSeed), kProbeImage);
  std::vector<Tensor4f> images;
  for (std::size_t i = 0; i < kImages; ++i) images.push_back(image_of(pool, i));
  std::vector<Tensor4f> trail, sample_trail, probe_trail;
  const std::vector<double> refs =
      reference_forward(layers, weights, pool, &trail);
  (void)reference_forward(layers, weights, sample, &sample_trail);
  const std::vector<double> probe_refs =
      reference_forward(layers, weights, probe, &probe_trail);

  // Set-up: a fresh server and a cold quantized registration, kSetupReps
  // times. Every server stays up: the measuring planner picks a
  // different plan from run to run, so the closed loop runs on every
  // server in turn and reports the median over servers, the expectation
  // over the planner's picks rather than one draw of it. Only a traced run
  // installs the batch hooks.
  Hooks hooks;
  wino::serve::ServerConfig cfg;
  cfg.backpressure = wino::serve::BackpressurePolicy::kBlock;
  if (opt.trace) {
    cfg.batch_detail_observer = [&hooks](wino::serve::ModelId,
                                         const auto& info) {
      hooks.on_assembled(info);
    };
    cfg.batch_observer = [&hooks](wino::serve::ModelId, std::size_t) {
      hooks.on_execute();
    };
  }
  std::vector<std::unique_ptr<wino::serve::InferenceServer>> servers;
  std::vector<wino::serve::ModelId> models;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    wino::nn::clear_measured_state();
    wino::nn::clear_transform_cache();
    const auto t0 = Clock::now();
    {
      const Tracer::Span span("serve.add_model_quantized");
      servers.push_back(std::make_unique<wino::serve::InferenceServer>(cfg));
      models.push_back(servers.back()->add_model_quantized(
          "vgg16_d_16px", layers, weights, sample, kBudget));
    }
    setup_s.push_back(ms_since(t0) / 1e3);
    const auto& plan = servers.back()->model_plan(models.back());
    std::printf("setup %d: %.3f s, plan %s (%zu int8 layers, batch ceiling "
                "%zu)\n",
                rep, setup_s.back(), describe_plan(plan).c_str(),
                plan.int8_layers, plan.batch_ceiling);
  }
  const std::size_t ns = servers.size();

  // The probe's server: the same registration, planned by the analytic
  // cost model (default_calibration) instead of the measuring planner, so
  // that its plan, and with it the probe's verdict, is the same in every
  // run.
  wino::serve::ServerConfig probe_cfg;
  probe_cfg.backpressure = wino::serve::BackpressurePolicy::kBlock;
  wino::serve::InferenceServer probe_server(probe_cfg);
  wino::nn::PlannerOptions analytic;
  analytic.calibration = wino::nn::default_calibration();
  const wino::serve::ModelId probe_model = probe_server.add_model_quantized(
      "vgg16_d_16px_analytic", layers, weights, sample, kBudget, analytic);
  std::printf("probe server plan %s (%zu int8 layers)\n",
              describe_plan(probe_server.model_plan(probe_model)).c_str(),
              probe_server.model_plan(probe_model).int8_layers);

  // Per server: filter transforms back in the cache (later set-ups cleared
  // it), the expected bits per image (forward of the image alone), and the
  // errors against the double reference. The budget bounds each conv
  // layer's error (PlanConstraints::max_rel_error), so every int8 layer is
  // also run on the reference's own input activation and compared with the
  // reference's output of that layer. The calibration sample's layers are
  // gated. The program breaks the budget on some seeded images and on the
  // probe, under some cold plans only (see README), which no verdict that
  // must not depend on the seed or on the planner's draw can carry: those
  // errors are printed, and their worst is the traced metric
  // quant.rel_error_max. The probe's requests on the analytic plan carry
  // the fault into `failed`.
  std::vector<std::vector<Tensor4f>> expected(ns);
  double worst_sample_err = 0, worst_output_err = 0;
  for (std::size_t i = 0; i < ns; ++i) {
    const auto& plan = servers[i]->model_plan(models[i]);
    const auto& w = servers[i]->model_weights(models[i]);
    wino::nn::prewarm_workspaces(plan, w, cfg.max_batch);
    const double sample_err = int8_layer_error(plan, w, sample, sample_trail);
    worst_sample_err = std::max(worst_sample_err, sample_err);
    double worst_image = 0;
    std::size_t over = 0;
    for (std::size_t n = 0; n < kImages; ++n) {
      expected[i].push_back(wino::nn::forward(plan, w, images[n]));
      const double e = image_error(expected[i][n], refs, kImages, n);
      worst_image = std::max(worst_image, e);
      over += e > kBudget ? 1 : 0;
    }
    const double probe_err =
        image_error(wino::nn::forward(plan, w, probe), probe_refs, 1, 0);
    worst_output_err = std::max({worst_output_err, worst_image, probe_err});
    std::printf(
        "server %zu int8 error vs double reference (budget %.2f): worst "
        "layer: calibration sample %.4f (gated), seeded images %.4f, probe "
        "%.4f; network output: seeded images worst %.4f (%zu of %zu over "
        "budget), probe %.4f\n",
        i, kBudget, sample_err, int8_layer_error(plan, w, pool, trail),
        int8_layer_error(plan, w, probe, probe_trail), worst_image, over,
        kImages, probe_err);
  }
  res.check(worst_sample_err <= kBudget,
            "an int8 layer's error on the calibration sample exceeds the "
            "plan's budget");

  // The closed loop, `seconds` in total (half of it in a traced run), in
  // whole passes of one segment on every server in turn, so that a slow
  // stretch of the host falls on every plan alike; in a traced run every
  // other segment is traced. Medians over servers.
  std::mt19937_64 rng(opt.seed);
  const double r = opt.seconds;
  const double loop_ms = (opt.trace ? r * 0.5 : r) * 1e3;
  std::vector<ClosedLoop> loops(ns);
  std::uint64_t probes = 0, probe_failed = 0;
  double probe_err = 0;
  const auto loop_t0 = Clock::now();
  for (std::size_t segment = 0; ms_since(loop_t0) < loop_ms;) {
    for (std::size_t i = 0; i < ns; ++i, ++segment) {
      const bool traced = opt.trace && segment % 2 == 1;
      run_segment(*servers[i], models[i], images, expected[i], rng,
                  traced ? &hooks : nullptr, loops[i]);
      ++probes;
      try {
        probe_err = image_error(
            probe_server.submit(probe_model, probe).get(), probe_refs, 1, 0);
        probe_failed += probe_err > kBudget ? 1 : 0;
      } catch (const std::exception& e) {
        ++probe_failed;
        std::printf("probe request failed: %s\n", e.what());
      }
    }
  }
  std::vector<double> rate, p50, traced_p50, wait, exec, sizes;
  std::uint64_t mismatches = 0;
  for (std::size_t i = 0; i < ns; ++i) {
    const ClosedLoop& c = loops[i];
    rate.push_back(median(c.segment_rate));
    p50.push_back(quantile(c.latency_ms, 0.5));
    res.attempted += c.attempted;
    res.failed += c.failed;
    mismatches += c.mismatches;
    std::printf("server %zu closed loop, %zu in flight: %llu requests, "
                "%.1f req/s, latency p50 %.3f p90 %.3f p99 %.3f ms%s\n",
                i, kBatchesInFlight * kBatch,
                static_cast<unsigned long long>(c.attempted), rate.back(),
                p50.back(), quantile(c.latency_ms, 0.9),
                quantile(c.latency_ms, 0.99),
                p99_supported(c.latency_ms.size()) ? "" : " (too few for p99)");
    if (opt.trace) {
      traced_p50.push_back(quantile(c.traced_latency_ms, 0.5));
      wait.insert(wait.end(), c.queue_wait_ms.begin(), c.queue_wait_ms.end());
      exec.insert(exec.end(), c.exec_ms.begin(), c.exec_ms.end());
      sizes.insert(sizes.end(), c.batch_sizes.begin(), c.batch_sizes.end());
    }
  }
  std::printf("budget probe on the analytic plan: %llu requests, %llu "
              "failed, network output error %.4f (budget %.2f)\n",
              static_cast<unsigned long long>(probes),
              static_cast<unsigned long long>(probe_failed), probe_err,
              kBudget);
  res.attempted += probes;
  res.failed += probe_failed;
  probe_server.shutdown();
  res.check(mismatches == 0,
            "a served output differs from forward of the image alone");
  for (auto& s : servers) s->shutdown();

  if (!opt.trace) {
    res.add("setup_s", fastest(setup_s), "s");
    res.add("peak_rss_mib", peak_rss_mib(), "MiB");
    res.add("ops_per_s", median(rate), "1/s");
    res.add("op_ms", median(p50), "ms");
    return res;
  }

  res.add("serve.queue_wait_ms.p50", quantile(wait, 0.5), "ms");
  res.add("serve.queue_wait_ms.p99", quantile(wait, 0.99), "ms");
  res.add("serve.exec_ms.p50", median(exec), "ms");
  res.add("serve.batch_size_mean", mean(sizes), "count");
  res.add("quant.rel_error_max", std::max(worst_output_err, probe_err),
          "ratio");
  res.add("trace.overhead_pct", (median(traced_p50) / median(p50) - 1.0) * 100.0,
          "%");

  // Planning and prewarm apart: the pieces add_model_quantized runs.
  {
    wino::nn::clear_measured_state();
    wino::nn::clear_transform_cache();
    wino::nn::PlannerOptions popt;
    for (const auto a : wino::nn::quantized_candidates()) {
      popt.candidates.push_back(a);
    }
    popt.constraints.max_rel_error = kBudget;
    const auto t0 = Clock::now();
    popt.quant = wino::nn::calibrate_activations(layers, weights, sample);
    const auto p = wino::nn::plan_execution(layers, popt);
    const auto t1 = Clock::now();
    wino::nn::prewarm_workspaces(p, weights, cfg.max_batch);
    res.add("nn.plan_s", ms_between(t0, t1) / 1e3, "s");
    res.add("nn.prewarm_s", ms_since(t1) / 1e3, "s");
  }
  double slab = 0;
  for (std::size_t i = 0; i < ns; ++i) {
    slab += static_cast<double>(
        servers[i]->model_plan(models[i]).memory.peak_bytes(1));
  }
  res.add("nn.slab_kib_per_image", slab / static_cast<double>(ns) / 1024.0,
          "KiB");

  // Replay every plan at the server's batch size.
  std::vector<Replay> replays;
  double mean_chain_ms = 0;
  for (std::size_t i = 0; i < ns; ++i) {
    const auto& plan = servers[i]->model_plan(models[i]);
    const std::size_t batch =
        plan.batch_ceiling > 0 ? std::min(cfg.max_batch, plan.batch_ceiling)
                               : cfg.max_batch;
    Tensor4f in(batch, 3, hw, hw);
    std::copy_n(pool.flat().begin(), in.flat().size(), in.flat().begin());
    Tensor4f out;
    wino::nn::forward(plan, weights, in, out);
    std::vector<double> chain;
    const auto t0 = Clock::now();
    while (ms_since(t0) < r * 10 / static_cast<double>(ns)) {
      const auto t = Clock::now();
      wino::nn::forward(plan, weights, in, out);
      chain.push_back(ms_since(t));
    }
    mean_chain_ms += median(chain) / static_cast<double>(ns);
    replays.push_back(
        replay_plan(plan, weights, in, out, 1, r * 0.25 / static_cast<double>(ns)));
  }
  report_replay(replays, mean_chain_ms, measure_host_roof(), res);
  res.add("runtime.sgemm_gflops", gemm_rate(layers, false, r * 0.05),
          "GFLOP/s");
  res.add("runtime.igemm_gops", gemm_rate(layers, true, r * 0.05), "GOP/s");
  return res;
}

}  // namespace perfbench
