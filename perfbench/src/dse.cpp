// dse_sweep: the paper's design-space exploration.
//
// DesignSpaceExplorer over the four device models x m = 2..7 x both engine
// styles, for every point the device fits. Each point is also simulated by
// hw::WinogradEngine (timing-only, whole VGG16-D) and each device's sweep
// ends with its Pareto front. None of the inference runtime's kernels run.
#include <cmath>
#include <cstdio>
#include <memory>
#include <random>
#include <stdexcept>

#include "common.hpp"
#include "dse/design_space.hpp"
#include "fpga/device.hpp"
#include "hw/winograd_engine.hpp"
#include "trace.hpp"
#include "winograd/cook_toom.hpp"
#include "winograd/op_report.hpp"

namespace perfbench {
namespace {

using wino::dse::DesignEvaluation;
using wino::fpga::EngineStyle;

constexpr int kMinM = 2;
constexpr int kMaxM = 7;
constexpr int kR = 3;
constexpr EngineStyle kStyles[] = {EngineStyle::kSharedDataTransform,
                                   EngineStyle::kPerPeDataTransform};

struct Point {
  const wino::fpga::FpgaDevice* device = nullptr;
  std::size_t explorer = 0;
  int m = 0;
  EngineStyle style = EngineStyle::kSharedDataTransform;
};

/// Each transform set computes the direct 1-D correlation
/// y_k = sum_j g_j d_(k+j) on random integer input, in double.
bool transforms_correlate(std::mt19937_64& rng) {
  std::uniform_int_distribution<int> val(-8, 8);
  for (int m = kMinM; m <= kMaxM; ++m) {
    const auto& t = wino::winograd::transforms(m, kR);
    const auto bt = t.bt_d(), g = t.g_d(), at = t.at_d();
    const std::size_t n = static_cast<std::size_t>(m + kR - 1);
    std::vector<double> d(n), w(kR), u(n, 0.0), v(n, 0.0);
    for (double& x : d) x = val(rng);
    for (double& x : w) x = val(rng);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) u[i] += bt(i, j) * d[j];
      for (std::size_t j = 0; j < static_cast<std::size_t>(kR); ++j) {
        v[i] += g(i, j) * w[j];
      }
    }
    for (std::size_t k = 0; k < static_cast<std::size_t>(m); ++k) {
      double y = 0, direct = 0, scale = 1;
      for (std::size_t i = 0; i < n; ++i) y += at(k, i) * u[i] * v[i];
      for (std::size_t j = 0; j < static_cast<std::size_t>(kR); ++j) {
        direct += w[j] * d[k + j];
        scale += std::abs(w[j] * d[k + j]);
      }
      if (std::abs(y - direct) > 1e-9 * scale) {
        std::printf("F(%d,%d) output %zu: %.17g, direct %.17g\n", m, kR, k, y,
                    direct);
        return false;
      }
    }
  }
  return true;
}

/// The paper's Table II rows for "ours" on the Virtex-7 485T.
bool table2_reproduced(const wino::dse::DesignSpaceExplorer& v7) {
  struct Row {
    int m;
    double latency_ms, gops;
  };
  constexpr Row kRows[] = {{2, 49.57, 619.2}, {3, 33.83, 907.2},
                           {4, 28.05, 1094.3}};
  bool ok = true;
  for (const Row& row : kRows) {
    wino::dse::DesignPoint p;
    p.m = row.m;
    const DesignEvaluation ev = v7.evaluate(p);
    const double ms = ev.total_latency_s * 1e3;
    const double gops = ev.throughput_ops / 1e9;
    const bool row_ok = std::abs(ms / row.latency_ms - 1) <= 1e-3 &&
                        std::abs(gops / row.gops - 1) <= 1e-3;
    std::printf("Table II ours m=%d: %.3f ms (paper %.2f), %.2f GOPS (paper "
                "%.1f)%s\n",
                row.m, ms, row.latency_ms, gops, row.gops,
                row_ok ? "" : "  MISMATCH");
    ok = ok && row_ok;
  }
  return ok;
}

bool fits(const DesignEvaluation& ev, const wino::fpga::FpgaDevice& d) {
  return ev.resources.luts <= d.luts && ev.resources.registers <= d.registers &&
         ev.resources.dsps <= d.dsps;
}

/// Brute-force non-dominance under (max throughput, max power efficiency),
/// compared member by member with the explorer's front.
bool pareto_matches(const std::vector<DesignEvaluation>& evals,
                    const std::vector<DesignEvaluation>& front) {
  std::vector<const DesignEvaluation*> expect;
  for (const auto& a : evals) {
    bool dominated = false;
    for (const auto& b : evals) {
      dominated = dominated ||
                  (b.throughput_ops >= a.throughput_ops &&
                   b.power_efficiency >= a.power_efficiency &&
                   (b.throughput_ops > a.throughput_ops ||
                    b.power_efficiency > a.power_efficiency));
    }
    if (!dominated) expect.push_back(&a);
  }
  if (expect.size() != front.size()) return false;
  for (std::size_t i = 0; i < front.size(); ++i) {
    if (expect[i]->point.m != front[i].point.m ||
        expect[i]->point.style != front[i].point.style) {
      return false;
    }
  }
  return true;
}

}  // namespace

Result run_dse(const Options& opt) {
  Result res;
  std::mt19937_64 rng(opt.seed);

  // Set-up: cold Cook-Toom transform generation for every m. The first
  // rep fills the process cache (winograd::transforms); the others rerun
  // the same search uncached (best_cook_toom).
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    for (int m = kMinM; m <= kMaxM; ++m) {
      const Tracer::Span span("winograd.cook_toom");
      if (rep == 0) {
        (void)wino::winograd::transforms(m, kR);
      } else {
        (void)wino::winograd::best_cook_toom(m, kR);
      }
    }
    setup_s.push_back(ms_since(t0) / 1e3);
    std::printf("setup %d: %.3f s\n", rep, setup_s.back());
  }

  res.check(transforms_correlate(rng),
            "a Cook-Toom transform set misses the direct correlation");

  const wino::fpga::FpgaDevice* devices[] = {
      &wino::fpga::virtex7_485t(), &wino::fpga::virtex7_690t(),
      &wino::fpga::stratix_v_gt(), &wino::fpga::zynq_7045()};
  std::vector<std::unique_ptr<wino::dse::DesignSpaceExplorer>> explorers;
  std::vector<Point> points;
  for (const auto* d : devices) {
    explorers.push_back(std::make_unique<wino::dse::DesignSpaceExplorer>(
        wino::nn::vgg16_d(), *d));
    for (int m = kMinM; m <= kMaxM; ++m) {
      for (const EngineStyle s : kStyles) {
        if (explorers.back()->estimator().max_pes(m, kR, s) > 0) {
          points.push_back({d, explorers.size() - 1, m, s});
        }
      }
    }
  }
  std::printf("design points that fit: %zu of %zu\n", points.size(),
              std::size(devices) * (kMaxM - kMinM + 1) * std::size(kStyles));
  res.check(table2_reproduced(*explorers[0]),
            "Table II latency/throughput not reproduced within 0.1%");

  // Timed sweeps, whole sweeps only. A traced run alternates untraced and
  // traced sweeps; the gap is the tracing overhead.
  const double loop_s = opt.trace ? opt.seconds * 0.6 : opt.seconds;
  std::vector<double> point_ms, sweep_ms, traced_sweep_ms;
  std::uint64_t bad_fit = 0, bad_front = 0;
  const auto loop_t0 = Clock::now();
  for (std::size_t sweep = 0; ms_since(loop_t0) < loop_s * 1e3; ++sweep) {
    const bool traced = opt.trace && sweep % 2 == 1;
    Tracer::enable(traced);
    double this_sweep = 0;
    std::size_t p = 0;
    for (std::size_t e = 0; e < explorers.size(); ++e) {
      std::vector<DesignEvaluation> evals;
      for (; p < points.size() && points[p].explorer == e; ++p) {
        ++res.attempted;
        const auto t0 = Clock::now();
        try {
          wino::dse::DesignPoint dp;
          dp.m = points[p].m;
          dp.style = points[p].style;
          {
            const Tracer::Span span("dse.evaluate");
            evals.push_back(explorers[e]->evaluate(dp));
          }
          wino::hw::EngineConfig cfg;
          cfg.m = dp.m;
          cfg.r = kR;
          cfg.parallel_pes = evals.back().parallel_pes;
          cfg.style = dp.style;
          const Tracer::Span span("hw.run_workload_timing");
          const auto stats = wino::hw::WinogradEngine(cfg.resolved())
                                 .run_workload_timing(wino::nn::vgg16_d());
          if (stats.total_cycles == 0) throw std::logic_error("no cycles");
        } catch (const std::exception& ex) {
          ++res.failed;
          std::printf("design point failed: %s\n", ex.what());
          continue;
        }
        const double ms = ms_since(t0);
        this_sweep += ms;
        if (!traced) point_ms.push_back(ms);
        if (!fits(evals.back(), *points[p].device)) ++bad_fit;
      }
      const auto t0 = Clock::now();
      std::vector<DesignEvaluation> front;
      {
        const Tracer::Span span("dse.pareto_front");
        front = wino::dse::DesignSpaceExplorer::pareto_front(evals);
      }
      this_sweep += ms_since(t0);
      if (!pareto_matches(evals, front)) ++bad_front;
    }
    (traced ? traced_sweep_ms : sweep_ms).push_back(this_sweep);
  }
  Tracer::enable(false);
  res.check(bad_fit == 0, "an evaluated design exceeds its device");
  res.check(bad_front == 0, "a Pareto front differs from brute force");
  std::printf("%zu sweeps of %zu points, %llu misfits, %llu front "
              "mismatches\n",
              sweep_ms.size() + traced_sweep_ms.size(), points.size(),
              static_cast<unsigned long long>(bad_fit),
              static_cast<unsigned long long>(bad_front));

  if (!opt.trace) {
    res.add("setup_s", fastest(setup_s), "s");
    res.add("peak_rss_mib", peak_rss_mib(), "MiB");
    // Both figures come from the fastest sweep. The explorer's code slows
    // by up to 40% in the shared host's slow stretches, which last from
    // seconds to minutes: over ten 20 s runs the median sweep spread 0.25
    // (quartile distance over median) and the fastest 0.16. Every sweep is
    // the same work, so a change to the program moves the fastest one too.
    const double n = static_cast<double>(points.size());
    const double best_ms = fastest(sweep_ms);
    res.add("ops_per_s", n / (best_ms / 1e3), "1/s");
    res.add("op_ms", best_ms / n, "ms");
    std::printf("sweep ms per point: fastest %.4f p50 %.4f p90 %.4f\n",
                best_ms / n, median(sweep_ms) / n,
                quantile(sweep_ms, 0.9) / n);
    // The 48 point types cost from about 1 to 35 ms each, so percentiles
    // of single points jump between neighbouring types from run to run.
    std::printf("single points: p50 %.4f p90 %.4f p99 %.4f ms%s\n",
                quantile(point_ms, 0.5), quantile(point_ms, 0.9),
                quantile(point_ms, 0.99),
                p99_supported(point_ms.size()) ? "" : " (too few for p99)");
    return res;
  }

  res.add("trace.overhead_pct",
          (median(traced_sweep_ms) / median(sweep_ms) - 1.0) * 100.0, "%");
  // The explorer's inner calls, timed on their own over every point.
  Tracer::enable(true);
  const auto t0 = Clock::now();
  do {
    for (const Point& pt : points) {
      const auto& est = explorers[pt.explorer]->estimator();
      std::size_t pes = 0;
      {
        const Tracer::Span span("fpga.max_pes");
        pes = est.max_pes(pt.m, kR, pt.style);
      }
      {
        const Tracer::Span span("fpga.estimate");
        (void)est.estimate(pt.m, kR, pes, pt.style);
      }
      const Tracer::Span span("winograd.transform_op_report");
      (void)wino::winograd::transform_op_report(pt.m, kR);
    }
  } while (ms_since(t0) < opt.seconds * 0.3 * 1e3);
  Tracer::enable(false);
  const auto totals = Tracer::totals();
  const auto per_call = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() || it->second.count == 0
               ? 0.0
               : it->second.self_ms / static_cast<double>(it->second.count);
  };
  res.add("winograd.cook_toom_s", fastest(setup_s), "s");
  res.add("winograd.op_report_ms", per_call("winograd.transform_op_report"),
          "ms");
  res.add("fpga.estimate_us", per_call("fpga.estimate") * 1e3, "us");
  res.add("fpga.max_pes_ms", per_call("fpga.max_pes"), "ms");
  res.add("hw.sim_ms", per_call("hw.run_workload_timing"), "ms");
  res.add("dse.evaluate_ms", per_call("dse.evaluate"), "ms");
  return res;
}

}  // namespace perfbench
