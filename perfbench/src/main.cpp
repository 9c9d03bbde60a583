// perfbench: the repository benchmark binary.
//
//   perfbench --workload <offline_fp32_32px|serve_int8_16px|dse_sweep>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]
//
// Prints human-readable detail, then as its last line one JSON object with
// the keys correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics; --trace 1 records spans around the library calls and
// reports the per-layer metrics. Exits non-zero when any output check
// fails.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "common.hpp"
#include "runtime/gemm.hpp"
#include "runtime/igemm.hpp"
#include "runtime/thread_pool.hpp"
#include "trace.hpp"

namespace {

using perfbench::Metric;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every workload reports every metric of a list; a module a workload does
// not run reads 0 in the per-layer list. Units match BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
    {"ops_per_s", "1/s"},
    {"op_ms", "ms"},
};

constexpr MetricSpec kPerLayer[] = {
    {"nn.plan_s", "s"},
    {"nn.prewarm_s", "s"},
    {"nn.slab_kib_per_image", "KiB"},
    {"nn.executor_overhead_ms", "ms"},
    {"nn.pool_ms", "ms"},
    {"nn.fc_ms", "ms"},
    {"nn.planned_over_best_uniform", "ratio"},
    {"nn.predicted_abs_err_ms", "ms"},
    {"nn.conv1_1.ms", "ms"},
    {"nn.conv1_2.ms", "ms"},
    {"nn.conv2_1.ms", "ms"},
    {"nn.conv2_2.ms", "ms"},
    {"nn.conv3_1.ms", "ms"},
    {"nn.conv3_2.ms", "ms"},
    {"nn.conv3_3.ms", "ms"},
    {"nn.conv4_1.ms", "ms"},
    {"nn.conv4_2.ms", "ms"},
    {"nn.conv4_3.ms", "ms"},
    {"nn.conv5_1.ms", "ms"},
    {"nn.conv5_2.ms", "ms"},
    {"nn.conv5_3.ms", "ms"},
    {"winograd.ms", "ms"},
    {"winograd.gflops", "GFLOP/s"},
    {"conv.ms", "ms"},
    {"conv.gflops", "GFLOP/s"},
    {"runtime.sgemm_gflops", "GFLOP/s"},
    {"runtime.igemm_gops", "GOP/s"},
    {"quant.ms", "ms"},
    {"quant.gops", "GOP/s"},
    {"quant.rel_error_max", "ratio"},
    {"serve.queue_wait_ms.p50", "ms"},
    {"serve.queue_wait_ms.p99", "ms"},
    {"serve.exec_ms.p50", "ms"},
    {"serve.batch_size_mean", "count"},
    {"winograd.cook_toom_s", "s"},
    {"winograd.op_report_ms", "ms"},
    {"fpga.estimate_us", "us"},
    {"fpga.max_pes_ms", "ms"},
    {"hw.sim_ms", "ms"},
    {"dse.evaluate_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0) || opt.seconds > 600) {
        return usage("--seconds takes a number in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      opt.trace = value == "1";
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");

  perfbench::Result (*run)(const perfbench::Options&) = nullptr;
  if (opt.workload == "offline_fp32_32px") run = perfbench::run_offline;
  if (opt.workload == "serve_int8_16px") run = perfbench::run_serve;
  if (opt.workload == "dse_sweep") run = perfbench::run_dse;
  if (run == nullptr) return usage(("unknown workload " + opt.workload).c_str());

  wino::runtime::ThreadPool::set_global_threads(perfbench::kPoolThreads);
  std::printf("perfbench %s seed %llu, %.1f s, trace %d\n",
              opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0);
  std::printf("threads: pool %zu; kernels: sgemm %s, igemm %s\n",
              wino::runtime::ThreadPool::global().threads(),
              wino::runtime::sgemm_kernel_name(),
              wino::runtime::igemm_kernel_name());
  perfbench::Tracer::enable(opt.trace);

  perfbench::Result res;
  try {
    res = run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  perfbench::Tracer::enable(false);
  if (opt.trace && !opt.trace_out.empty()) {
    if (!perfbench::Tracer::write_json(opt.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   opt.trace_out.c_str());
      return 1;
    }
    std::printf("trace: %zu spans written to %s\n", perfbench::Tracer::size(),
                opt.trace_out.c_str());
  }

  std::map<std::string, double> got;
  for (const Metric& m : res.metrics) got[m.name] = m.value;
  std::printf("%s: attempted %llu, failed %llu\n", opt.workload.c_str(),
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed));
  for (const std::string& f : res.check_failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }

  std::string json = "{\"correct\": ";
  json += res.check_failures.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(res.attempted);
  json += ", \"failed\": " + std::to_string(res.failed);
  json += ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const MetricSpec& spec, bool required) {
    const auto it = got.find(spec.name);
    if (it == got.end() && required) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   spec.name);
      std::exit(1);
    }
    const double v = it == got.end() ? 0.0 : it->second;
    std::printf("  %-30s %14.6g %s\n", spec.name, v, spec.unit);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    json += std::string(first ? "" : ", ") + "\"" + spec.name +
            "\": {\"value\": " + buf + ", \"unit\": \"" + spec.unit + "\"}";
    first = false;
  };
  if (opt.trace) {
    for (const MetricSpec& s : kPerLayer) emit(s, false);
  } else {
    for (const MetricSpec& s : kEndToEnd) emit(s, true);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return res.check_failures.empty() && res.attempted > 0 ? 0 : 1;
}
