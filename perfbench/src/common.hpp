// Shared plumbing of the benchmark binary: options, the result record every
// workload fills, percentile helpers and process-level measurements.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Threads of the library's global pool in every workload: one, the
/// calling thread. On the shared 4-core reference host, with other tenants
/// taking CPU time, every fork-join of a 2-thread pool waits for whichever
/// of its threads the host descheduled: under two competing busy loops a
/// 2-thread pool spread 0.19 (offline img/s) and 0.38 (serving req/s) over
/// five seeds, a 1-thread pool 0.08 and 0.12.
inline constexpr std::size_t kPoolThreads = 1;

/// Cold set-ups per run; setup_s is the fastest of them. The first set-ups
/// of a process run slower (first-touch page faults, allocator growth),
/// and a host stall lands in whichever set-up it hits, so the minimum is
/// the steady figure: the median of five moved by 40% between two sets of
/// runs on the reference host.
inline constexpr int kSetupReps = 7;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  ///< span file written by a traced run
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload hands back to main(): operation counts, metrics in print
/// order, and every failed output check.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> check_failures;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records `what` as a failed check when `ok` is false.
  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
};

[[nodiscard]] inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}
[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Linearly interpolated quantile (q in [0, 1]) of an unsorted sample; 0
/// for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}
[[nodiscard]] double mean(const std::vector<double>& v);
/// Smallest value of a non-empty sample.
[[nodiscard]] inline double fastest(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

/// The p99 of a sample counts only with at least ten samples beyond it.
[[nodiscard]] inline bool p99_supported(std::size_t samples) {
  return samples >= 1000;
}

/// Peak resident set of this process so far, in MiB (getrusage).
[[nodiscard]] double peak_rss_mib();

/// Memory bit-identity of two tensors (shape and every float's bits).
[[nodiscard]] bool same_bits(const wino::tensor::Tensor4f& a,
                             const wino::tensor::Tensor4f& b);

/// Seeded NCHW batch, uniform in [-1, 1).
[[nodiscard]] wino::tensor::Tensor4f random_batch(std::size_t n, std::size_t c,
                                                  std::size_t hw,
                                                  std::uint64_t seed);

/// One image of a batch as its own (1, c, h, w) tensor.
[[nodiscard]] wino::tensor::Tensor4f image_of(
    const wino::tensor::Tensor4f& batch, std::size_t n);

Result run_offline(const Options& opt);
Result run_serve(const Options& opt);
Result run_dse(const Options& opt);

}  // namespace perfbench
