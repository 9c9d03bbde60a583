#include "host.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common.hpp"
#include "dse/roofline.hpp"
#include "runtime/gemm.hpp"

namespace perfbench {

HostRoof measure_host_roof() {
  HostRoof roof;
  constexpr std::size_t n = 512;
  std::vector<float> a(n * n, 0.5F), b(n * n, 0.25F), c(n * n);
  double best_ms = 1e30;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    wino::runtime::sgemm(n, n, n, 1.0F, a.data(), n, b.data(), n, 0.0F,
                         c.data(), n);
    best_ms = std::min(best_ms, ms_since(t0));
  }
  roof.peak_gflops = 2.0 * n * n * n / (best_ms * 1e6);

  constexpr std::size_t bytes = 64u << 20;
  std::vector<char> src(bytes, 1), dst(bytes, 0);
  best_ms = 1e30;
  for (int rep = 0; rep < 5; ++rep) {
    src[static_cast<std::size_t>(rep)] = static_cast<char>(rep);
    const auto t0 = Clock::now();
    std::memcpy(dst.data(), src.data(), bytes);
    best_ms = std::min(best_ms, ms_since(t0));
  }
  roof.copy_gbps = 2.0 * bytes / (best_ms * 1e6);
  return roof;
}

double roofline_bound_ms(const wino::nn::ConvLayerSpec& layer, int m,
                         std::size_t batch, const HostRoof& roof) {
  const double intensity =
      wino::dse::arithmetic_intensity(layer, m, sizeof(float), batch);
  const double attainable_gflops =
      std::min(roof.peak_gflops, intensity * roof.copy_gbps);
  return static_cast<double>(layer.spatial_ops(batch)) /
         (attainable_gflops * 1e6);
}

}  // namespace perfbench
