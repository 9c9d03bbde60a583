#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <numeric>

#include "common/random.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

bool same_bits(const wino::tensor::Tensor4f& a,
               const wino::tensor::Tensor4f& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.flat().data(), b.flat().data(),
                     a.flat().size() * sizeof(float)) == 0;
}

wino::tensor::Tensor4f random_batch(std::size_t n, std::size_t c,
                                    std::size_t hw, std::uint64_t seed) {
  wino::tensor::Tensor4f t(n, c, hw, hw);
  wino::common::Rng rng(seed);
  rng.fill_uniform(t.flat(), -1.0F, 1.0F);
  return t;
}

wino::tensor::Tensor4f image_of(const wino::tensor::Tensor4f& batch,
                                std::size_t n) {
  const auto& s = batch.shape();
  wino::tensor::Tensor4f img(1, s.c, s.h, s.w);
  const std::size_t vol = s.c * s.h * s.w;
  std::copy_n(batch.flat().begin() + static_cast<std::ptrdiff_t>(n * vol), vol,
              img.flat().begin());
  return img;
}

}  // namespace perfbench
