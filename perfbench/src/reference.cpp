#include "reference.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

using wino::nn::LayerKind;

std::vector<double> reference_forward(
    const std::vector<wino::nn::LayerSpec>& layers,
    const wino::nn::WeightBank& weights, const wino::tensor::Tensor4f& input,
    std::vector<wino::tensor::Tensor4f>* trail) {
  const auto& s = input.shape();
  std::size_t n = s.n, c = s.c, h = s.h, w = s.w;
  std::vector<double> act(input.flat().begin(), input.flat().end());
  std::size_t conv_idx = 0, fc_idx = 0;
  for (const auto& l : layers) {
    if (l.kind == LayerKind::kConv) {
      const auto& kern = weights.conv_kernels.at(conv_idx++);
      const std::size_t k = kern.shape().n, r = kern.shape().h;
      const long pad = l.conv.pad;
      const std::size_t oh = h + 2 * static_cast<std::size_t>(pad) - r + 1;
      const std::size_t ow = w + 2 * static_cast<std::size_t>(pad) - r + 1;
      std::vector<double> out(n * k * oh * ow, 0.0);
      for (std::size_t b = 0; b < n; ++b)
        for (std::size_t ko = 0; ko < k; ++ko)
          for (std::size_t y = 0; y < oh; ++y)
            for (std::size_t x = 0; x < ow; ++x) {
              double acc = 0;
              for (std::size_t ci = 0; ci < c; ++ci)
                for (std::size_t u = 0; u < r; ++u) {
                  const long iy = static_cast<long>(y + u) - pad;
                  if (iy < 0 || iy >= static_cast<long>(h)) continue;
                  for (std::size_t v = 0; v < r; ++v) {
                    const long ix = static_cast<long>(x + v) - pad;
                    if (ix < 0 || ix >= static_cast<long>(w)) continue;
                    acc += act[((b * c + ci) * h + static_cast<std::size_t>(
                                                        iy)) *
                                   w +
                               static_cast<std::size_t>(ix)] *
                           static_cast<double>(kern(ko, ci, u, v));
                  }
                }
              out[((b * k + ko) * oh + y) * ow + x] = std::max(acc, 0.0);
            }
      act = std::move(out);
      c = k;
      h = oh;
      w = ow;
    } else if (l.kind == LayerKind::kMaxPool) {
      const std::size_t oh = h / 2, ow = w / 2;
      std::vector<double> out(n * c * oh * ow);
      for (std::size_t p = 0; p < n * c; ++p)
        for (std::size_t y = 0; y < oh; ++y)
          for (std::size_t x = 0; x < ow; ++x) {
            const double* base = &act[p * h * w];
            out[(p * oh + y) * ow + x] =
                std::max({base[2 * y * w + 2 * x], base[2 * y * w + 2 * x + 1],
                          base[(2 * y + 1) * w + 2 * x],
                          base[(2 * y + 1) * w + 2 * x + 1]});
          }
      act = std::move(out);
      h = oh;
      w = ow;
    } else {
      const auto& wts = weights.fc_weights.at(fc_idx);
      const auto& bias = weights.fc_bias.at(fc_idx);
      ++fc_idx;
      const std::size_t in = c * h * w;
      if (in != l.fc_in || wts.size() != in * l.fc_out) {
        throw std::invalid_argument("reference_forward: fc shape mismatch");
      }
      const bool relu = fc_idx < weights.fc_weights.size();
      std::vector<double> out(n * l.fc_out);
      for (std::size_t b = 0; b < n; ++b)
        for (std::size_t o = 0; o < l.fc_out; ++o) {
          double acc = bias[o];
          for (std::size_t i = 0; i < in; ++i) {
            acc += static_cast<double>(wts[o * in + i]) * act[b * in + i];
          }
          out[b * l.fc_out + o] = relu ? std::max(acc, 0.0) : acc;
        }
      act = std::move(out);
      c = l.fc_out;
      h = w = 1;
    }
    if (trail != nullptr) {
      trail->emplace_back(n, c, h, w);
      std::copy(act.begin(), act.end(), trail->back().flat().begin());
    }
  }
  return act;
}

double relative_error(const wino::tensor::Tensor4f& got,
                      const std::vector<double>& ref) {
  const auto g = got.flat();
  if (g.size() != ref.size()) return INFINITY;
  double max_diff = 0, max_ref = 0;
  for (std::size_t i = 0; i < g.size(); ++i) {
    if (!std::isfinite(g[i])) return INFINITY;
    max_diff = std::max(max_diff, std::abs(static_cast<double>(g[i]) - ref[i]));
    max_ref = std::max(max_ref, std::abs(ref[i]));
  }
  return max_ref > 0 ? max_diff / max_ref : max_diff;
}

}  // namespace perfbench
