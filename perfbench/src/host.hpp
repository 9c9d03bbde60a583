// Host roofline for the per-layer table: the GEMM core's delivered peak and
// a copy bandwidth, measured once per traced run, combined with the dse::
// traffic model's arithmetic intensity of each layer.
#pragma once

#include "nn/network.hpp"

namespace perfbench {

struct HostRoof {
  double peak_gflops = 0;  ///< sgemm 512^3, best of a few
  double copy_gbps = 0;    ///< 64 MiB memcpy (read + write), best of a few
};

[[nodiscard]] HostRoof measure_host_roof();

/// Lower bound on one conv layer's time (ms) for `batch` images: delivered
/// spatial ops over min(peak, dse::arithmetic_intensity x bandwidth).
/// `m` is the Winograd tile edge the layer runs with (1 for direct forms).
[[nodiscard]] double roofline_bound_ms(const wino::nn::ConvLayerSpec& layer,
                                       int m, std::size_t batch,
                                       const HostRoof& roof);

}  // namespace perfbench
