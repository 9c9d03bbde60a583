// Independent reference for inference outputs: a naive double-precision
// composition of direct convolution + ReLU, 2x2/2 max pooling and fully
// connected layers over the same weights. It shares no code with the
// library's kernels, so agreement is evidence, not a tautology.
#pragma once

#include <vector>

#include "nn/forward.hpp"
#include "nn/network.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

/// Output activations of `input` (any batch) through `layers`, flattened
/// per image in NCHW order: result[n * per_image + i]. With `trail`, also
/// every layer's output activation, as an NCHW tensor rounded to float.
[[nodiscard]] std::vector<double> reference_forward(
    const std::vector<wino::nn::LayerSpec>& layers,
    const wino::nn::WeightBank& weights, const wino::tensor::Tensor4f& input,
    std::vector<wino::tensor::Tensor4f>* trail = nullptr);

/// max |got - ref| / max |ref| over every element (the error measure the
/// planner's budget bounds).
[[nodiscard]] double relative_error(const wino::tensor::Tensor4f& got,
                                    const std::vector<double>& ref);

}  // namespace perfbench
