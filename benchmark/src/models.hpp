// The benchmark's models and their seeded input pools.
//
// Weights are fixed per model (their own RNG seeds, identical on every run
// and every commit); only the input images depend on the workload seed.
// Each model carries the int8 reference logits of every pool image, computed
// once with nn::forward_i8_all outside any timed region: every output the
// benchmark receives is compared against them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/network.hpp"
#include "quant/quantize.hpp"

namespace bench {

// Images per model pool; requests and batches cycle through the pool.
inline constexpr int kPoolImages = 64;

struct Model {
  std::string id;
  tsca::nn::Network net{tsca::nn::FmShape{}};
  tsca::quant::QuantizedModel quant;
  std::vector<tsca::nn::FeatureMapI8> images;
  std::vector<std::vector<std::int8_t>> expected;  // reference logits
};

// Builds one of "vgg16" (VGG-16 /16, Han-pruned, weights rng 2025),
// "vgg16_div8" (VGG-16 /8, Han-pruned, rng 2024), "mobile"
// (zoo::make_mobile_depthwise(11)) or "residual" (zoo::make_residual_cifar(7)),
// with a pool of kPoolImages inputs drawn from `seed`.
Model make_model(const std::string& id, std::uint64_t seed);

}  // namespace bench
