#include "models.hpp"

#include <algorithm>
#include <exception>
#include <thread>

#include "nn/vgg16.hpp"
#include "nn/zoo.hpp"
#include "quant/prune.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace bench {

namespace {

using namespace tsca;

// The serving bench's recipe: random He-scaled weights, Han pruning profile,
// calibration on one Gaussian sample.
void build_vgg(Model& m, int channel_divisor, std::uint64_t weight_seed) {
  Rng rng(weight_seed);
  m.net = nn::build_vgg16({.input_extent = 32,
                           .channel_divisor = channel_divisor,
                           .num_classes = 10});
  nn::WeightsF weights = nn::init_random_weights(m.net, rng);
  quant::prune_weights(m.net, weights, quant::vgg16_han_profile());
  nn::FeatureMapF calib(m.net.input_shape());
  for (std::size_t i = 0; i < calib.size(); ++i)
    calib.data()[i] = static_cast<float>(rng.next_gaussian() * 0.4);
  m.quant = quant::quantize_network(m.net, weights, {calib});
}

// Distinct, seed-determined input stream per model.
std::uint64_t image_seed(const std::string& id, std::uint64_t seed) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a over the id
  for (const char c : id)
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  return h ^ (seed * 0x9e3779b97f4a7c15ull);
}

}  // namespace

Model make_model(const std::string& id, std::uint64_t seed) {
  Model m;
  m.id = id;
  if (id == "vgg16") {
    build_vgg(m, 16, 2025);
  } else if (id == "vgg16_div8") {
    build_vgg(m, 8, 2024);
  } else if (id == "mobile") {
    zoo::ZooModel z = zoo::make_mobile_depthwise(11);
    m.net = std::move(z.net);
    m.quant = std::move(z.model);
  } else if (id == "residual") {
    zoo::ZooModel z = zoo::make_residual_cifar(7);
    m.net = std::move(z.net);
    m.quant = std::move(z.model);
  } else {
    TSCA_CHECK(false, "unknown model " << id);
  }

  Rng rng(image_seed(id, seed));
  for (int i = 0; i < kPoolImages; ++i) {
    nn::FeatureMapI8 fm(m.net.input_shape());
    for (std::size_t j = 0; j < fm.size(); ++j)
      fm.data()[j] = static_cast<std::int8_t>(rng.next_int(-40, 40));
    m.images.push_back(std::move(fm));
  }

  // The int8 reference is scalar and slow next to the fast path, so the
  // pool is split across threads; each thread writes its own slots.
  m.expected.resize(m.images.size());
  const unsigned threads =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::vector<std::exception_ptr> errors(threads);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t)
    pool.emplace_back([&m, &errors, t, threads] {
      try {
        for (std::size_t i = t; i < m.images.size(); i += threads)
          m.expected[i] =
              nn::forward_i8_all(m.net, m.quant.weights, m.images[i])
                  .back()
                  .flat;
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  for (std::thread& t : pool) t.join();
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
  TSCA_CHECK(!m.expected.front().empty(),
             "model " << id << " does not end in logits");
  return m;
}

}  // namespace bench
