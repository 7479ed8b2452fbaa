// Fig. 7 — Efficiency of each accelerator variant for VGG-16 inference.
//
// Efficiency = ideal throughput / modelled throughput per convolutional
// layer; "best"/"worst" are the extreme single layers, "mean" is the
// MAC-weighted average.  Pruned-model rows ("-pr") exceed 100 % because
// zero-skipping avoids multiply-accumulates the ideal assumes.
//
// Cycle counts come from the transaction-level performance model, which
// tests hold to within a few percent of the cycle-accurate engine
// (tests/test_perf_model.cpp); pass --simulate to re-measure a spot-check
// layer on the cycle engine here as well.
#include <cstdio>
#include <cstring>
#include <vector>

#include "core/accelerator.hpp"
#include "driver/runtime.hpp"
#include "driver/study.hpp"

using namespace tsca;

namespace {

void spot_check_cycle_engine(const driver::StudyNetwork& net) {
  // Re-measure conv4_1 (deep-ish, still quick) on the cycle-accurate engine
  // and compare with the model.
  for (const driver::StudyLayer& layer : net.layers) {
    if (layer.name != "conv4_1") continue;
    core::ArchConfig cfg = core::ArchConfig::k256_opt();
    core::Accelerator acc(cfg);
    sim::Dram dram(256u << 20);
    sim::DmaEngine dma(dram);
    driver::Runtime runtime(acc, dram, dma, {.mode = driver::ExecMode::kCycle});
    Rng rng(5);
    nn::FeatureMapI8 input(layer.padded_in);
    for (std::size_t i = 0; i < input.size(); ++i)
      input.data()[i] = static_cast<std::int8_t>(rng.next_int(-30, 30));
    driver::LayerRun run;
    const driver::ConvProgram program = driver::compile_study_conv(cfg, layer);
    std::vector<pack::TiledFm> fms{pack::to_tiled(input)};
    runtime.run_conv_batch(fms, program, run);
    const driver::PerfModel model(cfg);
    const driver::ConvPerf perf = model.conv_layer(layer.padded_in,
                                                   layer.packed);
    std::printf(
        "[spot check] %s/%s: cycle engine %llu cycles, perf model %lld "
        "(%.2f%% error)\n\n",
        net.model_name.c_str(), layer.name.c_str(),
        static_cast<unsigned long long>(run.cycles),
        static_cast<long long>(perf.cycles),
        100.0 * (static_cast<double>(perf.cycles) -
                 static_cast<double>(run.cycles)) /
            static_cast<double>(run.cycles));
    return;
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool simulate = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--simulate") == 0) simulate = true;

  std::printf("Fig. 7 — efficiency per variant, VGG-16 (224x224)\n\n");
  const driver::StudyNetwork unpruned =
      driver::build_study_network({.pruned = false});
  const driver::StudyNetwork pruned =
      driver::build_study_network({.pruned = true});

  if (simulate) spot_check_cycle_engine(unpruned);

  std::printf("%-14s %8s %8s %8s   (ideal = 1.00, dotted line)\n", "variant",
              "best", "worst", "mean");
  for (const driver::StudyNetwork* net : {&unpruned, &pruned}) {
    for (const core::ArchConfig& cfg : core::ArchConfig::paper_variants()) {
      const driver::VariantResult r = driver::evaluate_variant(cfg, *net);
      const std::string label =
          cfg.name + (net == &pruned ? "-pr" : "");
      std::printf("%-14s %7.1f%% %7.1f%% %7.1f%%\n", label.c_str(),
                  100.0 * r.best_efficiency, 100.0 * r.worst_efficiency,
                  100.0 * r.mean_efficiency);
    }
    std::printf("\n");
  }

  std::printf("Per-layer efficiency, 256-opt:\n%-10s %10s %10s %8s %8s\n",
              "layer", "ideal Mcyc", "model Mcyc", "unpr", "pruned");
  const core::ArchConfig cfg = core::ArchConfig::k256_opt();
  for (std::size_t i = 0; i < unpruned.layers.size(); ++i) {
    const driver::PerfModel model(cfg);
    const driver::ConvPerf u = model.conv_layer(unpruned.layers[i].padded_in,
                                                unpruned.layers[i].packed);
    const driver::ConvPerf p = model.conv_layer(pruned.layers[i].padded_in,
                                                pruned.layers[i].packed);
    std::printf("%-10s %10.2f %10.2f %7.1f%% %7.1f%%\n",
                unpruned.layers[i].name.c_str(), u.ideal_cycles / 1e6,
                u.cycles / 1e6, 100.0 * u.efficiency(),
                100.0 * p.efficiency());
  }
  std::printf(
      "\nPaper reference: unpruned layers usually within ~10%% of ideal;\n"
      "pruned layers exceed 100%% (zero-skipping); deeper layers are worse\n"
      "(weight-unpack overhead grows with the weight:FM data ratio).\n");
  return 0;
}
