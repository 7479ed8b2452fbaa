// Fig. 8 — Absolute effective GOPS across accelerator variants for VGG-16.
//
// "Effective" GOPS counts zero-skipped multiply-accumulates as performed
// (dense MACs / elapsed time); peak is the best single convolutional layer,
// average is the MAC-weighted whole-network number (conv + interleaved
// pad/pool work).  Operations are counted as MACs, matching the paper's
// accounting (512 MACs/cycle × 120 MHz = 61.4 GOPS ideal for 512-opt).
#include <cstdio>

#include "driver/study.hpp"

using namespace tsca;

namespace {

struct PaperRow {
  const char* variant;
  double avg;
  double peak;
};

// Values read off Fig. 8 for the 512-opt variant (stated in the text) and
// approximate bar heights for the others.
constexpr PaperRow kPaperUnpruned[] = {
    {"16-unopt", 0.8, 0.9},
    {"256-unopt", 13.0, 14.0},
    {"256-opt", 35.0, 38.0},
    {"512-opt", 39.5, 61.0},
};
constexpr PaperRow kPaperPruned[] = {
    {"16-unopt", 1.2, 2.0},
    {"256-unopt", 17.0, 31.0},
    {"256-opt", 47.0, 85.0},
    {"512-opt", 53.3, 138.0},
};

}  // namespace

int main() {
  std::printf("Fig. 8 — effective GOPS per variant, VGG-16 (224x224)\n\n");
  const driver::StudyNetwork unpruned =
      driver::build_study_network({.pruned = false});
  const driver::StudyNetwork pruned =
      driver::build_study_network({.pruned = true});

  std::printf("%-14s %8s %8s %8s %8s | %8s %8s | %8s %7s\n", "variant",
              "avg", "avg(net)", "avg(dma)", "peak", "pap-avg", "pap-pk",
              "gap", "gap%");
  std::printf("  (avg = conv only; net = +pad/pool; dma = +serialized DMA;\n"
              "   gap = avg(dma) - pap-avg, in GOPS and as %% of pap-avg)\n");
  for (int model = 0; model < 2; ++model) {
    const driver::StudyNetwork& net = model == 0 ? unpruned : pruned;
    const PaperRow* paper = model == 0 ? kPaperUnpruned : kPaperPruned;
    for (std::size_t v = 0; v < core::ArchConfig::paper_variants().size();
         ++v) {
      const core::ArchConfig& cfg = core::ArchConfig::paper_variants()[v];
      const driver::VariantResult r = driver::evaluate_variant(cfg, net);
      const std::string label = cfg.name + (model == 1 ? "-pr" : "");
      const double gap = r.network_gops_dma_serial - paper[v].avg;
      std::printf("%-14s %8.1f %8.1f %8.1f %8.1f | %8.1f %8.1f | %+8.1f "
                  "%+6.0f%%\n",
                  label.c_str(), r.mean_gops, r.network_gops,
                  r.network_gops_dma_serial, r.best_gops, paper[v].avg,
                  paper[v].peak, gap, 100.0 * gap / paper[v].avg);
    }
    std::printf("\n");
  }

  // The paper's headline claims.
  const driver::VariantResult u512 = driver::evaluate_variant(
      core::ArchConfig::k512_opt(), unpruned);
  const driver::VariantResult p512 = driver::evaluate_variant(
      core::ArchConfig::k512_opt(), pruned);
  std::printf("512-opt pruning speedup: avg %.2fx (paper ~1.3x), "
              "peak %.2fx (paper ~2.2x)\n",
              p512.network_gops / u512.network_gops,
              p512.best_gops / u512.best_gops);
  std::printf("Peak effective performance: %.0f GOPS (paper: 138 GOPS)\n",
              p512.best_gops);
  return 0;
}
