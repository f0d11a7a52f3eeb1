// STA kernel benchmark over the SoA TimingStore: the full forward+backward
// pass, and the caller-provided-buffer endpoint-slack scan against the
// allocating overload.
//
// With --json PATH the results are written as a bench document
// ({"bench":"sta_kernels","metrics":{...}}) that rlccd_report loads and
// diffs: the speedup ratio participates in the CI regression verdict,
// absolute milliseconds are informational (hardware varies).
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/env.h"
#include "designgen/generator.h"
#include "sta/sta.h"

namespace rlccd {
namespace {

double now_sec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double best_full_pass_ms(Sta& sta, int repeats) {
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    const double t0 = now_sec();
    sta.run();
    best = std::min(best, now_sec() - t0);
  }
  return 1e3 * best;
}

}  // namespace
}  // namespace rlccd

int main(int argc, char** argv) {
  using namespace rlccd;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  GeneratorConfig gcfg;
  gcfg.name = "kern";
  gcfg.target_cells = env_flag("RLCCD_BENCH_FAST") ? 4000
                      : env_flag("RLCCD_BENCH_FULL") ? 30000
                                                     : 12000;
  gcfg.seed = 7;
  gcfg.clock_tightness = 0.78;
  Design d = generate_design(gcfg);
  const int kRepeats = env_flag("RLCCD_BENCH_FAST") ? 3 : 5;

  std::printf("== SoA timing store / STA kernels ==\n");
  std::printf("design: %zu cells, %zu pins, period %.3f ns\n\n",
              d.netlist->num_real_cells(), d.netlist->num_pins(),
              d.clock_period);

  std::vector<std::pair<std::string, double>> metrics;
  metrics.emplace_back("cells",
                       static_cast<double>(d.netlist->num_real_cells()));
  metrics.emplace_back("pins", static_cast<double>(d.netlist->num_pins()));

  // Full forward+backward passes.
  Sta sta = d.make_sta();
  sta.run();
  const double full_ms = best_full_pass_ms(sta, kRepeats);
  std::printf("full pass (forward+backward, best of %d): %8.3f ms\n",
              kRepeats, full_ms);
  metrics.emplace_back("full_pass_t1_ms", full_ms);

  // Endpoint-slack scan: the caller-provided-buffer overload (flat SoA read
  // plus a reused vector) against the allocating overload, over the hot
  // access pattern of the flow's prioritized-endpoint bookkeeping.
  {
    const int kScans = 2000;
    std::span<const PinId> eps = sta.endpoints();
    std::vector<double> buf;
    double t0 = now_sec();
    for (int i = 0; i < kScans; ++i) sta.endpoint_slacks(eps, buf);
    const double reuse_ms = 1e3 * (now_sec() - t0);
    t0 = now_sec();
    double sink = 0.0;
    for (int i = 0; i < kScans; ++i) {
      std::vector<double> fresh = sta.endpoint_slacks(eps);
      sink += fresh.empty() ? 0.0 : fresh[0];
    }
    const double alloc_ms = 1e3 * (now_sec() - t0);
    std::printf(
        "\nendpoint-slack scan (%d scans over %zu endpoints, sink %g):\n"
        "  alloc : %8.3f ms\n  reuse : %8.3f ms  (speedup %.2fx)\n",
        kScans, eps.size(), sink, alloc_ms, reuse_ms, alloc_ms / reuse_ms);
    metrics.emplace_back("endpoint_scan_alloc_ms", alloc_ms);
    metrics.emplace_back("endpoint_scan_reuse_ms", reuse_ms);
    metrics.emplace_back("endpoint_scan_speedup", alloc_ms / reuse_ms);
  }

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\"bench\":\"sta_kernels\",\"metrics\":{");
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      std::fprintf(f, "%s\"%s\":%.6f", i ? "," : "", metrics[i].first.c_str(),
                   metrics[i].second);
    }
    std::fprintf(f, "}}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
