// Timing-report walkthrough: generate a Table-II block, print the design
// summary, the worst timing paths (report_timing-style), the violating
// endpoint distribution, and the fan-in cone overlap among the worst
// endpoints.
//
//   ./examples/timing_report [block] [scale]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/log.h"
#include "designgen/blocks.h"
#include "netlist/stats.h"
#include "sta/cone.h"
#include "sta/path.h"

using namespace rlccd;

int main(int argc, char** argv) {
  set_log_level(LogLevel::Warn);
  std::string block = argc > 1 ? argv[1] : "block5";
  double scale = argc > 2 ? std::atof(argv[2]) : 0.01;

  Design d = generate_design(to_generator_config(find_block(block), scale));
  std::printf("%s: %s\n", d.name.c_str(),
              stats_to_string(compute_stats(*d.netlist)).c_str());
  std::printf("clock period %.3f ns, die %.0f x %.0f um\n\n", d.clock_period,
              d.die.width, d.die.height);

  Sta sta = d.make_sta();
  sta.run();
  TimingSummary s = sta.summary();
  std::printf("WNS %.3f ns | TNS %.2f ns | %zu violating of %zu endpoints | "
              "worst hold slack %.3f ns\n\n",
              s.wns, s.tns, s.nve, s.num_endpoints,
              std::min(s.worst_hold_slack, 9.999));

  // Worst three paths.
  std::vector<PinId> vio = sta.endpoint_violations();
  std::sort(vio.begin(), vio.end(), [&](PinId a, PinId b) {
    return sta.endpoint_slack(a) < sta.endpoint_slack(b);
  });
  std::printf("--- worst %zu paths ---\n", std::min<std::size_t>(3, vio.size()));
  for (std::size_t i = 0; i < std::min<std::size_t>(3, vio.size()); ++i) {
    TimingPath path = extract_critical_path(sta, vio[i]);
    std::fputs(path_to_string(*d.netlist, path).c_str(), stdout);
    std::printf("\n");
  }

  // Endpoint slack histogram.
  std::printf("--- violating endpoint slack distribution ---\n");
  if (!vio.empty()) {
    double worst = sta.endpoint_slack(vio.front());
    constexpr int kBuckets = 6;
    std::vector<int> hist(kBuckets, 0);
    for (PinId ep : vio) {
      int b = std::min(kBuckets - 1,
                       static_cast<int>(sta.endpoint_slack(ep) / worst *
                                        kBuckets));
      ++hist[static_cast<std::size_t>(b)];
    }
    for (int b = kBuckets - 1; b >= 0; --b) {
      std::printf("  slack in [%6.3f, %6.3f): %4d  ",
                  worst * (b + 1) / kBuckets, worst * b / kBuckets,
                  hist[static_cast<std::size_t>(b)]);
      for (int j = 0; j < hist[static_cast<std::size_t>(b)] && j < 60; ++j) {
        std::fputc('#', stdout);
      }
      std::fputc('\n', stdout);
    }
  }

  // Fan-in cone overlap snapshot (the structure RL-CCD's masking exploits).
  if (vio.size() >= 2) {
    ConeIndex cones(*d.netlist, vio);
    int pairs = 0, overlapping = 0;
    for (std::size_t i = 0; i < std::min<std::size_t>(40, cones.size()); ++i) {
      for (std::size_t j = i + 1; j < std::min<std::size_t>(40, cones.size());
           ++j) {
        ++pairs;
        if (cones.overlap(i, j) > 0.3) ++overlapping;
      }
    }
    std::printf("\ncone overlap (rho=0.3) among worst endpoints: %d of %d "
                "pairs overlap\n",
                overlapping, pairs);
  }
  return 0;
}
