// Incremental-STA benchmark: the placement flow run with the dirty-frontier
// update() engine versus the same flow forced to full recomputes
// (StaConfig::incremental = false). Reports wall-clock speedup and the
// reduction in propagated pin updates (the engine's work metric). Both the
// single-edit and the flow ratio are medians of paired samples of at least
// 20 ms each.
//
// Also measures the flight-recorder tax: the same incremental flow with the
// trace ring enabled, which must stay within ~2% of the untraced run.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/trace.h"
#include "core/rlccd.h"

namespace rlccd {
namespace {

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// One timing sample: whole passes until at least kMinSampleSec of pass time
// has accumulated, so scheduler noise stays small beside it (one
// incremental edit-loop pass is only ~2 ms, one incremental flow ~8 ms).
// `pass` runs once and returns its own seconds; the sample is the mean
// seconds per pass.
constexpr double kMinSampleSec = 0.02;

template <typename Pass>
double sample(Pass&& pass) {
  double total = 0.0;
  int passes = 0;
  while (total < kMinSampleSec) {
    total += pass();
    ++passes;
  }
  return total / passes;
}

struct FlowCost {
  double seconds = 0.0;  // median sample, seconds per flow
  std::uint64_t pin_updates = 0;
  double tns = 0.0;
};

// One timed placement flow on a fresh copy of the design. Pin updates and
// TNS are identical in every run of one mode.
double run_flow(const Design& d, bool incremental, FlowCost& cost) {
  FlowConfig cfg =
      default_flow_config(d.netlist->num_real_cells(), d.clock_period);
  StaConfig sta_cfg = d.sta_config;
  sta_cfg.incremental = incremental;
  Netlist work = *d.netlist;
  auto t0 = std::chrono::steady_clock::now();
  FlowInput input{sta_cfg, d.clock_period, d.die, d.pi_toggles};
  FlowResult fr = run_placement_flow(work, input, cfg);
  const double sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  cost.pin_updates = fr.sta_stats.pin_updates();
  cost.tns = fr.final_summary.tns;
  return sec;
}

struct FlowCompare {
  FlowCost full, inc, traced;
  double speedup = 0.0;         // median of the paired full/inc ratios
  double trace_overhead = 0.0;  // median of the paired traced/inc - 1
};

// Flow-level comparison, sampled like the single-edit loop: each repeat
// times a full, an incremental and a traced incremental sample back to
// back, and the ratios are medians over the repeats' paired ratios.
FlowCompare measure_flows(const Design& d, int repeats) {
  FlowCompare out;
  std::vector<double> full, inc, traced, ratio, overhead;
  for (int r = 0; r < repeats; ++r) {
    full.push_back(sample([&] { return run_flow(d, false, out.full); }));
    inc.push_back(sample([&] { return run_flow(d, true, out.inc); }));
    TraceRecorder::global().enable();
    run_flow(d, true, out.traced);  // untimed: allocates the per-thread ring
    traced.push_back(sample([&] { return run_flow(d, true, out.traced); }));
    TraceRecorder::global().disable();
    ratio.push_back(full.back() / inc.back());
    overhead.push_back(traced.back() / inc.back() - 1.0);
  }
  out.full.seconds = median(full);
  out.inc.seconds = median(inc);
  out.traced.seconds = median(traced);
  out.speedup = median(ratio);
  out.trace_overhead = median(overhead);
  return out;
}

struct EditCost {
  double sec_full = 0.0;  // median sample, seconds per pass
  double sec_inc = 0.0;
  double speedup = 0.0;   // median of the paired samples' ratios
  std::uint64_t pins_full = 0;
  std::uint64_t pins_inc = 0;
};

// One timed pass of the single-edit loop on a fresh copy of the design;
// returns (seconds, pin updates).
std::pair<double, std::uint64_t> run_edit_loop(const Design& d,
                                               bool incremental, int edits) {
  Netlist work = *d.netlist;
  StaConfig cfg = d.sta_config;
  cfg.incremental = incremental;
  Sta sta(&work, cfg, d.clock_period);
  sta.run();
  sta.reset_stats();
  const Library& lib = work.library();

  std::vector<CellId> cells;
  for (const Cell& c : work.cells()) {
    if (!work.is_port(c.id)) cells.push_back(c.id);
  }
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < edits; ++i) {
    CellId c = cells[static_cast<std::size_t>(i * 37) % cells.size()];
    LibCellId up = lib.upsize(work.cell(c).lib);
    LibCellId dn = lib.downsize(work.cell(c).lib);
    LibCellId next = up.valid() ? up : dn;
    if (!next.valid()) continue;
    work.resize_cell(c, next);
    sta.update();
  }
  const double sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return {sec, sta.stats().pin_updates()};
}

// One timing sample of the single-edit loop; returns the mean seconds per
// pass and one pass's pin updates (identical in every pass).
std::pair<double, std::uint64_t> sample_edit_loop(const Design& d,
                                                  bool incremental,
                                                  int edits) {
  std::uint64_t pins = 0;
  const double sec = sample([&] {
    const auto [pass_sec, pass_pins] = run_edit_loop(d, incremental, edits);
    pins = pass_pins;
    return pass_sec;
  });
  return {sec, pins};
}

// Mutation-level comparison: repeated single-cell resizes, re-analyzed after
// each edit — the access pattern of every greedy optimization loop. Each
// repeat times a full sample and then an incremental one back to back; the
// speedup is the median of the repeats' ratios, so a host that slows down
// between repeats moves both halves of a pair together. The pin-update
// counts are deterministic.
EditCost measure_single_edits(const Design& d, int repeats) {
  const int kEdits = 200;
  EditCost cost;
  std::vector<double> full, inc, ratio;
  for (int r = 0; r < repeats; ++r) {
    const auto [full_sec, full_pins] = sample_edit_loop(d, false, kEdits);
    const auto [inc_sec, inc_pins] = sample_edit_loop(d, true, kEdits);
    full.push_back(full_sec);
    inc.push_back(inc_sec);
    ratio.push_back(full_sec / inc_sec);
    cost.pins_full = full_pins;
    cost.pins_inc = inc_pins;
  }
  cost.sec_full = median(full);
  cost.sec_inc = median(inc);
  cost.speedup = median(ratio);

  std::printf("single-edit loop (%d resizes, %zu pins each full pass, "
              "per pass, median of %d samples of >= %.0f ms):\n",
              kEdits, d.netlist->num_pins(), repeats, 1e3 * kMinSampleSec);
  std::printf("  full      : %8.3f ms, %12llu pin updates\n",
              1e3 * cost.sec_full,
              static_cast<unsigned long long>(cost.pins_full));
  std::printf("  increment : %8.3f ms, %12llu pin updates\n",
              1e3 * cost.sec_inc,
              static_cast<unsigned long long>(cost.pins_inc));
  std::printf("  speedup %.2fx (median paired ratio), pin-update reduction "
              "%.2fx\n\n",
              cost.speedup,
              static_cast<double>(cost.pins_full) /
                  static_cast<double>(cost.pins_inc));
  return cost;
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
  gcfg.name = "micro2000";
  gcfg.target_cells = 2000;
  gcfg.seed = 5;
  gcfg.clock_tightness = 0.75;
  Design d = generate_design(gcfg);

  std::printf("== incremental STA vs full recompute ==\n");
  std::printf("design: %zu cells, %zu pins, period %.3f ns\n\n",
              d.netlist->num_real_cells(), d.netlist->num_pins(),
              d.clock_period);

  const int kRepeats = 5;
  EditCost edits = measure_single_edits(d, kRepeats);
  const FlowCompare flows = measure_flows(d, kRepeats);
  const FlowCost& full = flows.full;
  const FlowCost& inc = flows.inc;

  std::printf("run_placement_flow (per flow, median of %d samples of >= "
              "%.0f ms):\n",
              kRepeats, 1e3 * kMinSampleSec);
  std::printf("  full      : %8.3f ms, %12llu pin updates, TNS %.4f\n",
              1e3 * full.seconds,
              static_cast<unsigned long long>(full.pin_updates), full.tns);
  std::printf("  increment : %8.3f ms, %12llu pin updates, TNS %.4f\n",
              1e3 * inc.seconds,
              static_cast<unsigned long long>(inc.pin_updates), inc.tns);
  std::printf("  speedup %.2fx (median paired ratio), pin-update reduction "
              "%.2fx\n",
              flows.speedup,
              static_cast<double>(full.pin_updates) /
                  static_cast<double>(inc.pin_updates));

  std::printf("\ntracing overhead (incremental flow, ring enabled):\n");
  std::printf("  untraced  : %8.3f ms\n", 1e3 * inc.seconds);
  std::printf("  traced    : %8.3f ms  (%llu events, %llu dropped)\n",
              1e3 * flows.traced.seconds,
              static_cast<unsigned long long>(
                  TraceRecorder::global().buffered_events()),
              static_cast<unsigned long long>(
                  TraceRecorder::global().dropped_events()));
  std::printf("  overhead %+.2f%% (median paired)\n",
              100.0 * flows.trace_overhead);

  // Bench document for rlccd_report: the speedup / reduction ratios are
  // checked against the committed baseline in CI, the absolute times are
  // informational.
  if (!json_path.empty()) {
    const std::pair<const char*, double> metrics[] = {
        {"single_edit_full_ms", 1e3 * edits.sec_full},
        {"single_edit_inc_ms", 1e3 * edits.sec_inc},
        {"single_edit_speedup", edits.speedup},
        {"single_edit_pin_reduction",
         static_cast<double>(edits.pins_full) /
             static_cast<double>(edits.pins_inc)},
        {"flow_full_ms", 1e3 * full.seconds},
        {"flow_inc_ms", 1e3 * inc.seconds},
        {"flow_speedup", flows.speedup},
        {"flow_pin_reduction", static_cast<double>(full.pin_updates) /
                                   static_cast<double>(inc.pin_updates)},
        {"trace_overhead_pct", 100.0 * flows.trace_overhead},
    };
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\"bench\":\"incremental\",\"metrics\":{");
    bool first = true;
    for (const auto& [name, value] : metrics) {
      std::fprintf(f, "%s\"%s\":%.6f", first ? "" : ",", name, value);
      first = false;
    }
    std::fprintf(f, "}}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
