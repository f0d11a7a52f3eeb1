// rlccd_cli — command-line driver for the library.
//
//   rlccd_cli generate <block|cells> [--scale S] [--seed N] [--out FILE]
//   rlccd_cli sta      <block> [--scale S]          # timing report
//   rlccd_cli flow     <block> [--scale S]          # default placement flow
//   rlccd_cli train    <block> [--scale S] [--iters N] [--workers N]
//                      [--rho R] [--gnn-in FILE] [--gnn-out FILE]
//
// Shared flags (tools/common_args.h, `rlccd_cli --help` lists them):
// flight-recorder artifacts (--metrics-json / --metrics-csv / --trace-json /
// --audit-jsonl / --progress) and fault tolerance (--checkpoint-dir /
// --resume / --rollout-deadline / --isolate-workers / --max-worker-restarts).
// Feed the artifacts to rlccd_report.
//
// Blocks are the paper's Table-II names (block1..block19); a plain number
// generates an anonymous design with that many cells.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "common/log.h"
#include "common/progress.h"
#include "core/rlccd.h"
#include "designgen/blocks.h"
#include "netlist/serialize.h"
#include "netlist/stats.h"
#include "rl/audit.h"
#include "sta/path.h"
#include "tools/common_args.h"

using namespace rlccd;

namespace {

struct Args {
  std::string command;
  std::string target;
  double scale = 0.01;
  std::uint64_t seed = 1;
  int iters = 8;
  int workers = 6;
  double rho = 0.3;
  std::string out;
  std::string gnn_in;
  std::string gnn_out;
  tools::CommonArgs common;
};

StderrProgress g_progress;

// Decision-provenance writer for `train`; opened in main when
// --audit-jsonl is set.
std::unique_ptr<JsonlAuditWriter> g_audit;

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: rlccd_cli <generate|sta|flow|train> <block|cells> "
               "[--scale S] [--seed N] [--iters N] [--workers N] [--rho R] "
               "[--out FILE] [--gnn-in FILE] [--gnn-out FILE] %s\n",
               tools::common_usage_fragment().c_str());
  tools::print_common_help(out);
}

bool parse(int argc, char** argv, Args& args) {
  if (argc < 3) return false;
  args.command = argv[1];
  args.target = argv[2];
  bool ok = true;
  for (int i = 3; i < argc; ++i) {
    if (tools::parse_common_flag(argc, argv, i, args.common, ok)) {
      if (!ok) return false;
      continue;
    }
    std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return ++i < argc ? argv[i] : nullptr;
    };
    const char* v = nullptr;
    if (flag == "--scale" && (v = next())) {
      args.scale = std::atof(v);
    } else if (flag == "--seed" && (v = next())) {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--iters" && (v = next())) {
      args.iters = std::atoi(v);
    } else if (flag == "--workers" && (v = next())) {
      args.workers = std::atoi(v);
    } else if (flag == "--rho" && (v = next())) {
      args.rho = std::atof(v);
    } else if (flag == "--out" && (v = next())) {
      args.out = v;
    } else if (flag == "--gnn-in" && (v = next())) {
      args.gnn_in = v;
    } else if (flag == "--gnn-out" && (v = next())) {
      args.gnn_out = v;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

Design make_design(const Args& args) {
  char* end = nullptr;
  long cells = std::strtol(args.target.c_str(), &end, 10);
  if (end != args.target.c_str() && *end == '\0' && cells > 0) {
    GeneratorConfig cfg;
    cfg.name = "cli";
    cfg.target_cells = static_cast<std::size_t>(cells);
    cfg.seed = args.seed;
    return generate_design(cfg);
  }
  GeneratorConfig cfg = to_generator_config(find_block(args.target),
                                            args.scale);
  if (args.seed != 1) cfg.seed = args.seed;
  return generate_design(cfg);
}

int cmd_generate(const Args& args) {
  Design d = make_design(args);
  std::printf("%s: %s\n", d.name.c_str(),
              stats_to_string(compute_stats(*d.netlist)).c_str());
  std::printf("period %.3f ns, die %.0f x %.0f um\n", d.clock_period,
              d.die.width, d.die.height);
  if (!args.out.empty()) {
    Status s = write_netlist_file(*d.netlist, args.out);
    if (!s.ok()) {
      std::fprintf(stderr, "cannot write netlist: %s\n",
                   s.to_string().c_str());
      return 1;
    }
    std::printf("netlist written to %s\n", args.out.c_str());
  }
  return 0;
}

int cmd_sta(const Args& args) {
  Design d = make_design(args);
  Sta sta = d.make_sta();
  sta.run();
  TimingSummary s = sta.summary();
  std::printf("%s @ %.3f ns: WNS %.3f  TNS %.2f  NVE %zu/%zu\n",
              d.name.c_str(), d.clock_period, s.wns, s.tns, s.nve,
              s.num_endpoints);
  TimingPath worst = extract_worst_path(sta);
  if (worst.endpoint.valid()) {
    std::fputs(path_to_string(*d.netlist, worst).c_str(), stdout);
  }
  return 0;
}

int cmd_flow(const Args& args) {
  Design d = make_design(args);
  Netlist work = *d.netlist;
  FlowConfig cfg =
      default_flow_config(work.num_real_cells(), d.clock_period);
  if (args.common.progress) cfg.observer = &g_progress;
  FlowInput input{d.sta_config, d.clock_period, d.die, d.pi_toggles};
  FlowResult r = run_placement_flow(work, input, cfg);
  std::printf("begin : WNS %.3f  TNS %.2f  NVE %zu  power %.2f mW\n",
              r.begin.wns, r.begin.tns, r.begin.nve, r.power_begin.total());
  std::printf("final : WNS %.3f  TNS %.2f  NVE %zu  power %.2f mW\n",
              r.final_summary.wns, r.final_summary.tns, r.final_summary.nve,
              r.power_final.total());
  std::printf("moves : %d upsized, %d downsized, %d buffers, %d swaps "
              "(%.2f s)\n",
              r.cells_upsized, r.cells_downsized, r.buffers_inserted,
              r.pins_swapped, r.runtime_sec());
  return 0;
}

int cmd_train(const Args& args) {
  Design d = make_design(args);
  RlCcdConfig cfg = RlCcdConfig::for_design(d);
  cfg.train.max_iterations = args.iters;
  cfg.train.workers = args.workers;
  cfg.train.overlap_threshold = args.rho;
  tools::apply_train_args(args.common, cfg.train);
  cfg.pretrained_gnn = args.gnn_in;
  if (args.common.progress) cfg.observer = &g_progress;
  if (g_audit != nullptr) cfg.audit = g_audit.get();
  RlCcd agent(&d, cfg);
  RlCcdResult r = agent.run();
  std::printf("default: TNS %.3f  NVE %zu\n", r.default_flow.final_summary.tns,
              r.default_flow.final_summary.nve);
  std::printf("RL-CCD : TNS %.3f  NVE %zu  (|sel| %zu, %.1f%% TNS gain, "
              "%.1f%% NVE gain, runtime x%.0f)\n",
              r.rl_flow.final_summary.tns, r.rl_flow.final_summary.nve, r.selection.size(),
              r.tns_gain_pct(), r.nve_gain_pct(), r.runtime_factor);
  if (!args.gnn_out.empty()) {
    Status s = agent.save_gnn(args.gnn_out);
    if (!s.ok()) {
      std::fprintf(stderr, "cannot write EP-GNN weights: %s\n",
                   s.to_string().c_str());
      return 1;
    }
    std::printf("EP-GNN weights written to %s\n", args.gnn_out.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::Warn);
  if (argc == 2 && (std::strcmp(argv[1], "--help") == 0 ||
                    std::strcmp(argv[1], "-h") == 0)) {
    usage(stdout);
    return 0;
  }
  Args args;
  if (!parse(argc, argv, args)) {
    usage(stderr);
    return 2;
  }
  if (!tools::open_common_artifacts(args.common, g_audit)) return 1;
  int rc = -1;
  if (args.command == "generate") rc = cmd_generate(args);
  else if (args.command == "sta") rc = cmd_sta(args);
  else if (args.command == "flow") rc = cmd_flow(args);
  else if (args.command == "train") rc = cmd_train(args);
  if (rc < 0) {
    std::fprintf(stderr, "unknown command: %s\n", args.command.c_str());
    return 2;
  }
  if (!tools::write_common_artifacts(args.common, g_audit.get())) return 1;
  return rc;
}
