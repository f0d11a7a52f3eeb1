// rlccd_cli — command-line driver for the library.
//
//   rlccd_cli generate <block|cells> [--scale S] [--seed N]
//   rlccd_cli sta      <block> [--scale S]          # timing report
//   rlccd_cli flow     <block> [--scale S]          # default placement flow
//   rlccd_cli train    <block> [--scale S] [--iters N] [--workers N]
//                      [--rho R] [--gnn-in FILE] [--gnn-out FILE]
//
// Every command also takes the flight-recorder artifact flags
// (--metrics-json / --metrics-csv / --metrics-prom / --trace-json /
// --audit-jsonl / --progress); `train` takes the fault-tolerance flags
// (--checkpoint-dir / --resume / --rollout-deadline / --isolate-workers /
// --max-worker-restarts). `rlccd_cli --help` lists every flag, generated
// from the same table the parser matches against. Feed the artifacts to
// rlccd_report.
//
// Blocks are the paper's Table-II names (block1..block19); a plain number
// generates an anonymous design with that many cells.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <variant>

#include "common/log.h"
#include "common/progress.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "core/rlccd.h"
#include "designgen/blocks.h"
#include "netlist/stats.h"
#include "rl/audit.h"
#include "sta/path.h"

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
  std::string gnn_in;
  std::string gnn_out;
  // Flight-recorder artifacts.
  std::string metrics_json;
  std::string metrics_csv;
  std::string metrics_prom;
  std::string trace_json;
  std::string audit_jsonl;
  bool progress = false;
  // Fault tolerance.
  std::string checkpoint_dir;
  bool resume = false;
  double rollout_deadline_sec = 0.0;
  bool isolate_workers = false;
  int max_worker_restarts = -1;  // < 0: keep the TrainConfig default
};

// One flag: the member it writes fixes the value type. `value_name` being
// null marks a boolean flag (no value token).
struct FlagSpec {
  const char* name;
  const char* value_name;
  const char* help;
  std::variant<std::string Args::*, double Args::*, int Args::*,
               std::uint64_t Args::*, bool Args::*>
      field;
};

const FlagSpec kFlags[] = {
    {"--scale", "S", "block size as a fraction of the paper's cell count",
     &Args::scale},
    {"--seed", "N", "design generator seed", &Args::seed},
    {"--iters", "N", "train: REINFORCE iterations", &Args::iters},
    {"--workers", "N", "train: rollouts per iteration", &Args::workers},
    {"--rho", "R", "train: endpoint cone-overlap threshold", &Args::rho},
    {"--gnn-in", "FILE", "train: start from these EP-GNN weights",
     &Args::gnn_in},
    {"--gnn-out", "FILE", "train: write the trained EP-GNN weights",
     &Args::gnn_out},
    {"--metrics-json", "FILE",
     "write the telemetry registry as JSON after the command",
     &Args::metrics_json},
    {"--metrics-csv", "FILE",
     "write the telemetry counters/histograms as CSV", &Args::metrics_csv},
    {"--metrics-prom", "FILE",
     "write the telemetry registry as Prometheus text exposition",
     &Args::metrics_prom},
    {"--trace-json", "FILE",
     "record a Chrome-trace timeline (Perfetto / chrome://tracing)",
     &Args::trace_json},
    {"--audit-jsonl", "FILE",
     "stream RL decision provenance as JSON Lines during training",
     &Args::audit_jsonl},
    {"--progress", nullptr, "stream per-pass / per-iteration events to stderr",
     &Args::progress},
    {"--checkpoint-dir", "DIR",
     "persist training checkpoints here (empty: disabled)",
     &Args::checkpoint_dir},
    {"--resume", nullptr,
     "resume from the newest valid checkpoint in --checkpoint-dir",
     &Args::resume},
    {"--rollout-deadline", "SECS",
     "per-rollout watchdog deadline; <= 0 disables",
     &Args::rollout_deadline_sec},
    {"--isolate-workers", nullptr,
     "run each rollout in a forked, supervised child process",
     &Args::isolate_workers},
    {"--max-worker-restarts", "N",
     "restarts allowed per isolated worker per iteration",
     &Args::max_worker_restarts},
};

void set_value(std::string& f, const char* v) { f = v; }
void set_value(double& f, const char* v) { f = std::atof(v); }
void set_value(int& f, const char* v) { f = std::atoi(v); }
void set_value(std::uint64_t& f, const char* v) {
  f = std::strtoull(v, nullptr, 10);
}
void set_value(bool& f, const char*) { f = true; }

StderrProgress g_progress;

// Decision-provenance writer for `train`; opened in main when
// --audit-jsonl is set.
std::unique_ptr<JsonlAuditWriter> g_audit;

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: rlccd_cli <generate|sta|flow|train> <block|cells> "
               "[flags]\nflags:\n");
  for (const FlagSpec& spec : kFlags) {
    char left[48];
    std::snprintf(left, sizeof(left), "%s %s", spec.name,
                  spec.value_name != nullptr ? spec.value_name : "");
    std::fprintf(out, "  %-28s %s\n", left, spec.help);
  }
}

const FlagSpec* find_flag(const char* name) {
  for (const FlagSpec& spec : kFlags) {
    if (std::strcmp(name, spec.name) == 0) return &spec;
  }
  return nullptr;
}

bool parse(int argc, char** argv, Args& args) {
  if (argc < 3) return false;
  args.command = argv[1];
  args.target = argv[2];
  for (int i = 3; i < argc; ++i) {
    const FlagSpec* spec = find_flag(argv[i]);
    if (spec == nullptr) {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return false;
    }
    const char* v = nullptr;
    if (spec->value_name != nullptr) {
      if (++i >= argc) {
        std::fprintf(stderr, "%s requires a %s value\n", spec->name,
                     spec->value_name);
        return false;
      }
      v = argv[i];
    }
    std::visit([&](auto member) { set_value(args.*member, v); }, spec->field);
  }
  return true;
}

void apply_train_args(const Args& args, TrainConfig& train) {
  train.checkpoint_dir = args.checkpoint_dir;
  train.resume = args.resume;
  train.rollout_deadline_sec = args.rollout_deadline_sec;
  train.isolate_workers = args.isolate_workers;
  if (args.max_worker_restarts >= 0) {
    train.max_worker_restarts = args.max_worker_restarts;
  }
}

// Pre-command artifact setup: arms the Chrome-trace recorder when
// --trace-json was given and opens the --audit-jsonl stream.
bool open_artifacts(const Args& args) {
  if (!args.trace_json.empty()) TraceRecorder::global().enable();
  if (!args.audit_jsonl.empty()) {
    Status s = JsonlAuditWriter::open(args.audit_jsonl, g_audit);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.to_string().c_str());
      return false;
    }
  }
  return true;
}

// Post-command artifact writing: telemetry JSON/CSV/Prometheus, the Chrome
// trace and the audit close, each announced on stdout.
bool write_artifacts(const Args& args) {
  using Writer = bool (MetricsRegistry::*)(const std::string&) const;
  const std::pair<const std::string*, Writer> metrics[] = {
      {&args.metrics_json, &MetricsRegistry::write_json},
      {&args.metrics_csv, &MetricsRegistry::write_csv},
      {&args.metrics_prom, &MetricsRegistry::write_prometheus},
  };
  for (const auto& [path, write] : metrics) {
    if (path->empty()) continue;
    if (!(MetricsRegistry::global().*write)(*path)) {
      std::fprintf(stderr, "cannot write %s\n", path->c_str());
      return false;
    }
    std::printf("telemetry written to %s\n", path->c_str());
  }
  if (!args.trace_json.empty()) {
    TraceRecorder& rec = TraceRecorder::global();
    rec.disable();
    if (!rec.write_chrome_json(args.trace_json)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_json.c_str());
      return false;
    }
    std::printf("trace written to %s (%llu events, %llu dropped)\n",
                args.trace_json.c_str(),
                static_cast<unsigned long long>(rec.buffered_events()),
                static_cast<unsigned long long>(rec.dropped_events()));
  }
  if (g_audit != nullptr) {
    Status s = g_audit->close();
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.to_string().c_str());
      return false;
    }
    std::printf("audit written to %s\n", args.audit_jsonl.c_str());
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
  if (args.progress) cfg.observer = &g_progress;
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
  apply_train_args(args, cfg.train);
  cfg.pretrained_gnn = args.gnn_in;
  if (args.progress) cfg.observer = &g_progress;
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
  if (!open_artifacts(args)) return 1;
  int rc = -1;
  if (args.command == "generate") rc = cmd_generate(args);
  else if (args.command == "sta") rc = cmd_sta(args);
  else if (args.command == "flow") rc = cmd_flow(args);
  else if (args.command == "train") rc = cmd_train(args);
  if (rc < 0) {
    std::fprintf(stderr, "unknown command: %s\n", args.command.c_str());
    return 2;
  }
  if (!write_artifacts(args)) return 1;
  return rc;
}
