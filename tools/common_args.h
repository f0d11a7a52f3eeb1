// Flags shared by the rlccd_cli and smoke_rl drivers, parsed in one place.
//
// Both tools accept the same flight-recorder artifact flags
// (--metrics-json, --metrics-csv, --metrics-prom, --trace-json,
// --audit-jsonl, --progress) and the same fault-tolerance knobs
// (--checkpoint-dir, --resume, --rollout-deadline, --isolate-workers,
// --max-worker-restarts). Each used to hand-roll its own strcmp chain;
// this header declares the shared spec table instead: parse_common_flag()
// consumes one argv token against it, print_common_help() generates the
// flag documentation from the same table (so help can never drift from
// what parses), and apply_train_args() maps the typed values onto a
// TrainConfig.
//
// The artifact epilogue both tools shared verbatim lives here too:
// open_common_artifacts() before the command (arms the trace recorder,
// opens the audit stream), write_common_artifacts() after it (metrics
// JSON/CSV, Chrome trace, audit close).
#pragma once

#include <cstdio>
#include <memory>
#include <string>

#include "rl/audit.h"
#include "rl/trainer.h"

namespace rlccd {
namespace tools {

struct CommonArgs {
  std::string metrics_json;
  std::string metrics_csv;
  std::string metrics_prom;
  std::string trace_json;
  std::string audit_jsonl;
  bool progress = false;
  std::string checkpoint_dir;
  bool resume = false;
  double rollout_deadline_sec = 0.0;
  bool isolate_workers = false;
  int max_worker_restarts = -1;  // < 0: keep the TrainConfig default
};

// Tries to consume argv[i] (plus its value, when the spec takes one) as a
// shared flag. Returns true when the token matched a shared flag, in which
// case `i` is advanced past any value. A matched flag missing its value
// prints a diagnostic to stderr and sets `ok` to false.
bool parse_common_flag(int argc, char** argv, int& i, CommonArgs& args,
                       bool& ok);

// One "  --flag VALUE  help" line per spec-table entry, written to `out` —
// generated from the same table parse_common_flag() matches against.
void print_common_help(std::FILE* out);

// Single-line usage fragment ("[--metrics-json FILE] [--metrics-csv FILE]
// ...") for embedding in a tool's usage string.
std::string common_usage_fragment();

// Applies the training-related flags onto a TrainConfig. A negative
// max_worker_restarts leaves the config's default untouched.
void apply_train_args(const CommonArgs& args, TrainConfig& train);

// Pre-command artifact setup: arms the Chrome-trace recorder when
// --trace-json was given and opens the --audit-jsonl stream (writer left
// null otherwise). Returns false (with a stderr diagnostic) when the audit
// file cannot be opened.
bool open_common_artifacts(const CommonArgs& args,
                           std::unique_ptr<JsonlAuditWriter>& audit);

// Post-command artifact writing: telemetry JSON/CSV, the Chrome trace, and
// the audit close, each announced on stdout. Returns false (with a stderr
// diagnostic) when any requested artifact cannot be written.
bool write_common_artifacts(const CommonArgs& args, JsonlAuditWriter* audit);

}  // namespace tools
}  // namespace rlccd
