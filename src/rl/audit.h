// Decision provenance for RL-CCD training runs ("why did the agent pick
// these endpoints?").
//
// A SelectionAudit records, for every step of one rollout, the chosen
// endpoint with its pristine slack, the log-probability and entropy of the
// masked attention distribution (paper Eq. 6), the top-k endpoint
// probabilities, and every endpoint the action masked together with the
// cone-overlap ratio that masked it (Fig. 3). The trainer collects one per
// worker per iteration and forwards them — plus per-iteration aggregates
// (reward, baseline, gradient norm) — to an AuditSink.
//
// JsonlAuditWriter streams the records as JSON Lines, one self-describing
// object per line ("type":"rollout" | "iteration" | "flow"). Numbers are
// serialized with 17 significant digits, so a deterministic seeded run
// produces a byte-identical file (the golden test relies on this); no
// wall-clock timestamps are recorded for the same reason.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace rlccd {

// One endpoint masked by an action, with the fan-in cone-overlap ratio
// against the chosen endpoint that exceeded rho.
struct AuditMaskEvent {
  std::uint32_t endpoint = 0;
  double overlap = 0.0;
};

// One selection step of a rollout.
struct AuditStep {
  std::uint32_t chosen = 0;  // endpoint index (DesignGraph::violating order)
  double slack = 0.0;        // pristine slack of the chosen endpoint (ns)
  double log_prob = 0.0;     // log pi(chosen | state)
  double entropy = 0.0;      // entropy of the masked softmax (nats)
  // Largest attention probabilities this step, descending (ties broken by
  // endpoint index); at most SelectionAudit::kTopK entries.
  std::vector<std::pair<std::uint32_t, double>> top_probs;
  // Endpoints masked by this action (cone overlap > rho).
  std::vector<AuditMaskEvent> masked;
};

// Full provenance of one trajectory.
struct SelectionAudit {
  static constexpr std::size_t kTopK = 5;
  std::vector<AuditStep> steps;
  bool poisoned = false;  // trajectory stopped on non-finite logits

  [[nodiscard]] double mean_entropy() const;
  void clear() {
    steps.clear();
    poisoned = false;
  }
};

// One trajectory as the trainer saw it: the audit plus its outcome.
struct RolloutAuditRecord {
  int iteration = -1;  // -1: outside the training loop (greedy decode)
  int worker = -1;
  double tns = 0.0;     // final TNS of the reward flow (when it ran)
  double reward = 0.0;  // normalized reward (when finite)
  bool flow_ran = false;
  bool poisoned = false;
  bool cancelled = false;  // rollout watchdog fired
  bool crashed = false;    // isolated worker process lost (restarts exhausted)
  const SelectionAudit* audit = nullptr;  // never null when emitted

  [[nodiscard]] std::string to_json() const;  // one JSONL object
};

// Per-iteration aggregates over the surviving trajectories.
struct IterationAuditRecord {
  int iteration = 0;
  int survivors = 0;
  int poisoned = 0;
  int cancelled = 0;
  int crashed = 0;  // workers lost to process crashes this iteration
  double mean_reward = 0.0;
  double mean_tns = 0.0;
  double iter_best_tns = 0.0;
  double best_tns = 0.0;
  double mean_steps = 0.0;
  double mean_entropy = 0.0;  // mean over surviving trajectories
  double grad_norm = 0.0;     // pre-clip norm of the merged gradient
  double baseline = 0.0;      // baseline used for this iteration's advantage

  [[nodiscard]] std::string to_json() const;
};

// Outcome of one full placement flow (the facade's final default/RL flows):
// summary plus per-prioritized-endpoint begin/final slack.
struct FlowAuditRecord {
  struct Outcome {
    std::uint64_t pin = 0;  // PinId value
    double begin_slack = 0.0;
    double final_slack = 0.0;
  };
  std::string label;  // "default" | "rl"
  double wns = 0.0;
  double tns = 0.0;
  std::uint64_t nve = 0;
  std::vector<Outcome> outcomes;

  [[nodiscard]] std::string to_json() const;
};

// Receives provenance records on the thread running the training loop (the
// trainer emits after its workers have joined, in worker order, so a sink
// needs no locking of its own).
class AuditSink {
 public:
  virtual ~AuditSink() = default;
  virtual void on_rollout(const RolloutAuditRecord& record) = 0;
  virtual void on_iteration(const IterationAuditRecord& record) = 0;
  virtual void on_flow(const FlowAuditRecord& record) { (void)record; }
};

// Streams records to a JSON Lines file.
class JsonlAuditWriter : public AuditSink {
 public:
  // Creates/truncates `path`; fails with an io_error Status when the file
  // cannot be opened.
  static Status open(const std::string& path,
                     std::unique_ptr<JsonlAuditWriter>& out);
  ~JsonlAuditWriter() override;
  JsonlAuditWriter(const JsonlAuditWriter&) = delete;
  JsonlAuditWriter& operator=(const JsonlAuditWriter&) = delete;

  void on_rollout(const RolloutAuditRecord& record) override;
  void on_iteration(const IterationAuditRecord& record) override;
  void on_flow(const FlowAuditRecord& record) override;

  // Flushes and closes, reporting any buffered write error; the destructor
  // closes silently.
  Status close();

 private:
  explicit JsonlAuditWriter(std::FILE* file, std::string path)
      : file_(file), path_(std::move(path)) {}
  void write_line(const std::string& line);

  std::FILE* file_;
  std::string path_;
};

}  // namespace rlccd
