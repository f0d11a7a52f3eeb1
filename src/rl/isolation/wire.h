// One rollout worker's result, and its form on the supervisor pipe
// (rl/isolation/supervisor.h). Both backends hand the trainer a
// WorkerRollout: a worker thread fills it in place; an isolated child
// encodes it, with its telemetry delta (counters, histograms, span tree)
// beside it, and the parent decodes both and merge_delta()s the telemetry
// so metrics agree with the thread backend. Encoding is little-endian
// fixed-width via the common/ipc.h codec; a leading version byte rejects
// frames from a mismatched binary.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "common/telemetry.h"
#include "rl/audit.h"
#include "rl/evaluator.h"

namespace rlccd {

struct WorkerRollout {
  EvalOutcome outcome;     // reward evaluation
  std::int32_t steps = 0;
  bool poisoned = false;   // non-finite logits/TNS/reward/gradients
  // Set by the parent when an isolated worker's process was lost (restarts
  // exhausted); never on the wire. The other fields keep their defaults.
  bool crashed = false;
  std::vector<PinId> selection;
  std::vector<std::vector<float>> grads;  // per parameter
  SelectionAudit audit;                   // decision provenance

  // Whether this trajectory enters the gradient estimate and the stats.
  [[nodiscard]] bool survived() const {
    return !poisoned && !outcome.cancelled && !crashed;
  }
};

// Bumped whenever the byte layout changes.
inline constexpr std::uint8_t kRolloutWireVersion = 4;

void encode_rollout_wire(const WorkerRollout& rollout,
                         const TelemetrySnapshot& telemetry, std::string& out);
// Rejects unknown versions and any truncated / overlong byte stream with a
// corrupt Status.
Status decode_rollout_wire(std::string_view bytes, WorkerRollout& rollout,
                           TelemetrySnapshot& telemetry);

}  // namespace rlccd
