// Central manifest of every metric name the library records.
//
// Metric names are stringly-typed at the recording site (registry lookups
// are find-or-register), which made typos unfindable: a misspelled
// "train.checkpoint_written" would silently register a fresh counter and
// dashboards would read zero forever. This header is the single source of
// truth — the registry's find-or-register path debug-asserts that any *new*
// name either appears below or carries one of the sanctioned dynamic
// prefixes, and a unit test plus the CI exposition scrape cross-check the
// manifest against what a real run registers.
//
// Adding a metric: add the name to exactly one list below (counters,
// gauges, histograms), in sorted order, then record it. Dynamic families
// ("fault.<point>" — one counter per fault-injection point, "test.*" —
// unit-test scratch names) are prefix-sanctioned instead of enumerated.
#pragma once

#include <cstddef>
#include <string_view>

namespace rlccd {

inline constexpr std::string_view kCounterNames[] = {
    "flow.cancelled",
    "opt.buffering.inserted",
    "opt.hold_fix.buffers",
    "opt.restructure.swaps",
    "opt.sizing.downsized",
    "opt.sizing.upsized",
    "opt.useful_skew.flops_adjusted",
    "opt.useful_skew.sweeps",
    "policy.nonfinite_logits",
    "serve.accept_failures",
    "serve.clients_accepted",
    "serve.clients_dropped",
    "serve.jobs_cancelled",
    "serve.jobs_done",
    "serve.jobs_drained",
    "serve.jobs_failed",
    "serve.jobs_killed",
    "serve.jobs_rejected",
    "serve.jobs_retried",
    "serve.jobs_shed",
    "serve.jobs_submitted",
    "serve.obs_delta_errors",
    "serve.obs_deltas_merged",
    "serve.postmortems_written",
    "serve.queue_full_injected",
    "serve.traces_written",
    "sta.full_runs",
    "sta.incremental_updates",
    "sta.pin_updates.backward",
    "sta.pin_updates.forward",
    "sta.relevel_batches",
    "trace.events_dropped",
    "train.cancelled",
    "train.checkpoint_failures",
    "train.checkpoints_skipped",
    "train.checkpoints_written",
    "train.iterations_degraded",
    "train.iterations_failed",
    "train.resumes",
    "train.rollbacks",
    "train.rollouts_cancelled",
    "train.trajectories_poisoned",
    "train.worker_kills",
    "train.worker_restarts",
    "train.workers_lost",
};

inline constexpr std::string_view kGaugeNames[] = {
    "serve.clients_connected",
    "serve.jobs_retry_wait",
    "serve.jobs_running",
    "serve.queue_depth",
    "serve.stats_watchers",
};

inline constexpr std::string_view kHistogramNames[] = {
    "flow.seconds",
    "serve.job_run_sec",
    "serve.queue_wait_sec",
    "sta.update.pin_updates",
    "train.iteration.seconds",
};

// Name families registered at runtime with an unbounded suffix: one counter
// per armed fault-injection point, and unit-test scratch metrics.
inline constexpr std::string_view kDynamicMetricPrefixes[] = {
    "fault.",
    "test.",
};

// True when `name` is sanctioned: listed in one of the manifests above or
// carrying a dynamic prefix. The registry debug-asserts this on every
// *registration* (first use of a name); release builds skip the check.
[[nodiscard]] inline bool metric_name_registered(std::string_view name) {
  for (std::string_view p : kDynamicMetricPrefixes) {
    if (name.size() > p.size() && name.substr(0, p.size()) == p) return true;
  }
  for (std::string_view n : kCounterNames) {
    if (name == n) return true;
  }
  for (std::string_view n : kGaugeNames) {
    if (name == n) return true;
  }
  for (std::string_view n : kHistogramNames) {
    if (name == n) return true;
  }
  return false;
}

}  // namespace rlccd
