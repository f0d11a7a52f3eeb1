// perfbench — the end-to-end RL-CCD benchmark, one workload per process.
//
//   perfbench --workload train|decode|flow|isolated --seed N --seconds S
//             --trace 0|1 [--trace-out FILE]
//
// Each workload is a closed loop driven by this one process (at most four
// threads or forked workers). The seed derives the generated design, the
// policy initialisation, the training RNG and the flow workload's
// selections; the library only ever sees those generated inputs.
//
//   train     RlCcd facade, block11 at 1/50 scale, 4 thread workers, a
//             fixed iteration count: NN decode and backward dominate.
//   decode    greedy Policy::rollout in inference mode, block11 at 1/20
//             scale: the encode/decode forward alone.
//   flow      run_placement_flow on fresh netlist copies, block11 at 1/5
//             scale, with seeded random selections (and the empty one):
//             STA and the optimization passes alone.
//   isolated  the train loop with forked workers, block11 at 1/100 scale:
//             fork, pipe and wire costs are a visible share.
//
// --trace 0 measures the end-to-end metrics. --trace 1 is the separate
// traced run: half of the time untraced, half with spans recorded, then one
// call into each layer's public function at the workload's shape; it
// reports the per-layer metrics and writes the spans as a Chrome trace.
// The end-to-end times are normalised to a host-speed reference pass timed
// around every unit of work (see host_ref_pass_sec). Every run checks its
// outputs (determinism across repeats, flow-run counts, finite TNS,
// overlap-mask validity). Human-readable lines go to stdout first; the last
// line is the JSON result. perfbench/README.md defines every metric.
#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/log.h"
#include "common/telemetry.h"
#include "core/rlccd.h"
#include "designgen/blocks.h"
#include "nn/ops.h"
#include "nn/optim.h"
#include "recorder.h"

using namespace rlccd;
using perfbench::BenchSpan;
using perfbench::now_sec;
using perfbench::Recorder;

namespace {

constexpr int kWorkers = 4;
constexpr int kIterations = 3;
constexpr int kRandomSelections = 3;  // flow workload, plus the empty one
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 9;
constexpr double kSetupBudgetSec = 1.0;
constexpr std::size_t kProbeTailSteps = 4;  // policy probes decode this many

// Placement-flow passes reported per flow: the direct children of the
// "flow" span, with each data round's sizing/buffering/restructure summed.
const char* const kFlowPasses[] = {
    "begin_sta",     "pre_ccd_sizing", "useful_skew", "sizing",
    "buffering",     "restructure",    "skew_touchup", "legalize",
    "final_sizing",  "hold_fix",       "final_sta"};

enum class Kind { Train, Decode, Flow };

struct WorkloadSpec {
  const char* name;
  Kind kind;
  bool isolated;
  double scale;  // of block11's paper cell count
  // Seconds one repeat took on a 4-core x86 host when the benchmark was
  // written. A run makes budget / nominal repeats whatever the speed of the
  // code under test, so both sides of a comparison do identical work.
  double nominal_repeat_s;
};

// A train repeat is one 3-iteration facade run; decode, one greedy decode;
// flow, one round over the selections; isolated, one facade run.
const WorkloadSpec kWorkloads[] = {
    {"train", Kind::Train, false, 0.02, 10.0},
    {"decode", Kind::Decode, false, 0.05, 2.5},
    {"flow", Kind::Flow, false, 0.2, 4.5},
    {"isolated", Kind::Train, true, 0.01, 1.1},
};

// Host-speed reference. The shared VMs this benchmark runs on slow down by
// 30-50% for tens of seconds at a time, for user and system time alike, so
// raw wall times of runs made minutes apart differ by more than any bound.
// A run therefore times a fixed reference pass around every unit of work
// (each repeat; each training iteration) and scales the unit by
// kRefNominalSec / (mean of the samples before and after it): its time on a
// host running at the reference's nominal speed. Sampling per training
// iteration matters: a repeat of train lasts several phases of the host's
// drift. (A sample run on all four cores tracked training worse than this
// single-threaded one: four threads mapping at once mostly time the
// kernel's lock on the address space.) The pass calls no library code and
// no malloc, so no change to the program under test can move it. Its mix
// follows a decode step's, about half of which is system time: products at
// an encoder layer's shape written into freshly mapped buffers, and more
// fresh buffers that are only filled, so page faults and in-cache
// arithmetic weigh about as they do in the decode.
constexpr std::size_t kRefRows = 9000;
constexpr std::size_t kRefCols = 64;
constexpr int kRefProducts = 4;
constexpr int kRefFilled = 16;
constexpr int kRefPasses = 3;  // a reference sample is the median of these
// The pass's median time on an idle 4-core x86 host of the kind the
// benchmark was written on. Only the scale of the normalised metrics
// depends on it.
constexpr double kRefNominalSec = 0.033;

volatile float g_ref_sink = 0.0f;

double host_ref_pass_sec() {
  static const std::vector<float> a = [] {
    std::vector<float> v(kRefRows * kRefCols);
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = 1e-3f * static_cast<float>(i % 97);
    }
    return v;
  }();
  static const std::vector<float> w = [] {
    std::vector<float> v(kRefCols * kRefCols);
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = 1e-2f * static_cast<float>(i % 13);
    }
    return v;
  }();
  constexpr std::size_t kBytes = kRefRows * kRefCols * sizeof(float);
  const double t0 = now_sec();
  float acc = 0.0f;
  for (int k = 0; k < kRefProducts + kRefFilled; ++k) {
    void* p = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) return std::nan("");
    auto* c = static_cast<float*>(p);
    if (k < kRefProducts) {
      for (std::size_t i = 0; i < kRefRows; ++i) {
        float* row = c + i * kRefCols;
        for (std::size_t j = 0; j < kRefCols; ++j) row[j] = 0.0f;
        for (std::size_t l = 0; l < kRefCols; ++l) {
          const float x = a[i * kRefCols + l];
          const float* wl = &w[l * kRefCols];
          for (std::size_t j = 0; j < kRefCols; ++j) row[j] += x * wl[j];
        }
      }
    } else {
      std::memset(c, k, kBytes);
    }
    acc += c[static_cast<std::size_t>(k) * 4099];
    munmap(p, kBytes);
  }
  g_ref_sink = acc;
  return now_sec() - t0;
}

double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double host_ref_sample_sec() {
  std::vector<double> passes;
  for (int i = 0; i < kRefPasses; ++i) passes.push_back(host_ref_pass_sec());
  return median(passes);
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? std::nan("") : s / static_cast<double>(v.size());
}

std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  return Rng(seed).fork(stream).next_u64();
}

// FNV-1a over the exact bytes of the values fed in.
class Digest {
 public:
  template <class T>
  void add(const T& v) {
    const auto* p = reinterpret_cast<const unsigned char*>(&v);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001b3ull;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

double peak_rss_mb(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Sum of the registry's aggregated "flow" spans at any depth: the seconds
// every placement flow of this process (and of forked workers, whose
// telemetry the trainer folds back in) has taken so far.
double registry_flow_seconds() {
  const TelemetrySnapshot snap = MetricsRegistry::global().snapshot();
  double total = 0.0;
  std::vector<const SpanNode*> todo = {&snap.spans};
  while (!todo.empty()) {
    const SpanNode* n = todo.back();
    todo.pop_back();
    if (n->name == "flow") {
      total += n->total_sec;
      continue;
    }
    for (const SpanNode& c : n->children) todo.push_back(&c);
  }
  return total;
}

double sum_spans_named(const SpanNode& n, std::string_view a,
                       std::string_view b) {
  if (n.name == a || n.name == b) return n.total_sec;
  double s = 0.0;
  for (const SpanNode& c : n.children) s += sum_spans_named(c, a, b);
  return s;
}

// The program's own failure counters, read through the registry.
struct FailureCounters {
  std::uint64_t poisoned = 0, cancelled = 0, lost = 0, restarts = 0;
  static FailureCounters read() {
    MetricsRegistry& reg = MetricsRegistry::global();
    return {reg.counter("train.trajectories_poisoned").value(),
            reg.counter("train.rollouts_cancelled").value(),
            reg.counter("train.workers_lost").value(),
            reg.counter("train.worker_restarts").value()};
  }
};

// One placement flow the benchmark ran itself.
struct FlowSample {
  double seconds = 0.0;
  double sta_seconds = 0.0;
  double pin_updates = 0.0;
  std::map<std::string, double> pass_seconds;
};

FlowSample sample_flow(const FlowResult& r, double seconds) {
  FlowSample s;
  s.seconds = seconds;
  s.pin_updates = static_cast<double>(r.sta_stats.pin_updates());
  if (const SpanNode* flow = r.telemetry.find_span("flow")) {
    s.sta_seconds = sum_spans_named(*flow, "sta_run", "sta_update");
    for (const SpanNode& c : flow->children) {
      if (c.name.rfind("data_round_", 0) == 0) {
        for (const SpanNode& g : c.children) {
          s.pass_seconds[g.name] += g.total_sec;
        }
      } else {
        s.pass_seconds[c.name] += c.total_sec;
      }
    }
  }
  return s;
}

// Streams the trainer's iteration events (always) into a list of
// durations, and into spans when the recorder is on. With reference
// sampling on, each event also takes a host reference sample; the trainer
// emits the event between iterations, outside its iteration timer.
class IterationLog final : public ProgressObserver {
 public:
  struct Taken {
    std::vector<double> seconds;
    std::vector<double> refs;  // one per iteration when sampling
    double ref_wall = 0.0;     // seconds spent sampling
  };
  explicit IterationLog(Recorder& rec) : rec_(rec) {}
  void sample_reference(bool on) { sample_ = on; }
  void on_event(const ProgressEvent& e) override {
    if (e.phase != "train" || e.step != "iteration") return;
    rec_.add_ending_now("trainer.iteration", e.seconds);
    const double t = now_sec();
    const double ref = sample_ ? host_ref_sample_sec() : 0.0;
    std::lock_guard<std::mutex> lock(mutex_);
    taken_.seconds.push_back(e.seconds);
    if (sample_) {
      taken_.refs.push_back(ref);
      taken_.ref_wall += now_sec() - t;
    }
  }
  Taken take() {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::exchange(taken_, {});
  }

 private:
  Recorder& rec_;
  bool sample_ = false;
  std::mutex mutex_;
  Taken taken_;
};

// Turns the flow's per-step events into "opt.<step>" spans (traced runs).
class FlowStepSpans final : public ProgressObserver {
 public:
  explicit FlowStepSpans(Recorder& rec) : rec_(rec) {}
  FlowStepSpans(const FlowStepSpans&) = delete;
  FlowStepSpans& operator=(const FlowStepSpans&) = delete;
  void on_event(const ProgressEvent& e) override {
    if (e.phase != "flow" || e.seconds <= 0.0) return;
    rec_.add_ending_now("opt." + std::string(e.step), e.seconds);
  }

 private:
  Recorder& rec_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// One measured half of the loop (a trace-0 run has a single untraced one).
struct Half {
  std::vector<double> work_ms;      // per unit of work
  std::vector<double> rep_work_ms;  // each repeat's median of work_ms
  std::vector<double> op_s;     // per operation
  // Untraced halves only: the host reference samples, the one each unit of
  // work is scaled by (parallel to work_ms), each repeat's median of the
  // scaled work_ms, and the repeats' wall time (sampling excluded) scaled.
  std::vector<double> ref_s;
  std::vector<double> unit_ref_s;
  std::vector<double> rep_norm_work_ms;
  double norm_wall = 0.0;
  double in_repeat_ref_wall = 0.0;  // sampling time inside the last repeat
  double units = 0.0;
  double wall = 0.0;
  double t0 = 0.0, t1 = 0.0;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string trace_out;
};

class Bench {
 public:
  Bench(const Args& args, const WorkloadSpec& spec)
      : args_(args),
        spec_(spec),
        iterations_(rec_),
        flow_spans_(rec_) {}

  int run() {
    const FailureCounters before = FailureCounters::read();
    rec_.enable(args_.trace);
    setup();
    build_loop_inputs();
    const double t_loop0 = now_sec();
    Half untraced, traced;
    if (!args_.trace) {
      rec_.enable(false);
      loop(untraced, args_.seconds, 2);
    } else {
      rec_.enable(false);
      loop(untraced, 0.5 * args_.seconds, 1);
      rec_.enable(true);
      flow_before_ = registry_flow_seconds();
      loop(traced, 0.5 * args_.seconds, 1);
      flow_after_ = registry_flow_seconds();
    }
    const double loop_seconds = now_sec() - t_loop0;
    std::vector<Metric> metrics;
    if (!args_.trace) {
      count_program_failures(before);
      metrics = {
          {"setup_s", median(norm_setup_s_), "s"},
          {"work_norm_ms", median(untraced.rep_norm_work_ms), "ms"},
          {"work_norm_per_s", untraced.units / untraced.norm_wall, "1/s"},
          {"success_frac", success_frac(), "ratio"},
      };
    } else {
      // Read before the probes add their own allocations.
      const double peak_rss = peak_rss_mb(RUSAGE_SELF) +
                              peak_rss_mb(RUSAGE_CHILDREN);
      probes();
      count_program_failures(before);
      metrics = per_layer(untraced, traced, peak_rss);
      check(rec_.export_chrome(args_.trace_out, spec_.name, t_start_),
            "cannot write trace %s", args_.trace_out.c_str());
    }
    print_summary(loop_seconds, untraced);
    emit(metrics);
    return failed_ == 0 ? 0 : 1;
  }

 private:
  // -- checks and accounting ------------------------------------------------

  bool check(bool ok, const char* fmt, ...) __attribute__((format(printf, 3, 4))) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      va_list ap;
      va_start(ap, fmt);
      std::fprintf(stderr, "perfbench: check failed: ");
      std::vfprintf(stderr, fmt, ap);
      std::fprintf(stderr, "\n");
      va_end(ap);
    }
    return ok;
  }

  void operations(long n) { attempted_ += n; }

  // Failed trajectories and non-zero child exits the program counted.
  void count_program_failures(const FailureCounters& before) {
    const FailureCounters after = FailureCounters::read();
    const std::uint64_t n = (after.poisoned - before.poisoned) +
                            (after.cancelled - before.cancelled) +
                            (after.lost - before.lost) +
                            (after.restarts - before.restarts);
    attempted_ += static_cast<long>(after.restarts - before.restarts);
    failed_ += static_cast<long>(n);
    worker_restarts_ = static_cast<double>(after.restarts - before.restarts);
    if (n != 0) {
      std::fprintf(stderr, "perfbench: %llu failed trajectories or child exits\n",
                   static_cast<unsigned long long>(n));
    }
  }

  [[nodiscard]] double success_frac() const {
    return 1.0 - static_cast<double>(failed_) / static_cast<double>(attempted_);
  }

  // Every selection must be reachable through the overlap mask: each pin is
  // a still-valid endpoint when it is chosen.
  bool obeys_mask(const std::vector<std::size_t>& actions) const {
    SelectionEnv env(graph_.get(), rho_);
    env.reset();
    for (std::size_t a : actions) {
      if (a >= env.num_endpoints() || !env.valid()[a]) return false;
      env.step(a);
    }
    return true;
  }
  bool obeys_mask(const std::vector<PinId>& pins) const {
    std::unordered_map<std::uint32_t, std::size_t> index;
    for (std::size_t i = 0; i < graph_->violating().size(); ++i) {
      index[graph_->violating()[i].value] = i;
    }
    std::vector<std::size_t> actions;
    for (PinId p : pins) {
      auto it = index.find(p.value);
      if (it == index.end()) return false;
      actions.push_back(it->second);
    }
    return obeys_mask(actions);
  }

  // Same seed, same bits: the first digest of each key is the reference.
  void check_repeat(const std::string& key, std::uint64_t digest) {
    auto [it, fresh] = digests_.emplace(key, digest);
    if (!fresh) {
      check(it->second == digest, "%s differs between repeats of seed %llu",
            key.c_str(), static_cast<unsigned long long>(args_.seed));
    }
  }

  // -- set-up ---------------------------------------------------------------

  GeneratorConfig generator_config() const {
    GeneratorConfig gc =
        to_generator_config(find_block("block11"), spec_.scale);
    gc.seed = derive(args_.seed, 1);
    return gc;
  }

  // Design generation, DesignGraph, the policy (where the workload has one)
  // and one default flow, repeated and reported as a median. Each set-up is
  // also normalised by the host reference samples around it. The last
  // set-up's design is the one the loop runs on.
  void setup() {
    t_start_ = now_sec();
    const GeneratorConfig gc = generator_config();
    double total = 0.0;
    double ref = host_ref_sample_sec();
    for (int n = 0; n < kMinSetups || (total < kSetupBudgetSec && n < kMaxSetups);
         ++n) {
      BenchSpan span(rec_, "bench.setup");
      graph_.reset();
      design_.reset();
      policy_.reset();
      const double t0 = now_sec();
      {
        BenchSpan s(rec_, "designgen.generate");
        design_ = std::make_unique<Design>(generate_design(gc));
      }
      const double t1 = now_sec();
      {
        BenchSpan s(rec_, "rl.design_graph");
        graph_ = std::make_unique<DesignGraph>(*design_);
      }
      const double t2 = now_sec();
      if (spec_.kind == Kind::Train || spec_.kind == Kind::Decode) {
        BenchSpan s(rec_, "policy.init");
        policy_ = std::make_unique<Policy>(PolicyConfig{}, policy_seed());
      }
      flow_cfg_ = default_flow_config(design_->netlist->num_real_cells(),
                                      design_->clock_period);
      const FlowResult r = placement_flow({}, nullptr);
      const double t3 = now_sec();
      setup_s_.push_back(t3 - t0);
      const double next_ref = host_ref_sample_sec();
      norm_setup_s_.push_back((t3 - t0) * kRefNominalSec /
                              (0.5 * (ref + next_ref)));
      ref = next_ref;
      generate_s_.push_back(t1 - t0);
      design_graph_s_.push_back(t2 - t1);
      default_flow_s_.push_back(flows_.back().seconds);
      default_tns_ = r.final_summary.tns;
      Digest d;
      d.add(design_->netlist->num_cells());
      d.add(graph_->num_endpoints());
      d.add(r.final_summary.tns);
      d.add(r.sta_stats.pin_updates());
      check_repeat("set-up (design + default flow)", d.value());
      check(std::isfinite(r.final_summary.tns), "default flow TNS not finite");
      total += t3 - t0;
    }
    check(graph_->num_endpoints() > 0, "design has no violating endpoints");
  }

  std::uint64_t policy_seed() const { return derive(args_.seed, 3); }

  // Fresh netlist copy + one placement flow, timed and sampled.
  FlowResult placement_flow(std::span<const PinId> selection,
                            ProgressObserver* observer) {
    double t = now_sec();
    std::unique_ptr<Netlist> work;
    {
      BenchSpan s(rec_, "netlist.copy");
      work = std::make_unique<Netlist>(*design_->netlist);
    }
    copy_s_.push_back(now_sec() - t);
    FlowConfig cfg = flow_cfg_;
    cfg.observer = observer;
    const FlowInput input{design_->sta_config, design_->clock_period,
                          design_->die, design_->pi_toggles, selection};
    t = now_sec();
    FlowResult r;
    {
      BenchSpan s(rec_, "opt.flow");
      r = run_placement_flow(*work, input, cfg);
    }
    flows_.push_back(sample_flow(r, now_sec() - t));
    return r;
  }

  // A uniformly random valid action at every step until no endpoint is
  // valid; per-step SelectionEnv timings land in env_step_us_.
  std::vector<std::size_t> random_episode(Rng& rng) {
    SelectionEnv env(graph_.get(), rho_);
    env.reset();
    std::vector<std::size_t> valid;
    while (!env.done()) {
      valid.clear();
      for (std::size_t i = 0; i < env.num_endpoints(); ++i) {
        if (env.valid()[i]) valid.push_back(i);
      }
      const std::size_t a = valid[rng.uniform_int(valid.size())];
      const double t = now_sec();
      {
        BenchSpan s(rec_, "env.step");
        env.step(a);
      }
      env_step_us_.push_back((now_sec() - t) * 1e6);
    }
    return env.selected();
  }

  void build_loop_inputs() {
    if (spec_.kind == Kind::Train) {
      train_cfg_ = RlCcdConfig::for_design(*design_);
      train_cfg_.policy_seed = policy_seed();
      train_cfg_.train.seed = derive(args_.seed, 2);
      train_cfg_.train.workers = kWorkers;
      train_cfg_.train.min_iterations = kIterations;
      train_cfg_.train.max_iterations = kIterations;
      train_cfg_.train.isolate_workers = spec_.isolated;
      train_cfg_.train.observer = &iterations_;
    } else if (spec_.kind == Kind::Flow) {
      Rng rng(derive(args_.seed, 5));
      selections_.push_back({});  // the default flow
      for (int k = 0; k < kRandomSelections; ++k) {
        const std::vector<std::size_t> actions = random_episode(rng);
        check(obeys_mask(actions), "random selection %d breaks the mask", k);
        std::vector<PinId> pins;
        for (std::size_t a : actions) pins.push_back(graph_->violating()[a]);
        selections_.push_back(std::move(pins));
      }
    }
  }

  // -- the measured loop ------------------------------------------------------

  // A fixed number of repeats for the budget (see nominal_repeat_s). An
  // untraced half samples the host reference before and after every repeat
  // (and train_repeat after every iteration), and scales each unit of work
  // by the samples around it.
  void loop(Half& h, double budget, int min_reps) {
    BenchSpan span(rec_, "bench.loop");
    const int reps = std::max(
        min_reps, static_cast<int>(budget / spec_.nominal_repeat_s));
    const bool normalise = !rec_.on();
    iterations_.sample_reference(normalise);
    if (normalise) h.ref_s.push_back(host_ref_sample_sec());
    h.t0 = now_sec();
    for (int rep = 0; rep < reps; ++rep) {
      rec_.set_repeat(repeat_++);
      const std::size_t first = h.work_ms.size();
      const std::size_t first_ref = h.ref_s.size() - (normalise ? 1 : 0);
      const double t = now_sec();
      {
        BenchSpan r(rec_, "bench.repeat");
        switch (spec_.kind) {
          case Kind::Train: train_repeat(h); break;
          case Kind::Decode: decode_repeat(h); break;
          case Kind::Flow: flow_round(h); break;
        }
      }
      const double rep_wall = now_sec() - t - h.in_repeat_ref_wall;
      h.in_repeat_ref_wall = 0.0;
      h.rep_work_ms.push_back(median(
          std::vector<double>(h.work_ms.begin() + first, h.work_ms.end())));
      if (!normalise) continue;
      const double before = h.ref_s[first_ref];
      h.ref_s.push_back(host_ref_sample_sec());
      const double around = 0.5 * (before + h.ref_s.back());
      h.unit_ref_s.resize(h.work_ms.size(), around);
      std::vector<double> scaled;
      for (std::size_t i = first; i < h.work_ms.size(); ++i) {
        scaled.push_back(h.work_ms[i] * kRefNominalSec / h.unit_ref_s[i]);
      }
      h.rep_norm_work_ms.push_back(median(scaled));
      const std::vector<double> rep_refs(h.ref_s.begin() + first_ref,
                                         h.ref_s.end());
      h.norm_wall += rep_wall * kRefNominalSec / mean(rep_refs);
    }
    iterations_.sample_reference(false);
    h.t1 = now_sec();
    h.wall = h.t1 - h.t0;
  }

  void train_repeat(Half& h) {
    RlCcdConfig cfg = train_cfg_;
    // Flow-step events are only observable on the thread backend.
    if (rec_.on() && !spec_.isolated) cfg.train.flow.observer = &flow_spans_;
    (void)iterations_.take();
    const double t = now_sec();
    RlCcdResult r;
    {
      BenchSpan s(rec_, "core.run");
      RlCcd agent(design_.get(), cfg);
      r = agent.run();
    }
    const IterationLog::Taken log = iterations_.take();
    const double wall = now_sec() - t - log.ref_wall;
    const std::vector<double>& iter_s = log.seconds;
    const TrainStats& ts = r.train;
    operations(static_cast<long>(ts.iterations) * kWorkers + 1);

    check(ts.iterations == kIterations && iter_s.size() == ts.history.size() &&
              ts.history.size() == static_cast<std::size_t>(kIterations),
          "expected %d iterations, got %d (%zu events)", kIterations,
          ts.iterations, iter_s.size());
    check(ts.flow_runs == ts.iterations * kWorkers + 1,
          "trainer.flow_runs %d != iterations x workers + 1 = %d",
          ts.flow_runs, ts.iterations * kWorkers + 1);
    bool finite = std::isfinite(r.default_flow.final_summary.tns) &&
                  std::isfinite(r.rl_flow.final_summary.tns) &&
                  std::isfinite(ts.best_tns);
    for (const IterationStats& it : ts.history) {
      finite = finite && std::isfinite(it.mean_tns) &&
               std::isfinite(it.iter_best_tns);
    }
    check(finite, "non-finite TNS in training results");
    check(obeys_mask(ts.best_selection), "best selection breaks the mask");

    Digest d;
    for (const IterationStats& it : ts.history) {
      for (double v : {it.mean_reward, it.mean_tns, it.iter_best_tns,
                       it.best_tns, it.mean_steps, it.mean_entropy,
                       it.grad_norm, it.baseline}) {
        d.add(v);
      }
    }
    for (PinId p : ts.best_selection) d.add(p.value);
    d.add(ts.best_tns);
    d.add(r.tns_gain_pct());
    check_repeat("TrainStats history, best selection and TNS gain", d.value());

    for (std::size_t i = 0; i < iter_s.size() && i < ts.history.size(); ++i) {
      const double steps = ts.history[i].mean_steps * kWorkers;
      if (!check(steps > 0.0, "iteration %zu decoded no steps", i)) continue;
      h.work_ms.push_back(1e3 * iter_s[i] / steps);
      if (i < log.refs.size()) {
        // The sample before iteration 0 is the loop's, before the repeat.
        const double before = i == 0 ? h.ref_s.back() : log.refs[i - 1];
        h.unit_ref_s.push_back(0.5 * (before + log.refs[i]));
      }
      h.op_s.push_back(iter_s[i]);
      h.units += steps;
      steps_.push_back(ts.history[i].mean_steps);
    }
    trajectories_ += ts.iterations * kWorkers;
    trained_s_ += wall;
    h.ref_s.insert(h.ref_s.end(), log.refs.begin(), log.refs.end());
    h.in_repeat_ref_wall = log.ref_wall;
    result_s_.push_back(ts.train_seconds - log.ref_wall +
                        r.rl_flow.runtime_sec());
    tns_gain_.push_back(r.tns_gain_pct());
    flow_runs_ = ts.flow_runs;
  }

  void decode_repeat(Half& h) {
    SelectionEnv env(graph_.get(), rho_);
    env.reset();
    Rng rng(derive(args_.seed, 4));
    const double t = now_sec();
    Policy::RolloutResult ro;
    {
      BenchSpan s(rec_, "policy.rollout");
      ro = policy_->rollout(*graph_, env, rng, /*greedy=*/true,
                            Policy::RolloutMode::Inference);
    }
    const double dt = now_sec() - t;
    operations(1);
    check(!ro.poisoned, "greedy decode poisoned");
    check(obeys_mask(ro.actions), "greedy selection breaks the mask");
    Digest d;
    for (std::size_t a : ro.actions) d.add(a);
    check_repeat("greedy action sequence", d.value());
    if (check(ro.steps > 0 && static_cast<std::size_t>(ro.steps) ==
                                  ro.actions.size(),
              "decode took %d steps for %zu actions", ro.steps,
              ro.actions.size())) {
      h.work_ms.push_back(1e3 * dt / ro.steps);
      h.units += ro.steps;
    }
    h.op_s.push_back(dt);
    steps_.push_back(ro.steps);
    greedy_selection_ = ro.selected;
  }

  void flow_round(Half& h) {
    for (std::size_t k = 0; k < selections_.size(); ++k) {
      const FlowResult r =
          placement_flow(selections_[k], rec_.on() ? &flow_spans_ : nullptr);
      const double dt = flows_.back().seconds;
      operations(1);
      check(std::isfinite(r.final_summary.tns),
            "flow TNS not finite (selection %zu)", k);
      Digest d;
      d.add(r.final_summary.tns);
      d.add(r.sta_stats.pin_updates());
      check_repeat("final TNS and sta.pin_updates of selection " +
                       std::to_string(k),
                   d.value());
      if (k == 0) {
        check(r.final_summary.tns == default_tns_,
              "empty-selection flow TNS differs from the set-up default flow");
        default_flow_s_.push_back(dt);
      } else {
        selection_flow_s_.push_back(dt);
        tns_gain_.push_back(gain_pct(r.final_summary.tns));
      }
      h.work_ms.push_back(1e3 * dt);
      h.op_s.push_back(dt);
      h.units += 1.0;
    }
  }

  double gain_pct(double tns) const {
    const double d = std::abs(default_tns_);
    return d < 1e-12 ? 0.0 : 100.0 * (tns - default_tns_) / d;
  }

  // -- traced run: one call into each layer at the workload's shape ----------

  void probes() {
    BenchSpan span(rec_, "bench.probes");
    rec_.set_repeat(-1);
    const PolicyConfig pcfg;

    for (int i = 0; i < 3; ++i) {
      Sta sta = design_->make_sta();
      const double t = now_sec();
      {
        BenchSpan s(rec_, "sta.full_run");
        sta.run();
      }
      sta_full_s_.push_back(now_sec() - t);
    }

    SelectionEnv fresh(graph_.get(), rho_);
    fresh.reset();
    const Tensor x = graph_->features_with_mask(fresh.cell_mask_flags());
    Rng init(derive(args_.seed, 6));
    EpGnn gnn(pcfg.gnn, init);
    for (int i = 0; i < 3; ++i) {
      double t = now_sec();
      Tensor f;
      {
        BenchSpan s(rec_, "gnn.encode");
        f = gnn.forward(x, graph_->adjacency(), graph_->cone_matrix(),
                        graph_->endpoint_rows());
      }
      encode_s_.push_back(now_sec() - t);
      const Tensor loss = ops::sum(f);
      for (Tensor& p : gnn.parameters()) p.zero_grad();
      t = now_sec();
      {
        BenchSpan s(rec_, "gnn.encode_backward");
        loss.backward();
      }
      encode_backward_s_.push_back(now_sec() - t);
    }

    // Dense and sparse products at the encoder's hidden-layer shape.
    Rng fill(derive(args_.seed, 7));
    auto random_tensor = [&](std::size_t r, std::size_t c) {
      std::vector<float> v(r * c);
      for (float& e : v) e = static_cast<float>(fill.uniform(-1.0, 1.0));
      return Tensor::from_data(std::move(v), r, c);
    };
    const Tensor h = random_tensor(x.rows(), pcfg.gnn.hidden);
    const Tensor w = random_tensor(pcfg.gnn.hidden, pcfg.gnn.hidden);
    for (int i = 0; i < 5; ++i) {
      double t = now_sec();
      {
        BenchSpan s(rec_, "nn.matmul");
        (void)ops::matmul(h, w);
      }
      matmul_s_.push_back(now_sec() - t);
      t = now_sec();
      {
        BenchSpan s(rec_, "nn.spmm");
        (void)ops::spmm(graph_->adjacency(), h);
      }
      spmm_s_.push_back(now_sec() - t);
    }

    Policy probe_policy(pcfg, policy_seed());
    std::vector<Tensor> params = probe_policy.parameters();
    for (Tensor& p : params) {
      for (float& g : p.grad_mut()) g = 1e-3f;
    }
    Adam adam(params, TrainConfig{}.lr);
    for (int i = 0; i < 21; ++i) {
      const double t = now_sec();
      {
        BenchSpan s(rec_, "nn.adam_step");
        adam.step();
      }
      adam_s_.push_back(now_sec() - t);
    }

    // Policy steps from an env a random episode has mostly used up, so the
    // probe decodes only the last few steps at the full design size.
    Rng episodes(derive(args_.seed, 8));
    for (int i = 0; i < 3; ++i) {
      const std::vector<std::size_t> actions = random_episode(episodes);
      const std::size_t prefix =
          actions.size() > kProbeTailSteps ? actions.size() - kProbeTailSteps : 0;
      for (Policy::RolloutMode mode : {Policy::RolloutMode::Inference,
                                       Policy::RolloutMode::StepwiseBackward}) {
        SelectionEnv env(graph_.get(), rho_);
        env.reset();
        for (std::size_t s = 0; s < prefix; ++s) env.step(actions[s]);
        for (Tensor& p : params) p.zero_grad();
        Rng rng(derive(args_.seed, 9));
        const bool infer = mode == Policy::RolloutMode::Inference;
        const double t = now_sec();
        Policy::RolloutResult ro;
        {
          BenchSpan s(rec_, infer ? "policy.infer_steps" : "policy.train_steps");
          ro = probe_policy.rollout(*graph_, env, rng, /*greedy=*/infer, mode);
        }
        const double dt = now_sec() - t;
        if (!check(ro.steps > 0 && !ro.poisoned, "policy probe decoded nothing")) {
          continue;
        }
        (infer ? infer_step_ms_ : train_step_ms_)
            .push_back(1e3 * dt / ro.steps);
      }
    }

    // Where the workload trains on threads, the isolation layer: one
    // single-iteration facade run with forked workers.
    if (spec_.kind == Kind::Train && !spec_.isolated) {
      RlCcdConfig cfg = train_cfg_;
      cfg.train.isolate_workers = true;
      cfg.train.min_iterations = 1;
      cfg.train.max_iterations = 1;
      RlCcdResult r;
      {
        BenchSpan s(rec_, "core.run_isolated");
        r = RlCcd(design_.get(), cfg).run();
      }
      (void)iterations_.take();
      operations(kWorkers + 1);
      check(r.train.flow_runs == kWorkers + 1,
            "isolated probe: %d flow runs, expected %d", r.train.flow_runs,
            kWorkers + 1);
    }

    // The decode loop runs no flow; its quality is the greedy selection's.
    if (spec_.kind == Kind::Decode && !greedy_selection_.empty()) {
      const FlowResult r = placement_flow(greedy_selection_, nullptr);
      check(std::isfinite(r.final_summary.tns), "greedy-selection TNS");
      tns_gain_.push_back(gain_pct(r.final_summary.tns));
    }
  }

  std::vector<Metric> per_layer(const Half& untraced, const Half& traced,
                                double peak_rss) {
    std::vector<Metric> m;
    auto flow_median = [&](auto field) {
      std::vector<double> v;
      for (const FlowSample& f : flows_) v.push_back(field(f));
      return median(v);
    };
    const double default_flow = median(default_flow_s_);
    m.push_back({"designgen.generate_s", median(generate_s_), "s"});
    m.push_back({"rl.design_graph_s", median(design_graph_s_), "s"});
    m.push_back({"netlist.copy_s", median(copy_s_), "s"});
    m.push_back({"sta.full_run_s", median(sta_full_s_), "s"});
    m.push_back({"sta.flow_s",
                 flow_median([](const FlowSample& f) { return f.sta_seconds; }),
                 "s"});
    m.push_back({"sta.pin_updates",
                 flow_median([](const FlowSample& f) { return f.pin_updates; }),
                 "count"});
    m.push_back({"opt.flow_s",
                 flow_median([](const FlowSample& f) { return f.seconds; }),
                 "s"});
    for (const char* pass : kFlowPasses) {
      m.push_back({std::string("opt.") + pass + "_s",
                   flow_median([&](const FlowSample& f) {
                     auto it = f.pass_seconds.find(pass);
                     return it == f.pass_seconds.end() ? 0.0 : it->second;
                   }),
                   "s"});
    }
    m.push_back({"opt.flow_share", (flow_after_ - flow_before_) / traced.wall,
                 "ratio"});
    m.push_back({"gnn.encode_s", median(encode_s_), "s"});
    m.push_back({"gnn.encode_backward_s", median(encode_backward_s_), "s"});
    m.push_back({"nn.matmul_s", median(matmul_s_), "s"});
    m.push_back({"nn.spmm_s", median(spmm_s_), "s"});
    m.push_back({"nn.adam_step_s", median(adam_s_), "s"});
    // On decode the loop itself is the inference-mode policy measurement.
    const bool decode = spec_.kind == Kind::Decode;
    std::vector<double> infer = infer_step_ms_;
    if (decode) {
      infer = untraced.work_ms;
      infer.insert(infer.end(), traced.work_ms.begin(), traced.work_ms.end());
    }
    m.push_back({"policy.infer_step_ms", median(infer), "ms"});
    m.push_back({"policy.train_step_ms", median(train_step_ms_), "ms"});
    m.push_back({"policy.steps", steps_.empty() ? 0.0 : median(steps_),
                 "count"});
    m.push_back({"env.step_us", median(env_step_us_), "us"});
    m.push_back({"trainer.flow_runs", static_cast<double>(flow_runs_), "count"});
    m.push_back({"isolation.children_peak_rss_mb",
                 peak_rss_mb(RUSAGE_CHILDREN), "MB"});
    m.push_back({"isolation.worker_restarts", worker_restarts_, "count"});

    // Cost of one result in default flows: a training run plus its RL flow
    // (the paper's Table II column), a greedy decode, or a selection flow.
    double result = 0.0;
    if (spec_.kind == Kind::Train) {
      result = median(result_s_);
    } else if (decode) {
      std::vector<double> ops = untraced.op_s;
      ops.insert(ops.end(), traced.op_s.begin(), traced.op_s.end());
      result = median(ops);
    } else {
      result = median(selection_flow_s_);
    }
    m.push_back({"core.runtime_factor", result / default_flow, "x"});
    m.push_back({"core.tns_gain_pct", median(tns_gain_), "%"});
    m.push_back({"bench.op_s", median(traced.op_s), "s"});
    m.push_back({"bench.work_wall_ms", median(untraced.rep_work_ms), "ms"});
    m.push_back({"bench.host_ref_ms", 1e3 * median(untraced.ref_s), "ms"});
    m.push_back({"bench.peak_rss_mb", peak_rss, "MB"});
    m.push_back({"bench.attributed_pct",
                 100.0 * rec_.coverage(traced.t0, traced.t1,
                                       [](const std::string& name) {
                                         return name.rfind("bench.", 0) != 0 &&
                                                name.rfind("core.", 0) != 0;
                                       }),
                 "%"});
    m.push_back({"bench.trace_overhead_pct",
                 100.0 * (median(traced.rep_work_ms) / median(untraced.rep_work_ms) -
                          1.0),
                 "%"});
    return m;
  }

  // -- output -----------------------------------------------------------------

  void print_summary(double loop_seconds, const Half& h) {
    std::printf("perfbench %s: seed %llu, %zu cells, %zu violating endpoints\n",
                spec_.name, static_cast<unsigned long long>(args_.seed),
                design_->netlist->num_real_cells(), graph_->num_endpoints());
    std::printf("  raw set-up median %.4f s (n=%zu), default flow %.4f s "
                "(n=%zu)\n",
                median(setup_s_), setup_s_.size(), median(default_flow_s_),
                default_flow_s_.size());
    if (spec_.kind == Kind::Train) {
      std::printf(
          "  %d training runs; rollouts_per_s %.3f; runtime_factor %.1f; "
          "tns_gain_pct %.3f\n",
          static_cast<int>(result_s_.size()), trajectories_ / trained_s_,
          median(result_s_) / median(default_flow_s_), median(tns_gain_));
    }
    static const char* const kOps[] = {"iteration", "decode", "flow"};
    std::printf("  %s_s median %.4f (n=%zu), work_ms median %.4f (n=%zu), "
                "steps per trajectory median %.1f\n",
                kOps[static_cast<int>(spec_.kind)], median(h.op_s),
                h.op_s.size(), median(h.rep_work_ms), h.rep_work_ms.size(),
                steps_.empty() ? 0.0 : median(steps_));
    std::printf("  host reference pass median %.3f ms (n=%zu, nominal %.3f "
                "ms): work_norm_ms %.4f, setup_s %.4f\n",
                1e3 * median(h.ref_s), h.ref_s.size(), 1e3 * kRefNominalSec,
                median(h.rep_norm_work_ms), median(norm_setup_s_));
    std::printf("  loop %.2f s, %ld operations + checks, %ld failed\n",
                loop_seconds, attempted_, failed_);
  }

  void emit(const std::vector<Metric>& metrics) {
    std::string body;
    for (const Metric& m : metrics) {
      check(std::isfinite(m.value), "metric %s is not finite", m.name.c_str());
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    body.empty() ? "" : ", ", m.name.c_str(),
                    std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
      body += buf;
    }
    std::printf(
        "{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
        "\"metrics\": {%s}}\n",
        failed_ == 0 ? "true" : "false", attempted_, failed_, body.c_str());
    std::fflush(stdout);
  }

  Args args_;
  WorkloadSpec spec_;
  Recorder rec_;
  IterationLog iterations_;
  FlowStepSpans flow_spans_;
  double t_start_ = 0.0;

  std::unique_ptr<Design> design_;
  std::unique_ptr<DesignGraph> graph_;
  std::unique_ptr<Policy> policy_;
  FlowConfig flow_cfg_;
  RlCcdConfig train_cfg_;
  const double rho_ = TrainConfig{}.overlap_threshold;
  double default_tns_ = 0.0;
  std::vector<std::vector<PinId>> selections_;
  std::vector<PinId> greedy_selection_;
  int repeat_ = 0;

  long attempted_ = 0;
  long failed_ = 0;
  std::map<std::string, std::uint64_t> digests_;

  std::vector<double> setup_s_, norm_setup_s_, generate_s_, design_graph_s_,
      copy_s_;
  std::vector<double> default_flow_s_, selection_flow_s_;
  std::vector<FlowSample> flows_;
  std::vector<double> result_s_, tns_gain_, steps_;
  double trajectories_ = 0.0, trained_s_ = 0.0;
  int flow_runs_ = 0;
  double worker_restarts_ = 0.0;
  double flow_before_ = 0.0, flow_after_ = 0.0;
  std::vector<double> sta_full_s_, encode_s_, encode_backward_s_, matmul_s_,
      spmm_s_, adam_s_, infer_step_ms_, train_step_ms_, env_step_us_;
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload train|decode|flow|isolated "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::atoi(value) != 0;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || args.seconds <= 0.0 ||
      (args.trace && args.trace_out.empty())) {
    return usage();
  }
  for (const WorkloadSpec& spec : kWorkloads) {
    if (args.workload == spec.name) {
      set_log_level(LogLevel::Warn);
      return Bench(args, spec).run();
    }
  }
  std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
  return usage();
}
