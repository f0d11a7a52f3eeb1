// Command-line client for the rlccd_serve daemon.
//
//   rlccd_client --socket PATH submit [spec flags] [--wait]
//   rlccd_client --socket PATH poll JOB_ID
//   rlccd_client --socket PATH wait JOB_ID [--timeout SEC]
//   rlccd_client --socket PATH cancel JOB_ID
//   rlccd_client --socket PATH stats
//   rlccd_client --socket PATH watch [--count N] [--timeout SEC] [--json]
//   rlccd_client --socket PATH metrics
//   rlccd_client --socket PATH shutdown
//
// submit prints "job <id>" on admission (exit 0) or the rejection reason
// (exit 3). wait streams progress lines while the job runs and exits 0 only
// when the job ends kDone or kDrained. watch subscribes to the daemon's
// streamed stats feed and renders a refreshing fleet view (queue depth,
// per-worker phase, retry state) — or the raw JSON documents with --json.
// metrics prints the daemon's Prometheus text exposition.
#ifdef _WIN32
#include <cstdio>
int main() {
  std::fprintf(stderr, "rlccd_client requires Unix sockets\n");
  return 2;
}
#else

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/json.h"
#include "common/log.h"
#include "serve/client.h"

using namespace rlccd;

namespace {

void usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: rlccd_client --socket PATH COMMAND [flags]\n"
      "commands:\n"
      "  submit    --session NAME [--kind train|noop] [--block B]\n"
      "            [--scale X] [--iters N] [--workers N] [--seed N]\n"
      "            [--priority P] [--deadline SEC] [--noop-sec X]\n"
      "            [--wait] [--timeout SEC]\n"
      "  poll JOB_ID\n"
      "  wait JOB_ID [--timeout SEC]\n"
      "  cancel JOB_ID\n"
      "  stats\n"
      "  watch     [--count N] [--timeout SEC] [--json]\n"
      "  metrics\n"
      "  shutdown\n");
}

void print_status(const serve::JobStatus& s) {
  std::printf("job %llu  %s  session=%s kind=%s attempts=%d",
              static_cast<unsigned long long>(s.job_id),
              serve::job_state_name(s.state), s.session.c_str(),
              serve::job_kind_name(s.kind), s.attempts);
  if (s.state == serve::JobState::kDone ||
      s.state == serve::JobState::kDrained) {
    std::printf("  iters=%d best_tns=%.3f default_tns=%.3f |sel|=%llu "
                "digest=%08x",
                s.iterations, s.best_tns, s.default_tns,
                static_cast<unsigned long long>(s.selection_size),
                s.result_digest);
  }
  if (!s.detail.empty()) std::printf("  (%s)", s.detail.c_str());
  if (!s.postmortem.empty()) std::printf("  postmortem=%s", s.postmortem.c_str());
  if (!s.trace.empty()) std::printf("  trace=%s", s.trace.c_str());
  std::printf("\n");
}

int exit_code_for(const serve::JobStatus& s) {
  return (s.state == serve::JobState::kDone ||
          s.state == serve::JobState::kDrained)
             ? 0
             : 1;
}

// One rendered frame of the fleet view: a compact multi-line summary of the
// streamed stats document. Falls back to the raw JSON if it fails to parse
// (a newer daemon's document still shows up, just unrendered).
void print_fleet_view(const std::string& json, int frame) {
  JsonValue doc;
  if (!JsonValue::parse(json, doc).ok() || !doc.is_object()) {
    std::printf("%s\n", json.c_str());
    return;
  }
  const JsonValue* gauges = doc.find("gauges");
  auto gauge = [&](const char* name) -> double {
    return gauges != nullptr && gauges->is_object()
               ? gauges->number_or(name, 0.0)
               : 0.0;
  };
  std::printf("-- stats #%d  uptime %.1fs%s --\n", frame,
              doc.number_or("uptime_sec", 0.0),
              doc.bool_or("draining", false) ? "  DRAINING" : "");
  std::printf("queue depth=%d running=%d retry_wait=%d clients=%d "
              "watchers=%d\n",
              static_cast<int>(gauge("serve.queue_depth")),
              static_cast<int>(gauge("serve.jobs_running")),
              static_cast<int>(gauge("serve.jobs_retry_wait")),
              static_cast<int>(gauge("serve.clients_connected")),
              static_cast<int>(gauge("serve.stats_watchers")));
  const JsonValue* retry = doc.find("retry");
  if (retry != nullptr && retry->is_object()) {
    const double due = retry->number_or("next_due_in_sec", -1.0);
    if (due >= 0.0) {
      std::printf("retry  %d waiting, next due in %.2fs\n",
                  static_cast<int>(retry->number_or("waiting", 0.0)), due);
    }
  }
  const JsonValue* workers = doc.find("workers");
  if (workers != nullptr && workers->is_array()) {
    for (const JsonValue& w : workers->array_items()) {
      if (!w.is_object()) continue;
      if (w.bool_or("busy", false)) {
        std::printf("worker %d  pid=%d job=%llu  %s\n",
                    static_cast<int>(w.number_or("slot", 0.0)),
                    static_cast<int>(w.number_or("pid", -1.0)),
                    static_cast<unsigned long long>(
                        w.number_or("job", 0.0)),
                    w.string_or("phase", "").c_str());
      } else {
        std::printf("worker %d  idle\n",
                    static_cast<int>(w.number_or("slot", 0.0)));
      }
    }
  }
  std::fflush(stdout);
}

int do_wait(serve::ServeClient& client, std::uint64_t job_id,
            double timeout_sec) {
  serve::JobStatus status;
  Status s = client.wait(
      job_id, status, timeout_sec,
      [](const serve::JobProgress& p) {
        std::fprintf(stderr, "  [%s] %s", p.phase.c_str(), p.step.c_str());
        if (p.index >= 0) std::fprintf(stderr, " #%d", p.index);
        for (const auto& [name, value] : p.metrics) {
          std::fprintf(stderr, " %s=%.3f", name.c_str(), value);
        }
        std::fprintf(stderr, "\n");
      },
      {});
  if (!s.ok()) {
    std::fprintf(stderr, "rlccd_client: %s\n", s.to_string().c_str());
    return 1;
  }
  print_status(status);
  return exit_code_for(status);
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::Warn);
  std::string socket_path;
  std::string command;
  std::uint64_t job_id = 0;
  bool have_job_id = false;
  bool wait_flag = false;
  bool json_flag = false;
  int count = 0;
  double timeout_sec = 0.0;
  serve::JobSpec spec;
  spec.session = "default";

  for (int i = 1; i < argc; ++i) {
    auto value = [&](const char* name) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", name);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      usage(stdout);
      return 0;
    } else if (std::strcmp(argv[i], "--socket") == 0) {
      socket_path = value("--socket");
    } else if (std::strcmp(argv[i], "--session") == 0) {
      spec.session = value("--session");
    } else if (std::strcmp(argv[i], "--kind") == 0) {
      const char* k = value("--kind");
      if (std::strcmp(k, "noop") == 0) {
        spec.kind = serve::JobKind::kNoop;
      } else if (std::strcmp(k, "train") == 0) {
        spec.kind = serve::JobKind::kTrain;
      } else {
        std::fprintf(stderr, "unknown kind %s\n", k);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--block") == 0) {
      spec.block = value("--block");
    } else if (std::strcmp(argv[i], "--scale") == 0) {
      spec.scale = std::atof(value("--scale"));
    } else if (std::strcmp(argv[i], "--iters") == 0) {
      spec.iters = std::atoi(value("--iters"));
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      spec.rollout_workers = std::atoi(value("--workers"));
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      spec.seed = static_cast<std::uint64_t>(std::atoll(value("--seed")));
    } else if (std::strcmp(argv[i], "--priority") == 0) {
      spec.priority = std::atoi(value("--priority"));
    } else if (std::strcmp(argv[i], "--deadline") == 0) {
      spec.deadline_sec = std::atof(value("--deadline"));
    } else if (std::strcmp(argv[i], "--noop-sec") == 0) {
      spec.noop_sec = std::atof(value("--noop-sec"));
    } else if (std::strcmp(argv[i], "--wait") == 0) {
      wait_flag = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json_flag = true;
    } else if (std::strcmp(argv[i], "--count") == 0) {
      count = std::atoi(value("--count"));
    } else if (std::strcmp(argv[i], "--timeout") == 0) {
      timeout_sec = std::atof(value("--timeout"));
    } else if (command.empty() && argv[i][0] != '-') {
      command = argv[i];
    } else if (!command.empty() && argv[i][0] != '-' && !have_job_id) {
      job_id = static_cast<std::uint64_t>(std::atoll(argv[i]));
      have_job_id = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      usage(stderr);
      return 2;
    }
  }
  if (socket_path.empty() || command.empty()) {
    usage(stderr);
    return 2;
  }

  serve::ServeClient client;
  Status cs = client.connect(socket_path);
  if (!cs.ok()) {
    std::fprintf(stderr, "rlccd_client: %s\n", cs.to_string().c_str());
    return 1;
  }

  if (command == "submit") {
    serve::SubmitReply reply;
    Status s = client.submit(spec, reply);
    if (!s.ok()) {
      std::fprintf(stderr, "rlccd_client: %s\n", s.to_string().c_str());
      return 1;
    }
    if (!reply.accepted) {
      std::fprintf(stderr, "rejected: %s\n", reply.reason.c_str());
      return 3;
    }
    std::printf("job %llu\n", static_cast<unsigned long long>(reply.job_id));
    if (wait_flag) return do_wait(client, reply.job_id, timeout_sec);
    return 0;
  }
  if (command == "poll" || command == "cancel") {
    if (!have_job_id) {
      std::fprintf(stderr, "%s needs a JOB_ID\n", command.c_str());
      return 2;
    }
    serve::JobStatus status;
    Status s = command == "poll" ? client.poll_job(job_id, status)
                                 : client.cancel(job_id, status);
    if (!s.ok()) {
      std::fprintf(stderr, "rlccd_client: %s\n", s.to_string().c_str());
      return 1;
    }
    print_status(status);
    return 0;
  }
  if (command == "wait") {
    if (!have_job_id) {
      std::fprintf(stderr, "wait needs a JOB_ID\n");
      return 2;
    }
    return do_wait(client, job_id, timeout_sec);
  }
  if (command == "stats") {
    std::string json;
    Status s = client.stats_json(json);
    if (!s.ok()) {
      std::fprintf(stderr, "rlccd_client: %s\n", s.to_string().c_str());
      return 1;
    }
    std::printf("%s\n", json.c_str());
    return 0;
  }
  if (command == "watch") {
    int frame = 0;
    Status s = client.watch_stats(
        [&](const std::string& json) {
          ++frame;
          if (json_flag) {
            std::printf("%s\n", json.c_str());
            std::fflush(stdout);
          } else {
            print_fleet_view(json, frame);
          }
          return true;
        },
        count, timeout_sec > 0.0 ? timeout_sec : 10.0);
    if (!s.ok()) {
      std::fprintf(stderr, "rlccd_client: %s\n", s.to_string().c_str());
      return 1;
    }
    return 0;
  }
  if (command == "metrics") {
    std::string text;
    Status s = client.metrics_text(text);
    if (!s.ok()) {
      std::fprintf(stderr, "rlccd_client: %s\n", s.to_string().c_str());
      return 1;
    }
    std::fputs(text.c_str(), stdout);
    return 0;
  }
  if (command == "shutdown") {
    Status s = client.shutdown();
    if (!s.ok()) {
      std::fprintf(stderr, "rlccd_client: %s\n", s.to_string().c_str());
      return 1;
    }
    std::printf("draining\n");
    return 0;
  }
  std::fprintf(stderr, "unknown command: %s\n", command.c_str());
  usage(stderr);
  return 2;
}

#endif  // _WIN32
