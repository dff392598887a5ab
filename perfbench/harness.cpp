// perfbench — the pipeline benchmark's harness.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work DIR [--mdsim PATH] [--git-sha SHA] [--src-digest D]
//
// Runs one workload as a closed loop of ops for S seconds and prints, as
// its last stdout line, one JSON object: {"correct", "attempted",
// "failed", "e2e": {...}, "layer": {...}, "machine": {...}} where each
// metric is {"value", "unit"}. `perfbench/run.py` builds this binary and
// turns that line into the benchmark's result.
//
// End-to-end metrics come from untraced ops. With --trace 1 every second
// op is traced instead (spans around each call into a library layer,
// trace.hpp), and the per-layer metrics plus the tracing overhead
// (traced vs untraced op latency, interleaved so both see the same
// store state) come from those.

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "resource/resource_spec.hpp"
#include "sys/clock.hpp"
#include "sys/cpuinfo.hpp"
#include "sys/env.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

// Set-up repeats until both minima are met (setup_s is the median of the
// rounds' timed library calls), so a fast set-up is sampled often enough
// for a steady median.
constexpr size_t kMinSetupRounds = 3;
constexpr size_t kMaxSetupRounds = 15;
constexpr double kMinSetupSeconds = 1.0;

struct Args {
  Options opts;
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "md-roundtrip|store-churn|replay-dense --seed N --seconds S "
               "--trace 0|1 --work DIR [--mdsim PATH] [--git-sha SHA] "
               "[--src-digest D]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.opts.workload = value;
    } else if (flag == "--seed") {
      a.opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.opts.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      a.opts.trace = value == "1";
    } else if (flag == "--work") {
      a.opts.work_dir = value;
    } else if (flag == "--mdsim") {
      a.opts.mdsim = value;
    } else if (flag == "--git-sha") {
      a.git_sha = value;
    } else if (flag == "--src-digest") {
      a.src_digest = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.opts.work_dir.empty()) usage("--work is required");
  if (!(a.opts.seconds > 0)) usage("--seconds must be positive");
  return a;
}

std::unique_ptr<Workload> make_workload(const Options& opts) {
  if (opts.workload == "md-roundtrip") return make_md_roundtrip(opts);
  if (opts.workload == "store-churn") return make_store_churn(opts);
  if (opts.workload == "replay-dense") return make_replay_dense(opts);
  usage(("unknown workload '" + opts.workload + "'").c_str());
}

/// Per-client results of the closed loop.
struct ClientLog {
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

void client_loop(Workload& w, const Options& opts, size_t client,
                 double deadline, Checks& checks, ClientLog& log) {
  std::mt19937_64 rng(opts.seed * 0x9e3779b97f4a7c15ull + client + 1);
  // The first op warms caches and lazy set-up; it is checked but not
  // timed.
  for (int64_t k = 0; k == 0 || synapse::sys::steady_now() < deadline; ++k) {
    OpContext ctx;
    ctx.client = client;
    ctx.id = k * 64 + static_cast<int64_t>(client);
    ctx.traced = opts.trace && k % 2 == 0 && k > 0;
    ctx.rng = &rng;
    if (ctx.traced) Tracer::enable(ctx.id);
    bool ok = true;
    const double start = synapse::sys::steady_now();
    try {
      span("bench.op", [&] { w.op(ctx); });
    } catch (const std::exception& e) {
      ok = checks.expect(false, std::string("op threw: ") + e.what());
    }
    const double elapsed = synapse::sys::steady_now() - start;
    try {
      ok = span("bench.verify", [&] { return w.verify(ctx, checks); }) && ok;
    } catch (const std::exception& e) {
      ok = checks.expect(false, std::string("verify threw: ") + e.what());
    }
    if (ctx.traced) Tracer::disable();
    ++log.attempted;
    if (!ok) {
      ++log.failed;
    } else if (k > 0) {
      (ctx.traced ? log.traced_s : log.untraced_s).push_back(elapsed);
    }
  }
}

void add_trace_metrics(const std::vector<double>& untraced,
                       const std::vector<double>& traced, Metrics& layer) {
  const double base = median(untraced);
  layer.set("trace.overhead_pct",
            base > 0 ? 100.0 * (median(traced) - base) / base : 0.0, "%");
  const std::vector<OpBreakdown> ops = Tracer::breakdown("bench.op");
  double wall = 0.0;
  double covered = 0.0;
  std::map<std::string, double> self;
  for (const OpBreakdown& op : ops) {
    wall += op.wall_s;
    for (const auto& [name, s] : op.self_s) {
      self[name] += s;
      if (name != "bench") covered += s;
    }
  }
  const double n = ops.empty() ? 1.0 : static_cast<double>(ops.size());
  layer.set("trace.self_coverage", wall > 0 ? covered / wall : 0.0, "ratio");
  layer.set("trace.traced_ops", static_cast<double>(ops.size()), "count");
  for (const char* name : {"bench", "core", "watchers", "profile", "emulator"}) {
    layer.set(std::string("self.") + name + "_ms", 1e3 * self[name] / n, "ms");
  }
}

void print_metrics(std::FILE* out, const Metrics& metrics) {
  bool first = true;
  for (const auto& [name, vu] : metrics.entries()) {
    std::fprintf(out, "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                 first ? "" : ",", name.c_str(),
                 std::isfinite(vu.first) ? vu.first : 0.0, vu.second.c_str());
    first = false;
  }
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

int run(const Args& args) {
  const Options& opts = args.opts;
  std::filesystem::create_directories(opts.work_dir + "/tmp");
  // Storage atoms, trace side channels and mdsim trajectories all land
  // under $TMPDIR: keep them inside the work directory.
  synapse::sys::setenv_str("TMPDIR", opts.work_dir + "/tmp");

  std::unique_ptr<Workload> w = make_workload(opts);
  synapse::resource::activate_resource(w->resource());

  std::vector<double> setup_s;
  double setup_total = 0.0;
  while (setup_s.size() < kMinSetupRounds ||
         (setup_total < kMinSetupSeconds && setup_s.size() < kMaxSetupRounds)) {
    setup_s.push_back(w->setup());
    setup_total += setup_s.back();
  }

  Checks checks;
  std::vector<ClientLog> logs(w->clients());
  const double deadline = synapse::sys::steady_now() + opts.seconds;
  {
    std::vector<std::thread> clients;
    for (size_t c = 0; c < logs.size(); ++c) {
      clients.emplace_back([&, c] {
        client_loop(*w, opts, c, deadline, checks, logs[c]);
      });
    }
    for (auto& t : clients) t.join();
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;
  double ops_per_s = 0.0;
  std::vector<double> op_s, traced_op_s;  // all clients
  for (const ClientLog& log : logs) {
    attempted += log.attempted;
    failed += log.failed;
    op_s.insert(op_s.end(), log.untraced_s.begin(), log.untraced_s.end());
    traced_op_s.insert(traced_op_s.end(), log.traced_s.begin(),
                       log.traced_s.end());
    // Closed loop: each client's rate is its ops over its own busy time,
    // so untimed checks between ops do not count against throughput.
    double busy = 0.0;
    for (const double s : log.untraced_s) busy += s;
    if (busy > 0) ops_per_s += static_cast<double>(log.untraced_s.size()) / busy;
  }

  Metrics e2e;
  Metrics layer;
  e2e.set("ops_per_s", ops_per_s, "1/s");
  e2e.set("op_p50_ms", 1e3 * median(op_s), "ms");
  e2e.set("op_tail_ms", 1e3 * tail(op_s), "ms");
  w->report(e2e, layer);
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  e2e.set("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB");
  e2e.set("setup_s", median(setup_s), "s");
  if (opts.trace) {
    add_span_metrics(layer);
    add_trace_metrics(op_s, traced_op_s, layer);
    Tracer::write_jsonl(opts.work_dir + "/spans.jsonl");
  }

  std::fprintf(stderr,
               "perfbench: %s seed=%llu ops=%zu (+%zu traced) attempted=%llu "
               "failed=%llu\n",
               opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
               op_s.size(), traced_op_s.size(),
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed));
  for (const Metrics* ms : {&e2e, &layer}) {
    for (const auto& [name, vu] : ms->entries()) {
      std::fprintf(stderr, "  %-44s %14.6g %s\n", name.c_str(), vu.first,
                   vu.second.c_str());
    }
  }

  const synapse::sys::CpuInfo cpu = synapse::sys::detect_cpu();
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"e2e\":{",
              failed == 0 && attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  print_metrics(stdout, e2e);
  std::printf("},\"layer\":{");
  print_metrics(stdout, layer);
  std::printf(
      "},\"machine\":{\"nproc\":%u,\"cpu_model\":\"%s\",\"compiler\":\"%s\","
      "\"build_type\":\"%s\",\"git_sha\":\"%s\",\"src_digest\":\"%s\","
      "\"resource\":\"%s\"}}\n",
      std::thread::hardware_concurrency(),
      json_escape(cpu.model_name).c_str(), PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE, json_escape(args.git_sha).c_str(),
      json_escape(args.src_digest).c_str(), w->resource().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
