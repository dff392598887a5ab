#pragma once
// Shared pieces of the pipeline benchmark: run options, the workload
// interface the closed-loop driver (harness.cpp) runs, metric sinks,
// failed-check accounting and small statistics helpers.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "atoms/atom.hpp"
#include "core/synapse.hpp"
#include "emulator/emulator.hpp"
#include "profile/delta_frame.hpp"
#include "profile/profile.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< scratch directory; everything is written here
  std::string mdsim;     ///< mdsim binary (md-roundtrip profiles it)
};

/// name -> (value, unit), kept in insertion order for printing.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  entries() const {
    return entries_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> entries_;
};

/// Failed checks, counted per op by the driver. Thread-safe; the first
/// few failures are described on stderr.
class Checks {
 public:
  /// Returns `ok`; records `what` when it is false.
  bool expect(bool ok, const std::string& what);

 private:
  std::atomic<int> reported_{0};
};

/// One op as the driver hands it to a workload.
struct OpContext {
  size_t client = 0;
  int64_t id = 0;
  bool traced = false;
  std::mt19937_64* rng = nullptr;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Virtual resource the run activates ("host" = none).
  virtual std::string resource() const = 0;
  virtual size_t clients() const = 0;
  /// Set the system up from scratch (the last call's state is measured)
  /// and return the seconds its library calls took — input generation
  /// and clean-up of the previous round are not set-up cost. Called at
  /// least three times; setup_s is the median.
  virtual double setup() = 0;
  /// The timed part of one op. Throws when an operation fails.
  virtual void op(OpContext& ctx) = 0;
  /// Untimed, right after op() on the same client: check the outputs
  /// (false = the op failed) and, in traced ops, time the layer probes.
  virtual bool verify(OpContext& ctx, Checks& checks) = 0;
  /// Workload metrics after the loop: end-to-end ones into `e2e`,
  /// per-layer ones into `layer` (only printed by traced runs).
  virtual void report(Metrics& e2e, Metrics& layer) = 0;
};

std::unique_ptr<Workload> make_md_roundtrip(const Options& opts);
std::unique_ptr<Workload> make_store_churn(const Options& opts);
std::unique_ptr<Workload> make_replay_dense(const Options& opts);

/// Sums the wall time of the calls it runs; `timed(fn)` returns fn().
class Stopwatch {
 public:
  template <class F>
  decltype(auto) operator()(F&& fn) {
    struct Lap {
      Stopwatch& w;
      double start;
      ~Lap() { w.seconds_ += now() - start; }
    };
    const Lap lap{*this, now()};
    return fn();
  }
  double seconds() const { return seconds_; }

 private:
  static double now();
  double seconds_ = 0.0;
};

// --- statistics ------------------------------------------------------------

double median(std::vector<double> v);
/// The op-tail rule: the highest order statistic with at least 10
/// values above it (the median when there are fewer than 21 values).
double tail(std::vector<double> v);
double mean(const std::vector<double>& v);

/// Zipf(s) sampler over [0, n): rank 0 is the most popular.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t operator()(std::mt19937_64& rng) const;

 private:
  std::vector<double> cdf_;
};

// --- inputs ------------------------------------------------------------------

/// Shape of a seeded fixed-rate synthetic profile: cpu, mem and io series
/// sampled together, with per-sample compute, allocations (freed a few
/// samples later), reads and bursts of storage writes. Event counts are
/// exact shares of the sample count; the seed places them.
struct SynthSpec {
  size_t samples = 100;
  double rate_hz = 10.0;
  double cycles_lo = 1e4, cycles_hi = 5e4;  ///< per sample, uniform
  double alloc_prob = 0.05;                 ///< share of samples
  uint64_t alloc_bytes = 256 * 1024;
  double burst_prob = 0.01;  ///< write bursts per sample
  size_t burst_len = 8;
  uint64_t write_bytes = 32 * 1024;  ///< per sample inside a burst
  double read_prob = 0.02;           ///< share of samples
  uint64_t read_bytes = 64 * 1024;
};

synapse::profile::Profile synth_profile(const std::string& command,
                                        const std::vector<std::string>& tags,
                                        double created_at,
                                        const SynthSpec& spec,
                                        std::mt19937_64& rng);

// --- layer helpers -----------------------------------------------------------

/// Bytes of every regular file below `dir`.
uint64_t dir_bytes(const std::string& dir);

/// What the built-in compute/memory/storage atoms must report after
/// consuming `table` — the benchmark's own lane sums, following each
/// atom's documented accounting (compute scales cycles by the resource's
/// calibration bias; memory allocates in blocks and frees whole blocks;
/// storage counts whole bytes). Timing fields are left 0.
struct ExpectedStats {
  synapse::atoms::AtomStats compute, memory, storage;
};
ExpectedStats expected_stats(const synapse::profile::DeltaTable& table);

/// Compare every non-timing AtomStats field; describe mismatches.
bool same_counts(const synapse::atoms::AtomStats& got,
                 const synapse::atoms::AtomStats& want, const char* atom,
                 Checks& checks);

/// Externally timed kernels: build fresh compute/memory/storage atoms
/// (default options), bind them through a ReplayPlan over `profile`, and
/// run each one's consume_frame over the whole table in turn. Spans:
/// emulator.plan_compile, atoms.<name>.consume_frame.
struct KernelTimes {
  double plan_s = 0.0;
  std::map<std::string, double> kernel_s;  ///< atom -> consume_frame wall
  std::map<std::string, double> busy_s;    ///< atom -> AtomStats.busy
};
KernelTimes time_kernels(const synapse::profile::Profile& profile);

/// Per-layer numbers of traced replays: the emulator's own startup, the
/// feed time left after startup and plan compile, and the dispatch cost
/// (feed minus the slowest externally timed kernel, per sample), next
/// to each atom's kernel and AtomStats busy time.
class ReplayLayers {
 public:
  void add(const synapse::emulator::EmulationResult& result,
           const KernelTimes& kernels);
  void report(Metrics& layer) const;

 private:
  std::vector<double> startup_s_, feed_s_, dispatch_s_, unaccounted_s_;
  std::map<std::string, std::vector<double>> busy_s_;
};

/// Profile identity as the store must return it: command, tags,
/// created_at, sample count and the SYNB encoding (span profile.encode),
/// which must also decode back (span profile.decode). `encoded_bytes`,
/// when given, receives the encoding's size.
bool same_profile(const synapse::profile::Profile& got,
                  const synapse::profile::Profile& want, Checks& checks,
                  size_t* encoded_bytes = nullptr);

/// Session::emulate. Traced, it is spelled out as the public calls it
/// makes (core/synapse.cpp), one span each, since spans stop at the
/// library boundary: core.emulate > profile.store_find_hot +
/// emulator.emulate.
synapse::emulator::EmulationResult session_emulate(
    synapse::Session& session, const std::string& command,
    const std::vector<std::string>& tags, bool traced);

/// Store directory bytes per stored profile.
double bytes_per_profile(const std::string& dir,
                         const synapse::profile::ProfileStore& store);

/// Per-layer metrics that are plain span medians (durations of the spans
/// the workloads record around layer calls); 0 where no span ran.
void add_span_metrics(Metrics& layer);

}  // namespace perfbench
