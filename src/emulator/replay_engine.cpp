#include "emulator/replay_engine.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "emulator/replay_plan.hpp"
#include "resource/resource_spec.hpp"
#include "sys/clock.hpp"
#include "sys/error.hpp"
#include "watchers/trace.hpp"

namespace synapse::emulator {

ReplayPace replay_pace_from_string(const std::string& name) {
  if (name == "auto") return ReplayPace::Auto;
  if (name == "off") return ReplayPace::Off;
  if (name == "on") return ReplayPace::On;
  throw sys::ConfigError("unknown replay pace: " + name +
                         " (expected auto, off or on)");
}

const char* replay_pace_name(ReplayPace pace) {
  switch (pace) {
    case ReplayPace::Off:
      return "off";
    case ReplayPace::On:
      return "on";
    default:
      return "auto";
  }
}

ReplayEngine::ReplayEngine(EmulatorOptions options,
                           const atoms::AtomRegistry* registry)
    : options_(std::move(options)),
      registry_(registry != nullptr ? registry
                                    : &atoms::AtomRegistry::instance()) {
  if (options_.parallel_degree < 1) options_.parallel_degree = 1;
}

std::vector<std::string> ReplayEngine::resolve_atom_set(
    const EmulatorOptions& options) {
  std::vector<std::string> names;
  if (!options.atom_set.empty()) {
    // Deduplicate, keeping first-occurrence order: a repeated name
    // would double-consume the budget yet report only one atom's stats
    // (and double-count in the process-parallel slot aggregation).
    for (const auto& name : options.atom_set) {
      if (std::find(names.begin(), names.end(), name) == names.end()) {
        names.push_back(name);
      }
    }
    return names;
  }
  if (options.emulate_compute) names.push_back("compute");
  if (options.emulate_memory) names.push_back("memory");
  if (options.emulate_storage) names.push_back("storage");
  if (options.emulate_network) names.push_back("network");
  return names;
}

double ReplayEngine::parallel_time_factor(int workers,
                                          double overhead_per_worker) {
  if (workers <= 1) return 1.0;
  // Amdahl serial fraction (the emulator's sample feed is sequential)
  // plus linear per-worker coordination cost: time(N) =
  // T1 * (f + (1-f)/N) * (1 + a*(N-1)). Good scaling for small N,
  // diminishing returns toward a full node — the Fig. 12 shape.
  constexpr double kSerialFraction = 0.03;
  const double n = static_cast<double>(workers);
  return (kSerialFraction + (1.0 - kSerialFraction) / n) *
         (1.0 + overhead_per_worker * (n - 1.0));
}

namespace {

/// Resolve the pacing decision for this run (ReplayPace::Auto paces
/// exactly the profiles whose gaps carry information).
bool replay_paced(const EmulatorOptions& opts,
                  const profile::Profile& profile) {
  switch (opts.pace) {
    case ReplayPace::On:
      return true;
    case ReplayPace::Off:
      return false;
    default:
      return profile.variable_rate();
  }
}

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// A monotonically increasing counter that threads wait on — the one
/// synchronization primitive of the feed loop. A waiter spins with a
/// CPU pause hint (a window handoff between busy threads takes well
/// under a microsecond), then yields the core, then sleeps on a
/// condition variable, so an idle worker or a coordinator behind a long
/// kernel costs no CPU. add() updates value_ without the mutex and
/// pays for the mutex and notify only while somebody sleeps; no wakeup
/// is lost because a sleeper registers in sleepers_ under the mutex
/// before re-checking value_ (both seq_cst, so either it sees the new
/// value or add() sees it), and add() takes the mutex before notifying,
/// which cannot happen between the sleeper's check and its wait.
class Beacon {
 public:
  void add(uint64_t n) {
    value_.fetch_add(n, std::memory_order_seq_cst);
    if (sleepers_.load(std::memory_order_seq_cst) != 0) {
      const std::lock_guard<std::mutex> lock(mutex_);
      cv_.notify_all();
    }
  }

  /// Returns once the counter reached `target`.
  void wait_for(uint64_t target) {
    // Spin through a typical dense-replay row (tens of µs); keep
    // yielding through the gaps between one atom's bursts (a few ms),
    // since waking a blocked thread costs tens of µs — measured on
    // replay-dense, a 500 µs budget left ~3 ms more feed time per 2000
    // rows; past that the wait is long enough to sleep.
    constexpr double kSpinSeconds = 20e-6;
    constexpr double kYieldSeconds = 5e-3;
    if (reached(target)) return;
    const double start = sys::steady_now();
    for (unsigned spins = 1; !reached(target); ++spins) {
      if (spins % 32 != 0) {
        cpu_relax();
        continue;
      }
      const double waited = sys::steady_now() - start;
      if (waited < kSpinSeconds) continue;
      if (waited < kYieldSeconds) {
        std::this_thread::yield();
        continue;
      }
      std::unique_lock<std::mutex> lock(mutex_);
      sleepers_.fetch_add(1, std::memory_order_seq_cst);
      cv_.wait(lock, [&] {
        return value_.load(std::memory_order_seq_cst) >= target;
      });
      sleepers_.fetch_sub(1, std::memory_order_relaxed);
      return;
    }
  }

 private:
  bool reached(uint64_t target) const {
    return value_.load(std::memory_order_acquire) >= target;
  }

  std::atomic<uint64_t> value_{0};
  std::atomic<uint32_t> sleepers_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
};

/// The persistent workers of one replay: one thread per engaged atom
/// (idle atoms get none). The table is cut into fixed windows of
/// `window` rows; window k is rows [k * window, (k + 1) * window).
/// Coordinator and workers evaluate the same predicate — does the atom's
/// mask want a row of window k — so a worker walks the windows in order,
/// skips the ones it does not want without waiting, and parks on its
/// `released` Beacon for the ones it does; release(k) bumps exactly the
/// Beacons of the atoms that want window k. wait(k) is the barrier: it
/// returns once every atom handed window k consumed it. The destructor
/// stops and joins every worker, so an exception anywhere in the feed
/// (a throwing hook) cannot leak a thread.
class Crew {
 public:
  /// `depth`: how many windows release() may run ahead of wait().
  Crew(const std::vector<std::unique_ptr<atoms::Atom>>& active,
       const ReplayPlan& plan, size_t window, size_t depth)
      : table_(plan.table()),
        window_(window),
        windows_((plan.table().rows() + window - 1) / window),
        marks_(depth + 1) {
    try {
      for (size_t i = 0; i < active.size(); ++i) {
        if (plan.mask(i).idle) continue;
        auto worker = std::make_unique<Worker>();
        worker->atom = active[i].get();
        worker->mask = &plan.mask(i);
        workers_.push_back(std::move(worker));
        Worker* w = workers_.back().get();
        w->thread = std::thread([this, w] { work(*w); });
      }
    } catch (...) {
      stop();
      throw;
    }
    for (auto& mark : marks_) mark.resize(workers_.size());
  }

  ~Crew() { stop(); }

  Crew(const Crew&) = delete;
  Crew& operator=(const Crew&) = delete;

  size_t windows() const { return windows_; }
  profile::DeltaFrame window(size_t k) const {
    const size_t first = k * window_;
    return table_.frame(first, std::min(window_, table_.rows() - first));
  }

  void release(size_t k) {
    const profile::DeltaFrame frame = window(k);
    std::vector<uint64_t>& mark = marks_[k % marks_.size()];
    for (size_t i = 0; i < workers_.size(); ++i) {
      Worker& w = *workers_[i];
      if (wants(*w.mask, frame)) {
        ++w.handed;
        w.released.add(1);
      }
      mark[i] = w.handed;
    }
  }

  void wait(size_t k) {
    const std::vector<uint64_t>& mark = marks_[k % marks_.size()];
    for (size_t i = 0; i < workers_.size(); ++i) {
      workers_[i]->consumed.wait_for(mark[i]);
    }
  }

 private:
  struct Worker {
    atoms::Atom* atom = nullptr;
    const atoms::LaneMask* mask = nullptr;
    Beacon released;      ///< wanted windows handed out (+1 at stop)
    Beacon consumed;      ///< wanted windows consumed
    uint64_t handed = 0;  ///< coordinator's copy of `released`
    std::thread thread;
  };

  /// Adapter atoms filter rows through wants() inside the default
  /// consume_frame, so every window is theirs to look at.
  static bool wants(const atoms::LaneMask& mask,
                    const profile::DeltaFrame& frame) {
    if (mask.adapter) return true;
    for (size_t row = 0; row < frame.rows(); ++row) {
      if (mask.row_wanted(frame, row)) return true;
    }
    return false;
  }

  void work(Worker& w) {
    uint64_t wanted = 0;
    for (size_t k = 0; k < windows_; ++k) {
      const profile::DeltaFrame frame = window(k);
      if (!wants(*w.mask, frame)) continue;
      w.released.wait_for(++wanted);
      if (stop_.load(std::memory_order_acquire)) return;
      try {
        w.atom->consume_frame(frame, *w.mask);
      } catch (...) {
        // consume_frame must not throw; a failing atom must not wedge
        // the barrier — the shortfall shows up in its stats.
      }
      w.consumed.add(1);
    }
  }

  void stop() {
    stop_.store(true, std::memory_order_release);
    for (const auto& w : workers_) {
      w->released.add(1);
      if (w->thread.joinable()) w->thread.join();
    }
  }

  const profile::DeltaTable& table_;
  const size_t window_;
  const size_t windows_;
  /// Per in-flight window, each worker's `handed` count right after the
  /// window was released: the barrier targets of wait().
  std::vector<std::vector<uint64_t>> marks_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> stop_{false};
};

}  // namespace

void ReplayEngine::mirror_builtin_stats(EmulationResult& result,
                                        const std::string& name,
                                        const atoms::AtomStats& stats) {
  if (name == "compute") result.compute = stats;
  if (name == "memory") result.memory = stats;
  if (name == "storage") result.storage = stats;
  if (name == "network") result.network = stats;
}

EmulationResult ReplayEngine::replay(const profile::Profile& profile,
                                     const SampleHook& per_sample_hook) {
  EmulationResult result;
  const sys::Stopwatch total;

  // --- startup: build atoms, warm the kernel (calibration) -----------------
  const sys::Stopwatch startup;

  // The engine replays in ONE process. Forking and splitting the budget
  // across ranks is the Emulator driver's job; accepting Process mode
  // here would silently consume the full N-rank budget in-process.
  if (options_.parallel_mode == ParallelMode::Process &&
      options_.parallel_degree > 1) {
    throw sys::ConfigError(
        "ReplayEngine replays in-process; use Emulator for Process mode");
  }

  EmulatorOptions opts = options_;
  if (opts.parallel_mode == ParallelMode::OpenMp && opts.parallel_degree > 1) {
    opts.compute.kernel = "omp";
    opts.compute.omp_threads = opts.parallel_degree;
    opts.compute.time_scale = parallel_time_factor(
        opts.parallel_degree,
        resource::active_resource().omp_overhead_per_worker);
  }

  const atoms::AtomBuildContext context{opts.compute, opts.memory,
                                        opts.storage, opts.network};
  const std::vector<std::string> atom_names = resolve_atom_set(opts);
  std::vector<std::unique_ptr<atoms::Atom>> active;
  for (const auto& name : atom_names) {
    active.push_back(registry_->create(name, context));
  }

  // Emulation runs are themselves profile-able: publish consumed
  // counters through the cooperative trace when one is requested.
  auto trace = watchers::TraceWriter::from_env();
  for (auto& atom : active) atom->set_trace(trace.get());

  result.startup_seconds = startup.elapsed();

  // --- the global sample feed loop (section 4.2) ---------------------------
  feed(profile, opts, active, per_sample_hook, result);

  for (size_t i = 0; i < active.size(); ++i) {
    result.atom_stats[atom_names[i]] = active[i]->stats();
    mirror_builtin_stats(result, atom_names[i], active[i]->stats());
  }

  result.wall_seconds = total.elapsed();
  result.ranks_ok = 1;
  return result;
}

void ReplayEngine::feed(const profile::Profile& profile,
                        const EmulatorOptions& opts,
                        const std::vector<std::unique_ptr<atoms::Atom>>& active,
                        const SampleHook& per_sample_hook,
                        EmulationResult& result) {
  // Pacing clock: window k is released at its first row's recorded
  // offset past the replay start (the sum of the durations of rows
  // 1..first). Row 0 dispatches immediately — its duration describes
  // the period BEFORE it, which the replay has no counterpart for.
  const bool paced = replay_paced(opts, profile);
  const double t0 = paced ? sys::steady_now() : 0.0;
  double offset = 0.0;
  size_t offset_rows = 1;  ///< offset sums the durations of rows 1..this-1

  // Single mode keeps the strict per-sample barrier (depth 0). Unpaced
  // batch mode lets the atoms run up to replay_queue_depth windows
  // ahead of the barrier, so a fast atom does not idle at every window
  // boundary; hooks still fire per window, in recorded order, once
  // every atom consumed it. A paced replay releases each window at its
  // recorded time, so running ahead would only delay the hooks.
  const size_t window = std::max<size_t>(1, opts.replay_batch);
  const size_t depth = window > 1 && !paced ? opts.replay_queue_depth : 0;

  // The plan decodes and scales once; the crew must be destroyed (its
  // workers joined) before the plan whose masks and table they read.
  const ReplayPlan plan(profile, opts, active);
  const profile::DeltaTable& table = plan.table();
  Crew crew(active, plan, window, depth);

  size_t released = 0;
  for (size_t k = 0; k < crew.windows(); ++k) {
    for (; released < crew.windows() && released <= k + depth; ++released) {
      const size_t first = released * window;
      if (paced && first > 0) {
        for (; offset_rows <= first; ++offset_rows) {
          offset += table.duration(offset_rows);
        }
        const double wait = t0 + offset - sys::steady_now();
        if (wait > 0) sys::sleep_for(wait);
      }
      crew.release(released);
    }
    crew.wait(k);
    const profile::DeltaFrame frame = crew.window(k);
    for (size_t r = 0; r < frame.rows(); ++r) {
      if (per_sample_hook) per_sample_hook(frame.first_index() + r);
      ++result.samples_replayed;
    }
  }
}

}  // namespace synapse::emulator
