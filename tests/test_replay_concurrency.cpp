// Concurrency hammer for the ReplayEngine's feed loop: many short
// replays, from several threads at once, in single and batch mode, some
// aborted by a throwing hook. Every replay must deliver exactly the
// recorded work and join its workers. Built into the concurrency-labeled
// binary so the CI ThreadSanitizer job checks the window handoff and the
// barrier, not just the outcomes.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "emulator/replay_engine.hpp"
#include "profile/metrics.hpp"

namespace atoms = synapse::atoms;
namespace emulator = synapse::emulator;
namespace profile = synapse::profile;
namespace m = synapse::metrics;

namespace {

/// `rows` periods: allocation in every one, storage in every third.
profile::Profile short_profile(size_t rows) {
  profile::Profile p;
  p.command = "replay-hammer";
  p.sample_rate_hz = 100.0;
  profile::TimeSeries trace;
  trace.watcher = "trace";
  double alloc = 0, bytes = 0;
  for (size_t i = 0; i < rows; ++i) {
    profile::Sample s;
    s.timestamp = 100.0 + 0.01 * static_cast<double>(i);
    alloc += 2048;
    if (i % 3 == 0) bytes += 512;
    s.set(m::kMemAllocated, alloc);
    s.set(m::kBytesWritten, bytes);
    trace.samples.push_back(std::move(s));
  }
  p.series.push_back(trace);
  return p;
}

/// Legacy-interface atom (adapter dispatch): counts the rows it sees.
class CountAtom final : public atoms::Atom {
 public:
  CountAtom() : Atom("count") {}
  bool wants(const profile::SampleDelta& d) const override {
    return d.get(m::kMemAllocated) > 0;
  }
  void consume(const profile::SampleDelta&) override {
    stats_.samples_consumed += 1;
  }
};

}  // namespace

TEST(ReplayEngineConcurrency, ManyShortReplaysFromSeveralThreads) {
  atoms::AtomRegistry registry;
  registry.register_atom("count", [](const atoms::AtomBuildContext&) {
    return std::make_unique<CountAtom>();
  });
  constexpr size_t kThreads = 3;
  constexpr size_t kReplays = 60;
  constexpr size_t kRows = 24;
  const profile::Profile p = short_profile(kRows);

  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < kReplays; ++i) {
        emulator::EmulatorOptions opts;
        opts.storage.base_dir = "/tmp";
        opts.atom_set = {"memory", "storage", "count"};
        opts.replay_batch = (i + t) % 2 == 0 ? 1 : 5;
        emulator::ReplayEngine engine(opts, &registry);
        const bool abort = i % 7 == 3;
        size_t next_hook = 0;
        try {
          const auto r = engine.replay(p, [&](size_t index) {
            if (index != next_hook++) failures.fetch_add(1);
            if (abort && index == kRows / 2) {
              throw std::runtime_error("hook abort");
            }
          });
          if (abort || r.samples_replayed != kRows ||
              r.memory.samples_consumed != kRows ||
              r.storage.samples_consumed != kRows / 3 ||
              r.atom_stats.at("count").samples_consumed != kRows) {
            failures.fetch_add(1);
          }
        } catch (const std::runtime_error&) {
          if (!abort || next_hook != kRows / 2 + 1) failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0u);
}
