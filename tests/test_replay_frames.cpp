// The compiled replay plan (emulator/replay_plan.hpp +
// profile/delta_frame.hpp): columnar DeltaTable construction, lane
// interning, and frame dispatch — idle atoms, custom atoms that only
// implement the legacy consume() interface, hook order and hook errors.
// Bit-identical non-timing AtomStats across the builtin catalog are
// pinned by the golden fixtures (test_replay_golden.cpp).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "emulator/emulator.hpp"
#include "emulator/replay_engine.hpp"
#include "emulator/replay_plan.hpp"
#include "profile/delta_frame.hpp"
#include "profile/metrics.hpp"
#include "profile/profile.hpp"
#include "resource/resource_spec.hpp"
#include "sys/error.hpp"

namespace atoms = synapse::atoms;
namespace emulator = synapse::emulator;
namespace profile = synapse::profile;
namespace resource = synapse::resource;
namespace m = synapse::metrics;
namespace sys = synapse::sys;

namespace {

struct HostGuard {
  HostGuard() { resource::activate_resource("host"); }
  ~HostGuard() { resource::activate_resource("host"); }
};

emulator::EmulatorOptions tmp_options() {
  emulator::EmulatorOptions opts;
  opts.storage.base_dir = "/tmp";
  return opts;
}

/// Fixed-rate profile with compute, memory and storage consumption.
profile::Profile fixed_profile(size_t samples) {
  profile::Profile p;
  p.command = "frames-fixed";
  p.sample_rate_hz = 10.0;
  profile::TimeSeries trace;
  trace.watcher = "trace";
  double cycles = 0, alloc = 0, bytes = 0;
  for (size_t i = 0; i < samples; ++i) {
    profile::Sample s;
    s.timestamp = 100.0 + static_cast<double>(i) * 0.1;
    cycles += 1e6 + static_cast<double>(i);
    alloc += 128 * 1024;
    bytes += 32 * 1024;
    s.set(m::kCyclesUsed, cycles);
    s.set(m::kMemAllocated, alloc);
    s.set(m::kBytesWritten, bytes);
    trace.samples.push_back(std::move(s));
  }
  p.series.push_back(trace);
  return p;
}

/// Variable-rate (adaptively gated) profile: io samples at explicit
/// offsets, plus a second fixed-cadence series so the delta pipeline
/// exercises the timestamp-union bucketing.
profile::Profile variable_profile() {
  profile::Profile p;
  p.command = "frames-variable";
  p.sample_rate_hz = 100.0;

  profile::TimeSeries io;
  io.watcher = "io";
  io.sample_rate_hz = 100.0;
  io.variable_rate = true;
  double b = 0;
  for (const double off : {0.0, 0.01, 0.02, 0.3, 0.31, 0.6}) {
    profile::Sample s;
    s.timestamp = 100.0 + off;
    b += 4096;
    s.set(m::kBytesWritten, b);
    io.samples.push_back(std::move(s));
  }
  p.series.push_back(io);

  profile::TimeSeries trace;
  trace.watcher = "trace";
  trace.sample_rate_hz = 100.0;
  trace.variable_rate = true;
  double cycles = 0;
  for (const double off : {0.0, 0.15, 0.3, 0.45, 0.6}) {
    profile::Sample s;
    s.timestamp = 100.0 + off;
    cycles += 5e5;
    s.set(m::kCyclesUsed, cycles);
    trace.samples.push_back(std::move(s));
  }
  p.series.push_back(trace);
  return p;
}

/// Legacy-interface custom atom: no wanted_metrics()/consume_frame()
/// overrides, so the engine must route it through the unbox adapter.
class TallyAtom final : public atoms::Atom {
 public:
  TallyAtom() : Atom("tally") {}
  bool wants(const profile::SampleDelta& delta) const override {
    return delta.get(m::kCyclesUsed) > 0;
  }
  void consume(const profile::SampleDelta& delta) override {
    stats_.samples_consumed += 1;
    stats_.cycles += delta.get(m::kCyclesUsed);
  }
};

}  // namespace

// --- DeltaTable construction ------------------------------------------------

TEST(DeltaTable, LaneTableInternsSortedNames) {
  const profile::LaneTable lanes({"alpha", "beta", "gamma"});
  EXPECT_EQ(lanes.size(), 3u);
  EXPECT_EQ(lanes.id("alpha"), 0u);
  EXPECT_EQ(lanes.id("beta"), 1u);
  EXPECT_EQ(lanes.id("gamma"), 2u);
  EXPECT_EQ(lanes.id("delta"), profile::LaneTable::kNoLane);
  EXPECT_EQ(lanes.name(1), "beta");
}

TEST(DeltaTable, UnboxMatchesSampleDeltasOnFixedRateProfile) {
  const auto p = fixed_profile(6);
  const auto deltas = p.sample_deltas();
  const auto table = p.delta_table();
  ASSERT_EQ(table.rows(), deltas.size());
  for (size_t i = 0; i < deltas.size(); ++i) {
    EXPECT_EQ(table.duration(i), deltas[i].duration) << i;
    const profile::SampleDelta row = table.unbox(i);
    EXPECT_EQ(row.deltas, deltas[i].deltas) << i;
    // Lane reads agree with map lookups, including absent keys (0.0).
    for (const auto& [name, value] : deltas[i].deltas) {
      EXPECT_EQ(table.get(table.lanes().id(name), i), value) << name;
    }
  }
  EXPECT_EQ(table.get(profile::LaneTable::kNoLane, 0), 0.0);
}

TEST(DeltaTable, UnboxMatchesSampleDeltasOnBinaryPayload) {
  // A SYNB-decoded profile: the kernel reads columns the decoder
  // filled; unboxed rows must still match sample_deltas().
  auto p = profile::Profile::from_binary(fixed_profile(6).to_binary());
  const auto deltas = p.sample_deltas();
  const auto table = p.delta_table();
  ASSERT_EQ(table.rows(), deltas.size());
  for (size_t i = 0; i < deltas.size(); ++i) {
    EXPECT_EQ(table.duration(i), deltas[i].duration) << i;
    EXPECT_EQ(table.unbox(i).deltas, deltas[i].deltas) << i;
  }
}

TEST(DeltaTable, UnboxMatchesSampleDeltasOnVariableRateProfile) {
  for (const bool binary : {false, true}) {
    auto p = variable_profile();
    if (binary) p = profile::Profile::from_binary(p.to_binary());
    ASSERT_TRUE(p.variable_rate());
    const auto deltas = p.sample_deltas();
    const auto table = p.delta_table();
    ASSERT_EQ(table.rows(), deltas.size()) << "binary=" << binary;
    for (size_t i = 0; i < deltas.size(); ++i) {
      EXPECT_EQ(table.duration(i), deltas[i].duration) << i;
      EXPECT_EQ(table.unbox(i).deltas, deltas[i].deltas) << i;
    }
  }
}

TEST(DeltaTable, PresenceDistinguishesRecordedZeroFromAbsent) {
  const auto p = fixed_profile(3);
  const auto table = p.delta_table();
  const uint32_t lane = table.lanes().id(m::kCyclesUsed);
  ASSERT_NE(lane, profile::LaneTable::kNoLane);
  EXPECT_TRUE(table.present(lane, 0));
  // A metric the profile never recorded has no lane at all.
  EXPECT_EQ(table.lanes().id(m::kNetBytesWritten),
            profile::LaneTable::kNoLane);
}

// --- frame dispatch ----------------------------------------------------------

TEST(ReplayFrames, LegacyCustomAtomRunsThroughAdapter) {
  HostGuard guard;
  // TallyAtom implements only wants()/consume(): the plan must mark it
  // adapter-dispatched and unbox every row for it, in both feed modes,
  // seeing exactly the per-sample cycle deltas the native atom sees.
  atoms::AtomRegistry registry;
  registry.register_atom("tally", [](const atoms::AtomBuildContext&) {
    return std::make_unique<TallyAtom>();
  });
  const auto p = fixed_profile(9);
  double recorded = 0;
  for (const auto& d : p.sample_deltas()) recorded += d.get(m::kCyclesUsed);
  for (const size_t batch : {size_t{1}, size_t{4}}) {
    auto opts = tmp_options();
    opts.atom_set = {"compute", "tally"};
    opts.replay_batch = batch;
    emulator::ReplayEngine engine(opts, &registry);
    const auto r = engine.replay(p);
    ASSERT_TRUE(r.atom_stats.count("tally"));
    EXPECT_EQ(r.atom_stats.at("tally").samples_consumed, 9u);
    EXPECT_EQ(r.atom_stats.at("tally").cycles, recorded);
    EXPECT_EQ(r.compute.samples_consumed, 9u);
  }
}

TEST(ReplayFrames, AtomWithNoRecordedMetricsStaysIdle) {
  HostGuard guard;
  // The profile records no network metrics: the plan marks the network
  // atom idle (no worker thread) and it must consume nothing, while the
  // other atoms replay every sample.
  const auto p = fixed_profile(5);
  for (const size_t batch : {size_t{1}, size_t{3}}) {
    auto opts = tmp_options();
    opts.emulate_network = true;
    opts.replay_batch = batch;
    emulator::ReplayEngine engine(opts);
    const auto r = engine.replay(p);
    EXPECT_EQ(r.network.samples_consumed, 0u);
    EXPECT_EQ(r.network.net_bytes_sent, 0u);
    EXPECT_EQ(r.compute.samples_consumed, 5u);
    EXPECT_EQ(r.storage.bytes_written, 5u * 32 * 1024);
  }
}

TEST(ReplayFrames, FrameFeedFiresHooksInRecordedOrder) {
  HostGuard guard;
  auto opts = tmp_options();
  opts.atom_set = {"memory"};
  opts.replay_batch = 3;
  emulator::ReplayEngine engine(opts);
  std::vector<size_t> seen;
  const auto r = engine.replay(fixed_profile(8), [&seen](size_t index) {
    seen.push_back(index);
  });
  EXPECT_EQ(r.samples_replayed, 8u);
  ASSERT_EQ(seen.size(), 8u);
  for (size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
}

TEST(ReplayFrames, HookErrorAbortsFramePipelineWithoutDeadlock) {
  HostGuard guard;
  // A throwing hook must propagate out of replay() with every worker
  // joined (a leaked joinable thread would terminate the process), also
  // while the workers run ahead of the barrier.
  auto opts = tmp_options();
  opts.atom_set = {"memory"};
  opts.replay_batch = 2;
  opts.replay_queue_depth = 1;
  emulator::ReplayEngine engine(opts);
  EXPECT_THROW(engine.replay(fixed_profile(64),
                             [](size_t index) {
                               if (index >= 3) {
                                 throw sys::SynapseError("hook failed");
                               }
                             }),
               sys::SynapseError);
}
