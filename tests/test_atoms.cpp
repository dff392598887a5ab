#include "atoms/compute_atom.hpp"
#include "atoms/memory_atom.hpp"
#include "atoms/network_atom.hpp"
#include "atoms/storage_atom.hpp"

#include <gtest/gtest.h>

#include "profile/metrics.hpp"
#include "resource/resource_spec.hpp"
#include "sys/clock.hpp"

namespace atoms = synapse::atoms;
namespace resource = synapse::resource;
namespace profile = synapse::profile;
namespace m = synapse::metrics;
namespace sys = synapse::sys;

namespace {

profile::SampleDelta delta_with(
    std::initializer_list<std::pair<std::string_view, double>> values) {
  profile::SampleDelta d;
  d.duration = 0.1;
  for (const auto& [k, v] : values) d.deltas[std::string(k)] = v;
  return d;
}

struct HostGuard {
  HostGuard() { resource::activate_resource("host"); }
  ~HostGuard() { resource::activate_resource("host"); }
};

}  // namespace

TEST(ComputeAtom, WantsOnlyComputeSamples) {
  HostGuard guard;
  atoms::ComputeAtom atom;
  EXPECT_TRUE(atom.wants(delta_with({{m::kCyclesUsed, 100.0}})));
  EXPECT_FALSE(atom.wants(delta_with({{m::kBytesRead, 100.0}})));
  EXPECT_FALSE(atom.wants(delta_with({})));
}

TEST(ComputeAtom, ConsumesRequestedCyclesOnHost) {
  HostGuard guard;
  atoms::ComputeAtom atom;
  const double cycles = 0.2 * resource::active_resource().turbo_hz;
  const sys::Stopwatch sw;
  atom.consume(delta_with({{m::kCyclesUsed, cycles}}));
  const double elapsed = sw.elapsed();
  // On the bare host (bias 1), N cycles take ~N/clock seconds.
  EXPECT_GE(elapsed, 0.15);
  EXPECT_LT(elapsed, 1.0);
  EXPECT_NEAR(atom.stats().cycles, cycles, cycles * 0.01);
  EXPECT_GT(atom.stats().flops, 0.0);
  EXPECT_EQ(atom.stats().samples_consumed, 1u);
}

TEST(ComputeAtom, BiasInflatesConsumptionOnSupermic) {
  HostGuard guard;
  resource::activate_resource("supermic");
  atoms::ComputeAtom atom;  // default "asm" kernel
  const double requested = 1e9;
  atom.consume(delta_with({{m::kCyclesUsed, requested}}));
  const double bias = resource::calibration_bias(
      resource::asm_kernel_traits(), resource::active_resource());
  EXPECT_NEAR(atom.stats().cycles, requested * bias, requested * 0.01);
  EXPECT_GT(atom.stats().cycles, requested * 1.15);  // paper: ~26.5% high
}

TEST(ComputeAtom, CKernelIsMoreAccurate) {
  HostGuard guard;
  resource::activate_resource("supermic");
  atoms::ComputeAtomOptions copts;
  copts.kernel = "c";
  atoms::ComputeAtom atom(copts);
  const double requested = 1e9;
  atom.consume(delta_with({{m::kCyclesUsed, requested}}));
  // The C kernel's error stays within ~6%, versus ~24% for asm.
  EXPECT_LT(atom.stats().cycles, requested * 1.08);
}

TEST(ComputeAtom, TimeScaleShortensWallTime) {
  HostGuard guard;
  atoms::ComputeAtomOptions fast_opts;
  fast_opts.time_scale = 0.25;
  atoms::ComputeAtom fast(fast_opts);
  atoms::ComputeAtom normal;

  const double cycles = 0.2 * resource::active_resource().turbo_hz;
  sys::Stopwatch sw;
  normal.consume(delta_with({{m::kCyclesUsed, cycles}}));
  const double t_normal = sw.reset();
  fast.consume(delta_with({{m::kCyclesUsed, cycles}}));
  const double t_fast = sw.elapsed();
  EXPECT_LT(t_fast, t_normal * 0.6);
  // Counters are unaffected by the time scale.
  EXPECT_NEAR(fast.stats().cycles, normal.stats().cycles, cycles * 0.01);
}

TEST(MemoryAtom, AllocatesAndFrees) {
  HostGuard guard;
  atoms::MemoryAtom atom;
  atom.consume(delta_with({{m::kMemAllocated, 32.0 * 1024 * 1024}}));
  EXPECT_EQ(atom.stats().bytes_allocated, 32u * 1024 * 1024);
  EXPECT_EQ(atom.held_bytes(), 32u * 1024 * 1024);

  atom.consume(delta_with({{m::kMemFreed, 16.0 * 1024 * 1024}}));
  EXPECT_GE(atom.stats().bytes_freed, 16u * 1024 * 1024);
  EXPECT_LT(atom.held_bytes(), 32u * 1024 * 1024);
}

TEST(MemoryAtom, ResidencyBudgetIsEnforced) {
  HostGuard guard;
  atoms::MemoryAtomOptions opts;
  opts.max_held_bytes = 8 * 1024 * 1024;
  opts.block_bytes = 1024 * 1024;
  atoms::MemoryAtom atom(opts);
  atom.consume(delta_with({{m::kMemAllocated, 64.0 * 1024 * 1024}}));
  EXPECT_LE(atom.held_bytes(), 8u * 1024 * 1024);
  EXPECT_EQ(atom.stats().bytes_allocated, 64u * 1024 * 1024);
  // The overflow was recycled through free.
  EXPECT_GE(atom.stats().bytes_freed, 56u * 1024 * 1024);
}

TEST(MemoryAtom, WantsMemorySamplesOnly) {
  HostGuard guard;
  atoms::MemoryAtom atom;
  EXPECT_TRUE(atom.wants(delta_with({{m::kMemAllocated, 1.0}})));
  EXPECT_TRUE(atom.wants(delta_with({{m::kMemFreed, 1.0}})));
  EXPECT_FALSE(atom.wants(delta_with({{m::kCyclesUsed, 1.0}})));
}

TEST(StorageAtom, ReplaysBytes) {
  HostGuard guard;
  atoms::StorageAtomOptions opts;
  opts.base_dir = "/tmp";
  atoms::StorageAtom atom(opts);
  atom.consume(delta_with({{m::kBytesWritten, 256.0 * 1024},
                           {m::kBytesRead, 128.0 * 1024}}));
  EXPECT_EQ(atom.stats().bytes_written, 256u * 1024);
  EXPECT_EQ(atom.stats().bytes_read, 128u * 1024);
  EXPECT_GT(atom.stats().busy_seconds, 0.0);
}

TEST(AtomAccounting, BusyTimeCoversTheWholeConsume) {
  HostGuard guard;
  // busy_seconds is the wall time of each whole consume call: the
  // storage atom's per-sample sync and the memory atom's page touching
  // included, so busy ~= the caller's stopwatch around the call.
  atoms::StorageAtomOptions storage_opts;
  storage_opts.base_dir = "/tmp";
  atoms::StorageAtom storage(storage_opts);
  atoms::MemoryAtom memory;
  atoms::ComputeAtom compute;
  const auto d = delta_with({{m::kBytesWritten, 512.0 * 1024},
                             {m::kMemAllocated, 8.0 * 1024 * 1024},
                             {m::kCyclesUsed, 2e6}});
  for (atoms::Atom* atom : std::initializer_list<atoms::Atom*>{
           &storage, &memory, &compute}) {
    const sys::Stopwatch sw;
    atom->consume(d);
    const double wall = sw.elapsed();
    const double busy = atom->stats().busy_seconds;
    EXPECT_GT(busy, 0.0) << atom->name();
    EXPECT_LE(busy, wall) << atom->name();
    EXPECT_GE(busy, 0.9 * wall) << atom->name();
  }
}

TEST(StorageAtom, HonoursConfiguredBlockSizes) {
  HostGuard guard;
  resource::activate_resource("supermic");  // lustre: high write latency
  atoms::StorageAtomOptions small_opts;
  small_opts.base_dir = "/tmp";
  small_opts.write_block_bytes = 16 * 1024;
  atoms::StorageAtom small_blocks(small_opts);

  atoms::StorageAtomOptions big_opts;
  big_opts.base_dir = "/tmp";
  big_opts.write_block_bytes = 1024 * 1024;
  atoms::StorageAtom big_blocks(big_opts);

  const auto d = delta_with({{m::kBytesWritten, 1024.0 * 1024}});
  sys::Stopwatch sw;
  small_blocks.consume(d);
  const double t_small = sw.reset();
  big_blocks.consume(d);
  const double t_big = sw.elapsed();
  // 64 ops at 2.5 ms latency each vs 1 op: order-of-magnitude apart.
  EXPECT_GT(t_small, 3.0 * t_big);
}

TEST(NetworkAtom, SendsOverLoopback) {
  HostGuard guard;
  atoms::NetworkAtom atom;
  EXPECT_TRUE(atom.wants(delta_with({{m::kNetBytesWritten, 1.0}})));
  EXPECT_FALSE(atom.wants(delta_with({{m::kCyclesUsed, 1.0}})));
  atom.consume(delta_with({{m::kNetBytesWritten, 512.0 * 1024}}));
  EXPECT_EQ(atom.stats().net_bytes_sent, 512u * 1024);
}
