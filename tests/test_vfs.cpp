#include "resource/vfs.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <fstream>

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "sys/clock.hpp"
#include "sys/error.hpp"

namespace resource = synapse::resource;
namespace sys = synapse::sys;

namespace {

resource::FilesystemSpec fast_fs() {
  resource::FilesystemSpec fs;
  fs.name = "fast";
  fs.read_bw_bps = 1e12;
  fs.write_bw_bps = 1e12;
  return fs;
}

resource::FilesystemSpec slow_fs(double write_lat_ms) {
  resource::FilesystemSpec fs;
  fs.name = "slow";
  fs.read_bw_bps = 50e6;
  fs.write_bw_bps = 5e6;
  fs.read_latency_s = write_lat_ms * 1e-3 / 5;
  fs.write_latency_s = write_lat_ms * 1e-3;
  fs.read_cache_hit = 0.5;
  return fs;
}

const std::string kRoot = "/tmp/synapse_vfs_test";

}  // namespace

TEST(Vfs, WriteProducesRealBytes) {
  std::system(("rm -rf " + kRoot).c_str());
  resource::VirtualFilesystem vfs(fast_fs(), kRoot);
  {
    auto file = vfs.open("real.dat", true);
    file->write(64 * 1024);
    file->sync();
    EXPECT_EQ(file->stats().bytes_written, 64u * 1024);
    EXPECT_EQ(file->stats().write_ops, 1u);
  }
  // The bytes are on disk for real.
  std::ifstream in(kRoot + "/real.dat", std::ios::binary | std::ios::ate);
  EXPECT_EQ(static_cast<size_t>(in.tellg()), 64u * 1024);
  vfs.remove("real.dat");
}

TEST(Vfs, SyncFailureThrowsSystemError) {
  // fsync on a FIFO fails (EINVAL): sync() must report it, the way
  // write() and read() report their errors, instead of dropping it.
  std::system(("rm -rf " + kRoot + " && mkdir -p " + kRoot).c_str());
  const std::string fifo = kRoot + "/sync.fifo";
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  {
    resource::VirtualFile file(fast_fs(), fifo, /*for_write=*/true);
    try {
      file.sync();
      ADD_FAILURE() << "sync() on a FIFO did not throw";
    } catch (const sys::SystemError& e) {
      EXPECT_NE(std::string(e.what()).find("fsync("), std::string::npos)
          << e.what();
    }
  }
  ::unlink(fifo.c_str());
}

TEST(Vfs, ReadAccountsBytes) {
  resource::VirtualFilesystem vfs(fast_fs(), kRoot);
  auto file = vfs.open("rw.dat", true);
  file->write(8 * 1024);
  file->sync();
  file->read(4 * 1024);
  file->read(4 * 1024);
  EXPECT_EQ(file->stats().bytes_read, 8u * 1024);
  EXPECT_EQ(file->stats().read_ops, 2u);
  vfs.remove("rw.dat");
}

TEST(Vfs, ReadBeyondEofRewinds) {
  resource::VirtualFilesystem vfs(fast_fs(), kRoot);
  auto file = vfs.open("wrap.dat", true);
  file->write(4 * 1024);
  file->sync();
  // Emulation replays byte counts: reading 3x the file size must work.
  file->read(12 * 1024);
  EXPECT_EQ(file->stats().bytes_read, 12u * 1024);
  vfs.remove("wrap.dat");
}

TEST(Vfs, ModelledWriteCostIsImposed) {
  // 5 MB/s bandwidth + 2 ms latency: a 1 MiB write must take >= ~0.2 s.
  resource::VirtualFilesystem vfs(slow_fs(2.0), kRoot);
  auto file = vfs.open("slow.dat", true);
  const sys::Stopwatch sw;
  const double cost = file->write(1 << 20);
  const double elapsed = sw.elapsed();
  EXPECT_GE(cost, 0.2);
  EXPECT_GE(elapsed, 0.9 * cost);
  vfs.remove("slow.dat");
}

TEST(Vfs, SmallBlocksPayLatencyManyTimes) {
  // Paper Fig. 15: many small operations are much slower than few large
  // ones for the same byte volume.
  resource::VirtualFilesystem vfs(slow_fs(3.0), kRoot);
  auto big = vfs.open("big.dat", true);
  const double big_cost = big->write(512 * 1024);

  auto small = vfs.open("small.dat", true);
  double small_cost = 0.0;
  for (int i = 0; i < 64; ++i) small_cost += small->write(8 * 1024);

  EXPECT_GT(small_cost, 2.0 * big_cost);
  vfs.remove("big.dat");
  vfs.remove("small.dat");
}

TEST(Vfs, CacheHitReducesReadLatency) {
  resource::FilesystemSpec cold = slow_fs(1.0);
  cold.read_cache_hit = 0.0;
  resource::FilesystemSpec warm = slow_fs(1.0);
  warm.read_cache_hit = 0.9;
  EXPECT_GT(cold.read_cost(1024), warm.read_cost(1024));
}

TEST(Vfs, ForActiveResourceUsesDefaultFs) {
  resource::activate_resource("supermic");
  const auto vfs = resource::VirtualFilesystem::for_active_resource();
  EXPECT_EQ(vfs.spec().name, "lustre");
  const auto local = resource::VirtualFilesystem::for_active_resource("local");
  EXPECT_EQ(local.spec().name, "local");
  resource::activate_resource("host");
}

TEST(Vfs, SharedFsSlowerThanLocalForWrites) {
  resource::activate_resource("supermic");
  const auto& spec = resource::active_resource();
  const double lustre = spec.fs("lustre").write_cost(1 << 20);
  const double local = spec.fs("local").write_cost(1 << 20);
  EXPECT_GT(lustre, local);
  resource::activate_resource("host");
}
