// Decoded-profile cache refresh: per-workload cache stamps, stale
// entries refreshed in place through StoreBackend::refresh(), and the
// `decoded` counter. Runs on all four built-in backends; the files
// backend is the one that reuses earlier decodes, the others keep the
// default refresh (a full read()).

#include <dirent.h>
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "profile/metrics.hpp"
#include "profile/profile_store.hpp"

namespace profile = synapse::profile;
namespace m = synapse::metrics;

namespace {

profile::Profile make_profile(const std::string& cmd, double created_at,
                              double cycles) {
  profile::Profile p;
  p.command = cmd;
  p.tags = {"refresh"};
  p.created_at = created_at;
  p.totals[std::string(m::kCyclesUsed)] = cycles;
  return p;
}

const std::vector<std::string> kTags = {"refresh"};

uint64_t decoded(const profile::ProfileStore& store) {
  return store.cache_stats().decoded;
}

/// Same profiles in the same order: created_at and totals.
void expect_same(const std::vector<profile::Profile>& a,
                 const std::vector<profile::Profile>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].created_at, b[i].created_at) << "profile " << i;
    EXPECT_EQ(a[i].totals, b[i].totals) << "profile " << i;
  }
}

}  // namespace

class ProfileStoreRefresh : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    base_ = "/tmp/synapse_store_refresh_" + GetParam();
    std::system(("rm -rf " + base_ + " && mkdir -p " + base_).c_str());
    if (GetParam() == "cluster") {
      spec_ = base_ + "/cluster.json";
      std::ofstream spec(spec_);
      spec << "{\"instances\": [{\"name\": \"a\", \"root\": \"" << base_
           << "/inst-a\"}, {\"name\": \"b\", \"root\": \"" << base_
           << "/inst-b\"}]}";
    }
  }

  void TearDown() override { std::system(("rm -rf " + base_).c_str()); }

  /// A store instance over this test's directory; every call opens a
  /// new instance of the same store (memory: a new, empty store).
  std::unique_ptr<profile::ProfileStore> open(size_t shards = 8) const {
    profile::ProfileStoreOptions options;
    options.backend = GetParam();
    options.directory = base_ + "/store";
    options.cluster_spec = spec_;
    options.shards = shards;
    return std::make_unique<profile::ProfileStore>(std::move(options));
  }

  bool persistent() const { return GetParam() != "memory"; }
  /// Only the files backend sees other instances' writes; the others
  /// hold a process-private view by contract (StoreBackend::cache_stamp).
  bool shared_view() const { return GetParam() == "files"; }

  std::string base_;
  std::string spec_;
};

TEST_P(ProfileStoreRefresh, PutToOneWorkloadLeavesAnotherCached) {
  auto store = open(/*shards=*/1);
  store->put(make_profile("wl-a", 1.0, 10));
  store->put(make_profile("wl-b", 2.0, 20));
  ASSERT_EQ(store->find("wl-a", kTags).size(), 1u);
  ASSERT_EQ(store->find("wl-b", kTags).size(), 1u);

  store->put(make_profile("wl-a", 3.0, 30));
  const auto before = store->cache_stats();
  ASSERT_EQ(store->find("wl-b", kTags).size(), 1u);
  const auto after = store->cache_stats();
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.decoded, before.decoded);

  // The written workload itself is refreshed: a miss, not a hit.
  EXPECT_EQ(store->find("wl-a", kTags).size(), 2u);
  EXPECT_EQ(store->cache_stats().misses, after.misses + 1);
}

TEST_P(ProfileStoreRefresh, RefreshAfterPutDecodesOnlyTheNewProfile) {
  constexpr size_t kN = 12;
  auto store = open();
  // Out of created_at order, as concurrent recorders would insert.
  for (size_t i = 0; i < kN; ++i) {
    const double t = static_cast<double>((i * 5) % kN) * 2.0;
    store->put(make_profile("wl", t, 100.0 + t));
  }
  ASSERT_EQ(store->find("wl", kTags).size(), kN);

  const uint64_t before = decoded(*store);
  store->put(make_profile("wl", 7.0, 107.0));  // lands mid-order
  const auto all = store->find("wl", kTags);
  // Files reuses every earlier decode; the other backends re-read all.
  EXPECT_EQ(decoded(*store) - before, GetParam() == "files" ? 1u : kN + 1);
  ASSERT_EQ(all.size(), kN + 1);
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_LE(all[i - 1].created_at, all[i].created_at);
  }

  if (persistent()) {
    store->flush();
    auto fresh = open();
    expect_same(all, fresh->find("wl", kTags));
    EXPECT_EQ(decoded(*fresh), kN + 1);
  }
}

TEST_P(ProfileStoreRefresh, SecondInstanceWritesAreSeen) {
  if (!shared_view()) {
    GTEST_SKIP() << GetParam()
                 << " keeps a process-private view of the store";
  }
  auto reader = open();
  auto writer = open();
  reader->put(make_profile("wl", 1.0, 1));
  reader->put(make_profile("wl", 2.0, 2));
  ASSERT_EQ(reader->find("wl", kTags).size(), 2u);

  // put: one more profile, and only that one is decoded.
  uint64_t before = decoded(*reader);
  writer->put(make_profile("wl", 3.0, 3));
  expect_same(reader->find("wl", kTags), writer->find("wl", kTags));
  EXPECT_EQ(reader->find("wl", kTags).size(), 3u);
  EXPECT_EQ(decoded(*reader) - before, 1u);

  // remove: the workload is gone.
  EXPECT_EQ(writer->remove("wl", kTags), 3u);
  EXPECT_TRUE(reader->find("wl", kTags).empty());

  // A remove+put that restores the count (and may reuse file names and
  // inodes) must still be seen: new totals, not the cached ones.
  for (int i = 0; i < 3; ++i) writer->put(make_profile("wl", i, 10 + i));
  ASSERT_EQ(reader->find("wl", kTags).size(), 3u);
  EXPECT_EQ(writer->remove("wl", kTags), 3u);
  for (int i = 0; i < 3; ++i) writer->put(make_profile("wl", i, 20 + i));
  const auto seen = reader->find("wl", kTags);
  ASSERT_EQ(seen.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(seen[i].total(m::kCyclesUsed), 20.0 + i);
  }
  before = decoded(*reader);
  EXPECT_EQ(reader->find("wl", kTags).size(), 3u);  // now a hit
  EXPECT_EQ(decoded(*reader), before);
}

TEST_P(ProfileStoreRefresh, SnapshotBeforeRefreshStaysIntact) {
  auto store = open();
  store->put(make_profile("wl", 1.0, 1));
  store->put(make_profile("wl", 2.0, 2));
  const auto old_snapshot = store->find_shared("wl", kTags);
  ASSERT_EQ(old_snapshot->size(), 2u);
  const profile::Profile* first = (*old_snapshot)[0].get();

  store->put(make_profile("wl", 0.5, 0.5));
  const auto new_snapshot = store->find_shared("wl", kTags);
  ASSERT_EQ(new_snapshot->size(), 3u);
  ASSERT_EQ(old_snapshot->size(), 2u);
  EXPECT_EQ((*old_snapshot)[0].get(), first);
  EXPECT_DOUBLE_EQ((*old_snapshot)[0]->created_at, 1.0);
  EXPECT_DOUBLE_EQ((*old_snapshot)[1]->created_at, 2.0);
  EXPECT_DOUBLE_EQ((*new_snapshot)[0]->created_at, 0.5);
  if (GetParam() == "files") {
    // The refresh shared the unchanged profiles rather than copying.
    EXPECT_EQ((*new_snapshot)[1].get(), first);
  }

  store->remove("wl", kTags);
  EXPECT_TRUE(store->find_shared("wl", kTags)->empty());
  EXPECT_DOUBLE_EQ((*old_snapshot)[1]->total(m::kCyclesUsed), 2.0);
}

INSTANTIATE_TEST_SUITE_P(Backends, ProfileStoreRefresh,
                         ::testing::Values("memory", "docstore", "files",
                                           "cluster"));

TEST(ProfileStoreRefreshFiles, FileReplacedUnderItsNameIsDecodedAgain) {
  const std::string dir = "/tmp/synapse_store_refresh_replace";
  std::system(("rm -rf " + dir).c_str());
  profile::ProfileStoreOptions options;
  options.backend = "files";
  options.directory = dir;
  options.shards = 1;
  profile::ProfileStore store(options);
  store.put(make_profile("wl", 1.0, 1));
  ASSERT_EQ(store.find("wl", kTags).size(), 1u);

  // Replace the stored file under the same name by rename(), which
  // gives the name a new inode.
  std::string name;
  DIR* shard = ::opendir((dir + "/shard-0").c_str());
  ASSERT_NE(shard, nullptr);
  while (struct dirent* entry = ::readdir(shard)) {
    const std::string n = entry->d_name;
    if (n.size() > 13 && n.compare(n.size() - 13, 13, ".profile.synb") == 0) {
      name = n;
    }
  }
  ::closedir(shard);
  ASSERT_FALSE(name.empty());
  const std::string path = dir + "/shard-0/" + name;
  {
    std::ofstream out(path + ".new", std::ios::binary);
    out << make_profile("wl", 1.0, 99).to_binary();
  }
  ASSERT_EQ(std::rename((path + ".new").c_str(), path.c_str()), 0);

  const uint64_t before = decoded(store);
  const auto found = store.find("wl", kTags);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_DOUBLE_EQ(found[0].total(m::kCyclesUsed), 99.0);
  EXPECT_EQ(decoded(store) - before, 1u);
  std::system(("rm -rf " + dir).c_str());
}
