// StoreBackendRegistry and the pluggable-backend contract of
// ProfileStore: built-ins resolve by name, unknown names fail with a
// diagnostic listing what is registered, and a custom backend
// registered at runtime round-trips profiles through the store
// unmodified — every future backend is a registration, not a refactor.

#include "profile/store_backend.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "json/json.hpp"
#include "profile/metrics.hpp"
#include "profile/profile_store.hpp"
#include "sys/error.hpp"

namespace profile = synapse::profile;
namespace m = synapse::metrics;

namespace {

profile::Profile make_profile(const std::string& cmd,
                              const std::vector<std::string>& tags,
                              double cycles, double created_at) {
  profile::Profile p;
  p.command = cmd;
  p.tags = tags;
  p.created_at = created_at;
  p.totals[std::string(m::kCyclesUsed)] = cycles;
  return p;
}

/// A minimal in-memory custom backend, plus a hook counter proving the
/// store actually routed operations through it.
class CountingBackend : public profile::StoreBackend {
 public:
  explicit CountingBackend(size_t* puts) : puts_(puts) {}

  bool put(const profile::Profile& p, const std::string&) override {
    if (puts_ != nullptr) ++*puts_;
    profiles_.push_back(p);
    return false;
  }

  std::vector<profile::Profile> read(const std::string& command,
                                     const std::string& tkey) const override {
    std::vector<profile::Profile> out;
    for (const auto& p : profiles_) {
      if (p.command == command && profile::store_tags_key(p.tags) == tkey) {
        out.push_back(p);
      }
    }
    return out;
  }

  size_t remove(const std::string& command, const std::string& tkey) override {
    const size_t before = profiles_.size();
    profiles_.erase(std::remove_if(profiles_.begin(), profiles_.end(),
                                   [&](const profile::Profile& p) {
                                     return p.command == command &&
                                            profile::store_tags_key(p.tags) ==
                                                tkey;
                                   }),
                    profiles_.end());
    return before - profiles_.size();
  }

  size_t size() const override { return profiles_.size(); }

 private:
  std::vector<profile::Profile> profiles_;
  size_t* puts_;
};

/// A buffering backend whose FIRST flush() throws (counted across every
/// shard's instance); later flushes succeed.
class FailingFlushBackend : public CountingBackend {
 public:
  explicit FailingFlushBackend(std::atomic<int>* flushes)
      : CountingBackend(nullptr), flushes_(flushes) {}

  bool needs_flush() const override { return true; }
  void flush() override {
    if (flushes_->fetch_add(1) == 0) {
      throw synapse::sys::SynapseError("first background flush failed");
    }
  }

 private:
  std::atomic<int>* flushes_;
};

}  // namespace

TEST(StoreBackendRegistry, BuiltinsAreRegistered) {
  auto& registry = profile::StoreBackendRegistry::instance();
  for (const auto& name : profile::StoreBackendRegistry::builtin_names()) {
    EXPECT_TRUE(registry.contains(name)) << name;
  }
  EXPECT_TRUE(registry.contains("memory"));
  EXPECT_TRUE(registry.contains("docstore"));
  EXPECT_TRUE(registry.contains("files"));
  EXPECT_TRUE(registry.contains("cluster"));
}

TEST(StoreBackendRegistry, UnknownNameListsRegisteredBackends) {
  const auto& registry = profile::StoreBackendRegistry::instance();
  try {
    registry.ensure_registered("no-such-backend");
    FAIL() << "expected ConfigError";
  } catch (const synapse::sys::ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-such-backend"), std::string::npos);
    EXPECT_NE(what.find("registered:"), std::string::npos);
    EXPECT_NE(what.find("docstore"), std::string::npos);
  }
}

TEST(StoreBackendRegistry, ScopedRegistryDoesNotLeakIntoProcessWide) {
  profile::StoreBackendRegistry scoped;
  scoped.register_backend("scoped-only",
                          [](const profile::StoreBackendContext&) {
                            return std::make_unique<CountingBackend>(nullptr);
                          });
  EXPECT_TRUE(scoped.contains("scoped-only"));
  EXPECT_FALSE(
      profile::StoreBackendRegistry::instance().contains("scoped-only"));
  // A fresh scoped registry still carries every built-in.
  for (const auto& name : profile::StoreBackendRegistry::builtin_names()) {
    EXPECT_TRUE(scoped.contains(name)) << name;
  }
}

TEST(StoreBackend, CustomBackendRoundTripsThroughProfileStore) {
  profile::StoreBackendRegistry registry;
  size_t puts = 0;
  registry.register_backend("counting",
                            [&puts](const profile::StoreBackendContext&) {
                              return std::make_unique<CountingBackend>(&puts);
                            });

  profile::ProfileStoreOptions options;
  options.backend = "counting";
  options.registry = &registry;
  profile::ProfileStore store(std::move(options));
  EXPECT_EQ(store.backend(), "counting");

  store.put(make_profile("custom-cmd", {"b", "a"}, 10, 1.0));
  store.put(make_profile("custom-cmd", {"a", "b"}, 20, 2.0));
  store.put(make_profile("other", {}, 5, 3.0));
  EXPECT_EQ(puts, 3u);
  EXPECT_EQ(store.size(), 3u);

  // Profiles come back unmodified, tag order canonicalized, ordered by
  // recorded timestamp — the store's semantics on top of a backend it
  // has never heard of.
  const auto hits = store.find("custom-cmd", {"a", "b"});
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_DOUBLE_EQ(hits[0].total(m::kCyclesUsed), 10.0);
  EXPECT_DOUBLE_EQ(hits[1].total(m::kCyclesUsed), 20.0);
  const auto latest = store.find_latest("custom-cmd", {"b", "a"});
  ASSERT_TRUE(latest.has_value());
  EXPECT_DOUBLE_EQ(latest->created_at, 2.0);
  const auto stats = store.stats("custom-cmd", {"a", "b"});
  EXPECT_DOUBLE_EQ(stats.at(std::string(m::kCyclesUsed)).mean, 15.0);

  // put_many batches reach the custom backend too.
  std::vector<profile::Profile> batch;
  for (int i = 0; i < 6; ++i) {
    batch.push_back(make_profile("batched", {}, i, 10.0 + i));
  }
  EXPECT_EQ(store.put_many(batch), 0u);
  EXPECT_EQ(store.find("batched").size(), 6u);
  EXPECT_EQ(puts, 9u);
}

TEST(StoreBackend, RegisteringExistingNameOverrides) {
  profile::StoreBackendRegistry registry;
  size_t puts = 0;
  registry.register_backend("memory",
                            [&puts](const profile::StoreBackendContext&) {
                              return std::make_unique<CountingBackend>(&puts);
                            });
  profile::ProfileStoreOptions options;
  options.backend = "memory";
  options.registry = &registry;
  profile::ProfileStore store(std::move(options));
  store.put(make_profile("swap", {}, 1, 1.0));
  EXPECT_EQ(puts, 1u);  // the override, not the built-in, got the write
}

TEST(StoreBackend, UnknownBackendNameIsRejectedAtOpen) {
  try {
    profile::ProfileStore store("oracle", "/tmp/synapse_store_unknown");
    FAIL() << "expected ConfigError";
  } catch (const synapse::sys::ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("oracle"), std::string::npos);
    EXPECT_NE(what.find("registered:"), std::string::npos);
  }
  // The rejected open must not have created store state.
  EXPECT_NE(std::system("test -d /tmp/synapse_store_unknown"), 0);
}

TEST(StoreBackend, MetaNamingUnregisteredBackendIsAHardError) {
  // A store whose meta file names a backend nobody registered must not
  // fall through to some default (silently misreading the layout): the
  // open fails with a diagnostic listing the registered names.
  const std::string dir = "/tmp/synapse_store_alien_meta";
  std::system(("rm -rf " + dir).c_str());
  { profile::ProfileStore store("files", dir); }
  {
    std::ofstream meta(dir + "/store.meta.json");
    meta << "{\"shards\": 8, \"backend\": \"frobnicator\"}";
  }
  // detect_backend reports the recorded name verbatim...
  EXPECT_EQ(profile::ProfileStore::detect_backend(dir), "frobnicator");
  // ...and opening through it (what synapse-inspect does) fails loudly.
  try {
    profile::ProfileStore store(profile::ProfileStore::detect_backend(dir),
                                dir);
    FAIL() << "expected ConfigError";
  } catch (const synapse::sys::ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("frobnicator"), std::string::npos);
    EXPECT_NE(what.find("registered:"), std::string::npos);
  }
  // Opening with a known-but-different backend names the culprit too.
  EXPECT_THROW(profile::ProfileStore("files", dir),
               synapse::sys::ConfigError);
  std::system(("rm -rf " + dir).c_str());
}

TEST(StoreBackend, FilesCacheSeesRemovesFromOtherStoreInstances) {
  // Two ProfileStore instances over one directory model two processes:
  // instance A's read cache must notice B's remove() even when a
  // following put() restores the shard's profile-file count (the
  // removal epoch breaks the mtime+count stamp collision).
  const std::string dir = "/tmp/synapse_store_remove_xproc";
  std::system(("rm -rf " + dir).c_str());
  {
    profile::ProfileStore a("files", dir);
    profile::ProfileStore b("files", dir);
    a.put(make_profile("victim", {}, 1, 1.0));
    ASSERT_EQ(a.find("victim").size(), 1u);  // fills A's cache
    EXPECT_EQ(b.remove("victim", {}), 1u);
    b.put(make_profile("victim", {}, 2, 2.0));  // count restored
    const auto seen = a.find("victim");
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_DOUBLE_EQ(seen[0].created_at, 2.0);  // the NEW profile
  }
  std::system(("rm -rf " + dir).c_str());
}

TEST(StoreBackend, RemoveDeletesOneWorkloadAcrossBackends) {
  for (const std::string backend : {"memory", "docstore", "files"}) {
    const std::string dir = "/tmp/synapse_store_remove_" + backend;
    std::system(("rm -rf " + dir).c_str());
    {
      profile::ProfileStoreOptions options;
      options.backend = backend;
      if (backend != "memory") options.directory = dir;
      profile::ProfileStore store(std::move(options));
      store.put(make_profile("keep", {"k"}, 1, 1.0));
      store.put(make_profile("drop", {"d"}, 2, 2.0));
      store.put(make_profile("drop", {"d"}, 3, 3.0));
      EXPECT_EQ(store.remove("drop", {"d"}), 2u) << backend;
      EXPECT_TRUE(store.find("drop", {"d"}).empty()) << backend;
      EXPECT_EQ(store.find("keep", {"k"}).size(), 1u) << backend;
      EXPECT_EQ(store.size(), 1u) << backend;
      EXPECT_EQ(store.remove("never stored", {}), 0u) << backend;
      store.flush();
    }
    if (backend != "memory") {
      // The deletion persisted: a fresh open still shows one profile.
      profile::ProfileStore reopened(backend, dir);
      EXPECT_TRUE(reopened.find("drop", {"d"}).empty()) << backend;
      EXPECT_EQ(reopened.size(), 1u) << backend;
    }
    std::system(("rm -rf " + dir).c_str());
  }
}

TEST(StoreBackend, BackgroundFlushErrorSurfacesOnNextFlush) {
  // A throwing backend flush() on the background worker must neither
  // terminate the process nor wedge the worker: the error is kept and
  // rethrown by the next explicit flush(), once.
  profile::StoreBackendRegistry registry;
  std::atomic<int> flushes{0};
  registry.register_backend("failing-flush",
                            [&flushes](const profile::StoreBackendContext&) {
                              return std::make_unique<FailingFlushBackend>(
                                  &flushes);
                            });
  profile::ProfileStoreOptions options;
  options.backend = "failing-flush";
  options.registry = &registry;
  options.shards = 2;
  profile::ProfileStore store(std::move(options));

  store.put(make_profile("flush-cmd", {}, 1, 1.0));
  store.flush_async();
  std::string caught;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (caught.empty() && std::chrono::steady_clock::now() < deadline) {
    if (flushes.load() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    try {
      store.flush();
    } catch (const synapse::sys::SynapseError& e) {
      caught = e.what();
    }
  }
  EXPECT_NE(caught.find("first background flush failed"), std::string::npos);
  // Reported once; the store and its worker keep working.
  EXPECT_NO_THROW(store.flush());
  store.put(make_profile("flush-cmd", {}, 2, 2.0));
  store.flush_async();
  EXPECT_NO_THROW(store.flush());
  EXPECT_EQ(store.find("flush-cmd").size(), 2u);
}

// --- damaged files ------------------------------------------------------------

namespace {

/// The stored file of one repetition (put order = sequence number) in a
/// single-shard files store.
std::string stored_file(const std::string& dir, size_t seq) {
  for (const auto& e : std::filesystem::directory_iterator(dir + "/shard-0")) {
    const std::string name = e.path().filename().string();
    if (name.find("." + std::to_string(seq) + ".profile.") != std::string::npos) {
      return e.path().string();
    }
  }
  return {};
}

}  // namespace

TEST(StoreBackend, DamagedFileCostsOnlyItsOwnProfile) {
  // A zero-length, truncated or garbage file is skipped and counted;
  // find, find_latest and stats keep serving the rest of the workload.
  const std::string dir = "/tmp/synapse_store_damaged";
  for (const std::string format : {"binary", "json"}) {
    for (const std::string damage : {"empty", "truncated", "garbage"}) {
      for (const size_t victim : {size_t{1}, size_t{2}}) {
        const std::string what = format + "/" + damage + "/rep " +
                                 std::to_string(victim);
        std::filesystem::remove_all(dir);
        profile::ProfileStoreOptions options;
        options.backend = "files";
        options.directory = dir;
        options.format = format;
        options.shards = 1;
        {
          profile::ProfileStore writer(options);
          for (size_t rep = 0; rep < 3; ++rep) {
            writer.put(make_profile("damaged", {"t"}, 10.0 * (rep + 1),
                                    static_cast<double>(rep + 1)));
          }
        }
        const std::string path = stored_file(dir, victim);
        ASSERT_FALSE(path.empty()) << what;
        const auto size = std::filesystem::file_size(path);
        if (damage == "empty") {
          std::filesystem::resize_file(path, 0);
        } else if (damage == "truncated") {
          std::filesystem::resize_file(path, size / 2);
        } else {
          std::ofstream(path, std::ios::binary | std::ios::trunc)
              << (format == "binary" ? "SYNB\x02garbage" : "{\"command\": [");
        }

        profile::ProfileStore reader(options);
        const auto all = reader.find("damaged", {"t"});
        ASSERT_EQ(all.size(), 2u) << what;
        for (const auto& p : all) {
          EXPECT_NE(p.created_at, static_cast<double>(victim + 1)) << what;
        }
        const auto latest = reader.find_latest("damaged", {"t"});
        ASSERT_TRUE(latest.has_value()) << what;
        EXPECT_EQ(latest->created_at, victim == 2 ? 2.0 : 3.0) << what;
        const auto stats = reader.stats("damaged", {"t"});
        const auto cycles = stats.find(std::string(m::kCyclesUsed));
        ASSERT_NE(cycles, stats.end()) << what;
        EXPECT_EQ(cycles->second.n, 2u) << what;
        EXPECT_GE(reader.cache_stats().unreadable, 1u) << what;
      }
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(StoreBackend, ConvertAllKeepsAWorkloadWithADamagedFile) {
  // convert_all re-puts what read() returned after removing the
  // workload; a damaged copy read() skipped must not be deleted with it.
  const std::string dir = "/tmp/synapse_store_damaged_convert";
  for (const std::string format : {"binary", "json"}) {
    for (const std::string damage : {"empty", "truncated", "garbage"}) {
      const std::string what = format + "/" + damage;
      std::filesystem::remove_all(dir);
      profile::ProfileStoreOptions options;
      options.backend = "files";
      options.directory = dir;
      options.format = format;
      options.shards = 1;
      {
        profile::ProfileStore writer(options);
        for (size_t rep = 0; rep < 3; ++rep) {
          writer.put(make_profile("damaged", {"t"}, 10.0 * (rep + 1),
                                  static_cast<double>(rep + 1)));
        }
        writer.put(make_profile("healthy", {"t"}, 5.0, 4.0));
      }
      const std::string path = stored_file(dir, 1);
      ASSERT_FALSE(path.empty()) << what;
      if (damage == "empty") {
        std::filesystem::resize_file(path, 0);
      } else if (damage == "truncated") {
        std::filesystem::resize_file(path,
                                     std::filesystem::file_size(path) / 2);
      } else {
        std::ofstream(path, std::ios::binary | std::ios::trunc)
            << (format == "binary" ? "SYNB\x02garbage" : "{\"command\": [");
      }
      const auto damaged_size = std::filesystem::file_size(path);

      options.format = format == "binary" ? "json" : "binary";
      profile::ProfileStore converter(options);
      EXPECT_EQ(converter.convert_all(), 1u) << what;  // only "healthy"
      ASSERT_TRUE(std::filesystem::exists(path)) << what;
      EXPECT_EQ(std::filesystem::file_size(path), damaged_size) << what;
      EXPECT_EQ(converter.find("damaged", {"t"}).size(), 2u) << what;
      ASSERT_EQ(converter.find("healthy", {"t"}).size(), 1u) << what;
    }
  }
  std::filesystem::remove_all(dir);
}
