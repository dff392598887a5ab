// store-churn: recorders write new repetitions next to lookups.
//
// Many (command, tags) workloads with Zipf popularity share one `files`
// store. A quarter of them were written as JSON (a store after a partial
// convert_all), the rest as SYNB, and set-up pre-fills every workload to
// a few hundred repetitions, so the working set is larger than the
// decoded-profile cache. One op is one transaction:
//   - put a new repetition, then find_latest_shared it (a cold read: the
//     put invalidated the cached entry);
//   - a hot lookup of a popular workload;
//   - open a second store instance and find_latest (the CLI path);
//   - stats over one workload.
// Two clients run it; each writes only its own half of the workloads, so
// the profile a client reads back is the one it put.

#include <algorithm>
#include <array>
#include <atomic>
#include <filesystem>
#include <map>
#include <optional>

#include "common.hpp"
#include "json/json.hpp"
#include "profile/metrics.hpp"
#include "profile/profile_store.hpp"
#include "sys/clock.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using synapse::profile::Profile;
using synapse::profile::ProfileStore;

constexpr size_t kWorkloads = 32;
constexpr size_t kPrefill = 150;  ///< repetitions per workload after set-up
constexpr size_t kClients = 2;
constexpr double kZipfS = 1.1;
constexpr double kEpoch = 1.7e9;  ///< created_at of repetition 0

/// Workloads are numbered by popularity rank (0 = most popular); every
/// fourth rank is stored as JSON, so the share is the same for every seed.
bool json_share(size_t w) { return w % 4 == 3; }

std::string command(size_t w) { return "recorder-" + std::to_string(w); }

std::vector<std::string> tags(size_t w) {
  return {"churn", "wl-" + std::to_string(w)};
}

class StoreChurn final : public Workload {
 public:
  explicit StoreChurn(const Options& opts)
      : seed_(opts.seed),
        store_dir_(opts.work_dir + "/churn-store"),
        zipf_(kWorkloads, kZipfS),
        clients_(kClients) {}

  std::string resource() const override { return "host"; }
  size_t clients() const override { return kClients; }

  double setup() override {
    store_.reset();
    std::filesystem::remove_all(store_dir_);
    put_s_by_rep_.assign(kPrefill, {});
    std::mt19937_64 rng(seed_);
    Stopwatch timed;
    // The JSON share goes in through a JSON-format store first; the rest,
    // and every later put, through the SYNB store the ops use.
    for (const bool json : {true, false}) {
      auto store = timed([&] {
        return std::make_unique<ProfileStore>(store_options(json ? "json" : "binary"));
      });
      for (size_t rep = 0; rep < kPrefill; ++rep) {
        for (size_t w = 0; w < kWorkloads; ++w) {
          if (json_share(w) != json) continue;
          const Profile p = make_profile(w, rep, rng);
          const double before = timed.seconds();
          timed([&] { store->put(p); });
          put_s_by_rep_[rep].push_back(timed.seconds() - before);
        }
      }
      timed([&] { store.reset(); });
    }
    for (auto& r : reps_) r.store(kPrefill);
    store_ = timed(
        [&] { return std::make_unique<ProfileStore>(store_options("binary")); });
    cache_at_start_ = store_->cache_stats();
    for (size_t c = 0; c < kClients; ++c) {
      clients_[c] = Client{};
      clients_[c].gen.seed(seed_ * 31 + c);
    }
    return timed.seconds();
  }

  void op(OpContext& ctx) override {
    Client& c = clients_[ctx.client];
    if (!c.next) prepare(c, ctx.client);
    c.put = std::move(*c.next);
    c.next.reset();
    const std::vector<std::string> put_tags = tags(c.w_put);

    span("profile.store_put", [&] { store_->put(c.put); });
    c.cold = span("profile.store_find_cold", [&] {
      return store_->find_latest_shared(c.put.command, put_tags);
    });

    c.w_hot = zipf_(*ctx.rng);
    c.hot = span("profile.store_find_hot", [&] {
      return store_->find_latest_shared(command(c.w_hot), tags(c.w_hot));
    });

    c.w_cli = zipf_(*ctx.rng);
    auto cli = span("profile.store_open", [&] {
      return std::make_unique<ProfileStore>(store_options(""));
    });
    c.cli = span("profile.store_find_cold", [&] {
      return cli->find_latest(command(c.w_cli), tags(c.w_cli));
    });
    span("profile.store_close", [&] { cli.reset(); });

    c.w_stats = zipf_(*ctx.rng);
    c.stats = span("profile.store_stats", [&] {
      return store_->stats(command(c.w_stats), tags(c.w_stats));
    });
  }

  bool verify(OpContext& ctx, Checks& checks) override {
    Client& c = clients_[ctx.client];
    bool ok = checks.expect(c.cold != nullptr, "put profile not found");
    if (c.cold) {
      size_t bytes = 0;
      ok = same_profile(*c.cold, c.put, checks, &bytes) && ok;
      if (ctx.traced) encoded_bytes_[ctx.client].push_back(static_cast<double>(bytes));
    }
    ok = checks.expect(c.hot && c.hot->command == command(c.w_hot),
                       "hot lookup returned the wrong profile") &&
         ok;
    ok = checks.expect(c.cli && c.cli->command == command(c.w_cli),
                       "second store instance returned the wrong profile") &&
         ok;
    const auto cycles = c.stats.find(std::string(synapse::metrics::kCyclesUsed));
    ok = checks.expect(cycles != c.stats.end() && cycles->second.n >= kPrefill,
                       "stats missed repetitions") &&
         ok;
    if (json_share(c.w_put)) ok = json_roundtrip(c.put, checks) && ok;
    if (ctx.traced) {
      decoded_[ctx.client].push_back(static_cast<double>(c.reps_at_put));
      // Back-to-back lookups: the second is a cache hit (barring a racing
      // put to the shard), so it costs only the revalidation.
      store_->find_latest_shared(command(c.w_hot), tags(c.w_hot));
      span("profile.store_find_hit", [&] {
        return store_->find_latest_shared(command(c.w_hot), tags(c.w_hot));
      });
    }
    // Drop this op's results and build the next input here, untimed.
    c.cold.reset();
    c.hot.reset();
    c.cli.reset();
    c.stats.clear();
    prepare(c, ctx.client);
    return ok;
  }

  void report(Metrics& e2e, Metrics& layer) override {
    e2e.set("store_bytes_per_profile", bytes_per_profile(store_dir_, *store_),
            "bytes");

    // Put latency by repetition index during the pre-fill: the last
    // decile over the first.
    std::vector<double> first, last;
    const size_t decile = kPrefill / 10;
    for (size_t rep = 0; rep < decile; ++rep) {
      first.insert(first.end(), put_s_by_rep_[rep].begin(), put_s_by_rep_[rep].end());
      const auto& tail_rep = put_s_by_rep_[kPrefill - 1 - rep];
      last.insert(last.end(), tail_rep.begin(), tail_rep.end());
    }
    layer.set("profile.store_put_growth", median(last) / median(first), "ratio");

    const auto cache = store_->cache_stats();
    const double hits = static_cast<double>(cache.hits - cache_at_start_.hits);
    const double lookups =
        hits + static_cast<double>(cache.misses - cache_at_start_.misses);
    layer.set("profile.store_cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0,
              "ratio");
    layer.set("profile.store_cache_lookups", lookups, "count");
    layer.set("profile.store_invalidations",
              static_cast<double>(cache.invalidations -
                                  cache_at_start_.invalidations),
              "count");
    std::vector<double> decoded, bytes;
    for (size_t c = 0; c < kClients; ++c) {
      decoded.insert(decoded.end(), decoded_[c].begin(), decoded_[c].end());
      bytes.insert(bytes.end(), encoded_bytes_[c].begin(), encoded_bytes_[c].end());
    }
    layer.set("profile.store_profiles_decoded_per_find", mean(decoded), "count");
    layer.set("profile.encoded_bytes", mean(bytes), "bytes");
  }

 private:
  struct Client {
    std::mt19937_64 gen;  ///< input generator (the profiles this client puts)
    std::optional<Profile> next;
    Profile put;
    size_t w_put = 0, w_hot = 0, w_cli = 0, w_stats = 0;
    size_t reps_at_put = 0;
    std::shared_ptr<const Profile> cold, hot;
    std::optional<Profile> cli;
    std::map<std::string, synapse::profile::MetricStats> stats;
  };

  synapse::profile::ProfileStoreOptions store_options(const char* format) const {
    synapse::profile::ProfileStoreOptions o;
    o.backend = "files";
    o.directory = store_dir_;
    o.format = format;
    return o;
  }

  Profile make_profile(size_t w, size_t rep, std::mt19937_64& rng) const {
    SynthSpec spec;
    spec.samples = 10 + rng() % 21;
    spec.rate_hz = 10.0;
    return synth_profile(command(w), tags(w), kEpoch + static_cast<double>(rep),
                         spec, rng);
  }

  /// Draw the client's next write (a workload of its own half) and build
  /// the profile outside the timed op.
  void prepare(Client& c, size_t client) {
    c.w_put = client + kClients * (c.gen() % (kWorkloads / kClients));
    const size_t rep = reps_[c.w_put].fetch_add(1);
    c.reps_at_put = rep + 1;
    c.next = make_profile(c.w_put, rep, c.gen);
  }

  /// The JSON share's codec: to_json -> json::dump -> json::parse ->
  /// from_json must give the profile back.
  static bool json_roundtrip(const Profile& p, Checks& checks) {
    const auto value = span("profile.to_json", [&] { return p.to_json(); });
    const std::string text =
        span("json.dump", [&] { return synapse::json::dump(value); });
    const auto parsed = span("json.parse", [&] { return synapse::json::parse(text); });
    const Profile back =
        span("profile.from_json", [&] { return Profile::from_json(parsed); });
    return checks.expect(back.created_at == p.created_at &&
                             back.sample_count() == p.sample_count() &&
                             back.to_binary() == p.to_binary(),
                         "JSON round trip of '" + p.command + "' differs");
  }

  uint64_t seed_;
  std::string store_dir_;
  Zipf zipf_;
  std::vector<Client> clients_;
  std::array<std::atomic<size_t>, kWorkloads> reps_{};
  std::unique_ptr<ProfileStore> store_;
  synapse::profile::ProfileStoreCacheStats cache_at_start_;
  std::vector<std::vector<double>> put_s_by_rep_;
  std::array<std::vector<double>, kClients> decoded_, encoded_bytes_;
};

}  // namespace

std::unique_ptr<Workload> make_store_churn(const Options& opts) {
  return std::make_unique<StoreChurn>(opts);
}

}  // namespace perfbench
