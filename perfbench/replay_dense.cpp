// replay-dense: many short emulations of hot stored profiles (the
// proxy-app / ensemble use).
//
// Set-up stores a few seeded fixed-rate profiles (a few thousand 100 Hz
// samples, small compute, memory and storage budgets, bursty storage so
// dispatch sometimes skips an atom) in a `files` store and warms the
// decoded-profile cache. One op is one Session::emulate in the default
// single mode. Feed dispatch and the atoms do the work; the hot store
// lookup is a few microseconds of an op of hundreds of milliseconds.

#include <filesystem>

#include "common.hpp"
#include "core/synapse.hpp"
#include "sys/clock.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using synapse::profile::Profile;

constexpr size_t kProfiles = 16;

class ReplayDense final : public Workload {
 public:
  explicit ReplayDense(const Options& opts)
      : store_dir_(opts.work_dir + "/replay-store") {
    std::mt19937_64 rng(opts.seed);
    for (size_t k = 0; k < kProfiles; ++k) {
      SynthSpec spec;
      spec.rate_hz = 100.0;
      spec.samples = 2000;
      inputs_.push_back(synth_profile(command(k), tags_, 1.7e9 + k, spec, rng));
    }
  }

  std::string resource() const override { return "host"; }
  size_t clients() const override { return 1; }

  double setup() override {
    session_.reset();
    std::filesystem::remove_all(store_dir_);
    synapse::SessionOptions s;
    s.store_backend = "files";
    s.store_dir = store_dir_;
    s.store_options.format = "binary";
    Stopwatch timed;
    session_ = timed([&] { return std::make_unique<synapse::Session>(s); });

    for (const Profile& p : inputs_) {
      timed([&] { session_->store().put(p); });
    }
    // Warm the decoded-profile cache once every put has landed (a put
    // revalidates its whole shard). Cache fill is not set-up cost: it is
    // what the first lookup of each profile would pay. The expected atom
    // counts come from the stored copies' own tables.
    expected_.clear();
    rows_.clear();
    for (size_t k = 0; k < kProfiles; ++k) {
      const auto stored =
          session_->store().find_latest_shared(command(k), tags_);
      if (!stored) throw std::runtime_error("replay profile not stored");
      const auto table = stored->delta_table();
      expected_.push_back(expected_stats(table));
      rows_.push_back(table.rows());
    }
    return timed.seconds();
  }

  void op(OpContext& ctx) override {
    k_ = (*ctx.rng)() % kProfiles;
    result_ = session_emulate(*session_, command(k_), tags_, ctx.traced);
  }

  bool verify(OpContext& ctx, Checks& checks) override {
    const ExpectedStats& want = expected_[k_];
    bool ok = checks.expect(result_.samples_replayed == rows_[k_],
                            "replay skipped samples");
    ok = same_counts(result_.compute, want.compute, "compute", checks) && ok;
    ok = same_counts(result_.memory, want.memory, "memory", checks) && ok;
    ok = same_counts(result_.storage, want.storage, "storage", checks) && ok;
    if (ctx.traced) {
      const auto p = session_->store().find_latest_shared(command(k_), tags_);
      span("profile.delta_table", [&] { return p->delta_table(); });
      replay_.add(result_, time_kernels(*p));
    } else {
      samples_per_s_.push_back(static_cast<double>(result_.samples_replayed) /
                               result_.wall_seconds);
    }
    return ok;
  }

  void report(Metrics& e2e, Metrics& layer) override {
    const auto& store = session_->store();
    e2e.set("store_bytes_per_profile", bytes_per_profile(store_dir_, store),
            "bytes");
    layer.set("samples_per_s", median(samples_per_s_), "1/s");
    const auto cache = store.cache_stats();
    const double lookups = static_cast<double>(cache.hits + cache.misses);
    layer.set("profile.store_cache_hit_ratio",
              lookups > 0 ? static_cast<double>(cache.hits) / lookups : 0.0,
              "ratio");
    layer.set("profile.store_cache_lookups", lookups, "count");
    replay_.report(layer);
  }

 private:
  static std::string command(size_t k) {
    return "replay-dense-" + std::to_string(k);
  }

  std::string store_dir_;
  std::vector<Profile> inputs_;
  std::vector<std::string> tags_{"perfbench", "replay-dense"};
  std::unique_ptr<synapse::Session> session_;
  std::vector<ExpectedStats> expected_;
  std::vector<size_t> rows_;
  size_t k_ = 0;
  synapse::emulator::EmulationResult result_;
  std::vector<double> samples_per_s_;
  ReplayLayers replay_;
};

}  // namespace

std::unique_ptr<Workload> make_replay_dense(const Options& opts) {
  return std::make_unique<ReplayDense>(opts);
}

}  // namespace perfbench
