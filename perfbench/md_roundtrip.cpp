// md-roundtrip: the paper's loop on a real application.
//
// One op, through the Session API on a `files` store (SYNB encoding):
// profile mdsim (default watcher set and rate) and store it, open the
// store again as every CLI call does, find_latest the profile, and
// emulate it with default options. mdsim runs a few hundred steps on
// the thinkie virtual resource, which paces both mdsim and the compute
// atom to its model, so the loop is steady. Watchers and atoms do nearly
// all the work; store, codec and feed cost well under 1%.

#include <algorithm>
#include <filesystem>
#include <optional>

#include "common.hpp"
#include "core/synapse.hpp"
#include "profile/metrics.hpp"
#include "sys/clock.hpp"
#include "sys/spawn.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using synapse::profile::Profile;

constexpr const char* kSteps = "200";

class MdRoundtrip final : public Workload {
 public:
  explicit MdRoundtrip(const Options& opts)
      : store_dir_(opts.work_dir + "/md-store"),
        argv_{opts.mdsim, "--steps", kSteps, "--scratch",
              opts.work_dir + "/tmp"} {
    if (opts.mdsim.empty()) throw std::runtime_error("--mdsim is required");
    for (const auto& a : argv_) command_ += (command_.empty() ? "" : " ") + a;
  }

  std::string resource() const override { return "thinkie"; }
  size_t clients() const override { return 1; }

  double setup() override {
    session_.reset();
    std::filesystem::remove_all(store_dir_);
    Stopwatch timed;
    session_ = timed(
        [&] { return std::make_unique<synapse::Session>(session_options()); });
    // The reference for profile_overhead: the same mdsim run, unprofiled.
    synapse::sys::SpawnOptions spawn;
    spawn.stdout_path = "/dev/null";
    const synapse::sys::ExitStatus status =
        timed([&] { return synapse::sys::run_command(argv_, spawn); });
    if (!status.success()) throw std::runtime_error("native mdsim run failed");
    native_tx_s_.push_back(status.wall_seconds);
    return timed.seconds();
  }

  void op(OpContext& ctx) override {
    const double t0 = synapse::sys::steady_now();
    last_.put = session_profile(ctx.traced);
    last_.profile_call_s = synapse::sys::steady_now() - t0;
    // A fresh Session opens the store again, like each synapse-* CLI.
    auto cli = span("profile.store_open", [&] {
      return std::make_unique<synapse::Session>(session_options());
    });
    last_.found = span("profile.store_find_cold",
                       [&] { return cli->store().find_latest(command_, tags_); });
    last_.emulation = session_emulate(*cli, command_, tags_, ctx.traced);
    span("profile.store_close", [&] { cli.reset(); });
  }

  bool verify(OpContext& ctx, Checks& checks) override {
    const Profile& put = last_.put;
    bool ok = checks.expect(put.sample_count() > 0, "md profile is empty");
    ok = checks.expect(last_.found.has_value(), "md profile not found") && ok;
    if (!last_.found) return false;
    size_t bytes = 0;
    ok = same_profile(*last_.found, put, checks, &bytes) && ok;
    encoded_bytes_.push_back(static_cast<double>(bytes));

    const auto table =
        span("profile.delta_table", [&] { return last_.found->delta_table(); });
    const ExpectedStats want = expected_stats(table);
    const auto& emu = last_.emulation;
    ok = checks.expect(emu.samples_replayed == table.rows(),
                       "md replay skipped samples") &&
         ok;
    // The atoms' stats against the benchmark's own lane sums; for compute
    // this is "emulated cycles equal profiled cycles" (times the
    // resource's calibration bias, which the compute atom applies).
    ok = same_counts(emu.compute, want.compute, "compute", checks) && ok;
    ok = same_counts(emu.memory, want.memory, "memory", checks) && ok;
    ok = same_counts(emu.storage, want.storage, "storage", checks) && ok;
    ok = checks.expect(emu.compute.cycles > 0, "md emulation burned no cycles") &&
         ok;

    const double app_tx = put.runtime();
    if (ctx.traced) {
      replay_.add(emu, time_kernels(*last_.found));
      overhead_s_.push_back(last_.profile_call_s - app_tx);
      samples_.push_back(static_cast<double>(put.sample_count()));
      for (const auto& series : put.series) {
        const double rate = series.sample_rate_hz > 0 ? series.sample_rate_hz
                                                      : put.sample_rate_hz;
        max_gap_ratio_ = std::max(max_gap_ratio_, series.gap_stats().max_s * rate);
      }
    } else {
      profile_call_s_.push_back(last_.profile_call_s);
      samples_per_s_.push_back(static_cast<double>(emu.samples_replayed) /
                               emu.wall_seconds);
      tx_fidelity_.push_back(std::min(emu.wall_seconds, app_tx) /
                             std::max(emu.wall_seconds, app_tx));
    }
    last_ = Last{};  // release this op's results untimed
    return ok;
  }

  void report(Metrics& e2e, Metrics& layer) override {
    e2e.set("store_bytes_per_profile",
            bytes_per_profile(store_dir_, session_->store()), "bytes");
    const double native = median(native_tx_s_);
    std::vector<double> overhead;
    for (const double s : profile_call_s_) overhead.push_back(s / native);
    layer.set("profile_overhead", median(overhead), "ratio");
    layer.set("tx_fidelity", median(tx_fidelity_), "ratio");
    layer.set("samples_per_s", median(samples_per_s_), "1/s");
    layer.set("apps.native_tx_s", native, "s");
    layer.set("watchers.overhead_ms", 1e3 * median(overhead_s_), "ms");
    layer.set("watchers.samples_per_profile", mean(samples_), "count");
    layer.set("watchers.max_gap_ratio", max_gap_ratio_, "ratio");
    layer.set("profile.encoded_bytes", mean(encoded_bytes_), "bytes");
    replay_.report(layer);
  }

 private:
  struct Last {
    Profile put;
    double profile_call_s = 0.0;
    std::optional<Profile> found;
    synapse::emulator::EmulationResult emulation;
  };

  synapse::SessionOptions session_options() const {
    synapse::SessionOptions s;
    s.store_backend = "files";
    s.store_dir = store_dir_;
    s.store_options.format = "binary";
    return s;
  }

  /// Session::profile; traced, spelled out like session_emulate.
  Profile session_profile(bool traced) {
    if (!traced) return session_->profile(command_, tags_);
    return span("core.profile", [&] {
      Profile p = span("watchers.profile", [&] {
        synapse::watchers::Profiler profiler(session_->options().profiler);
        return profiler.profile(command_, tags_);
      });
      span("profile.store_put", [&] { session_->store().put(p); });
      span("profile.store_flush_async",
           [&] { session_->store().flush_async(); });
      return p;
    });
  }

  std::string store_dir_;
  std::vector<std::string> argv_;
  std::string command_;
  std::vector<std::string> tags_{"perfbench", "md-roundtrip"};
  std::unique_ptr<synapse::Session> session_;
  Last last_;

  std::vector<double> native_tx_s_, profile_call_s_, samples_per_s_,
      tx_fidelity_, overhead_s_, samples_, encoded_bytes_;
  double max_gap_ratio_ = 0.0;
  ReplayLayers replay_;
};

}  // namespace

std::unique_ptr<Workload> make_md_roundtrip(const Options& opts) {
  return std::make_unique<MdRoundtrip>(opts);
}

}  // namespace perfbench
