#pragma once
// Golden replay fixtures: the checked-in record of what replaying the
// builtin scenario catalog consumes. tests/fixtures/replay_golden.json
// holds, per case, the compiled DeltaTable's cell digest and every
// non-timing AtomStats field; test_replay_golden.cpp replays each case
// and requires bit-identical results. The fixtures pin the parity proof
// that used to be a live comparison between two feed implementations.
//
// Cases: catalog scenario x {fixed, variable, scaled, synb} x
// {single, batch3}:
//   fixed    - the scenario's own fixed-rate profile;
//   variable - the same counters re-timed onto irregular, per-series
//              offset timestamps (variable-rate, timestamp-union
//              bucketing);
//   scaled   - fixed profile with cycle/memory/io scales != 1;
//   synb     - fixed profile after a SYNB round trip (the columnar
//              DeltaTable builder);
//   single / batch3 - EmulatorOptions::replay_batch 1 / 3.
//
// Replays run on the "thinkie" virtual resource, whose spec is fixed,
// so calibration bias and FLOP counts do not depend on the machine.
//
// Regenerate (only when a change is meant to alter what replays
// consume): cmake --build build --target replay_golden_gen &&
//   ./build/tests/replay_golden_gen tests/fixtures/replay_golden.json

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "atoms/atom.hpp"
#include "emulator/emulator.hpp"
#include "emulator/replay_plan.hpp"
#include "json/json.hpp"
#include "profile/delta_frame.hpp"
#include "profile/profile.hpp"
#include "resource/resource_spec.hpp"
#include "workload/scenario.hpp"

namespace synapse::golden {

inline constexpr const char* kResource = "thinkie";

/// Activates the golden resource for its lifetime, then restores host.
struct ResourceGuard {
  ResourceGuard() { resource::activate_resource(kResource); }
  ~ResourceGuard() { resource::activate_resource("host"); }
};

struct Case {
  std::string name;  ///< "<scenario>/<variant>/<mode>"
  std::string variant;
  profile::Profile profile;
  emulator::EmulatorOptions options;
};

/// Re-time every series onto irregular gaps (shifted per series, so the
/// series disagree on timestamps and bucketing merges their union) and
/// mark it variable-rate. Counter values are untouched.
inline profile::Profile variable_rate_variant(profile::Profile p) {
  static const double kGaps[] = {0.01, 0.02, 0.3, 0.05};
  for (size_t j = 0; j < p.series.size(); ++j) {
    auto& series = p.series[j];
    series.variable_rate = true;
    series.sample_rate_hz = 100.0;
    double t = 100.0;
    for (size_t i = 0; i < series.samples.size(); ++i) {
      series.samples.set_timestamp(i, t);
      t += kGaps[(i + j) % 4];
    }
  }
  return p;
}

inline std::vector<Case> cases() {
  std::vector<Case> out;
  for (const auto& spec : workload::builtin_scenarios()) {
    for (const char* variant : {"fixed", "variable", "scaled", "synb"}) {
      for (const size_t batch : {size_t{1}, size_t{3}}) {
        emulator::EmulatorOptions base;
        base.storage.base_dir = "/tmp";
        base.pace = emulator::ReplayPace::Off;
        base.replay_batch = batch;
        Case c;
        c.variant = variant;
        c.name = spec.name + "/" + variant + "/" +
                 (batch == 1 ? "single" : "batch3");
        c.profile = spec.make_profile();
        c.options = spec.make_options(base);
        if (c.variant == "variable") {
          c.profile = variable_rate_variant(std::move(c.profile));
        } else if (c.variant == "scaled") {
          c.options.cycle_scale *= 0.5;
          c.options.memory_scale *= 0.75;
          c.options.io_scale *= 1.5;
        } else if (c.variant == "synb") {
          c.profile = profile::Profile::from_binary(c.profile.to_binary());
        }
        out.push_back(std::move(c));
      }
    }
  }
  return out;
}

/// FNV-1a 64 over the lane names, the row count, and per row the
/// duration bits plus, per lane, a presence byte and (when present) the
/// value bits.
inline std::string table_digest(const profile::DeltaTable& table) {
  uint64_t h = 0xcbf29ce484222325ull;
  const auto bytes = [&h](const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ull;
    }
  };
  const auto word = [&bytes](double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    bytes(&bits, sizeof bits);
  };
  for (const auto& name : table.lanes().names()) bytes(name.c_str(), name.size() + 1);
  const uint64_t rows = table.rows();
  bytes(&rows, sizeof rows);
  for (size_t r = 0; r < table.rows(); ++r) {
    word(table.duration(r));
    for (uint32_t lane = 0; lane < table.lanes().size(); ++lane) {
      const unsigned char present = table.present(lane, r) ? 1 : 0;
      bytes(&present, 1);
      if (present != 0) word(table.get(lane, r));
    }
  }
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// The digest of the table a replay of `c` feeds (scales baked in).
inline std::string case_digest(const Case& c) {
  const emulator::ReplayPlan plan(c.profile, c.options, {});
  return table_digest(plan.table());
}

/// Doubles travel as C99 hex floats: exact in both directions.
inline std::string hex_double(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

inline double parse_hex_double(const std::string& s) {
  return std::strtod(s.c_str(), nullptr);
}

/// Every AtomStats field except busy_seconds.
inline json::Value stats_json(const atoms::AtomStats& s) {
  json::Object o;
  o["cycles"] = hex_double(s.cycles);
  o["flops"] = hex_double(s.flops);
  o["bytes_read"] = s.bytes_read;
  o["bytes_written"] = s.bytes_written;
  o["bytes_allocated"] = s.bytes_allocated;
  o["bytes_freed"] = s.bytes_freed;
  o["net_bytes_sent"] = s.net_bytes_sent;
  o["net_bytes_received"] = s.net_bytes_received;
  o["samples_consumed"] = s.samples_consumed;
  return o;
}

inline json::Value record(const Case& c, const emulator::EmulationResult& r) {
  json::Object o;
  o["rows"] = c.profile.delta_table().rows();
  o["table_digest"] = case_digest(c);
  o["samples_replayed"] = r.samples_replayed;
  json::Object atoms;
  for (const auto& [name, stats] : r.atom_stats) atoms[name] = stats_json(stats);
  o["atoms"] = std::move(atoms);
  return o;
}

}  // namespace synapse::golden
