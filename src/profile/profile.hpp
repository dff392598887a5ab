#pragma once
// The profile data model.
//
// A Profile is what the profiling module produces and the emulation
// module consumes (paper Fig. 1): static system information, one time
// series of samples per watcher, integrated totals, and derived metrics.
// Timestamps are per-watcher and unsynchronised (section 4.1); the
// combination happens at bucketing time, not at sampling time.
//
// Each series stores its samples as columns (SampleColumns): one
// timestamp vector plus, per metric, a value vector and a presence
// vector — the layout of the SYNB container (binary_codec.hpp) and of
// the replay's DeltaTable (delta_frame.hpp). Watchers, scenario
// synthesis and tests author rows as `Sample`s; SYNB decode and the
// JSON extractors fill the same columns, and encode, export and
// delta_table() read them. A decoded profile holds no reference to the
// bytes it was decoded from.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "json/json.hpp"

namespace synapse::json {
class ArenaValue;
}

namespace synapse::profile {

class DeltaTable;

/// Metric values observed at one sampling instant by one watcher — the
/// authoring type: watchers fill one and append it to a series.
/// Values are cumulative-so-far where that makes sense (bytes, cycles)
/// and instantaneous otherwise (resident memory, thread count); the
/// watcher decides, the emulator consumes per-period *deltas* computed by
/// `Profile::delta_table`.
struct Sample {
  double timestamp = 0.0;  ///< wall-clock seconds (epoch)
  std::map<std::string, double> values;

  double get(std::string_view metric, double dflt = 0.0) const;
  void set(std::string_view metric, double value);
};

/// One metric of one series: the value every sample recorded (0.0 where
/// a sample recorded none) and whether it recorded one.
struct MetricColumn {
  std::string name;
  std::vector<double> values;    ///< one per sample
  std::vector<uint8_t> present;  ///< one per sample, 0/1
};

/// The samples of one series as columns: a timestamp per row and one
/// MetricColumn per metric, kept sorted by name (the SYNB dictionary
/// order and the DeltaTable lane order). Every column holds size() rows.
class SampleColumns {
 public:
  /// Append a sample as the next row.
  void push_back(const Sample& sample);
  /// Append a row that records no metric yet; returns its index.
  size_t append_row(double timestamp);
  void reserve(size_t rows);

  size_t size() const { return timestamps_.size(); }
  bool empty() const { return timestamps_.empty(); }
  double timestamp(size_t row) const { return timestamps_[row]; }
  const std::vector<double>& timestamps() const { return timestamps_; }
  const std::vector<MetricColumn>& metrics() const { return metrics_; }

  /// Column of a metric; nullptr when the series has none.
  const MetricColumn* find(std::string_view metric) const;
  /// Value a row recorded for a metric; `dflt` when it recorded none.
  double get(size_t row, std::string_view metric, double dflt = 0.0) const;

  // --- column edits -------------------------------------------------------
  void set_timestamp(size_t row, double timestamp) {
    timestamps_[row] = timestamp;
  }
  /// Record (or overwrite) a metric in one row; adds the column if new.
  void set(size_t row, std::string_view metric, double value);
  /// Drop a metric from every row.
  void erase_metric(std::string_view metric);

  /// Replace the whole table (decoders). `metrics` must be sorted by
  /// name without duplicates, each column holding timestamps.size() rows.
  void assign(std::vector<double> timestamps,
              std::vector<MetricColumn> metrics);

  /// Heap bytes held, allocator chunk overhead included.
  size_t heap_bytes() const;

 private:
  MetricColumn& column(std::string_view metric);

  std::vector<double> timestamps_;
  std::vector<MetricColumn> metrics_;
};

/// Gate parameters a variable-rate series was recorded under (the
/// adaptive scheduler's open/close gate) — informational metadata that
/// survives serialization so a replayed or exported profile explains
/// its own rate trajectory. All zero = not recorded.
struct SeriesGate {
  double floor_hz = 0.0;
  double burst_hz = 0.0;
  double open_threshold = 0.0;
  double close_hold_s = 0.0;

  bool any() const {
    return floor_hz != 0.0 || burst_hz != 0.0 || open_threshold != 0.0 ||
           close_hold_s != 0.0;
  }
};

/// min/mean/max spacing between consecutive samples of one series.
struct GapStats {
  size_t gaps = 0;  ///< sample_count - 1 (0 = no gaps, stats are 0)
  double min_s = 0.0;
  double mean_s = 0.0;
  double max_s = 0.0;
};

/// Ordered samples from one watcher.
struct TimeSeries {
  std::string watcher;  ///< producing watcher name ("cpu", "mem", ...)
  /// Rate this series was sampled at. Watchers may run at individual
  /// rates (WatcherConfig::rate_overrides); 0 means "not recorded",
  /// i.e. the profile-level Profile::sample_rate_hz applies. For
  /// variable-rate series this is the nominal burst rate; the recorded
  /// timestamps are authoritative.
  double sample_rate_hz = 0.0;
  /// Recorded under an edge-triggered (gated) scheduler: inter-sample
  /// spacing varies, so consumers must bucket on timestamps instead of
  /// deriving a fixed period from the rate.
  bool variable_rate = false;
  SeriesGate gate;  ///< gate the series was recorded under (if any)
  SampleColumns samples;

  bool empty() const { return samples.empty(); }
  size_t size() const { return samples.size(); }

  /// Last cumulative value of a metric (0 when absent everywhere).
  double last(std::string_view metric) const;

  /// Maximum value of a metric across samples.
  double max(std::string_view metric) const;

  /// Measured rate over the recorded span: (n-1) / (t_last - t_first).
  /// Falls back to sample_rate_hz when fewer than two samples (or a
  /// zero span) leave nothing to measure.
  double effective_rate_hz() const;

  /// Inter-sample gap statistics (the variable-rate trajectory summary
  /// `synapse-inspect` prints).
  GapStats gap_stats() const;
};

/// Static description of the machine the profile was taken on.
struct SystemInfo {
  std::string hostname;
  std::string cpu_model;
  int num_cores = 0;
  double max_cpu_freq_hz = 0.0;
  uint64_t total_memory_bytes = 0;
  std::string resource_name;  ///< virtual-resource name, "" = bare metal

  json::Value to_json() const;
  static SystemInfo from_json(const json::Value& v);
};

/// True for metrics that are instantaneous observations (resident
/// memory, thread count, ...) rather than cumulative counters: deltas
/// make no sense for them, so delta_table() propagates the
/// within-period maximum instead, and synthetic-profile builders must
/// write absolute values rather than running sums.
bool is_instantaneous_metric(std::string_view metric);

/// One emulation step: the per-resource consumption deltas of a single
/// sampling period, in recorded order. This is the unit the emulator's
/// global loop feeds to the atoms (paper section 4.2).
struct SampleDelta {
  double duration = 0.0;  ///< profiled length of the sampling period
  std::map<std::string, double> deltas;

  double get(std::string_view metric, double dflt = 0.0) const;
};

/// A complete application profile.
class Profile {
 public:
  // --- identity -----------------------------------------------------------
  std::string command;                ///< application start command
  std::vector<std::string> tags;      ///< user tags (search index)
  double sample_rate_hz = 10.0;       ///< configured watcher rate
  double created_at = 0.0;            ///< wall-clock time of profiling

  // --- payload --------------------------------------------------------------
  SystemInfo system;
  std::vector<TimeSeries> series;     ///< one per watcher
  std::map<std::string, double> totals;   ///< integrated over runtime
  std::map<std::string, double> derived;  ///< efficiency, utilization, ...

  // --- accessors ------------------------------------------------------------
  /// Find the series of a watcher; nullptr when that watcher did not run.
  const TimeSeries* find_series(std::string_view watcher) const;

  double total(std::string_view metric, double dflt = 0.0) const;
  double get_derived(std::string_view metric, double dflt = 0.0) const;

  /// Application wall-clock runtime (Tx) recorded by the spawner.
  double runtime() const;

  /// Total number of samples across all watchers.
  size_t sample_count() const;

  /// Any series recorded variable-rate (adaptive scheduler)? Such
  /// profiles bucket on the recorded timestamps and replay paced by the
  /// recorded inter-sample gaps.
  bool variable_rate() const;

  /// Merge all watcher series into one ordered table of per-period
  /// consumption deltas (delta_frame.hpp) — the input to the emulator.
  /// Cumulative metrics are differenced; instantaneous metrics (listed
  /// internally) carry their max within the period. For fixed-rate
  /// profiles, periods are formed on the union of all watcher
  /// timestamps, rounded to the sampling period, preserving the
  /// recorded order across resource types (paper Fig. 2/3 semantics).
  /// For variable-rate profiles the buckets are the recorded timestamps
  /// themselves (one bucket per distinct instant across watchers) and
  /// each row's duration is the recorded gap to the previous bucket.
  /// Lanes are the sorted union of the series' metric columns.
  DeltaTable delta_table() const;

  /// delta_table() unboxed into one SampleDelta per row (export, tests
  /// and custom tooling that wants maps).
  std::vector<SampleDelta> sample_deltas() const;

  /// Compute derived metrics (efficiency, utilization, FLOP/s) from
  /// totals + system info, following paper section 4.3 formulas.
  void compute_derived();

  // --- serialization ----------------------------------------------------------
  json::Value to_json() const;
  static Profile from_json(const json::Value& v);

  /// from_json against the arena DOM (json/arena.hpp) — same shape, no
  /// per-node heap traffic on the parse side. Store backends use this
  /// for JSON-format reads.
  static Profile from_arena(const json::ArenaValue& v);

  /// SYNB binary columnar container (binary_codec.hpp). from_binary
  /// copies the columns out; the profile keeps no reference to `data`.
  std::string to_binary() const;
  static Profile from_binary(std::string_view data);

  /// In-memory footprint, allocator chunk overhead included — the unit
  /// of the store's decoded-profile cache budget.
  size_t decoded_bytes() const;
};

}  // namespace synapse::profile
