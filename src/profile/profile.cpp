#include "profile/profile.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <utility>

#include "json/arena.hpp"
#include "profile/binary_codec.hpp"
#include "profile/delta_frame.hpp"
#include "profile/metrics.hpp"

namespace synapse::profile {

namespace {

/// Bytes one heap allocation of `n` bytes occupies in a glibc-style
/// allocator (8-byte chunk header, 16-byte granularity, 32-byte
/// minimum chunk); 0 for no allocation.
size_t chunk_bytes(size_t n) {
  return n == 0 ? 0 : std::max<size_t>(32, (n + 8 + 15) & ~size_t{15});
}

size_t heap_bytes_of(const std::string& s) {
  // Short strings live inside the object (libstdc++ SSO: 15 chars).
  return s.capacity() > 15 ? chunk_bytes(s.capacity() + 1) : 0;
}

template <typename T>
size_t heap_bytes_of(const std::vector<T>& v) {
  return chunk_bytes(v.capacity() * sizeof(T));
}

size_t heap_bytes_of(const std::map<std::string, double>& m) {
  // rb-tree node: colour + three links, then the key/value pair.
  constexpr size_t kNode = 4 * sizeof(void*) +
                           sizeof(std::pair<const std::string, double>);
  size_t bytes = 0;
  for (const auto& [k, v] : m) {
    (void)v;
    bytes += chunk_bytes(kNode) + heap_bytes_of(k);
  }
  return bytes;
}

bool by_name(const MetricColumn& c, std::string_view name) {
  return c.name < name;
}

}  // namespace

double Sample::get(std::string_view metric, double dflt) const {
  const auto it = values.find(std::string(metric));
  return it == values.end() ? dflt : it->second;
}

void Sample::set(std::string_view metric, double value) {
  values[std::string(metric)] = value;
}

// --- SampleColumns ------------------------------------------------------------

void SampleColumns::push_back(const Sample& sample) {
  const size_t row = append_row(sample.timestamp);
  for (const auto& [metric, value] : sample.values) set(row, metric, value);
}

size_t SampleColumns::append_row(double timestamp) {
  timestamps_.push_back(timestamp);
  for (auto& c : metrics_) {
    c.values.push_back(0.0);
    c.present.push_back(0);
  }
  return timestamps_.size() - 1;
}

void SampleColumns::reserve(size_t rows) {
  timestamps_.reserve(rows);
  for (auto& c : metrics_) {
    c.values.reserve(rows);
    c.present.reserve(rows);
  }
}

const MetricColumn* SampleColumns::find(std::string_view metric) const {
  const auto it =
      std::lower_bound(metrics_.begin(), metrics_.end(), metric, by_name);
  return it == metrics_.end() || it->name != metric ? nullptr : &*it;
}

double SampleColumns::get(size_t row, std::string_view metric,
                          double dflt) const {
  const MetricColumn* c = find(metric);
  return c != nullptr && c->present[row] != 0 ? c->values[row] : dflt;
}

MetricColumn& SampleColumns::column(std::string_view metric) {
  auto it = std::lower_bound(metrics_.begin(), metrics_.end(), metric, by_name);
  if (it == metrics_.end() || it->name != metric) {
    // A new metric reads as absent in every earlier row. Its columns
    // take the row reserve of the timestamps, so a decoder that
    // reserved once never regrows them.
    MetricColumn c{std::string(metric), {}, {}};
    c.values.reserve(timestamps_.capacity());
    c.present.reserve(timestamps_.capacity());
    c.values.resize(timestamps_.size(), 0.0);
    c.present.resize(timestamps_.size(), 0);
    it = metrics_.insert(it, std::move(c));
  }
  return *it;
}

void SampleColumns::set(size_t row, std::string_view metric, double value) {
  MetricColumn& c = column(metric);
  c.values[row] = value;
  c.present[row] = 1;
}

void SampleColumns::erase_metric(std::string_view metric) {
  const auto it =
      std::lower_bound(metrics_.begin(), metrics_.end(), metric, by_name);
  if (it != metrics_.end() && it->name == metric) metrics_.erase(it);
}

void SampleColumns::assign(std::vector<double> timestamps,
                           std::vector<MetricColumn> metrics) {
  timestamps_ = std::move(timestamps);
  metrics_ = std::move(metrics);
}

size_t SampleColumns::heap_bytes() const {
  size_t bytes = heap_bytes_of(timestamps_) + heap_bytes_of(metrics_);
  for (const auto& c : metrics_) {
    bytes += heap_bytes_of(c.name) + heap_bytes_of(c.values) +
             heap_bytes_of(c.present);
  }
  return bytes;
}

// --- TimeSeries -----------------------------------------------------------------

double TimeSeries::last(std::string_view metric) const {
  const MetricColumn* c = samples.find(metric);
  if (c == nullptr) return 0.0;
  for (size_t row = samples.size(); row-- > 0;) {
    if (c->present[row] != 0) return c->values[row];
  }
  return 0.0;
}

double TimeSeries::max(std::string_view metric) const {
  // Absent cells hold 0.0, which is what an absent sample counts as.
  double best = 0.0;
  if (const MetricColumn* c = samples.find(metric)) {
    for (const double v : c->values) best = std::max(best, v);
  }
  return best;
}

double TimeSeries::effective_rate_hz() const {
  if (samples.size() < 2) return sample_rate_hz;
  const auto& t = samples.timestamps();
  const double span = t.back() - t.front();
  if (!(span > 0.0)) return sample_rate_hz;
  return static_cast<double>(t.size() - 1) / span;
}

GapStats TimeSeries::gap_stats() const {
  GapStats g;
  const auto& t = samples.timestamps();
  if (t.size() < 2) return g;
  g.gaps = t.size() - 1;
  g.min_s = std::numeric_limits<double>::infinity();
  double sum = 0.0;
  for (size_t i = 1; i < t.size(); ++i) {
    const double gap = t[i] - t[i - 1];
    g.min_s = std::min(g.min_s, gap);
    g.max_s = std::max(g.max_s, gap);
    sum += gap;
  }
  g.mean_s = sum / static_cast<double>(g.gaps);
  return g;
}

json::Value SystemInfo::to_json() const {
  json::Object o;
  o["hostname"] = hostname;
  o["cpu_model"] = cpu_model;
  o["num_cores"] = num_cores;
  o["max_cpu_freq_hz"] = max_cpu_freq_hz;
  o["total_memory_bytes"] = total_memory_bytes;
  o["resource_name"] = resource_name;
  return json::Value(std::move(o));
}

SystemInfo SystemInfo::from_json(const json::Value& v) {
  SystemInfo s;
  s.hostname = v.get_or("hostname", std::string());
  s.cpu_model = v.get_or("cpu_model", std::string());
  s.num_cores = static_cast<int>(v.get_or("num_cores", 0.0));
  s.max_cpu_freq_hz = v.get_or("max_cpu_freq_hz", 0.0);
  s.total_memory_bytes =
      static_cast<uint64_t>(v.get_or("total_memory_bytes", 0.0));
  s.resource_name = v.get_or("resource_name", std::string());
  return s;
}

double SampleDelta::get(std::string_view metric, double dflt) const {
  const auto it = deltas.find(std::string(metric));
  return it == deltas.end() ? dflt : it->second;
}

const TimeSeries* Profile::find_series(std::string_view watcher) const {
  for (const auto& ts : series) {
    if (ts.watcher == watcher) return &ts;
  }
  return nullptr;
}

double Profile::total(std::string_view metric, double dflt) const {
  const auto it = totals.find(std::string(metric));
  return it == totals.end() ? dflt : it->second;
}

double Profile::get_derived(std::string_view metric, double dflt) const {
  const auto it = derived.find(std::string(metric));
  return it == derived.end() ? dflt : it->second;
}

double Profile::runtime() const { return total(metrics::kRuntime); }

size_t Profile::sample_count() const {
  size_t n = 0;
  for (const auto& ts : series) n += ts.size();
  return n;
}

bool Profile::variable_rate() const {
  for (const auto& ts : series) {
    if (ts.variable_rate) return true;
  }
  return false;
}

bool is_instantaneous_metric(std::string_view metric) {
  static const std::set<std::string, std::less<>> inst = {
      std::string(metrics::kMemResident), std::string(metrics::kMemPeak),
      std::string(metrics::kNumThreads), std::string(metrics::kEfficiency),
      std::string(metrics::kUtilization)};
  return inst.count(metric) > 0;
}

namespace {

/// The bucketing kernel's accumulation pass: one lane per metric name
/// across all series. Per cell, float operations happen in (series,
/// sample) order — cumulative metrics differenced per series and summed
/// when positive, instantaneous ones maxed — and `present` marks the
/// cells an operation touched (a cumulative delta counts only when
/// positive). `bucket_of` maps a timestamp to its row.
template <typename BucketFn>
DeltaTable accumulate(const std::vector<TimeSeries>& series,
                      std::vector<double> durations, BucketFn bucket_of) {
  std::vector<std::string> names;
  for (const auto& ts : series) {
    for (const auto& c : ts.samples.metrics()) names.push_back(c.name);
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  LaneTable lanes(std::move(names));

  const size_t rows = durations.size();
  std::vector<std::vector<double>> values(lanes.size(),
                                          std::vector<double>(rows, 0.0));
  std::vector<std::vector<uint8_t>> present(lanes.size(),
                                            std::vector<uint8_t>(rows, 0));
  std::vector<size_t> bucket;
  for (const auto& ts : series) {
    const auto& t = ts.samples.timestamps();
    bucket.resize(t.size());
    for (size_t i = 0; i < t.size(); ++i) bucket[i] = bucket_of(t[i]);
    for (const auto& c : ts.samples.metrics()) {
      const uint32_t lane = lanes.id(c.name);
      std::vector<double>& value = values[lane];
      std::vector<uint8_t>& seen = present[lane];
      if (is_instantaneous_metric(c.name)) {
        for (size_t i = 0; i < t.size(); ++i) {
          if (c.present[i] == 0) continue;
          const size_t b = bucket[i];
          seen[b] = 1;
          value[b] = std::max(value[b], c.values[i]);
        }
      } else {
        double prev = 0.0;
        for (size_t i = 0; i < t.size(); ++i) {
          if (c.present[i] == 0) continue;
          const double delta = c.values[i] - prev;
          prev = c.values[i];
          if (delta > 0) {
            const size_t b = bucket[i];
            value[b] += delta;
            seen[b] = 1;
          }
        }
      }
    }
  }
  return DeltaTable(std::move(lanes), std::move(durations), std::move(values),
                    std::move(present));
}

}  // namespace

DeltaTable Profile::delta_table() const {
  // Period resolution follows the fastest recorded series: with
  // per-watcher rate overrides the high-rate series defines the replay
  // granularity, slower series simply contribute to fewer buckets.
  double rate = sample_rate_hz;
  for (const auto& ts : series) rate = std::max(rate, ts.sample_rate_hz);

  if (variable_rate()) {
    // Variable-rate profiles: the recorded timestamps ARE the buckets.
    // Edges = sorted unique union of every sample instant across
    // watchers; each row's duration is the recorded gap to the previous
    // edge, so the replay trajectory (burst density, idle stretches)
    // survives exactly. Bucket lookup is an exact-double binary search —
    // a sample always finds its own timestamp.
    std::vector<double> edges;
    for (const auto& ts : series) {
      const auto& t = ts.samples.timestamps();
      edges.insert(edges.end(), t.begin(), t.end());
    }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    if (edges.empty()) return {};

    std::vector<double> durations(edges.size());
    // The first bucket has no predecessor; fall back to the nominal
    // (burst) period, then to the first recorded gap.
    durations[0] = rate > 0.0 ? 1.0 / rate
                              : (edges.size() > 1 ? edges[1] - edges[0] : 0.0);
    for (size_t j = 1; j < edges.size(); ++j) {
      durations[j] = edges[j] - edges[j - 1];
    }
    return accumulate(series, std::move(durations), [&edges](double t) {
      return static_cast<size_t>(
          std::lower_bound(edges.begin(), edges.end(), t) - edges.begin());
    });
  }

  if (rate <= 0.0) return {};
  const double period = 1.0 / rate;

  // Establish the profile time origin: earliest timestamp seen anywhere.
  double origin = std::numeric_limits<double>::infinity();
  for (const auto& ts : series) {
    if (!ts.samples.empty()) origin = std::min(origin, ts.samples.timestamp(0));
  }
  if (!std::isfinite(origin)) return {};

  // Bucket samples from every watcher into period indices. Watcher clocks
  // are unsynchronised (deliberately, section 4.1); bucketing on the
  // common origin reconstructs the recorded ordering across resource
  // types, which is all the emulation semantics require.
  // The epsilon absorbs floating-point jitter when timestamps land
  // exactly on period boundaries (synthetic profiles do).
  const auto bucket_of = [origin, period](double t) {
    return static_cast<size_t>(std::max(0.0, (t - origin) / period + 1e-9));
  };
  size_t max_bucket = 0;
  for (const auto& ts : series) {
    for (const double t : ts.samples.timestamps()) {
      max_bucket = std::max(max_bucket, bucket_of(t));
    }
  }
  return accumulate(series, std::vector<double>(max_bucket + 1, period),
                    bucket_of);
}

std::vector<SampleDelta> Profile::sample_deltas() const {
  const DeltaTable table = delta_table();
  std::vector<SampleDelta> out;
  out.reserve(table.rows());
  for (size_t row = 0; row < table.rows(); ++row) {
    out.push_back(table.unbox(row));
  }
  return out;
}

void Profile::compute_derived() {
  const double used = total(metrics::kCyclesUsed);
  const double stalled_fe = total(metrics::kCyclesStalledFrontend);
  const double stalled_be = total(metrics::kCyclesStalledBackend);
  const double wasted = stalled_fe + stalled_be;

  // efficiency = cycles_used / (cycles_used + cycles_wasted)   (section 4.3)
  if (used + wasted > 0) {
    derived[std::string(metrics::kEfficiency)] = used / (used + wasted);
  }

  // utilization = cycles_used / cycles_max, with cycles_max derived from
  // clock speed, core count and runtime.
  const double tx = runtime();
  const double cycles_max =
      system.max_cpu_freq_hz * static_cast<double>(system.num_cores) * tx;
  if (cycles_max > 0) {
    derived[std::string(metrics::kUtilization)] = used / cycles_max;
  }

  const double flops = total(metrics::kFlops);
  if (tx > 0 && flops > 0) {
    derived[std::string(metrics::kFlopsRate)] = flops / tx;
  }
}

json::Value Profile::to_json() const {
  json::Object root;
  root["command"] = command;
  json::Array jtags;
  for (const auto& t : tags) jtags.push_back(t);
  root["tags"] = std::move(jtags);
  root["sample_rate_hz"] = sample_rate_hz;
  root["created_at"] = created_at;
  root["system"] = system.to_json();

  json::Array jseries;
  for (const auto& ts : series) {
    json::Object jts;
    jts["watcher"] = ts.watcher;
    if (ts.sample_rate_hz > 0) jts["rate_hz"] = ts.sample_rate_hz;
    if (ts.variable_rate) jts["variable_rate"] = true;
    if (ts.gate.any()) {
      json::Object jg;
      jg["floor_hz"] = ts.gate.floor_hz;
      jg["burst_hz"] = ts.gate.burst_hz;
      jg["open_threshold"] = ts.gate.open_threshold;
      jg["close_hold_s"] = ts.gate.close_hold_s;
      jts["gate"] = std::move(jg);
    }
    json::Array jsamples;
    const SampleColumns& cols = ts.samples;
    for (size_t row = 0; row < cols.size(); ++row) {
      json::Object js;
      js["t"] = cols.timestamp(row);
      json::Object jv;
      for (const auto& c : cols.metrics()) {
        if (c.present[row] != 0) jv[c.name] = c.values[row];
      }
      js["v"] = std::move(jv);
      jsamples.push_back(json::Value(std::move(js)));
    }
    jts["samples"] = std::move(jsamples);
    jseries.push_back(json::Value(std::move(jts)));
  }
  root["series"] = std::move(jseries);

  json::Object jtotals;
  for (const auto& [k, v] : totals) jtotals[k] = v;
  root["totals"] = std::move(jtotals);

  json::Object jderived;
  for (const auto& [k, v] : derived) jderived[k] = v;
  root["derived"] = std::move(jderived);
  return json::Value(std::move(root));
}

Profile Profile::from_json(const json::Value& v) {
  Profile p;
  p.command = v.get_or("command", std::string());
  if (v.contains("tags")) {
    for (const auto& t : v["tags"].as_array()) p.tags.push_back(t.as_string());
  }
  p.sample_rate_hz = v.get_or("sample_rate_hz", 10.0);
  p.created_at = v.get_or("created_at", 0.0);
  if (v.contains("system")) p.system = SystemInfo::from_json(v["system"]);

  if (v.contains("series")) {
    for (const auto& jts : v["series"].as_array()) {
      TimeSeries ts;
      ts.watcher = jts.get_or("watcher", std::string());
      ts.sample_rate_hz = jts.get_or("rate_hz", 0.0);
      ts.variable_rate = jts.get_or("variable_rate", false);
      if (jts.contains("gate")) {
        const json::Value& jg = jts["gate"];
        ts.gate.floor_hz = jg.get_or("floor_hz", 0.0);
        ts.gate.burst_hz = jg.get_or("burst_hz", 0.0);
        ts.gate.open_threshold = jg.get_or("open_threshold", 0.0);
        ts.gate.close_hold_s = jg.get_or("close_hold_s", 0.0);
      }
      const auto& jsamples = jts["samples"].as_array();
      ts.samples.reserve(jsamples.size());
      for (const auto& js : jsamples) {
        const size_t row = ts.samples.append_row(js.get_or("t", 0.0));
        for (const auto& [k, val] : js["v"].as_object()) {
          ts.samples.set(row, k, val.as_double());
        }
      }
      p.series.push_back(std::move(ts));
    }
  }
  if (v.contains("totals")) {
    for (const auto& [k, val] : v["totals"].as_object()) {
      p.totals[k] = val.as_double();
    }
  }
  if (v.contains("derived")) {
    for (const auto& [k, val] : v["derived"].as_object()) {
      p.derived[k] = val.as_double();
    }
  }
  return p;
}

namespace {

SystemInfo system_from_arena(const json::ArenaValue& v) {
  SystemInfo s;
  s.hostname = v.get_or("hostname", std::string());
  s.cpu_model = v.get_or("cpu_model", std::string());
  s.num_cores = static_cast<int>(v.get_or("num_cores", 0.0));
  s.max_cpu_freq_hz = v.get_or("max_cpu_freq_hz", 0.0);
  s.total_memory_bytes =
      static_cast<uint64_t>(v.get_or("total_memory_bytes", 0.0));
  s.resource_name = v.get_or("resource_name", std::string());
  return s;
}

}  // namespace

Profile Profile::from_arena(const json::ArenaValue& v) {
  Profile p;
  p.command = v.get_or("command", std::string());
  if (v.contains("tags")) {
    const json::ArenaValue& jt = v["tags"];
    for (const auto* t = jt.items_begin(); t != jt.items_end(); ++t) {
      p.tags.emplace_back(t->as_string());
    }
  }
  p.sample_rate_hz = v.get_or("sample_rate_hz", 10.0);
  p.created_at = v.get_or("created_at", 0.0);
  if (v.contains("system")) p.system = system_from_arena(v["system"]);

  if (v.contains("series")) {
    const json::ArenaValue& jseries = v["series"];
    for (const auto* jts = jseries.items_begin(); jts != jseries.items_end();
         ++jts) {
      TimeSeries ts;
      ts.watcher = jts->get_or("watcher", std::string());
      ts.sample_rate_hz = jts->get_or("rate_hz", 0.0);
      ts.variable_rate = jts->get_or("variable_rate", false);
      if (jts->contains("gate")) {
        const json::ArenaValue& jg = (*jts)["gate"];
        ts.gate.floor_hz = jg.get_or("floor_hz", 0.0);
        ts.gate.burst_hz = jg.get_or("burst_hz", 0.0);
        ts.gate.open_threshold = jg.get_or("open_threshold", 0.0);
        ts.gate.close_hold_s = jg.get_or("close_hold_s", 0.0);
      }
      const json::ArenaValue& jsamples = (*jts)["samples"];
      ts.samples.reserve(jsamples.size());
      for (const auto* js = jsamples.items_begin();
           js != jsamples.items_end(); ++js) {
        const size_t row = ts.samples.append_row(js->get_or("t", 0.0));
        const json::ArenaValue& jv = (*js)["v"];
        for (const auto* m = jv.members_begin(); m != jv.members_end(); ++m) {
          ts.samples.set(row, m->key, m->value.as_double());
        }
      }
      p.series.push_back(std::move(ts));
    }
  }
  if (v.contains("totals")) {
    const json::ArenaValue& jt = v["totals"];
    for (const auto* m = jt.members_begin(); m != jt.members_end(); ++m) {
      p.totals.emplace_hint(p.totals.end(), std::string(m->key),
                            m->value.as_double());
    }
  }
  if (v.contains("derived")) {
    const json::ArenaValue& jd = v["derived"];
    for (const auto* m = jd.members_begin(); m != jd.members_end(); ++m) {
      p.derived.emplace_hint(p.derived.end(), std::string(m->key),
                             m->value.as_double());
    }
  }
  return p;
}

std::string Profile::to_binary() const { return encode_binary(*this); }

Profile Profile::from_binary(std::string_view data) {
  return decode_binary(data);
}

size_t Profile::decoded_bytes() const {
  size_t bytes = sizeof(Profile) + heap_bytes_of(command) +
                 heap_bytes_of(tags) + heap_bytes_of(system.hostname) +
                 heap_bytes_of(system.cpu_model) +
                 heap_bytes_of(system.resource_name) + heap_bytes_of(series) +
                 heap_bytes_of(totals) + heap_bytes_of(derived);
  for (const auto& t : tags) bytes += heap_bytes_of(t);
  for (const auto& ts : series) {
    bytes += heap_bytes_of(ts.watcher) + ts.samples.heap_bytes();
  }
  return bytes;
}

}  // namespace synapse::profile
