#include "common.hpp"

#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <stdexcept>

#include "atoms/atom_registry.hpp"
#include "emulator/emulator.hpp"
#include "emulator/replay_engine.hpp"
#include "emulator/replay_plan.hpp"
#include "profile/metrics.hpp"
#include "resource/cache_model.hpp"
#include "resource/resource_spec.hpp"
#include "sys/clock.hpp"
#include "trace.hpp"

namespace perfbench {

namespace m = synapse::metrics;
using synapse::atoms::AtomStats;
using synapse::profile::DeltaTable;
using synapse::profile::LaneTable;

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (auto& e : entries_) {
    if (e.first == name) {
      e.second = {value, unit};
      return;
    }
  }
  entries_.push_back({name, {value, unit}});
}

bool Checks::expect(bool ok, const std::string& what) {
  if (!ok && reported_.fetch_add(1) < 10) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
  return ok;
}

double Stopwatch::now() { return synapse::sys::steady_now(); }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double tail(std::vector<double> v) {
  if (v.size() < 21) return median(std::move(v));
  std::sort(v.begin(), v.end());
  return v[v.size() - 11];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

size_t Zipf::operator()(std::mt19937_64& rng) const {
  const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                          cdf_.size() - 1);
}

namespace {

/// `count` distinct sample indices below `n`, seeded — exact event
/// counts keep every seed's profiles equally heavy.
std::vector<bool> pick(size_t n, size_t count, std::mt19937_64& rng) {
  std::vector<size_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = i;
  std::shuffle(idx.begin(), idx.end(), rng);
  std::vector<bool> out(n, false);
  for (size_t i = 0; i < std::min(count, n); ++i) out[idx[i]] = true;
  return out;
}

size_t share(size_t n, double fraction) {
  return static_cast<size_t>(std::lround(fraction * static_cast<double>(n)));
}

}  // namespace

synapse::profile::Profile synth_profile(const std::string& command,
                                        const std::vector<std::string>& tags,
                                        double created_at,
                                        const SynthSpec& spec,
                                        std::mt19937_64& rng) {
  using synapse::profile::Sample;
  using synapse::profile::TimeSeries;
  const size_t n = spec.samples;
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const std::vector<bool> allocs = pick(n, share(n, spec.alloc_prob), rng);
  const std::vector<bool> reads = pick(n, share(n, spec.read_prob), rng);
  // Bursts start one per equal segment, at a seeded offset inside it, so
  // they never overlap and their count is exact.
  std::vector<bool> writes(n, false);
  const size_t bursts = share(n, spec.burst_prob);
  for (size_t b = 0; b < bursts; ++b) {
    const size_t segment = n / bursts;
    const size_t room = segment > spec.burst_len ? segment - spec.burst_len : 1;
    const size_t start = b * segment + rng() % room;
    for (size_t i = start; i < std::min(n, start + spec.burst_len); ++i) {
      writes[i] = true;
    }
  }

  synapse::profile::Profile p;
  p.command = command;
  p.tags = tags;
  p.sample_rate_hz = spec.rate_hz;
  p.created_at = created_at;
  p.system.resource_name = synapse::resource::active_resource().name;
  p.system.num_cores = 1;

  TimeSeries cpu{"cpu", spec.rate_hz, false, {}, {}};
  TimeSeries mem{"mem", spec.rate_hz, false, {}, {}};
  TimeSeries io{"io", spec.rate_hz, false, {}, {}};
  double cycles = 0.0;
  double allocated = 0.0, freed = 0.0, written = 0.0, read = 0.0;
  std::deque<size_t> frees;  // sample index at which an allocation is freed
  for (size_t i = 0; i < n; ++i) {
    cycles += spec.cycles_lo + (spec.cycles_hi - spec.cycles_lo) * unit(rng);
    if (allocs[i]) {
      allocated += static_cast<double>(spec.alloc_bytes);
      frees.push_back(i + 5);
    }
    while (!frees.empty() && frees.front() <= i) {
      freed += static_cast<double>(spec.alloc_bytes);
      frees.pop_front();
    }
    if (writes[i]) written += static_cast<double>(spec.write_bytes);
    if (reads[i]) read += static_cast<double>(spec.read_bytes);

    Sample s;
    s.timestamp = created_at + static_cast<double>(i) / spec.rate_hz;
    s.set(m::kCyclesUsed, cycles);
    cpu.samples.push_back(s);
    s.values.clear();
    s.set(m::kMemAllocated, allocated);
    s.set(m::kMemFreed, freed);
    mem.samples.push_back(s);
    s.values.clear();
    s.set(m::kBytesWritten, written);
    s.set(m::kBytesRead, read);
    io.samples.push_back(s);
  }
  p.series = {std::move(cpu), std::move(mem), std::move(io)};
  p.totals[std::string(m::kRuntime)] =
      static_cast<double>(n) / spec.rate_hz;
  p.totals[std::string(m::kCyclesUsed)] = cycles;
  p.totals[std::string(m::kMemAllocated)] = allocated;
  p.totals[std::string(m::kBytesWritten)] = written;
  p.totals[std::string(m::kBytesRead)] = read;
  return p;
}

uint64_t dir_bytes(const std::string& dir) {
  namespace fs = std::filesystem;
  uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

ExpectedStats expected_stats(const DeltaTable& table) {
  ExpectedStats out;
  const LaneTable& lanes = table.lanes();
  const uint32_t cycles = lanes.id(m::kCyclesUsed);
  const uint32_t allocated = lanes.id(m::kMemAllocated);
  const uint32_t freed = lanes.id(m::kMemFreed);
  const uint32_t read = lanes.id(m::kBytesRead);
  const uint32_t written = lanes.id(m::kBytesWritten);

  const double bias = synapse::resource::calibration_bias(
      synapse::resource::asm_kernel_traits(),
      synapse::resource::active_resource());
  const synapse::atoms::MemoryAtomOptions mem_opts;
  std::deque<uint64_t> blocks;  // the memory atom's held blocks, oldest first
  uint64_t held = 0;

  for (size_t row = 0; row < table.rows(); ++row) {
    const double c = table.get(cycles, row);
    if (c > 0) {
      out.compute.cycles += c * bias;
      out.compute.samples_consumed += 1;
    }

    const double a = table.get(allocated, row);
    const double f = table.get(freed, row);
    if (a > 0 || f > 0) {
      for (auto bytes = static_cast<uint64_t>(a); bytes > 0;) {
        const uint64_t chunk = std::min(bytes, mem_opts.block_bytes);
        blocks.push_back(chunk);
        held += chunk;
        out.memory.bytes_allocated += chunk;
        bytes -= chunk;
        while (held > mem_opts.max_held_bytes && !blocks.empty()) {
          held -= blocks.front();
          out.memory.bytes_freed += blocks.front();
          blocks.pop_front();
        }
      }
      for (auto bytes = static_cast<uint64_t>(f); bytes > 0 && !blocks.empty();) {
        const uint64_t block = blocks.front();
        blocks.pop_front();
        held -= block;
        out.memory.bytes_freed += block;
        bytes -= std::min(bytes, block);
      }
      out.memory.samples_consumed += 1;
    }

    const double r = table.get(read, row);
    const double w = table.get(written, row);
    if (r > 0 || w > 0) {
      out.storage.bytes_read += static_cast<uint64_t>(r);
      out.storage.bytes_written += static_cast<uint64_t>(w);
      out.storage.samples_consumed += 1;
    }
  }
  return out;
}

bool same_counts(const AtomStats& got, const AtomStats& want, const char* atom,
                 Checks& checks) {
  const auto field = [&](bool ok, const char* name) {
    return checks.expect(ok, std::string(atom) + " " + name +
                                 " differs from the table's lane sums");
  };
  bool ok = field(got.cycles == want.cycles, "cycles");
  ok = field(got.bytes_read == want.bytes_read, "bytes_read") && ok;
  ok = field(got.bytes_written == want.bytes_written, "bytes_written") && ok;
  ok = field(got.bytes_allocated == want.bytes_allocated, "bytes_allocated") &&
       ok;
  ok = field(got.bytes_freed == want.bytes_freed, "bytes_freed") && ok;
  ok = field(got.samples_consumed == want.samples_consumed,
             "samples_consumed") &&
       ok;
  return ok;
}

KernelTimes time_kernels(const synapse::profile::Profile& profile) {
  namespace emu = synapse::emulator;
  static const std::map<std::string, const char*> kSpanNames = {
      {"compute", "atoms.compute.consume_frame"},
      {"memory", "atoms.memory.consume_frame"},
      {"storage", "atoms.storage.consume_frame"}};

  const emu::EmulatorOptions opts;
  const synapse::atoms::AtomBuildContext context{opts.compute, opts.memory,
                                                 opts.storage, opts.network};
  const std::vector<std::string> names =
      emu::ReplayEngine::resolve_atom_set(opts);
  std::vector<std::unique_ptr<synapse::atoms::Atom>> active;
  for (const auto& name : names) {
    active.push_back(
        synapse::atoms::AtomRegistry::instance().create(name, context));
  }

  KernelTimes out;
  const double t0 = synapse::sys::steady_now();
  const auto plan = span("emulator.plan_compile", [&] {
    return std::make_unique<emu::ReplayPlan>(profile, opts, active);
  });
  out.plan_s = synapse::sys::steady_now() - t0;

  const DeltaTable& table = plan->table();
  for (size_t i = 0; i < active.size(); ++i) {
    const auto& mask = plan->mask(i);
    const auto name = kSpanNames.find(names[i]);
    if (mask.idle || mask.adapter || name == kSpanNames.end()) continue;
    const double start = synapse::sys::steady_now();
    span(name->second, [&] {
      active[i]->consume_frame(table.frame(0, table.rows()), mask);
    });
    out.kernel_s[names[i]] = synapse::sys::steady_now() - start;
    out.busy_s[names[i]] = active[i]->stats().busy_seconds;
  }
  return out;
}

void ReplayLayers::add(const synapse::emulator::EmulationResult& result,
                       const KernelTimes& kernels) {
  startup_s_.push_back(result.startup_seconds);
  const double feed = result.wall_seconds - result.startup_seconds -
                      kernels.plan_s;
  feed_s_.push_back(feed);
  double slowest = 0.0;
  double unaccounted = 0.0;
  for (const auto& [atom, s] : kernels.kernel_s) {
    slowest = std::max(slowest, s);
    const double busy = kernels.busy_s.at(atom);
    busy_s_[atom].push_back(busy);
    unaccounted += s - busy;
  }
  unaccounted_s_.push_back(unaccounted);
  if (result.samples_replayed > 0) {
    dispatch_s_.push_back((feed - slowest) /
                          static_cast<double>(result.samples_replayed));
  }
}

void ReplayLayers::report(Metrics& layer) const {
  layer.set("emulator.startup_ms", 1e3 * median(startup_s_), "ms");
  layer.set("emulator.feed_ms", 1e3 * median(feed_s_), "ms");
  layer.set("emulator.dispatch_us_per_sample", 1e6 * median(dispatch_s_),
            "us");
  // kernel_ms is the span median of the same probe (add_span_metrics).
  for (const char* atom : {"compute", "memory", "storage"}) {
    const auto b = busy_s_.find(atom);
    layer.set(std::string("atoms.") + atom + ".busy_ms",
              b == busy_s_.end() ? 0.0 : 1e3 * median(b->second), "ms");
  }
  layer.set("atoms.unaccounted_ms", 1e3 * median(unaccounted_s_), "ms");
}

bool same_profile(const synapse::profile::Profile& got,
                  const synapse::profile::Profile& want, Checks& checks,
                  size_t* encoded_bytes) {
  const std::string what = "stored profile of '" + want.command + "' ";
  bool ok = checks.expect(got.command == want.command, what + "command");
  ok = checks.expect(got.tags == want.tags, what + "tags") && ok;
  ok = checks.expect(got.created_at == want.created_at, what + "created_at") &&
       ok;
  ok = checks.expect(got.sample_count() == want.sample_count(),
                     what + "sample count") &&
       ok;
  const std::string a = span("profile.encode", [&] { return got.to_binary(); });
  const std::string b = span("profile.encode", [&] { return want.to_binary(); });
  ok = checks.expect(a == b, what + "encoded bytes") && ok;
  const auto back = span("profile.decode", [&] {
    return synapse::profile::Profile::from_binary(a);
  });
  ok = checks.expect(back.sample_count() == want.sample_count() &&
                         back.created_at == want.created_at,
                     what + "decode of its encoding") &&
       ok;
  if (encoded_bytes != nullptr) *encoded_bytes = a.size();
  return ok;
}

synapse::emulator::EmulationResult session_emulate(
    synapse::Session& session, const std::string& command,
    const std::vector<std::string>& tags, bool traced) {
  if (!traced) return session.emulate(command, tags);
  return span("core.emulate", [&] {
    const auto p = span("profile.store_find_hot", [&] {
      return session.store().find_latest_shared(command, tags);
    });
    if (!p) throw std::runtime_error("no profile stored for " + command);
    return span("emulator.emulate", [&] {
      synapse::emulator::Emulator emu(session.options().emulator);
      return emu.emulate(*p);
    });
  });
}

double bytes_per_profile(const std::string& dir,
                         const synapse::profile::ProfileStore& store) {
  return static_cast<double>(dir_bytes(dir)) /
         static_cast<double>(std::max<size_t>(1, store.size()));
}

void add_span_metrics(Metrics& layer) {
  struct SpanMetric {
    const char* metric;
    const char* span;
    double scale;
    const char* unit;
    bool use_tail;
  };
  static const SpanMetric kMetrics[] = {
      {"watchers.profile_call_ms", "watchers.profile", 1e3, "ms", false},
      {"profile.encode_us", "profile.encode", 1e6, "us", false},
      {"profile.decode_us", "profile.decode", 1e6, "us", false},
      {"profile.delta_table_us", "profile.delta_table", 1e6, "us", false},
      {"json.dump_us", "json.dump", 1e6, "us", false},
      {"json.parse_us", "json.parse", 1e6, "us", false},
      {"profile.store_open_ms", "profile.store_open", 1e3, "ms", false},
      {"profile.store_put_p50_ms", "profile.store_put", 1e3, "ms", false},
      {"profile.store_put_tail_ms", "profile.store_put", 1e3, "ms", true},
      {"profile.store_find_cold_ms", "profile.store_find_cold", 1e3, "ms",
       false},
      {"profile.store_find_hot_us", "profile.store_find_hot", 1e6, "us",
       false},
      {"profile.store_find_hit_us", "profile.store_find_hit", 1e6, "us",
       false},
      {"profile.store_stats_ms", "profile.store_stats", 1e3, "ms", false},
      {"emulator.plan_compile_ms", "emulator.plan_compile", 1e3, "ms", false},
      {"atoms.compute.kernel_ms", "atoms.compute.consume_frame", 1e3, "ms",
       false},
      {"atoms.memory.kernel_ms", "atoms.memory.consume_frame", 1e3, "ms",
       false},
      {"atoms.storage.kernel_ms", "atoms.storage.consume_frame", 1e3, "ms",
       false},
      {"core.profile_ms", "core.profile", 1e3, "ms", false},
      {"core.emulate_ms", "core.emulate", 1e3, "ms", false},
  };
  for (const SpanMetric& sm : kMetrics) {
    std::vector<double> d = Tracer::durations(sm.span);
    layer.set(sm.metric, sm.scale * (sm.use_tail ? tail(d) : median(d)),
              sm.unit);
  }
}

}  // namespace perfbench
