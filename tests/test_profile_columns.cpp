// The columnar sample store (profile::SampleColumns): authoring through
// Sample rows, column edits, and an honest decoded-size estimate —
// Profile::decoded_bytes() is what the store's cache budget charges, so
// it must track what the allocator really hands out.

#include <gtest/gtest.h>
#include <malloc.h>

#include <random>
#include <string>
#include <vector>

#include "json/arena.hpp"
#include "json/json.hpp"
#include "profile/metrics.hpp"
#include "profile/profile.hpp"

namespace json = synapse::json;
namespace profile = synapse::profile;
namespace m = synapse::metrics;

namespace {

// mallinfo2() only sees glibc's allocator; sanitizers replace it.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kGlibcAllocator = false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
constexpr bool kGlibcAllocator = false;
#else
constexpr bool kGlibcAllocator = true;
#endif
#else
constexpr bool kGlibcAllocator = true;
#endif

profile::Sample sample(double t, std::vector<std::pair<std::string_view, double>> values) {
  profile::Sample s;
  s.timestamp = t;
  for (const auto& [k, v] : values) s.set(k, v);
  return s;
}

/// A profile shaped like a recorder's repetition: cpu, mem and io
/// series of `n` samples each, five cumulative metrics, a few totals.
profile::Profile recorder_profile(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  profile::Profile p;
  p.command = "recorder-" + std::to_string(seed);
  p.tags = {"churn", "wl-" + std::to_string(seed)};
  p.sample_rate_hz = 10.0;
  p.created_at = 1.7e9 + static_cast<double>(seed);
  profile::TimeSeries cpu{"cpu", 10.0, false, {}, {}};
  profile::TimeSeries mem{"mem", 10.0, false, {}, {}};
  profile::TimeSeries io{"io", 10.0, false, {}, {}};
  double cycles = 0, alloc = 0, freed = 0, written = 0, read = 0;
  for (size_t i = 0; i < n; ++i) {
    const double t = p.created_at + static_cast<double>(i) / 10.0;
    cycles += 1e6 * unit(rng);
    alloc += unit(rng) < 0.1 ? 4096 : 0;
    freed += unit(rng) < 0.05 ? 4096 : 0;
    written += unit(rng) < 0.2 ? 65536 : 0;
    read += unit(rng) < 0.05 ? 8192 : 0;
    cpu.samples.push_back(sample(t, {{m::kCyclesUsed, cycles}}));
    mem.samples.push_back(
        sample(t, {{m::kMemAllocated, alloc}, {m::kMemFreed, freed}}));
    io.samples.push_back(
        sample(t, {{m::kBytesWritten, written}, {m::kBytesRead, read}}));
  }
  p.series = {std::move(cpu), std::move(mem), std::move(io)};
  p.totals[std::string(m::kRuntime)] = static_cast<double>(n) / 10.0;
  p.totals[std::string(m::kCyclesUsed)] = cycles;
  p.totals[std::string(m::kMemAllocated)] = alloc;
  p.totals[std::string(m::kBytesWritten)] = written;
  p.totals[std::string(m::kBytesRead)] = read;
  return p;
}

size_t heap_in_use() { return mallinfo2().uordblks; }

/// Decode every blob with `decode`, keeping the results alive, and
/// return {allocator growth, sum of decoded_bytes()}.
template <typename Decode>
std::pair<double, double> measure(const std::vector<std::string>& blobs,
                                  Decode decode) {
  std::vector<profile::Profile> kept;
  const size_t before = heap_in_use();
  kept.reserve(blobs.size());
  for (const auto& b : blobs) kept.push_back(decode(b));
  const size_t after = heap_in_use();
  double estimated = 0;
  for (const auto& p : kept) estimated += static_cast<double>(p.decoded_bytes());
  return {static_cast<double>(after) - static_cast<double>(before), estimated};
}

}  // namespace

TEST(SampleColumns, PushBackBackfillsMetricsFirstSeenLater) {
  profile::SampleColumns cols;
  cols.push_back(sample(1.0, {{"b.metric", 1.0}}));
  cols.push_back(sample(2.0, {{"a.metric", 5.0}, {"b.metric", 2.0}}));
  cols.push_back(sample(3.0, {}));
  ASSERT_EQ(cols.size(), 3u);
  ASSERT_EQ(cols.metrics().size(), 2u);
  EXPECT_EQ(cols.metrics()[0].name, "a.metric");  // sorted by name
  EXPECT_EQ(cols.metrics()[1].name, "b.metric");
  for (const auto& c : cols.metrics()) {
    EXPECT_EQ(c.values.size(), 3u) << c.name;
    EXPECT_EQ(c.present.size(), 3u) << c.name;
  }
  EXPECT_EQ(cols.get(0, "a.metric", -1.0), -1.0);  // absent, not 0
  EXPECT_EQ(cols.get(1, "a.metric"), 5.0);
  EXPECT_EQ(cols.get(2, "b.metric", -1.0), -1.0);
  EXPECT_EQ(cols.find("c.metric"), nullptr);
  EXPECT_EQ(cols.timestamps(), (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(SampleColumns, EditsMatchAuthoringTheEditedSamples) {
  profile::Profile edited;
  edited.command = "edit";
  profile::TimeSeries ts{"cpu", 10.0, false, {}, {}};
  for (int i = 0; i < 4; ++i) {
    ts.samples.push_back(sample(i * 0.1, {{m::kCyclesUsed, 10.0 * i},
                                          {m::kInstructions, 20.0 * i}}));
  }
  edited.series.push_back(ts);
  auto& cols = edited.series[0].samples;
  cols.erase_metric(m::kInstructions);
  cols.set(2, m::kCyclesUsed, 99.0);
  cols.set(3, m::kTaskClock, 0.5);
  cols.set_timestamp(3, 0.35);

  profile::Profile authored;
  authored.command = "edit";
  profile::TimeSeries want{"cpu", 10.0, false, {}, {}};
  want.samples.push_back(sample(0.0, {{m::kCyclesUsed, 0.0}}));
  want.samples.push_back(sample(0.1, {{m::kCyclesUsed, 10.0}}));
  want.samples.push_back(sample(0.2, {{m::kCyclesUsed, 99.0}}));
  want.samples.push_back(
      sample(0.35, {{m::kCyclesUsed, 30.0}, {m::kTaskClock, 0.5}}));
  authored.series.push_back(want);
  EXPECT_EQ(edited.to_binary(), authored.to_binary());
  EXPECT_EQ(json::dump(edited.to_json()), json::dump(authored.to_json()));
}

TEST(ProfileFootprint, DecodedBytesTracksTheAllocator) {
  if (!kGlibcAllocator) GTEST_SKIP() << "allocator replaced by a sanitizer";
  // Within 25% of what mallinfo2() sees the decodes keep, for SYNB and
  // for both JSON extractors: the store-wide cache budget bounds real
  // memory only if this estimate is honest.
  constexpr size_t kProfiles = 400;
  std::vector<std::string> synb, text;
  for (size_t i = 0; i < kProfiles; ++i) {
    const profile::Profile p = recorder_profile(10 + i % 21, i);
    synb.push_back(p.to_binary());
    text.push_back(json::dump(p.to_json()));
  }
  const auto check = [](const char* what, std::pair<double, double> r) {
    const auto [grown, estimated] = r;
    ASSERT_GT(grown, 0.0) << what;
    EXPECT_NEAR(estimated / grown, 1.0, 0.25)
        << what << ": allocator grew " << grown << " B, decoded_bytes() sums "
        << estimated << " B";
  };
  check("SYNB", measure(synb, [](const std::string& b) {
          return profile::Profile::from_binary(b);
        }));
  check("JSON (heap DOM)", measure(text, [](const std::string& b) {
          return profile::Profile::from_json(json::parse(b));
        }));
  check("JSON (arena)", measure(text, [](const std::string& b) {
          json::Arena arena;
          return profile::Profile::from_arena(json::parse(b, arena));
        }));
}
