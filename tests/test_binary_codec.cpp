// SYNB binary columnar container (profile/binary_codec.hpp): lossless
// round trips across the scenario catalog with bit-identical replay
// deltas, size bounds against compact JSON, and loud rejection of
// truncated/corrupt/foreign payloads.

#include "profile/binary_codec.hpp"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "json/json.hpp"
#include "profile/profile.hpp"
#include "workload/scenario.hpp"

namespace json = synapse::json;
namespace profile = synapse::profile;
namespace workload = synapse::workload;

using profile::CodecError;

namespace {

/// Catalog profiles plus hand-built edge cases (empty profile, series
/// with holes so presence bitmaps are exercised, negative/huge values).
std::vector<profile::Profile> fixture_profiles() {
  std::vector<profile::Profile> out;
  for (const auto& spec : workload::builtin_scenarios()) {
    out.push_back(spec.make_profile());
  }

  profile::Profile empty;
  empty.command = "empty";
  out.push_back(std::move(empty));

  profile::Profile holes;
  holes.command = "holes \"quoted\" \xc3\xa9";  // header escaping
  holes.tags = {"b-tag", "a-tag"};
  holes.sample_rate_hz = 7.5;
  holes.created_at = 1.5e9;
  holes.totals["cycles_used"] = 1e12;
  holes.derived["flops_per_cycle"] = 0.25;
  profile::TimeSeries ts;
  ts.watcher = "cpu";
  ts.sample_rate_hz = 5.0;
  for (int i = 0; i < 10; ++i) {
    profile::Sample s;
    s.timestamp = 100.0 + 0.2 * i;
    s.values["cycles_used"] = 1e9 + i;           // dense
    if (i % 3 == 0) s.values["io_wait"] = -0.5;  // sparse, negative
    if (i == 7) s.values["rare"] = 1e300;        // near-max double
    ts.samples.push_back(std::move(s));
  }
  holes.series.push_back(std::move(ts));
  profile::TimeSeries none;
  none.watcher = "idle";
  none.sample_rate_hz = 1.0;
  holes.series.push_back(std::move(none));
  out.push_back(std::move(holes));

  // Adaptively recorded profile: variable-rate series with gate
  // metadata and a burst-idle-burst timestamp trajectory, mixed with a
  // fixed-rate sibling. Exercises the v2 per-series flags byte and the
  // timestamp-bucketing parity path.
  profile::Profile gated;
  gated.command = "gated";
  gated.sample_rate_hz = 100.0;
  profile::TimeSeries vcpu;
  vcpu.watcher = "cpu";
  vcpu.sample_rate_hz = 100.0;
  vcpu.variable_rate = true;
  vcpu.gate.floor_hz = 2.0;
  vcpu.gate.burst_hz = 100.0;
  vcpu.gate.open_threshold = 0.5;
  vcpu.gate.close_hold_s = 0.25;
  const double trajectory[] = {5.00, 5.01, 5.02, 5.03, 7.50, 7.51, 7.52};
  double cycles = 0.0;
  for (const double t : trajectory) {
    profile::Sample s;
    s.timestamp = t;
    cycles += 1e6;
    s.values["cycles_used"] = cycles;
    vcpu.samples.push_back(std::move(s));
  }
  gated.series.push_back(std::move(vcpu));
  profile::TimeSeries fmem;
  fmem.watcher = "mem";  // fixed-rate sibling: flags byte stays 0
  fmem.sample_rate_hz = 10.0;
  for (int i = 0; i < 4; ++i) {
    profile::Sample s;
    s.timestamp = 5.0 + 0.1 * i;
    s.values["mem_resident"] = 4096.0 * (i + 1);
    fmem.samples.push_back(std::move(s));
  }
  gated.series.push_back(std::move(fmem));
  out.push_back(std::move(gated));
  return out;
}

/// Replay-input equality, bitwise: same buckets, same metrics, same
/// double bits (a decoded profile must be indistinguishable from the
/// profile it was encoded from).
void expect_same_deltas(const std::vector<profile::SampleDelta>& a,
                        const std::vector<profile::SampleDelta>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].duration, b[i].duration) << "bucket " << i;
    ASSERT_EQ(a[i].deltas.size(), b[i].deltas.size()) << "bucket " << i;
    auto it_a = a[i].deltas.begin();
    auto it_b = b[i].deltas.begin();
    for (; it_a != a[i].deltas.end(); ++it_a, ++it_b) {
      EXPECT_EQ(it_a->first, it_b->first) << "bucket " << i;
      EXPECT_EQ(it_a->second, it_b->second)
          << "bucket " << i << " metric " << it_a->first;
    }
  }
}

}  // namespace

TEST(BinaryCodec, RoundTripIsLosslessAcrossCatalog) {
  for (const auto& p : fixture_profiles()) {
    const std::string blob = p.to_binary();
    const profile::Profile back = profile::Profile::from_binary(blob);
    // Identical JSON projection == identical identity, system info,
    // totals, derived, and every series/sample/value.
    EXPECT_EQ(json::dump(back.to_json()), json::dump(p.to_json()))
        << p.command;
    // Re-encoding is deterministic and stable.
    EXPECT_EQ(back.to_binary(), blob) << p.command;
  }
}

TEST(BinaryCodec, DecodedDeltasMatchAuthoredBitForBit) {
  for (const auto& p : fixture_profiles()) {
    const profile::Profile decoded =
        profile::Profile::from_binary(p.to_binary());
    // `p` was authored sample by sample, `decoded` filled its columns
    // from SYNB: the bucketing kernel must not tell them apart.
    expect_same_deltas(decoded.sample_deltas(), p.sample_deltas());
    EXPECT_EQ(decoded.delta_table().lanes().names(),
              p.delta_table().lanes().names())
        << p.command;
  }
}

TEST(BinaryCodec, V2CarriesVariableRateAndGateMetadata) {
  const auto fixtures = fixture_profiles();
  const auto& gated = fixtures.back();  // the adaptive fixture above
  ASSERT_EQ(gated.command, "gated");
  const profile::Profile back =
      profile::Profile::from_binary(gated.to_binary());
  ASSERT_EQ(back.series.size(), 2u);
  EXPECT_TRUE(back.series[0].variable_rate);
  EXPECT_DOUBLE_EQ(back.series[0].gate.floor_hz, 2.0);
  EXPECT_DOUBLE_EQ(back.series[0].gate.burst_hz, 100.0);
  EXPECT_DOUBLE_EQ(back.series[0].gate.open_threshold, 0.5);
  EXPECT_DOUBLE_EQ(back.series[0].gate.close_hold_s, 0.25);
  EXPECT_FALSE(back.series[1].variable_rate);
  EXPECT_FALSE(back.series[1].gate.any());
  EXPECT_TRUE(back.variable_rate());
}

TEST(BinaryCodec, ColumnEditsOfDecodedProfileReachDeltas) {
  // A decoded profile keeps no encoded payload that could shadow its
  // columns: an in-place edit shows up in the deltas and the re-encode.
  const profile::Profile src = fixture_profiles().back();
  profile::Profile decoded = profile::Profile::from_binary(src.to_binary());
  auto& cpu = decoded.series[0].samples;
  ASSERT_EQ(cpu.size(), 7u);
  cpu.set(6, "cycles_used", cpu.get(6, "cycles_used") + 5e5);
  const auto deltas = decoded.sample_deltas();
  ASSERT_FALSE(deltas.empty());
  EXPECT_DOUBLE_EQ(deltas.back().get("cycles_used"), 1.5e6);
  EXPECT_NE(decoded.to_binary(), src.to_binary());
  expect_same_deltas(
      profile::Profile::from_binary(decoded.to_binary()).sample_deltas(),
      deltas);
}

TEST(BinaryCodec, UnsortedMetricDictionaryRejected) {
  profile::Profile p;
  p.command = "dict";
  profile::TimeSeries ts;
  ts.watcher = "cpu";
  profile::Sample s;
  s.set("aa_metric", 1.0);
  s.set("bb_metric", 2.0);
  ts.samples.push_back(s);
  p.series.push_back(std::move(ts));
  std::string blob = p.to_binary();
  // Swap the two dictionary names in place: same framing, wrong order.
  const size_t a = blob.find("aa_metric");
  const size_t b = blob.find("bb_metric");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(b, std::string::npos);
  blob.replace(a, 9, "bb_metric");
  blob.replace(b, 9, "aa_metric");
  EXPECT_THROW(profile::decode_binary(blob), CodecError);
}

TEST(BinaryCodec, BinaryIsAtMostHalfOfCompactJsonOnCatalog) {
  // The acceptance bar: across the catalog, SYNB costs <= 50% of the
  // compact JSON encoding (tiny profiles are header-dominated, so the
  // bound is on the aggregate).
  size_t json_bytes = 0;
  size_t synb_bytes = 0;
  for (const auto& spec : workload::builtin_scenarios()) {
    const profile::Profile p = spec.make_profile();
    json_bytes += json::dump(p.to_json()).size();
    synb_bytes += p.to_binary().size();
  }
  EXPECT_LE(synb_bytes * 2, json_bytes)
      << synb_bytes << " binary vs " << json_bytes << " JSON bytes";
}

TEST(BinaryCodec, SniffsMagic) {
  const profile::Profile p = fixture_profiles().front();
  EXPECT_TRUE(profile::looks_like_binary_profile(p.to_binary()));
  EXPECT_FALSE(profile::looks_like_binary_profile(json::dump(p.to_json())));
  EXPECT_FALSE(profile::looks_like_binary_profile(""));
  EXPECT_FALSE(profile::looks_like_binary_profile("SYN"));
}

TEST(BinaryCodec, IdentityDecodesWithoutColumns) {
  profile::Profile p;
  p.command = "ident-cmd";
  p.tags = {"x", "y"};
  p.created_at = 123.5;
  const auto info = profile::decode_binary_identity(p.to_binary());
  EXPECT_EQ(info.command, "ident-cmd");
  EXPECT_EQ(info.tags, (std::vector<std::string>{"x", "y"}));
  EXPECT_DOUBLE_EQ(info.created_at, 123.5);
}

TEST(BinaryCodec, RejectsWrongMagic) {
  std::string blob = fixture_profiles().front().to_binary();
  blob[0] = 'X';
  try {
    profile::decode_binary(blob);
    FAIL() << "expected CodecError";
  } catch (const CodecError& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos)
        << e.what();
  }
}

TEST(BinaryCodec, RejectsUnsupportedVersion) {
  std::string blob = fixture_profiles().front().to_binary();
  blob[4] = 9;  // version u32 lives right after the magic
  try {
    profile::decode_binary(blob);
    FAIL() << "expected CodecError";
  } catch (const CodecError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported SYNB version 9"),
              std::string::npos)
        << e.what();
  }
}

TEST(BinaryCodec, EveryTruncationThrowsWithDiagnostics) {
  const std::string blob = fixture_profiles().back().to_binary();
  for (size_t cut = 0; cut < blob.size(); ++cut) {
    try {
      profile::decode_binary(std::string_view(blob).substr(0, cut));
      FAIL() << "cut at " << cut << " decoded";
    } catch (const CodecError& e) {
      // Diagnostics name the container, not just "error".
      EXPECT_NE(std::string(e.what()).find("SYNB"), std::string::npos)
          << "cut " << cut << ": " << e.what();
    }
  }
}

TEST(BinaryCodec, ByteMutationsNeverCrash) {
  // Single-byte corruption must either still decode (payload bytes are
  // arbitrary doubles) or throw CodecError — never crash or exhaust
  // memory on a corrupt count.
  const std::string blob = fixture_profiles().back().to_binary();
  std::mt19937 rng(11);
  for (int trial = 0; trial < 1000; ++trial) {
    std::string mutated = blob;
    const size_t pos =
        std::uniform_int_distribution<size_t>(0, blob.size() - 1)(rng);
    mutated[pos] = static_cast<char>(
        std::uniform_int_distribution<int>(0, 255)(rng));
    try {
      const profile::Profile p = profile::decode_binary(mutated);
      (void)p.sample_deltas();  // decoded fine: replay input must too
    } catch (const CodecError&) {
      // Expected for framing corruption.
    }
  }
  SUCCEED();
}

TEST(BinaryCodec, TrailingGarbageRejected) {
  const std::string blob = fixture_profiles().front().to_binary() + "x";
  try {
    profile::decode_binary(blob);
    FAIL() << "expected CodecError";
  } catch (const CodecError& e) {
    EXPECT_NE(std::string(e.what()).find("trailing"), std::string::npos)
        << e.what();
  }
}

TEST(BinaryCodec, Base64RoundTripsAllLengths) {
  std::string raw;
  for (int len = 0; len <= 64; ++len) {
    const std::string encoded = profile::base64_encode(raw);
    EXPECT_EQ(profile::base64_decode(encoded), raw) << "len " << len;
    raw.push_back(static_cast<char>(len * 37 + 250));  // includes >127
  }
}

TEST(BinaryCodec, Base64RejectsMalformedInput) {
  EXPECT_THROW(profile::base64_decode("abc"), CodecError);     // length % 4
  EXPECT_THROW(profile::base64_decode("ab!d"), CodecError);    // alphabet
  EXPECT_THROW(profile::base64_decode("=abc"), CodecError);    // padding
  EXPECT_THROW(profile::base64_decode("ab=c"), CodecError);    // padding
  EXPECT_NO_THROW(profile::base64_decode("abc="));
  EXPECT_NO_THROW(profile::base64_decode("ab=="));
}
