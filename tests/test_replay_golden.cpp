// Golden replay fixtures (replay_golden.hpp): every case of the builtin
// scenario catalog must replay to exactly the checked-in table digest
// and non-timing AtomStats, in single and batch mode.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "emulator/replay_engine.hpp"
#include "json/json.hpp"
#include "replay_golden.hpp"

namespace emulator = synapse::emulator;
namespace golden = synapse::golden;
namespace json = synapse::json;

namespace {

const json::Value& fixtures() {
  static const json::Value root =
      json::load_file(std::string(SYNAPSE_TEST_FIXTURE_DIR) +
                      "/replay_golden.json");
  return root;
}

void expect_stats(const json::Value& want, const json::Value& got,
                  const std::string& label) {
  for (const char* field : {"cycles", "flops"}) {
    EXPECT_EQ(golden::parse_hex_double(got[field].as_string()),
              golden::parse_hex_double(want[field].as_string()))
        << label << " " << field;
  }
  for (const char* field :
       {"bytes_read", "bytes_written", "bytes_allocated", "bytes_freed",
        "net_bytes_sent", "net_bytes_received", "samples_consumed"}) {
    EXPECT_EQ(got[field].as_uint(), want[field].as_uint())
        << label << " " << field;
  }
}

/// Replay every case of one variant and compare against its fixture.
void check_variant(const std::string& variant) {
  const golden::ResourceGuard guard;
  const json::Value& all = fixtures()["cases"];
  size_t checked = 0;
  for (const auto& c : golden::cases()) {
    if (c.variant != variant) continue;
    ASSERT_TRUE(all.contains(c.name)) << "no fixture for " << c.name;
    const json::Value& want = all[c.name];
    emulator::ReplayEngine engine(c.options);
    const json::Value got = golden::record(c, engine.replay(c.profile));

    EXPECT_EQ(got["rows"].as_uint(), want["rows"].as_uint()) << c.name;
    EXPECT_EQ(got["table_digest"].as_string(),
              want["table_digest"].as_string())
        << c.name;
    EXPECT_EQ(got["samples_replayed"].as_uint(),
              want["samples_replayed"].as_uint())
        << c.name;
    const auto& want_atoms = want["atoms"].as_object();
    const auto& got_atoms = got["atoms"].as_object();
    ASSERT_EQ(got_atoms.size(), want_atoms.size()) << c.name;
    for (const auto& [name, stats] : want_atoms) {
      ASSERT_TRUE(got_atoms.count(name)) << c.name << "/" << name;
      expect_stats(stats, got_atoms.at(name), c.name + "/" + name);
    }
    ++checked;
  }
  // Every scenario, in both modes.
  EXPECT_EQ(checked, 2 * synapse::workload::builtin_scenarios().size());
}

}  // namespace

TEST(ReplayGolden, FixturesCoverExactlyTheCaseList) {
  std::set<std::string> names;
  for (const auto& c : golden::cases()) names.insert(c.name);
  std::set<std::string> recorded;
  for (const auto& [name, _] : fixtures()["cases"].as_object()) {
    recorded.insert(name);
  }
  EXPECT_EQ(recorded, names);
}

TEST(ReplayGolden, FixedRateCatalog) { check_variant("fixed"); }

TEST(ReplayGolden, VariableRateCatalog) { check_variant("variable"); }

TEST(ReplayGolden, ScaledCatalog) { check_variant("scaled"); }

TEST(ReplayGolden, SynbRoundTripCatalog) { check_variant("synb"); }
