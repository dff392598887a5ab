// Writes the golden replay fixtures (see replay_golden.hpp) to the path
// given as the only argument: every case replayed once, its table
// digest and non-timing AtomStats recorded.
//
// Usage: replay_golden_gen OUT.json

#include <cstdio>

#include "emulator/replay_engine.hpp"
#include "replay_golden.hpp"

namespace golden = synapse::golden;
namespace json = synapse::json;

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: replay_golden_gen OUT.json\n");
    return 2;
  }
  const golden::ResourceGuard guard;
  json::Object cases;
  for (const auto& c : golden::cases()) {
    synapse::emulator::ReplayEngine engine(c.options);
    cases[c.name] = golden::record(c, engine.replay(c.profile));
  }
  json::Object root;
  root["resource"] = golden::kResource;
  root["cases"] = std::move(cases);
  json::save_file(argv[1], root);
  return 0;
}
