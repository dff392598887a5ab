#pragma once
// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded only from the benchmark's own files, around each
// call it makes into a library layer (`span("profile.store_put", ...)`);
// nothing inside src/ is instrumented. A span's layer is its name up to
// the first '.', so "profile.store_put" belongs to the profile layer.
//
// Each thread appends to its own buffer (no locking on the hot path);
// parents are tracked with a per-thread stack, so a span's parent is
// whichever span of the same thread was open when it began. Buffers stay
// in memory until the run ends and are then analysed (self times) and
// written out as JSON lines.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  ///< static string, "<layer>.<what>"
  double start = 0.0;     ///< steady-clock seconds
  double end = 0.0;
  int32_t parent = -1;    ///< index in the same thread's buffer, -1 = root
  int64_t op = -1;        ///< op id; -1 = set-up
  uint32_t thread = 0;    ///< buffer index
};

/// Per-op breakdown of one traced op: its wall time and the self time
/// (span duration minus the part its child spans cover) summed per layer.
struct OpBreakdown {
  double wall_s = 0.0;
  std::map<std::string, double> self_s;  ///< layer -> seconds
};

class Tracer {
 public:
  /// Whether spans are recorded on the calling thread right now.
  static bool active();
  /// Start / stop recording on the calling thread, tagging spans with
  /// `op` (-1 for work outside ops).
  static void enable(int64_t op);
  static void disable();

  static void begin(const char* name);
  static void end();

  /// Every recorded span, across threads (call after all clients joined).
  static std::vector<Span> spans();

  /// Durations of every span called `name`, in seconds.
  static std::vector<double> durations(const std::string& name);

  /// Self-time breakdown of every root span called `root` (one per op).
  static std::vector<OpBreakdown> breakdown(const std::string& root);

  /// Write every span as one JSON object per line.
  static void write_jsonl(const std::string& path);
};

/// Run `fn` inside a span when the calling thread is tracing, plainly
/// otherwise. Returns whatever `fn` returns.
template <class F>
decltype(auto) span(const char* name, F&& fn) {
  if (!Tracer::active()) return fn();
  struct Close {
    ~Close() { Tracer::end(); }
  };
  Tracer::begin(name);
  const Close close;
  return fn();
}

}  // namespace perfbench
