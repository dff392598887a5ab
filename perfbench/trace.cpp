#include "trace.hpp"

#include <cstdio>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "sys/clock.hpp"

namespace perfbench {

namespace {

struct Buffer {
  uint32_t index = 0;
  bool on = false;
  int64_t op = -1;
  std::vector<Span> spans;
  std::vector<int32_t> open;  ///< stack of indices into spans
};

std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<Buffer>> g_buffers;  // guarded by g_buffers_mutex

Buffer& local_buffer() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mutex);
    g_buffers.push_back(std::make_unique<Buffer>());
    buffer = g_buffers.back().get();
    buffer->index = static_cast<uint32_t>(g_buffers.size() - 1);
    buffer->spans.reserve(1 << 14);
  }
  return *buffer;
}

std::string layer_of(const char* name) {
  const std::string s(name);
  return s.substr(0, s.find('.'));
}

}  // namespace

bool Tracer::active() { return local_buffer().on; }

void Tracer::enable(int64_t op) {
  Buffer& b = local_buffer();
  b.on = true;
  b.op = op;
}

void Tracer::disable() {
  Buffer& b = local_buffer();
  if (!b.open.empty()) throw std::logic_error("tracer disabled inside a span");
  b.on = false;
}

void Tracer::begin(const char* name) {
  Buffer& b = local_buffer();
  Span s;
  s.name = name;
  s.parent = b.open.empty() ? -1 : b.open.back();
  s.op = b.op;
  s.thread = b.index;
  b.open.push_back(static_cast<int32_t>(b.spans.size()));
  s.start = synapse::sys::steady_now();
  b.spans.push_back(s);
}

void Tracer::end() {
  const double now = synapse::sys::steady_now();
  Buffer& b = local_buffer();
  b.spans[static_cast<size_t>(b.open.back())].end = now;
  b.open.pop_back();
}

std::vector<Span> Tracer::spans() {
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  std::vector<Span> all;
  for (const auto& b : g_buffers) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  return all;
}

std::vector<double> Tracer::durations(const std::string& name) {
  std::vector<double> out;
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  for (const auto& b : g_buffers) {
    for (const Span& s : b->spans) {
      if (name == s.name) out.push_back(s.end - s.start);
    }
  }
  return out;
}

std::vector<OpBreakdown> Tracer::breakdown(const std::string& root) {
  std::vector<OpBreakdown> out;
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  for (const auto& b : g_buffers) {
    const std::vector<Span>& spans = b->spans;
    // Parents precede their children in a buffer, so one forward pass
    // resolves each span's root and a second one its self time.
    std::vector<double> covered(spans.size(), 0.0);
    std::vector<int32_t> root_of(spans.size(), -1);
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.parent < 0) {
        root_of[i] = static_cast<int32_t>(i);
      } else {
        const auto p = static_cast<size_t>(s.parent);
        root_of[i] = root_of[p];
        covered[p] += s.end - s.start;
      }
    }
    std::map<int32_t, size_t> slot;  // root span index -> out index
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& r = spans[static_cast<size_t>(root_of[i])];
      if (root != r.name) continue;
      auto [it, fresh] = slot.emplace(root_of[i], out.size());
      if (fresh) {
        out.emplace_back();
        out.back().wall_s = r.end - r.start;
      }
      const Span& s = spans[i];
      out[it->second].self_s[layer_of(s.name)] +=
          (s.end - s.start) - covered[i];
    }
  }
  return out;
}

void Tracer::write_jsonl(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  for (const Span& s : spans()) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"thread\":%u,\"op\":%lld,\"parent\":%d,"
                 "\"start\":%.9f,\"end\":%.9f}\n",
                 s.name, s.thread, static_cast<long long>(s.op), s.parent,
                 s.start, s.end);
  }
  std::fclose(f);
}

}  // namespace perfbench
