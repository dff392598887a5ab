#include "profile/binary_codec.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "json/arena.hpp"

namespace synapse::profile {

namespace {

// --- little-endian primitives ----------------------------------------------
// Byte-explicit so the format is identical across hosts; compilers fold
// these into single loads/stores on little-endian targets.

void put_u32(std::string& out, uint32_t v) {
  char b[4] = {static_cast<char>(v & 0xff), static_cast<char>((v >> 8) & 0xff),
               static_cast<char>((v >> 16) & 0xff),
               static_cast<char>((v >> 24) & 0xff)};
  out.append(b, 4);
}

void put_f64(std::string& out, double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "IEEE-754 double expected");
  std::memcpy(&bits, &v, sizeof(bits));
  char b[8];
  for (int i = 0; i < 8; ++i) {
    b[i] = static_cast<char>((bits >> (8 * i)) & 0xff);
  }
  out.append(b, 8);
}

uint32_t load_u32(const char* p) {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(u[0]) | (static_cast<uint32_t>(u[1]) << 8) |
         (static_cast<uint32_t>(u[2]) << 16) |
         (static_cast<uint32_t>(u[3]) << 24);
}

double load_f64(const char* p) {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<uint64_t>(u[i]) << (8 * i);
  }
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// Bounds-checked reader over an encoded blob. All decode paths funnel
/// through need(), so any truncation throws with the offset and the
/// field being read instead of running off the buffer.
class Cursor {
 public:
  explicit Cursor(std::string_view data) : data_(data) {}

  size_t offset() const { return off_; }

  void need(uint64_t bytes, const char* what) const {
    if (static_cast<uint64_t>(off_) + bytes > data_.size()) {
      throw CodecError("truncated SYNB container: need " +
                       std::to_string(bytes) + " byte(s) for " + what +
                       " at offset " + std::to_string(off_) + ", have " +
                       std::to_string(data_.size() - off_));
    }
  }

  uint8_t u8(const char* what) {
    need(1, what);
    return static_cast<uint8_t>(data_[off_++]);
  }

  uint32_t u32(const char* what) {
    need(4, what);
    const uint32_t v = load_u32(data_.data() + off_);
    off_ += 4;
    return v;
  }

  double f64(const char* what) {
    need(8, what);
    const double v = load_f64(data_.data() + off_);
    off_ += 8;
    return v;
  }

  std::string_view bytes(uint64_t n, const char* what) {
    need(n, what);
    const std::string_view v = data_.substr(off_, n);
    off_ += n;
    return v;
  }

  /// Advance past n bytes, returning a pointer to their start.
  const char* raw(uint64_t n, const char* what) {
    need(n, what);
    const char* p = data_.data() + off_;
    off_ += n;
    return p;
  }

  bool done() const { return off_ == data_.size(); }

 private:
  std::string_view data_;
  size_t off_ = 0;
};

void put_string(std::string& out, std::string_view s) {
  if (s.size() > std::numeric_limits<uint32_t>::max()) {
    throw CodecError("string too large for SYNB container");
  }
  put_u32(out, static_cast<uint32_t>(s.size()));
  out.append(s.data(), s.size());
}

std::string_view read_string(Cursor& c, const char* what) {
  const uint32_t len = c.u32(what);
  return c.bytes(len, what);
}

/// The low-volume profile parts as a compact JSON header — exactly
/// Profile::to_json minus "series", so header-only consumers see the
/// familiar shape.
std::string encode_header(const Profile& p) {
  json::Object root;
  root["command"] = p.command;
  json::Array jtags;
  for (const auto& t : p.tags) jtags.push_back(t);
  root["tags"] = std::move(jtags);
  root["sample_rate_hz"] = p.sample_rate_hz;
  root["created_at"] = p.created_at;
  root["system"] = p.system.to_json();
  json::Object jtotals;
  for (const auto& [k, v] : p.totals) jtotals[k] = v;
  root["totals"] = std::move(jtotals);
  json::Object jderived;
  for (const auto& [k, v] : p.derived) jderived[k] = v;
  root["derived"] = std::move(jderived);
  return json::dump(json::Value(std::move(root)));
}

struct ContainerHead {
  std::string_view header;  ///< raw JSON header text
  uint32_t version = 0;     ///< drives per-series framing in read_columns
};

/// Validate magic + version and position the cursor on the series
/// framing (past the header). Returns the raw header text + version.
ContainerHead open_container(Cursor& c) {
  const std::string_view magic = c.bytes(4, "magic");
  if (std::memcmp(magic.data(), kBinaryMagic, 4) != 0) {
    throw CodecError(
        "not a SYNB container (bad magic; expected \"SYNB\", got \"" +
        std::string(magic) + "\")");
  }
  const uint32_t version = c.u32("version");
  if (version < kBinaryMinVersion || version > kBinaryVersion) {
    throw CodecError("unsupported SYNB version " + std::to_string(version) +
                     " (this build reads versions " +
                     std::to_string(kBinaryMinVersion) + ".." +
                     std::to_string(kBinaryVersion) + ")");
  }
  const uint32_t header_len = c.u32("header length");
  return {c.bytes(header_len, "JSON header"), version};
}

}  // namespace

bool looks_like_binary_profile(std::string_view data) {
  return data.size() >= 4 && std::memcmp(data.data(), kBinaryMagic, 4) == 0;
}

std::string encode_binary(const Profile& p) {
  std::string out;
  const std::string header = encode_header(p);

  // Framing + header + per-series fixed parts; the f64 columns dominate,
  // so reserve for them up front.
  size_t estimate = 12 + header.size() + 4;
  for (const auto& ts : p.series) {
    estimate += 64 + ts.watcher.size() +
                ts.samples.size() * 8 * (1 + ts.samples.metrics().size());
  }
  out.reserve(estimate);

  out.append(kBinaryMagic, 4);
  put_u32(out, kBinaryVersion);
  if (header.size() > std::numeric_limits<uint32_t>::max()) {
    throw CodecError("profile header too large for SYNB container");
  }
  put_u32(out, static_cast<uint32_t>(header.size()));
  out += header;

  put_u32(out, static_cast<uint32_t>(p.series.size()));
  for (const auto& ts : p.series) {
    put_string(out, ts.watcher);
    put_f64(out, ts.sample_rate_hz);

    uint8_t flags = 0;
    if (ts.variable_rate) flags |= 1u;
    const bool has_gate = ts.gate.any();
    if (has_gate) flags |= 2u;
    out.push_back(static_cast<char>(flags));
    if (has_gate) {
      put_f64(out, ts.gate.floor_hz);
      put_f64(out, ts.gate.burst_hz);
      put_f64(out, ts.gate.open_threshold);
      put_f64(out, ts.gate.close_hold_s);
    }

    // The metric dictionary is the series' columns, already sorted.
    const SampleColumns& cols = ts.samples;
    put_u32(out, static_cast<uint32_t>(cols.metrics().size()));
    for (const auto& c : cols.metrics()) put_string(out, c.name);

    const size_t count = cols.size();
    put_u32(out, static_cast<uint32_t>(count));
    for (const double t : cols.timestamps()) put_f64(out, t);

    for (const auto& c : cols.metrics()) {
      const size_t present = static_cast<size_t>(
          std::count(c.present.begin(), c.present.end(), uint8_t{1}));
      const bool dense = present == count;
      out.push_back(dense ? '\1' : '\0');
      if (!dense) {
        std::string bitmap((count + 7) / 8, '\0');
        for (size_t i = 0; i < count; ++i) {
          if (c.present[i] != 0) bitmap[i >> 3] |= static_cast<char>(1u << (i & 7));
        }
        out += bitmap;
      }
      put_u32(out, static_cast<uint32_t>(present));
      for (size_t i = 0; i < count; ++i) {
        if (c.present[i] != 0) put_f64(out, c.values[i]);
      }
    }
  }
  return out;
}

namespace {

/// Decode the series framing into `p.series`: header already consumed,
/// cursor at series_count. `version` selects the per-series framing (v1
/// has no flags byte). Packed value columns are scattered into the
/// one-value-per-sample SampleColumns layout.
void read_series(Cursor& c, uint32_t version, Profile& p) {
  const uint32_t series_count = c.u32("series count");
  // Bound the reserve by what the payload could possibly frame (each
  // series costs >= 20 bytes) so a corrupt count throws CodecError
  // instead of attempting a multi-gigabyte allocation.
  c.need(static_cast<uint64_t>(series_count) * 20, "series table");
  p.series.reserve(series_count);
  for (uint32_t si = 0; si < series_count; ++si) {
    TimeSeries ts;
    ts.watcher = std::string(read_string(c, "watcher name"));
    ts.sample_rate_hz = c.f64("series rate");
    if (version >= 2) {
      const uint8_t flags = c.u8("series flags");
      if (flags > 3) {
        throw CodecError("corrupt SYNB container: series flags " +
                         std::to_string(flags) + " at offset " +
                         std::to_string(c.offset() - 1));
      }
      ts.variable_rate = (flags & 1u) != 0;
      if ((flags & 2u) != 0) {
        ts.gate.floor_hz = c.f64("gate floor_hz");
        ts.gate.burst_hz = c.f64("gate burst_hz");
        ts.gate.open_threshold = c.f64("gate open_threshold");
        ts.gate.close_hold_s = c.f64("gate close_hold_s");
      }
    }
    const uint32_t metric_count = c.u32("metric count");
    // Same guard: every metric needs >= 9 framing bytes downstream.
    c.need(static_cast<uint64_t>(metric_count) * 9, "metric table");
    std::vector<MetricColumn> metrics(metric_count);
    for (auto& m : metrics) {
      m.name = std::string(read_string(c, "metric name"));
      // Columns are looked up by binary search: the dictionary must be
      // sorted and unique, as every encoder writes it.
      if (&m != metrics.data() && !((&m - 1)->name < m.name)) {
        throw CodecError("corrupt SYNB container: metric dictionary of \"" +
                         ts.watcher + "\" is not sorted at \"" + m.name +
                         "\"");
      }
    }
    const uint32_t count = c.u32("sample count");
    const char* raw_t =
        c.raw(static_cast<uint64_t>(count) * 8, "timestamp column");
    std::vector<double> timestamps(count);
    for (uint32_t i = 0; i < count; ++i) timestamps[i] = load_f64(raw_t + i * 8);
    for (auto& m : metrics) {
      const uint8_t dense = c.u8("density flag");
      if (dense > 1) {
        throw CodecError("corrupt SYNB container: density flag " +
                         std::to_string(dense) + " at offset " +
                         std::to_string(c.offset() - 1));
      }
      const char* presence =
          dense ? nullptr
                : c.raw((static_cast<uint64_t>(count) + 7) / 8,
                        "presence bitmap");
      const uint32_t value_count = c.u32("value count");
      if (value_count > count || (dense && value_count != count)) {
        throw CodecError("corrupt SYNB container: " +
                         std::string(dense ? "dense " : "") + "metric \"" +
                         m.name + "\" has " + std::to_string(value_count) +
                         " values for " + std::to_string(count) + " samples");
      }
      const char* values =
          c.raw(static_cast<uint64_t>(value_count) * 8, "metric value column");
      m.values.assign(count, 0.0);
      m.present.assign(count, dense ? 1 : 0);
      size_t cursor = 0;
      for (uint32_t i = 0; i < count; ++i) {
        if (presence != nullptr) {
          if (((static_cast<unsigned char>(presence[i >> 3]) >> (i & 7)) & 1u) == 0) {
            continue;
          }
          if (cursor == value_count) {
            throw CodecError("corrupt SYNB container: metric \"" + m.name +
                             "\" presence bitmap claims more values than " +
                             "the column holds (" +
                             std::to_string(value_count) + ")");
          }
          m.present[i] = 1;
        }
        m.values[i] = load_f64(values + 8 * cursor++);
      }
      if (cursor != value_count) {
        throw CodecError("corrupt SYNB container: metric \"" + m.name +
                         "\" column holds " + std::to_string(value_count) +
                         " values but the presence bitmap selects " +
                         std::to_string(cursor));
      }
    }
    ts.samples.assign(std::move(timestamps), std::move(metrics));
    p.series.push_back(std::move(ts));
  }
  if (!c.done()) {
    throw CodecError("corrupt SYNB container: " +
                     std::to_string(c.offset()) + " byte(s) decoded, " +
                     "trailing garbage follows");
  }
}

/// Parse the JSON header through the arena parser, sized to the header
/// so a decode costs one small slab.
template <typename Extract>
auto parse_header(std::string_view header, Extract extract) {
  json::Arena arena(2 * header.size());
  try {
    return extract(json::parse(header, arena));
  } catch (const json::JsonError& e) {
    throw CodecError(std::string("corrupt SYNB container: bad JSON header: ") +
                     e.what());
  }
}

}  // namespace

Profile decode_binary(std::string_view data) {
  Cursor c(data);
  const ContainerHead head = open_container(c);
  // The header is the series-less to_json shape; from_arena handles it.
  Profile p = parse_header(head.header, [](const json::ArenaValue& v) {
    return Profile::from_arena(v);
  });
  read_series(c, head.version, p);
  return p;
}

BinaryProfileInfo decode_binary_identity(std::string_view data) {
  Cursor c(data);
  const std::string_view header = open_container(c).header;
  return parse_header(header, [](const json::ArenaValue& v) {
    BinaryProfileInfo info;
    info.command = v.get_or("command", std::string());
    if (v.contains("tags")) {
      const json::ArenaValue& jt = v["tags"];
      for (const auto* t = jt.items_begin(); t != jt.items_end(); ++t) {
        info.tags.emplace_back(t->as_string());
      }
    }
    info.created_at = v.get_or("created_at", 0.0);
    return info;
  });
}

// --- base64 -----------------------------------------------------------------

namespace {
constexpr char kB64Alphabet[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

int b64_value(char c) {
  if (c >= 'A' && c <= 'Z') return c - 'A';
  if (c >= 'a' && c <= 'z') return c - 'a' + 26;
  if (c >= '0' && c <= '9') return c - '0' + 52;
  if (c == '+') return 62;
  if (c == '/') return 63;
  return -1;
}
}  // namespace

std::string base64_encode(std::string_view raw) {
  std::string out;
  out.reserve((raw.size() + 2) / 3 * 4);
  size_t i = 0;
  for (; i + 3 <= raw.size(); i += 3) {
    const uint32_t n = (static_cast<unsigned char>(raw[i]) << 16) |
                       (static_cast<unsigned char>(raw[i + 1]) << 8) |
                       static_cast<unsigned char>(raw[i + 2]);
    out.push_back(kB64Alphabet[(n >> 18) & 63]);
    out.push_back(kB64Alphabet[(n >> 12) & 63]);
    out.push_back(kB64Alphabet[(n >> 6) & 63]);
    out.push_back(kB64Alphabet[n & 63]);
  }
  const size_t rem = raw.size() - i;
  if (rem == 1) {
    const uint32_t n = static_cast<unsigned char>(raw[i]) << 16;
    out.push_back(kB64Alphabet[(n >> 18) & 63]);
    out.push_back(kB64Alphabet[(n >> 12) & 63]);
    out += "==";
  } else if (rem == 2) {
    const uint32_t n = (static_cast<unsigned char>(raw[i]) << 16) |
                       (static_cast<unsigned char>(raw[i + 1]) << 8);
    out.push_back(kB64Alphabet[(n >> 18) & 63]);
    out.push_back(kB64Alphabet[(n >> 12) & 63]);
    out.push_back(kB64Alphabet[(n >> 6) & 63]);
    out.push_back('=');
  }
  return out;
}

std::string base64_decode(std::string_view text) {
  if (text.size() % 4 != 0) {
    throw CodecError("bad base64 payload: length " +
                     std::to_string(text.size()) + " is not a multiple of 4");
  }
  std::string out;
  out.reserve(text.size() / 4 * 3);
  for (size_t i = 0; i < text.size(); i += 4) {
    int vals[4];
    int pad = 0;
    for (int k = 0; k < 4; ++k) {
      const char c = text[i + k];
      if (c == '=' && k >= 2 && i + 4 == text.size()) {
        vals[k] = 0;
        ++pad;
      } else if (pad > 0) {
        throw CodecError("bad base64 payload: data after '=' padding");
      } else {
        vals[k] = b64_value(c);
        if (vals[k] < 0) {
          throw CodecError(std::string("bad base64 payload: byte '") + c +
                           "' at offset " + std::to_string(i + k));
        }
      }
    }
    const uint32_t n = (static_cast<uint32_t>(vals[0]) << 18) |
                       (static_cast<uint32_t>(vals[1]) << 12) |
                       (static_cast<uint32_t>(vals[2]) << 6) |
                       static_cast<uint32_t>(vals[3]);
    out.push_back(static_cast<char>((n >> 16) & 0xff));
    if (pad < 2) out.push_back(static_cast<char>((n >> 8) & 0xff));
    if (pad < 1) out.push_back(static_cast<char>(n & 0xff));
  }
  return out;
}

}  // namespace synapse::profile
