#include "profile/store_backend.hpp"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string_view>
#include <utility>

#include "docstore/docstore.hpp"
#include "json/arena.hpp"
#include "profile/binary_codec.hpp"
#include "profile/cluster_backend.hpp"
#include "sys/error.hpp"
#include "sys/mmap_file.hpp"
#include "sys/procfs.hpp"

namespace synapse::profile {

namespace storedetail {

constexpr const char* kProfileSuffix = ".profile.json";
constexpr const char* kBinarySuffix = ".profile.synb";
constexpr size_t kSuffixLen = 13;  // strlen of either suffix

bool file_exists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

std::string unique_tmp_suffix() {
  static std::atomic<uint64_t> counter{0};
  return std::to_string(::getpid()) + "-" +
         std::to_string(counter.fetch_add(1));
}

bool has_profile_suffix(const std::string& name) {
  return name.size() > kSuffixLen &&
         name.compare(name.size() - kSuffixLen, kSuffixLen, kProfileSuffix) ==
             0;
}

bool has_binary_profile_suffix(const std::string& name) {
  return name.size() > kSuffixLen &&
         name.compare(name.size() - kSuffixLen, kSuffixLen, kBinarySuffix) ==
             0;
}

size_t count_profile_files(const std::string& dir) {
  size_t n = 0;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return 0;
  while (struct dirent* entry = ::readdir(d)) {
    if (has_profile_suffix(entry->d_name) ||
        has_binary_profile_suffix(entry->d_name)) {
      ++n;
    }
  }
  ::closedir(d);
  return n;
}

std::string sanitize(const std::string& s) {
  std::string out;
  for (const char c : s) {
    out += (std::isalnum(static_cast<unsigned char>(c)) || c == '-' ||
            c == '_' || c == '.')
               ? c
               : '_';
  }
  return out.substr(0, 120);
}

uint64_t fnv1a(const std::string& key) {
  uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace storedetail

namespace {

using storedetail::has_binary_profile_suffix;
using storedetail::has_profile_suffix;
using storedetail::sanitize;
using storedetail::unique_tmp_suffix;

/// Open one stored profile file as a shared read-only buffer. SYNB
/// files are mmap-ed when possible (`prefer_mmap`, decided from the
/// file suffix) so decode reads the page cache without a copy; JSON
/// files and mmap failures (ENOENT from a racing remove(), mmap-less
/// filesystems) fall back to a buffered slurp. nullptr when the file
/// vanished entirely.
std::shared_ptr<const sys::Blob> load_profile_blob(const std::string& path,
                                                   bool prefer_mmap) {
  if (prefer_mmap) {
    if (auto mapped = sys::MappedBlob::map(path)) return mapped;
  }
  auto data = sys::slurp_file(path);
  if (!data) return nullptr;
  return std::make_shared<const sys::StringBlob>(std::move(*data));
}

/// Decode stored profile bytes in either format: SYNB by magic sniff,
/// otherwise JSON through the arena parser (`arena` is reset and reused
/// so multi-file reads recycle slabs). The profile copies what it needs,
/// so the caller may release `data` (and its mapping) right after.
Profile parse_profile(std::string_view data, json::Arena& arena) {
  if (looks_like_binary_profile(data)) return Profile::from_binary(data);
  arena.reset();
  return Profile::from_arena(json::parse(data, arena));
}

// --- memory ---------------------------------------------------------------

class MemoryBackend : public StoreBackend {
 public:
  explicit MemoryBackend(std::string format) : format_(std::move(format)) {}

  bool put(const Profile& profile, const std::string&) override {
    profiles_.push_back(profile);
    return false;
  }

  std::vector<Profile> read(const std::string& command,
                            const std::string& tkey) const override {
    std::vector<Profile> out;
    for (const auto& p : profiles_) {
      if (p.command == command && store_tags_key(p.tags) == tkey) {
        out.push_back(p);
      }
    }
    return out;
  }

  size_t remove(const std::string& command, const std::string& tkey) override {
    const size_t before = profiles_.size();
    profiles_.erase(
        std::remove_if(profiles_.begin(), profiles_.end(),
                       [&](const Profile& p) {
                         return p.command == command &&
                                store_tags_key(p.tags) == tkey;
                       }),
        profiles_.end());
    return before - profiles_.size();
  }

  size_t size() const override { return profiles_.size(); }

  std::vector<StoredProfileEntry> list() const override {
    std::vector<StoredProfileEntry> out;
    out.reserve(profiles_.size());
    for (const auto& p : profiles_) {
      // Nothing is encoded at rest in memory; report the configured
      // format with no size so listings stay uniform across backends.
      out.push_back(StoredProfileEntry{p.command, p.tags, p.created_at,
                                       format_, 0});
    }
    return out;
  }

 private:
  std::vector<Profile> profiles_;
  std::string format_;
};

// --- files ----------------------------------------------------------------

/// One flat file per profile under the shard directory (no size
/// limit): *.profile.json for the JSON format, *.profile.synb for
/// SYNB. Writes are link()-claimed so concurrent writers in other
/// processes or store instances never collide on a sequence number and
/// readers only ever see complete files. Reads sniff each file's magic
/// bytes, so one shard may mix both formats (conversion, legacy data).
class FilesBackend : public StoreBackend {
 public:
  /// Unique token rewritten by every remove(); part of cache_stamp().
  static constexpr const char* kEpochFile = ".remove.epoch";
  FilesBackend(std::string shard_dir, std::string format)
      : directory_(std::move(shard_dir)), format_(std::move(format)) {
    ::mkdir(directory_.c_str(), 0755);
  }

  bool put(const Profile& profile, const std::string& tkey) override {
    const std::string prefix = workload_prefix(profile.command, tkey);
    // Write the full document to a temp name (which never matches the
    // profile-file read patterns), then claim the next free sequence
    // number with link().
    const std::string tmp = directory_ + "/.tmp-" + unique_tmp_suffix();
    const bool binary = format_ == "binary";
    if (binary) {
      write_raw(tmp, profile.to_binary());
    } else {
      json::save_file(tmp, profile.to_json(), /*indent=*/0);
    }
    const char* suffix =
        binary ? storedetail::kBinarySuffix : storedetail::kProfileSuffix;
    // Start probing at this workload's hint: one link() per put instead
    // of one per stored repetition. Writers in other processes may have
    // claimed the hinted number meanwhile; EEXIST moves on as before.
    auto hint = next_seq_.find(prefix);
    if (hint == next_seq_.end()) {
      hint = next_seq_
                 .emplace(prefix,
                          first_unused_seq(profile.command, tkey, suffix))
                 .first;
    }
    for (size_t& seq = hint->second;; ++seq) {
      const std::string path = directory_ + "/" + prefix +
                               std::to_string(seq) + suffix;
      if (::link(tmp.c_str(), path.c_str()) == 0) {
        ++seq;
        break;
      }
      if (errno != EEXIST) {
        const int err = errno;
        ::unlink(tmp.c_str());
        throw sys::SystemError("link(" + path + ")", err);
      }
    }
    ::unlink(tmp.c_str());
    return false;
  }

  std::vector<Profile> read(const std::string& command,
                            const std::string& tkey) const override {
    std::vector<Profile> out;
    json::Arena arena;
    for (const auto& file : matching_files(command, tkey)) {
      if (auto p = decode_file(file.name, command, tkey, arena)) {
        out.push_back(std::move(*p));
      }
    }
    return out;
  }

  /// Ids are file name + inode + removal epoch: stored files are
  /// immutable, so an unchanged id is an unchanged profile and its
  /// previous decode is reused. A file replaced under its name gets a
  /// new inode; the epoch covers a remove-then-put that lands on a
  /// reused inode under the same name.
  DecodedProfiles refresh(const std::string& command, const std::string& tkey,
                          const DecodedProfiles& previous,
                          uint64_t* stamp) const override {
    // List before reading the epoch: a remove()+put() whose new file the
    // listing saw has already rewritten the epoch.
    const std::vector<StoredFile> files = matching_files(command, tkey);
    const uint64_t removals = removal_epoch();
    *stamp = listing_stamp(files, removals);
    const std::string epoch = "#" + std::to_string(removals);
    DecodedProfiles out;
    json::Arena arena;
    for (const auto& file : files) {
      std::string id = file.name + "#" + std::to_string(file.inode) + epoch;
      const auto reused = previous.find(id);
      if (reused != previous.end()) {
        out.emplace(std::move(id), reused->second);
      } else if (auto p = decode_file(file.name, command, tkey, arena)) {
        out.emplace(std::move(id),
                    std::make_shared<const Profile>(std::move(*p)));
      }
    }
    return out;
  }

  size_t remove(const std::string& command, const std::string& tkey) override {
    size_t removed = 0;
    // The next put() of this workload rescans, so numbering restarts
    // from the lowest free sequence as for a never-written workload.
    next_seq_.erase(workload_prefix(command, tkey));
    for (const auto& file : matching_files(command, tkey)) {
      const std::string path = directory_ + "/" + file.name;
      try {
        const auto identity = read_identity(path);
        if (!identity) continue;
        if (identity->first != command || identity->second != tkey) continue;
      } catch (const std::exception&) {
        continue;  // unreadable file: leave it for diagnosis, not deletion
      }
      if (::unlink(path.c_str()) == 0) ++removed;
    }
    // A remove-then-put pair inside one filesystem-timestamp tick
    // restores the profile-file count, so mtime+count alone could
    // reproduce an old stamp; record a unique removal epoch the stamp
    // mixes in, so other instances' caches always notice. rename() is
    // atomic, readers never see a partial epoch.
    if (removed > 0) {
      const std::string epoch = directory_ + "/" + kEpochFile;
      const std::string tmp = directory_ + "/.tmp-" + unique_tmp_suffix();
      json::save_file(tmp, json::Value(unique_tmp_suffix()), /*indent=*/0);
      if (::rename(tmp.c_str(), epoch.c_str()) != 0) ::unlink(tmp.c_str());
    }
    return removed;
  }

  size_t size() const override {
    return storedetail::count_profile_files(directory_);
  }

  /// Cross-process version stamp of one workload: an order-independent
  /// digest of its (file name, inode) pairs from one readdir, mixed
  /// with the removal epoch. Puts to other workloads of the shard leave
  /// it unchanged; a put adds a name, a file replaced under its name
  /// changes an inode, and every remove() rewrites the epoch, so even a
  /// count-restoring remove+put that reuses a freed inode is noticed.
  uint64_t cache_stamp(const std::string& command,
                       const std::string& tkey) const override {
    const std::vector<StoredFile> files = matching_files(command, tkey);
    return listing_stamp(files, removal_epoch());
  }

  json::Value meta() const override {
    json::Object meta;
    meta["directory"] = directory_;
    meta["format"] = format_;
    return json::Value(std::move(meta));
  }

  uint64_t unreadable() const override { return unreadable_; }

  std::vector<StoredProfileEntry> list() const override {
    std::vector<StoredProfileEntry> out;
    DIR* dir = ::opendir(directory_.c_str());
    if (dir == nullptr) return out;
    std::vector<std::string> names;
    while (struct dirent* entry = ::readdir(dir)) {
      const std::string name = entry->d_name;
      if (has_profile_suffix(name) || has_binary_profile_suffix(name)) {
        names.push_back(name);
      }
    }
    ::closedir(dir);
    for (const auto& name : names) {
      const std::string path = directory_ + "/" + name;
      // Identity lives in the SYNB header, so a mapped list() touches
      // only each file's first pages instead of reading whole blobs.
      auto blob = load_profile_blob(path, has_binary_profile_suffix(name));
      if (!blob) continue;  // racing remove()
      const std::string_view data = blob->view();
      StoredProfileEntry e;
      e.encoded_bytes = data.size();
      try {
        if (looks_like_binary_profile(data)) {
          BinaryProfileInfo info = decode_binary_identity(data);
          e.command = std::move(info.command);
          e.tags = std::move(info.tags);
          e.created_at = info.created_at;
          e.format = "binary";
        } else {
          const json::Value v = json::parse(std::string(data));
          e.command = v.get_or("command", std::string());
          if (v.contains("tags")) {
            for (const auto& t : v["tags"].as_array()) {
              e.tags.push_back(t.as_string());
            }
          }
          e.created_at = v.get_or("created_at", 0.0);
          e.format = "json";
        }
      } catch (const std::exception&) {
        continue;  // unreadable file: absent from the catalog
      }
      out.push_back(std::move(e));
    }
    return out;
  }

 private:
  /// (command, tags_key) of a stored file, header/top-level fields
  /// only. nullopt when the file vanished (racing remove()).
  std::optional<std::pair<std::string, std::string>> read_identity(
      const std::string& path) const {
    auto blob =
        load_profile_blob(path, has_binary_profile_suffix(path));
    if (!blob) return std::nullopt;
    const std::string_view data = blob->view();
    if (looks_like_binary_profile(data)) {
      BinaryProfileInfo info = decode_binary_identity(data);
      return std::make_pair(std::move(info.command),
                            store_tags_key(info.tags));
    }
    const json::Value v = json::parse(std::string(data));
    std::vector<std::string> tags;
    if (v.contains("tags")) {
      for (const auto& t : v["tags"].as_array()) tags.push_back(t.as_string());
    }
    return std::make_pair(v.get_or("command", std::string()),
                          store_tags_key(tags));
  }

  static void write_raw(const std::string& path, const std::string& bytes) {
    FILE* f = ::fopen(path.c_str(), "wb");
    if (f == nullptr) {
      throw sys::SystemError("fopen(" + path + ")", errno);
    }
    const size_t written = ::fwrite(bytes.data(), 1, bytes.size(), f);
    const bool ok = written == bytes.size() && ::fclose(f) == 0;
    if (!ok) {
      if (written != bytes.size()) ::fclose(f);
      ::unlink(path.c_str());
      throw sys::SystemError("write(" + path + ")", errno);
    }
  }

  /// File-name prefix of a workload's profile files; the sequence
  /// number and the format suffix follow it.
  static std::string workload_prefix(const std::string& command,
                                     const std::string& tkey) {
    return sanitize(command) + "." + sanitize(tkey) + ".";
  }

  struct StoredFile {
    std::string name;
    ino_t inode = 0;
  };

  /// Profile files named for (command, tkey), from one readdir of the
  /// shard. Sanitization can collide, so callers that decode verify
  /// the stored identity.
  std::vector<StoredFile> matching_files(const std::string& command,
                                         const std::string& tkey) const {
    std::vector<StoredFile> files;
    DIR* dir = ::opendir(directory_.c_str());
    if (dir == nullptr) return files;
    const std::string prefix = workload_prefix(command, tkey);
    while (struct dirent* entry = ::readdir(dir)) {
      // Shards hold every workload routed to them: filter before
      // allocating a name.
      if (std::strncmp(entry->d_name, prefix.c_str(), prefix.size()) != 0) {
        continue;
      }
      std::string name = entry->d_name;
      if (has_profile_suffix(name) || has_binary_profile_suffix(name)) {
        files.push_back(StoredFile{std::move(name), entry->d_ino});
      }
    }
    ::closedir(dir);
    return files;
  }

  static uint64_t listing_stamp(const std::vector<StoredFile>& files,
                                uint64_t removals) {
    uint64_t digest = 0;
    for (const auto& file : files) {
      digest += storedetail::fnv1a(file.name) ^
                (static_cast<uint64_t>(file.inode) * 0x9e3779b97f4a7c15ull);
    }
    return digest ^ removals;
  }

  /// One past the highest sequence number among the workload's files in
  /// `suffix`'s format (0 for none): where a fresh put() starts probing.
  size_t first_unused_seq(const std::string& command, const std::string& tkey,
                          std::string_view suffix) const {
    const size_t prefix_len = workload_prefix(command, tkey).size();
    size_t next = 0;
    for (const auto& file : matching_files(command, tkey)) {
      const std::string_view name = file.name;
      if (name.size() < prefix_len + suffix.size() ||
          name.substr(name.size() - suffix.size()) != suffix) {
        continue;
      }
      const std::string_view digits =
          name.substr(prefix_len, name.size() - prefix_len - suffix.size());
      if (digits.empty() || digits.size() > 18 ||
          !std::all_of(digits.begin(), digits.end(), [](char c) {
            return std::isdigit(static_cast<unsigned char>(c)) != 0;
          })) {
        continue;  // another workload whose name extends this prefix
      }
      next = std::max<size_t>(next, std::stoull(std::string(digits)) + 1);
    }
    return next;
  }

  /// Hash of the removal epoch token; 0 while the shard saw no remove().
  uint64_t removal_epoch() const {
    const auto token = sys::slurp_file(directory_ + "/" + kEpochFile);
    return token ? storedetail::fnv1a(*token) : 0;
  }

  /// Decode one profile file; nullopt when it vanished (racing remove()),
  /// holds another workload whose sanitized name collides, or cannot be
  /// decoded. A damaged file (empty, truncated, garbage) costs only its
  /// own profile: it is skipped and counted, and the rest of the
  /// workload still reads.
  std::optional<Profile> decode_file(const std::string& name,
                                     const std::string& command,
                                     const std::string& tkey,
                                     json::Arena& arena) const {
    const auto blob = load_profile_blob(directory_ + "/" + name,
                                        has_binary_profile_suffix(name));
    if (!blob) return std::nullopt;
    std::optional<Profile> p;
    try {
      p = parse_profile(blob->view(), arena);
    } catch (const CodecError&) {
      ++unreadable_;
      return std::nullopt;
    } catch (const json::JsonError&) {
      ++unreadable_;
      return std::nullopt;
    }
    if (p->command != command || store_tags_key(p->tags) != tkey) {
      return std::nullopt;
    }
    return p;
  }

  std::string directory_;
  std::string format_;
  /// Next sequence number put() tries per workload prefix; seeded by one
  /// readdir on the workload's first put through this instance.
  std::map<std::string, size_t> next_seq_;
  /// Files read() / refresh() skipped as undecodable.
  mutable uint64_t unreadable_ = 0;
};

}  // namespace

// --- docstore (shared with the cluster backend) ----------------------------

DocStoreShardBackend::DocStoreShardBackend(const std::string& shard_dir,
                                           std::string format)
    : store_(std::make_unique<docstore::Store>(shard_dir)),
      format_(std::move(format)) {}

DocStoreShardBackend::~DocStoreShardBackend() = default;

bool DocStoreShardBackend::put(const Profile& profile,
                               const std::string& tkey) {
  if (format_ == "binary") {
    // Envelope document: the SYNB blob rides as base64, the query
    // fields stay plain top-level members so FieldEquals lookups work
    // identically for both document shapes.
    const std::string blob = profile.to_binary();
    // The docstore enforces its 16 MB document limit by trimming the
    // largest array (paper section 4.5) — a base64 string offers it
    // nothing to trim, so an envelope that cannot fit falls back to the
    // plain JSON document and inherits the documented sample-array
    // truncation instead of a hard failure.
    if (blob.size() / 3 * 4 + 4096 < docstore::kMaxDocumentBytes) {
      json::Object doc;
      doc["command"] = profile.command;
      json::Array jtags;
      for (const auto& t : profile.tags) jtags.push_back(t);
      doc["tags"] = std::move(jtags);
      doc["tags_key"] = tkey;
      doc["created_at"] = profile.created_at;
      doc["synb"] = base64_encode(blob);
      return store_->collection("profiles")
          .insert(json::Value(std::move(doc)))
          .truncated;
    }
  }
  json::Value doc = profile.to_json();
  doc.as_object()["tags_key"] = tkey;
  return store_->collection("profiles").insert(std::move(doc)).truncated;
}

namespace {

/// Decode one stored document of either shape (binary envelope or
/// plain profile document).
Profile profile_from_doc(const json::Value& doc) {
  if (doc.contains("synb")) {
    return Profile::from_binary(base64_decode(doc["synb"].as_string()));
  }
  return Profile::from_json(doc);
}

}  // namespace

std::vector<Profile> DocStoreShardBackend::read(
    const std::string& command, const std::string& tkey) const {
  const std::vector<docstore::FieldEquals> query = {
      {"command", json::Value(command)}, {"tags_key", json::Value(tkey)}};
  std::vector<Profile> out;
  for (const auto& doc : store_->collection("profiles").find(query)) {
    out.push_back(profile_from_doc(doc));
  }
  return out;
}

std::vector<StoredProfileEntry> DocStoreShardBackend::list() const {
  std::vector<StoredProfileEntry> out;
  for (const auto& doc : store_->collection("profiles").all()) {
    StoredProfileEntry e;
    e.command = doc.get_or("command", std::string());
    if (doc.contains("tags")) {
      for (const auto& t : doc["tags"].as_array()) {
        e.tags.push_back(t.as_string());
      }
    }
    e.created_at = doc.get_or("created_at", 0.0);
    if (doc.contains("synb")) {
      e.format = "binary";
      // Stored size is the decoded blob, not its base64 inflation —
      // that is what a files-backend copy of the same profile would
      // occupy, so sizes compare across backends.
      e.encoded_bytes = doc["synb"].as_string().size() / 4 * 3;
    } else {
      e.format = "json";
      e.encoded_bytes = json::dump(doc).size();
    }
    out.push_back(std::move(e));
  }
  return out;
}

size_t DocStoreShardBackend::remove(const std::string& command,
                                    const std::string& tkey) {
  const std::vector<docstore::FieldEquals> query = {
      {"command", json::Value(command)}, {"tags_key", json::Value(tkey)}};
  return store_->collection("profiles").remove(query);
}

void DocStoreShardBackend::flush() { store_->flush(); }

size_t DocStoreShardBackend::size() const {
  return store_->collection("profiles").size();
}

json::Value DocStoreShardBackend::meta() const {
  json::Object meta;
  meta["directory"] = store_->directory();
  meta["format"] = format_;
  return json::Value(std::move(meta));
}

// --- default refresh ---------------------------------------------------------

DecodedProfiles StoreBackend::refresh(const std::string& command,
                                      const std::string& tkey,
                                      const DecodedProfiles&,
                                      uint64_t* stamp) const {
  *stamp = cache_stamp(command, tkey);
  std::vector<Profile> profiles = read(command, tkey);
  DecodedProfiles out;
  for (size_t i = 0; i < profiles.size(); ++i) {
    // Zero-padded read() positions keep map order equal to read() order.
    char id[24];
    std::snprintf(id, sizeof id, "%020zu", i);
    out.emplace_hint(out.end(), id,
                     std::make_shared<const Profile>(std::move(profiles[i])));
  }
  return out;
}

// --- key canonicalization ---------------------------------------------------

std::string store_tags_key(const std::vector<std::string>& tags) {
  std::vector<std::string> sorted = tags;
  std::sort(sorted.begin(), sorted.end());
  std::string key;
  for (const auto& t : sorted) {
    if (!key.empty()) key += ',';
    key += t;
  }
  return key;
}

// --- registry ---------------------------------------------------------------

namespace {

std::string shard_dir(const StoreBackendContext& context) {
  if (context.directory.empty()) {
    throw sys::ConfigError(
        "store backend needs a store directory (only 'memory' runs without "
        "one)");
  }
  return context.directory + "/shard-" + std::to_string(context.shard_index);
}

}  // namespace

StoreBackendRegistry::StoreBackendRegistry() {
  factories_["memory"] = [](const StoreBackendContext& ctx) {
    return std::make_unique<MemoryBackend>(ctx.format);
  };
  factories_["docstore"] = [](const StoreBackendContext& ctx) {
    return std::make_unique<DocStoreShardBackend>(shard_dir(ctx), ctx.format);
  };
  factories_["files"] = [](const StoreBackendContext& ctx) {
    return std::make_unique<FilesBackend>(shard_dir(ctx), ctx.format);
  };
  factories_["cluster"] = [](const StoreBackendContext& ctx) {
    return std::make_unique<ClusterBackend>(ctx);
  };
}

StoreBackendRegistry& StoreBackendRegistry::instance() {
  static StoreBackendRegistry registry;
  return registry;
}

void StoreBackendRegistry::register_backend(const std::string& name,
                                            Factory factory) {
  if (name.empty()) {
    throw sys::ConfigError("store backend name must not be empty");
  }
  if (!factory) {
    throw sys::ConfigError("store backend factory must not be empty");
  }
  factories_[name] = std::move(factory);
}

std::unique_ptr<StoreBackend> StoreBackendRegistry::create(
    const std::string& name, const StoreBackendContext& context) const {
  ensure_registered(name);
  return factories_.at(name)(context);
}

void StoreBackendRegistry::ensure_registered(const std::string& name) const {
  if (factories_.count(name) != 0) return;
  std::string known;
  for (const auto& [key, unused] : factories_) {
    if (!known.empty()) known += ", ";
    known += key;
  }
  throw sys::ConfigError("unknown store backend: " + name +
                         " (registered: " + known + ")");
}

bool StoreBackendRegistry::contains(const std::string& name) const {
  return factories_.count(name) != 0;
}

std::vector<std::string> StoreBackendRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [key, unused] : factories_) out.push_back(key);
  return out;
}

const std::vector<std::string>& StoreBackendRegistry::builtin_names() {
  static const std::vector<std::string> names = {"memory", "docstore", "files",
                                                 "cluster"};
  return names;
}

}  // namespace synapse::profile
