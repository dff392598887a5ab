#pragma once
// Virtual filesystems.
//
// Experiment E.5 emulates application I/O "toward any available
// filesystem ... and any combination of I/O granularity" and compares
// local disks, Lustre and NFS across two machines. We have one container
// filesystem, so each paper filesystem is modelled by a VirtualFile that
// performs *real* file I/O and then sleeps the difference between the
// modelled cost (FilesystemSpec latency + bandwidth) and the time the
// real operation took. Real I/O keeps the kernel page-cache and syscall
// paths in play (so /proc/<pid>/io profiling sees genuine traffic); the
// injected delay imposes the modelled filesystem's performance.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "resource/resource_spec.hpp"

namespace synapse::resource {

/// Cumulative I/O accounting for one VirtualFilesystem handle.
struct IoStats {
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t read_ops = 0;
  uint64_t write_ops = 0;
  double read_seconds = 0.0;   ///< modelled (wall) time spent reading
  double write_seconds = 0.0;  ///< modelled (wall) time spent writing
};

/// A file on a modelled filesystem. Not thread-safe (one handle per
/// thread, like a POSIX fd used single-threaded).
class VirtualFile {
 public:
  /// Open (create/truncate when writing) `path` under the filesystem's
  /// backing directory. Throws SystemError on failure.
  VirtualFile(const FilesystemSpec& spec, const std::string& backing_path,
              bool for_write);
  ~VirtualFile();

  VirtualFile(const VirtualFile&) = delete;
  VirtualFile& operator=(const VirtualFile&) = delete;

  /// Write `bytes` bytes (content synthesized internally) in one
  /// operation; returns the modelled cost in seconds.
  double write(uint64_t bytes);

  /// Read up to `bytes` bytes in one operation; rewinds at EOF so reads
  /// can exceed the file size (emulation replays byte *counts*, not
  /// file contents). Returns the modelled cost in seconds.
  double read(uint64_t bytes);

  /// fsync + rewind, for write-then-read patterns. Throws
  /// sys::SystemError when either fails.
  void sync();

  const IoStats& stats() const { return stats_; }

 private:
  void pay(double modelled_cost, double actual_cost);

  FilesystemSpec spec_;
  int fd_ = -1;
  std::string path_;
  IoStats stats_;
  std::vector<char> buffer_;
};

/// A modelled filesystem instance rooted in a real directory.
class VirtualFilesystem {
 public:
  /// `spec` comes from a ResourceSpec; `root` is the backing directory
  /// (created if missing).
  VirtualFilesystem(FilesystemSpec spec, std::string root);

  const FilesystemSpec& spec() const { return spec_; }
  const std::string& root() const { return root_; }

  /// Open a file relative to the root.
  std::unique_ptr<VirtualFile> open(const std::string& name, bool for_write);

  /// Remove a file (best effort).
  void remove(const std::string& name);

  /// The filesystem `fs_name` of the active resource, backed under
  /// `base_dir` (default: $TMPDIR or /tmp).
  static VirtualFilesystem for_active_resource(const std::string& fs_name = "",
                                               std::string base_dir = "");

 private:
  FilesystemSpec spec_;
  std::string root_;
};

}  // namespace synapse::resource
