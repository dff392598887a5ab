#include "resource/vfs.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

#include "sys/clock.hpp"
#include "sys/env.hpp"
#include "sys/error.hpp"

namespace synapse::resource {

VirtualFile::VirtualFile(const FilesystemSpec& spec,
                         const std::string& backing_path, bool for_write)
    : spec_(spec), path_(backing_path) {
  const int flags = for_write ? (O_RDWR | O_CREAT | O_TRUNC) : O_RDONLY;
  fd_ = ::open(backing_path.c_str(), flags, 0644);
  if (fd_ < 0) {
    throw sys::SystemError("open(" + backing_path + ")", errno);
  }
}

VirtualFile::~VirtualFile() {
  if (fd_ >= 0) ::close(fd_);
}

void VirtualFile::pay(double modelled_cost, double actual_cost) {
  // The real operation already took actual_cost; sleep only the
  // remainder so the observed wall time equals the model (a host faster
  // than the modelled filesystem always satisfies modelled > actual).
  if (modelled_cost > actual_cost) {
    sys::sleep_for(modelled_cost - actual_cost);
  }
}

double VirtualFile::write(uint64_t bytes) {
  if (buffer_.size() < bytes) {
    buffer_.resize(bytes);
    // Non-trivial content defeats filesystem-level compression/dedup.
    for (size_t i = 0; i < buffer_.size(); ++i) {
      buffer_[i] = static_cast<char>((i * 131) ^ (i >> 8));
    }
  }
  const double start = sys::steady_now();
  uint64_t remaining = bytes;
  while (remaining > 0) {
    const ssize_t n = ::write(fd_, buffer_.data() + (bytes - remaining),
                              remaining);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw sys::SystemError("write(" + path_ + ")", errno);
    }
    remaining -= static_cast<uint64_t>(n);
  }
  const double actual = sys::steady_now() - start;
  const double cost = spec_.write_cost(bytes);
  pay(cost, actual);
  stats_.bytes_written += bytes;
  stats_.write_ops += 1;
  stats_.write_seconds += std::max(cost, actual);
  return std::max(cost, actual);
}

double VirtualFile::read(uint64_t bytes) {
  if (buffer_.size() < bytes) buffer_.resize(bytes);
  const double start = sys::steady_now();
  uint64_t got = 0;
  while (got < bytes) {
    const ssize_t n = ::read(fd_, buffer_.data() + got, bytes - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw sys::SystemError("read(" + path_ + ")", errno);
    }
    if (n == 0) {
      // EOF: rewind; if the file is empty, synthesize the remainder.
      if (::lseek(fd_, 0, SEEK_SET) < 0 ||
          stats_.bytes_written == 0) {
        break;
      }
      continue;
    }
    got += static_cast<uint64_t>(n);
  }
  const double actual = sys::steady_now() - start;
  const double cost = spec_.read_cost(bytes);
  pay(cost, actual);
  stats_.bytes_read += bytes;
  stats_.read_ops += 1;
  stats_.read_seconds += std::max(cost, actual);
  return std::max(cost, actual);
}

void VirtualFile::sync() {
  if (::fsync(fd_) != 0) {
    throw sys::SystemError("fsync(" + path_ + ")", errno);
  }
  if (::lseek(fd_, 0, SEEK_SET) < 0) {
    throw sys::SystemError("lseek(" + path_ + ")", errno);
  }
}

VirtualFilesystem::VirtualFilesystem(FilesystemSpec spec, std::string root)
    : spec_(std::move(spec)), root_(std::move(root)) {
  ::mkdir(root_.c_str(), 0755);  // EEXIST is fine
}

std::unique_ptr<VirtualFile> VirtualFilesystem::open(const std::string& name,
                                                     bool for_write) {
  return std::make_unique<VirtualFile>(spec_, root_ + "/" + name, for_write);
}

void VirtualFilesystem::remove(const std::string& name) {
  ::unlink((root_ + "/" + name).c_str());
}

VirtualFilesystem VirtualFilesystem::for_active_resource(
    const std::string& fs_name, std::string base_dir) {
  const ResourceSpec& spec = active_resource();
  const std::string& fs = fs_name.empty() ? spec.default_fs : fs_name;
  if (base_dir.empty()) {
    base_dir = sys::getenv_or("TMPDIR", std::string("/tmp"));
  }
  return VirtualFilesystem(spec.fs(fs),
                           base_dir + "/synapse_vfs_" + spec.name + "_" + fs);
}

}  // namespace synapse::resource
