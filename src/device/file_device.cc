#include "device/file_device.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <system_error>

namespace pacman::device {

namespace fs = std::filesystem;

namespace {

constexpr char kTmpSuffix[] = ".tmp";

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Writes the whole buffer, retrying short writes. Returns false on error.
bool WriteFully(int fd, const uint8_t* data, size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

// Every IO failure names the operation, the path, and the errno text, so
// an operator can tell a full disk from a yanked mount from the log line
// alone.
Status IoError(const std::string& what, const std::string& path) {
  return Status::Internal("FileDevice: " + what + ": " + path + ": " +
                          std::strerror(errno));
}

// fsync the directory itself so renames/creations are durable. An fsync
// error means the medium can no longer honor the durability contract —
// the caller must treat the preceding writes as not durable.
Status FsyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return IoError("cannot open directory for fsync", dir);
  if (::fsync(fd) != 0) {
    const Status s = IoError("directory fsync failed", dir);
    ::close(fd);
    return s;
  }
  ::close(fd);
  return Status::Ok();
}

}  // namespace

FileDevice::FileDevice(FileDeviceConfig config) : config_(std::move(config)) {
  PACMAN_CHECK_MSG(!config_.dir.empty(),
                   "FileDeviceConfig::dir must name a directory");
  PACMAN_CHECK_MSG(config_.nominal_read_mbps > 0.0,
                   "FileDeviceConfig::nominal_read_mbps must be positive");
  PACMAN_CHECK_MSG(config_.nominal_write_mbps > 0.0,
                   "FileDeviceConfig::nominal_write_mbps must be positive");
  PACMAN_CHECK_MSG(config_.nominal_fsync_s >= 0.0,
                   "FileDeviceConfig::nominal_fsync_s must be non-negative");
  std::error_code ec;
  fs::create_directories(config_.dir, ec);
  PACMAN_CHECK_MSG(!ec && fs::is_directory(config_.dir),
                   "FileDeviceConfig::dir is not a creatable directory");
}

std::string FileDevice::PathFor(const std::string& name) const {
  return config_.dir + "/" + name;
}

void FileDevice::ForgetAppends(const std::string& name) {
  std::lock_guard<std::mutex> g(dirty_mu_);
  for (std::vector<std::string>* list : {&dirty_appends_, &lost_appends_}) {
    list->erase(std::remove(list->begin(), list->end(), name), list->end());
  }
}

IoResult FileDevice::WriteFile(const std::string& name,
                               std::vector<uint8_t> bytes) {
  const double t0 = Now();
  const std::string path = PathFor(name);
  const std::string tmp = path + kTmpSuffix;
  // Atomic replace: write + fsync a temporary, then rename over the
  // target, then fsync the directory. A kill at any point leaves either
  // the old object or the new one, never a torn mix. Any step failing
  // means the new object is not durable; the caller decides whether to
  // retry or degrade.
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return IoResult{IoError("cannot create temporary file", tmp), Now() - t0};
  }
  if (!WriteFully(fd, bytes.data(), bytes.size())) {
    const Status s = IoError("short write", tmp);
    ::close(fd);
    ::unlink(tmp.c_str());
    return IoResult{s, Now() - t0};
  }
  if (::fsync(fd) != 0) {
    const Status s = IoError("fsync failed", tmp);
    ::close(fd);
    ::unlink(tmp.c_str());
    return IoResult{s, Now() - t0};
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const Status s = IoError("rename failed", path);
    ::unlink(tmp.c_str());
    return IoResult{s, Now() - t0};
  }
  if (Status s = FsyncDir(config_.dir); !s.ok()) {
    return IoResult{std::move(s), Now() - t0};
  }
  // The durable replacement supersedes every earlier append, owed or lost.
  ForgetAppends(name);
  const double secs = Now() - t0;
  CountBytesWritten(bytes.size());
  CountFsync();  // The embedded fsync; its wall time counts as write time.
  RecordWrite(bytes.size(), secs);
  return IoResult::Ok(secs);
}

IoResult FileDevice::AppendFile(const std::string& name,
                                const std::vector<uint8_t>& bytes) {
  const double t0 = Now();
  const std::string path = PathFor(name);
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    return IoResult{IoError("cannot open file for append", path), Now() - t0};
  }
  if (!WriteFully(fd, bytes.data(), bytes.size())) {
    const Status s = IoError("short append", path);
    ::close(fd);
    return IoResult{s, Now() - t0};
  }
  ::close(fd);
  {
    std::lock_guard<std::mutex> g(dirty_mu_);
    if (std::find(dirty_appends_.begin(), dirty_appends_.end(), name) ==
        dirty_appends_.end()) {
      dirty_appends_.push_back(name);
    }
  }
  const double secs = Now() - t0;
  CountBytesWritten(bytes.size());
  RecordWrite(bytes.size(), secs);
  return IoResult::Ok(secs);
}

Status FileDevice::ReadFile(const std::string& name,
                            std::vector<uint8_t>* out) const {
  const double t0 = Now();
  const int fd = ::open(PathFor(name).c_str(), O_RDONLY);
  if (fd < 0) {
    // Only a genuinely missing file is NotFound — recovery treats that
    // status as "state absent" (e.g. no pepoch watermark) and acts on it,
    // so a transient failure (EMFILE, EACCES, EIO) must not masquerade
    // as absence.
    if (errno == ENOENT) return Status::NotFound("no file: " + name);
    return Status::Corruption("open failed: " + name + ": " +
                              std::strerror(errno));
  }
  // One buffer of the size fstat reports, read into in place. A file that
  // grew since (an append racing the read) continues into `buf`, which
  // then also finds the end; one that shrank ends the read early.
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const Status s = Status::Corruption("fstat failed: " + name + ": " +
                                        std::strerror(errno));
    ::close(fd);
    return s;
  }
  out->resize(static_cast<size_t>(st.st_size));
  size_t got = 0;
  uint8_t buf[1 << 16];
  for (;;) {
    const bool in_place = got < out->size();
    const ssize_t r = in_place
                          ? ::read(fd, out->data() + got, out->size() - got)
                          : ::read(fd, buf, sizeof(buf));
    if (r < 0) {
      if (errno == EINTR) continue;  // Interrupted mid-read: not a failure.
      const Status s = Status::Corruption(
          "read failed: " + name + " at offset " + std::to_string(got) +
          ": " + std::strerror(errno));
      ::close(fd);
      return s;
    }
    if (r == 0) break;
    if (!in_place) out->insert(out->end(), buf, buf + r);
    got += static_cast<size_t>(r);
  }
  ::close(fd);
  out->resize(got);
  RecordRead(out->size(), Now() - t0);
  return Status::Ok();
}

bool FileDevice::Exists(const std::string& name) const {
  std::error_code ec;
  return fs::is_regular_file(PathFor(name), ec);
}

std::vector<std::string> FileDevice::ListFiles(
    const std::string& prefix) const {
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(config_.dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    // In-flight atomic-replace temporaries are not objects.
    if (name.size() >= sizeof(kTmpSuffix) - 1 &&
        name.compare(name.size() - (sizeof(kTmpSuffix) - 1),
                     sizeof(kTmpSuffix) - 1, kTmpSuffix) == 0) {
      continue;
    }
    if (name.rfind(prefix, 0) == 0) out.push_back(name);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void FileDevice::RemoveAll() {
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(config_.dir, ec)) {
    std::error_code rm_ec;
    fs::remove(entry.path(), rm_ec);
  }
  // Best-effort: RemoveAll is a test/bench reset, not a durable-path op.
  (void)FsyncDir(config_.dir);
}

IoResult FileDevice::RemoveFile(const std::string& name) {
  const double t0 = Now();
  const std::string path = PathFor(name);
  if (::unlink(path.c_str()) != 0) {
    // Absent is fine (GC retried across a restart); anything else means
    // the medium is broken and a "truncated" file could resurrect.
    if (errno == ENOENT) return IoResult::Ok(0.0);
    return IoResult{IoError("unlink failed", path), Now() - t0};
  }
  // The barrier tolerates missing files, but there is no point fsyncing a
  // deleted object, and a deleted one has no appends left to lose.
  ForgetAppends(name);
  if (Status s = FsyncDir(config_.dir); !s.ok()) {
    return IoResult{std::move(s), Now() - t0};
  }
  const double secs = Now() - t0;
  RecordFsync(secs);
  return IoResult::Ok(secs);
}

size_t FileDevice::FileSize(const std::string& name) const {
  std::error_code ec;
  const auto size = fs::file_size(PathFor(name), ec);
  return ec ? 0 : static_cast<size_t>(size);
}

IoResult FileDevice::SyncBarrier() {
  const double t0 = Now();
  // One barrier at a time. A barrier swaps the whole append set off the
  // list, so a concurrent caller would otherwise find it empty and return
  // OK while the first is still fsyncing appends made before its call.
  // Waiting here, it runs after that fsync finishes (or fails and leaves
  // its files owed or lost).
  std::lock_guard<std::mutex> barrier(barrier_mu_);
  // Appended data is only durable once its file is fsynced; WriteFile
  // already fsyncs inline, so the barrier owes exactly the append set.
  std::vector<std::string> dirty;
  {
    std::lock_guard<std::mutex> g(dirty_mu_);
    if (!lost_appends_.empty()) {
      return IoResult{
          Status::Internal("FileDevice: an earlier fsync failed, appends to " +
                           PathFor(lost_appends_.front()) +
                           " are not durable until the file is rewritten"),
          Now() - t0};
    }
    dirty.swap(dirty_appends_);
  }
  for (size_t i = 0; i < dirty.size(); ++i) {
    const std::string path = PathFor(dirty[i]);
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) continue;  // Removed/renamed since the append.
    const int rc = config_.fsync_file ? config_.fsync_file(fd) : ::fsync(fd);
    if (rc != 0) {
      const Status s = IoError("fsync failed", path);
      ::close(fd);
      // The kernel may have dropped the failed file's dirty pages, and a
      // second fsync would then report success for bytes that are gone:
      // the file stays lost until WriteFile replaces it. The un-fsynced
      // remainder stays owed to the next barrier.
      std::lock_guard<std::mutex> g(dirty_mu_);
      lost_appends_.push_back(dirty[i]);
      dirty_appends_.insert(dirty_appends_.end(), dirty.begin() + i + 1,
                            dirty.end());
      return IoResult{s, Now() - t0};
    }
    ::close(fd);
  }
  if (Status s = FsyncDir(config_.dir); !s.ok()) {
    return IoResult{std::move(s), Now() - t0};
  }
  const double secs = Now() - t0;
  CountFsync();
  RecordFsync(secs);
  return IoResult::Ok(secs);
}

double FileDevice::WriteSeconds(size_t bytes) const {
  std::lock_guard<std::mutex> g(stats_mu_);
  if (written_bytes_ > 0 && write_seconds_ > 0.0) {
    return static_cast<double>(bytes) * write_seconds_ /
           static_cast<double>(written_bytes_);
  }
  return static_cast<double>(bytes) / (config_.nominal_write_mbps * 1e6);
}

double FileDevice::ReadSeconds(size_t bytes) const {
  std::lock_guard<std::mutex> g(stats_mu_);
  if (read_bytes_ > 0 && read_seconds_ > 0.0) {
    return static_cast<double>(bytes) * read_seconds_ /
           static_cast<double>(read_bytes_);
  }
  return static_cast<double>(bytes) / (config_.nominal_read_mbps * 1e6);
}

double FileDevice::FsyncSeconds() const {
  std::lock_guard<std::mutex> g(stats_mu_);
  if (fsync_count_ > 0 && fsync_seconds_ > 0.0) {
    return fsync_seconds_ / static_cast<double>(fsync_count_);
  }
  return config_.nominal_fsync_s;
}

void FileDevice::RecordWrite(uint64_t bytes, double seconds) {
  std::lock_guard<std::mutex> g(stats_mu_);
  written_bytes_ += bytes;
  write_seconds_ += seconds;
}

void FileDevice::RecordRead(uint64_t bytes, double seconds) const {
  std::lock_guard<std::mutex> g(stats_mu_);
  read_bytes_ += bytes;
  read_seconds_ += seconds;
}

void FileDevice::RecordFsync(double seconds) {
  std::lock_guard<std::mutex> g(stats_mu_);
  fsync_count_++;
  fsync_seconds_ += seconds;
}

}  // namespace pacman::device
