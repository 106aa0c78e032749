// Copyright (c) 2026 The PACMAN reproduction authors.
//
// File-backed durable device: a real directory on the local filesystem.
// Objects are plain files written with POSIX I/O; WriteFile is atomic
// (temporary file + fsync + rename) and the SyncBarrier fsyncs every file
// appended to since the last barrier plus the directory, so a process
// killed after a group-commit flush leaves a consistent, recoverable log
// behind. Barriers run one at a time, and after a failed fsync every
// barrier fails until the file is rewritten: a retried fsync can report
// success for appended bytes the kernel already dropped. This is the
// backend that turns the paper's headline claim — fast recovery from a
// *real* failure — into something the repo can demonstrate by killing and
// restarting a process.
//
// The cost surface reports measured wall-clock seconds: each operation is
// timed, and WriteSeconds/ReadSeconds/FsyncSeconds answer from running
// measured-bandwidth averages (falling back to the configured nominal
// rates before any samples exist), so Table 2/3-style flush accounting
// still reports meaningful numbers over this backend.
#ifndef PACMAN_DEVICE_FILE_DEVICE_H_
#define PACMAN_DEVICE_FILE_DEVICE_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "device/storage_device.h"

namespace pacman::device {

// Validated at FileDevice construction: the directory must be named and
// creatable, and the nominal fallback rates positive.
struct FileDeviceConfig {
  std::string dir;  // Required: directory holding this device's objects.
  // Cost-surface priors used until real samples accumulate. Defaults
  // mirror the paper's SSDs so sim-vs-file comparisons start aligned.
  double nominal_read_mbps = 550.0;
  double nominal_write_mbps = 520.0;
  double nominal_fsync_s = 5e-4;
  // Called instead of fsync(2) on each appended file a SyncBarrier
  // flushes, when set. Tests use it to hold a barrier mid-fsync or to fail
  // one.
  std::function<int(int fd)> fsync_file = nullptr;
};

class FileDevice final : public StorageDevice {
 public:
  explicit FileDevice(FileDeviceConfig config);

  // --- Durable object store -------------------------------------------
  IoResult WriteFile(const std::string& name,
                     std::vector<uint8_t> bytes) override;
  IoResult AppendFile(const std::string& name,
                      const std::vector<uint8_t>& bytes) override;
  Status ReadFile(const std::string& name,
                  std::vector<uint8_t>* out) const override;
  bool Exists(const std::string& name) const override;
  std::vector<std::string> ListFiles(const std::string& prefix) const override;
  void RemoveAll() override;
  IoResult RemoveFile(const std::string& name) override;
  size_t FileSize(const std::string& name) const override;
  IoResult SyncBarrier() override;
  bool IsPersistent() const override { return true; }

  // --- Measured wall-clock cost surface --------------------------------
  double WriteSeconds(size_t bytes) const override;
  double ReadSeconds(size_t bytes) const override;
  double FsyncSeconds() const override;

  const FileDeviceConfig& config() const { return config_; }

 private:
  std::string PathFor(const std::string& name) const;
  // Drops `name` from the owed and lost append sets (it was replaced or
  // removed durably).
  void ForgetAppends(const std::string& name);
  void RecordWrite(uint64_t bytes, double seconds);
  void RecordRead(uint64_t bytes, double seconds) const;
  void RecordFsync(double seconds);

  FileDeviceConfig config_;

  // Held for a whole SyncBarrier, so a barrier returns only after every
  // barrier already running has finished its fsyncs.
  std::mutex barrier_mu_;
  // Files appended to since the last barrier; SyncBarrier fsyncs each of
  // them (plus the directory) to honor the durability contract. A file
  // whose fsync failed moves to lost_appends_, and every barrier fails
  // until WriteFile replaces it or RemoveFile deletes it.
  std::mutex dirty_mu_;
  std::vector<std::string> dirty_appends_;
  std::vector<std::string> lost_appends_;

  // Measured-bandwidth accumulators behind one latch; reads are rare
  // (graph building / reporting), so contention is negligible.
  mutable std::mutex stats_mu_;
  uint64_t written_bytes_ = 0;
  double write_seconds_ = 0.0;
  mutable uint64_t read_bytes_ = 0;
  mutable double read_seconds_ = 0.0;
  uint64_t fsync_count_ = 0;
  double fsync_seconds_ = 0.0;
};

}  // namespace pacman::device

#endif  // PACMAN_DEVICE_FILE_DEVICE_H_
