// Copyright (c) 2026 The PACMAN reproduction authors.
// Abstract durable-device API.
//
// Every consumer of persistent storage — loggers, the checkpointer, the
// recovery planners and pacman::Database — talks to this interface instead
// of a concrete backend. Two backends ship with the repo:
//
//   device::SimulatedSsd  in-memory object store + bandwidth/latency model
//                         supplying deterministic *virtual-time* costs
//                         (the paper's measurement substrate; Tables 1-3,
//                         Figs. 11-20 are all reported against it);
//   device::FileDevice    a real directory on the local filesystem (POSIX
//                         writes + fsync), whose cost surface reports
//                         *measured wall-clock* seconds — this is the
//                         backend that makes logs survive a process kill.
//
// The cost surface (WriteSeconds / ReadSeconds / FsyncSeconds) is what the
// recovery planners use to price IO tasks, so the same task graphs run
// unchanged over either backend.
#ifndef PACMAN_DEVICE_STORAGE_DEVICE_H_
#define PACMAN_DEVICE_STORAGE_DEVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/status.h"

namespace pacman::device {

// Outcome of a mutating device operation: whether the bytes landed, plus
// the device-time cost of the attempt (modeled virtual seconds for
// simulated backends, measured wall-clock for real ones). Failed attempts
// still report the time they burned. [[nodiscard]] so no durable-path
// caller can silently drop an IO failure.
struct [[nodiscard]] IoResult {
  Status status;
  double seconds = 0.0;

  bool ok() const { return status.ok(); }
  static IoResult Ok(double seconds) { return IoResult{Status::Ok(), seconds}; }
};

class StorageDevice {
 public:
  StorageDevice() = default;
  virtual ~StorageDevice() = default;
  PACMAN_DISALLOW_COPY_AND_MOVE(StorageDevice);

  // --- Durable object store -------------------------------------------
  // All mutating operations return an IoResult carrying both the outcome
  // and the device-time cost of the attempt. The result is [[nodiscard]]:
  // a caller on the durable path must check `status` (a dropped failure
  // here is exactly how acknowledged commits get lost).

  // Replaces `name` with `bytes`. Real backends make this atomic (write to
  // a temporary file, fsync, rename) and durable before returning.
  virtual IoResult WriteFile(const std::string& name,
                             std::vector<uint8_t> bytes) = 0;
  // Appends `bytes` to `name`, creating it if absent. Durability is
  // deferred to the next SyncBarrier().
  virtual IoResult AppendFile(const std::string& name,
                              const std::vector<uint8_t>& bytes) = 0;
  // Reads the whole object into `*out`; kNotFound if absent. Any other
  // failure — including a short read — is a loud kCorruption naming the
  // file and byte offset, never a silently truncated buffer.
  virtual Status ReadFile(const std::string& name,
                          std::vector<uint8_t>* out) const = 0;
  // Bulk read surface for loaders that only need an immutable view of the
  // object: returns a shared handle to the bytes. Backends that hold the
  // object in memory (SimulatedSsd) hand out their internal buffer
  // without copying (writes replace the stored handle, so outstanding
  // readers keep a stable snapshot); the default delegates to ReadFile.
  // The recovery pipeline reads every batch file through this, so a
  // multi-GB reload never duplicates the log in memory.
  virtual Status ReadFileShared(
      const std::string& name,
      std::shared_ptr<const std::vector<uint8_t>>* out) const {
    auto buf = std::make_shared<std::vector<uint8_t>>();
    Status s = ReadFile(name, buf.get());
    if (!s.ok()) return s;
    *out = std::move(buf);
    return Status::Ok();
  }
  virtual bool Exists(const std::string& name) const = 0;
  // Names starting with `prefix`, lexicographically sorted. Callers that
  // need numeric order must parse the names (LogStore::ParseBatchFileName).
  virtual std::vector<std::string> ListFiles(
      const std::string& prefix) const = 0;
  virtual void RemoveAll() = 0;
  // Deletes one object. Idempotent: removing an absent name is a no-op
  // (log truncation races benignly with itself across restarts). Real
  // backends make the removal durable before returning (unlink + fsync of
  // the directory), so a batch file deleted by garbage collection never
  // resurrects after a crash.
  virtual IoResult RemoveFile(const std::string& name) = 0;
  // Size in bytes, or 0 when absent.
  virtual size_t FileSize(const std::string& name) const = 0;

  // Durability barrier (the group-commit fsync point): when it returns
  // OK, every preceding write on this device is durable — also when
  // another thread's barrier is already flushing some of them. Counts one
  // fsync.
  virtual IoResult SyncBarrier() = 0;

  // True when the backend is a real durable medium whose contents outlive
  // the process. Recovery then treats a missing pepoch watermark as "no
  // flush ever completed" and erases beyond-watermark and torn records
  // from the files (Database::Recover, LogStore::TruncateBeyondWatermark).
  // The write path is the same on every backend.
  virtual bool IsPersistent() const = 0;

  // --- Cost surface ----------------------------------------------------
  // Simulated backends: the configured bandwidth/latency model (virtual
  // seconds). Real backends: estimates from measured wall-clock samples.
  virtual double WriteSeconds(size_t bytes) const = 0;
  virtual double ReadSeconds(size_t bytes) const = 0;
  virtual double FsyncSeconds() const = 0;

  // --- Accounting -------------------------------------------------------
  uint64_t total_bytes_written() const {
    return total_bytes_written_.load(std::memory_order_relaxed);
  }
  uint64_t total_fsyncs() const {
    return total_fsyncs_.load(std::memory_order_relaxed);
  }

 protected:
  void CountBytesWritten(uint64_t n) {
    total_bytes_written_.fetch_add(n, std::memory_order_relaxed);
  }
  void CountFsync() { total_fsyncs_.fetch_add(1, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> total_bytes_written_{0};
  std::atomic<uint64_t> total_fsyncs_{0};
};

// Backend selector for DatabaseOptions and the --device flag.
enum class DeviceKind {
  kSimulatedSsd,  // In-memory store + virtual-time cost model (default).
  kFile,          // Real directory, POSIX writes + fsync, wall-clock costs.
};

// Constructs the backend for device index `i` (a database stripes its
// loggers and checkpoints over several devices). Lets tests and embedders
// plug in custom backends without touching the engine.
using DeviceFactory =
    std::function<std::unique_ptr<StorageDevice>(uint32_t index)>;

}  // namespace pacman::device

#endif  // PACMAN_DEVICE_STORAGE_DEVICE_H_
