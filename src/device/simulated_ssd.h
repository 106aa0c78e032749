// Copyright (c) 2026 The PACMAN reproduction authors.
//
// Simulated SSD. The paper's testbed used two 512 GB SATA SSDs (550 MB/s
// sequential read, 520 MB/s sequential write). We cannot attach those, so
// logs and checkpoints are persisted to an in-memory object store while a
// bandwidth/latency model supplies the virtual-time cost of every write,
// read and fsync. The bytes stored are the *real* serialized bytes produced
// by the log serializers, so Table 1's size ratios are measured, not modeled.
#ifndef PACMAN_DEVICE_SIMULATED_SSD_H_
#define PACMAN_DEVICE_SIMULATED_SSD_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "device/storage_device.h"

namespace pacman::device {

// Thread-safe in-memory file store + virtual-time cost model of the
// paper's devices.
class SimulatedSsd final : public StorageDevice {
 public:
  static constexpr double kReadMbps = 550.0;      // Sequential read.
  static constexpr double kWriteMbps = 520.0;     // Sequential write.
  static constexpr double kFsyncLatencyS = 5e-3;  // One fsync barrier.

  // --- Durable object store -------------------------------------------
  IoResult WriteFile(const std::string& name,
                     std::vector<uint8_t> bytes) override;
  IoResult AppendFile(const std::string& name,
                      const std::vector<uint8_t>& bytes) override;
  Status ReadFile(const std::string& name,
                  std::vector<uint8_t>* out) const override;
  // Zero-copy: hands out the stored buffer itself. WriteFile replaces the
  // stored handle and AppendFile copies a buffer a reader still holds, so
  // readers keep a stable snapshot (copy-on-write at file granularity).
  Status ReadFileShared(
      const std::string& name,
      std::shared_ptr<const std::vector<uint8_t>>* out) const override;
  bool Exists(const std::string& name) const override;
  std::vector<std::string> ListFiles(const std::string& prefix) const override;
  void RemoveAll() override;
  IoResult RemoveFile(const std::string& name) override;
  size_t FileSize(const std::string& name) const override;
  IoResult SyncBarrier() override;
  // Nothing actually survives the process; crashes are injected with
  // Database::Crash().
  bool IsPersistent() const override { return false; }

  // --- Virtual-time cost model ----------------------------------------
  double WriteSeconds(size_t bytes) const override {
    return static_cast<double>(bytes) / (kWriteMbps * 1e6);
  }
  double ReadSeconds(size_t bytes) const override {
    return static_cast<double>(bytes) / (kReadMbps * 1e6);
  }
  double FsyncSeconds() const override { return kFsyncLatencyS; }

 private:
  mutable std::mutex mu_;
  // A stored buffer is mutated in place only while no reader shares it
  // (see AppendFile); otherwise every mutation installs a fresh one.
  std::unordered_map<std::string, std::shared_ptr<std::vector<uint8_t>>>
      files_;
};

}  // namespace pacman::device

#endif  // PACMAN_DEVICE_SIMULATED_SSD_H_
