// Copyright (c) 2026 The PACMAN reproduction authors.
// StorageDevice decorator that records one span per device operation.
//
// Installed through DatabaseOptions::device_factory in the traced run
// only, around the FileDevice the untraced run uses directly. Each span
// carries the operation's payload bytes and the benchmark phase it ran
// in, which is all the device.* per-layer metrics need.
#ifndef PACMAN_BENCH_E2E_TIMING_DEVICE_H_
#define PACMAN_BENCH_E2E_TIMING_DEVICE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "device/storage_device.h"
#include "trace.h"

namespace pacman::e2e {

class TimingDevice final : public device::StorageDevice {
 public:
  explicit TimingDevice(std::unique_ptr<device::StorageDevice> inner)
      : inner_(std::move(inner)) {}

  device::IoResult WriteFile(const std::string& name,
                             std::vector<uint8_t> bytes) override {
    ScopedSpan span("device.write");
    span.set_bytes(bytes.size());
    return inner_->WriteFile(name, std::move(bytes));
  }
  device::IoResult AppendFile(const std::string& name,
                              const std::vector<uint8_t>& bytes) override {
    ScopedSpan span("device.append");
    span.set_bytes(bytes.size());
    return inner_->AppendFile(name, bytes);
  }
  Status ReadFile(const std::string& name,
                  std::vector<uint8_t>* out) const override {
    ScopedSpan span("device.read");
    Status s = inner_->ReadFile(name, out);
    span.set_bytes(out->size());
    return s;
  }
  Status ReadFileShared(
      const std::string& name,
      std::shared_ptr<const std::vector<uint8_t>>* out) const override {
    ScopedSpan span("device.read");
    Status s = inner_->ReadFileShared(name, out);
    if (s.ok() && *out != nullptr) span.set_bytes((*out)->size());
    return s;
  }
  device::IoResult RemoveFile(const std::string& name) override {
    ScopedSpan span("device.remove");
    return inner_->RemoveFile(name);
  }
  device::IoResult SyncBarrier() override {
    ScopedSpan span("device.sync");
    return inner_->SyncBarrier();
  }

  bool Exists(const std::string& name) const override {
    return inner_->Exists(name);
  }
  std::vector<std::string> ListFiles(const std::string& prefix) const override {
    return inner_->ListFiles(prefix);
  }
  void RemoveAll() override { inner_->RemoveAll(); }
  size_t FileSize(const std::string& name) const override {
    return inner_->FileSize(name);
  }
  bool IsPersistent() const override { return inner_->IsPersistent(); }
  double WriteSeconds(size_t bytes) const override {
    return inner_->WriteSeconds(bytes);
  }
  double ReadSeconds(size_t bytes) const override {
    return inner_->ReadSeconds(bytes);
  }
  double FsyncSeconds() const override { return inner_->FsyncSeconds(); }

 private:
  std::unique_ptr<device::StorageDevice> inner_;
};

}  // namespace pacman::e2e

#endif  // PACMAN_BENCH_E2E_TIMING_DEVICE_H_
