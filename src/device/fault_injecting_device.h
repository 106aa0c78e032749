// Copyright (c) 2026 The PACMAN reproduction authors.
// Deterministic fault injection for the durable path.
//
// FaultInjectingDevice decorates any StorageDevice with a scriptable
// failure schedule: fail the N-th write/append/fsync/read (transiently or
// permanently), tear a write or append at byte k, run out of space after a
// byte budget, or fail ops probabilistically from a seeded generator. Every
// operation is counted, and (optionally) every successful mutation is
// recorded into a shared OpJournal so a test can rebuild the device state
// as of *any* operation boundary — the substrate for the ALICE-style
// crash-consistency sweeps in tests/fault_injection_test.cc.
//
// Selectable from the command line as `--device faulty:<spec>`, e.g.
//
//   --device faulty:file,fail_write=40         # 40th WriteFile onward fails
//   --device faulty:sim,persist=1,fail_fsync=3,heal=2   # 2 transient misses
//   --device faulty:file,torn=128,fail_write=7 # 7th write torn at 128 bytes
//   --device faulty:file,torn=16,fail_append=9 # 9th append keeps 16 bytes
//   --device faulty:sim,enospc=1048576         # device full after 1 MiB
//   --device faulty:file,rate=5,seed=42        # 5% of mutations fail
#ifndef PACMAN_DEVICE_FAULT_INJECTING_DEVICE_H_
#define PACMAN_DEVICE_FAULT_INJECTING_DEVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "device/storage_device.h"

namespace pacman::device {

// The schedule. All op triggers are 1-based indices into that op type's
// call sequence on this device; 0 means "never". A triggered fault fails
// every call from the trigger on when `heal_after` is 0 (a dead device),
// or exactly `heal_after` calls before succeeding again (a transient
// hiccup the retry policy should absorb).
struct FaultSpec {
  static constexpr uint64_t kNoTear = ~0ull;

  uint64_t fail_write = 0;   // Fail the Nth (and later) WriteFile.
  uint64_t fail_append = 0;  // Fail the Nth (and later) AppendFile.
  uint64_t fail_fsync = 0;   // Fail the Nth (and later) SyncBarrier.
  uint64_t fail_read = 0;    // Fail the Nth (and later) ReadFile[Shared].
  uint64_t heal_after = 0;   // 0 = permanent; else transient failure count.
  // On a WriteFile failed by `fail_write`: persist only the first
  // `torn_bytes` bytes to the inner device before reporting the error —
  // models a medium without atomic replace tearing mid-write. On an
  // AppendFile failed by `fail_append`: append only the first
  // `torn_bytes` bytes — a crash mid-append.
  uint64_t torn_bytes = kNoTear;
  uint64_t enospc_bytes = 0;  // 0 = unlimited; else total write-byte budget.
  // Probabilistic mode: each mutating op independently fails with
  // `rate_percent`% drawn from a deterministic xorshift64* stream seeded
  // with `seed` — same spec, same fault sequence.
  uint64_t rate_percent = 0;
  uint64_t seed = 1;
  int only_device = -1;  // Inject only on this device index; -1 = all.
  bool persist = false;  // Claim IsPersistent() even over a sim inner.
};

// Parses the `<inner>[,key=value]*` spec of `--device faulty:<spec>`.
// `inner` is "sim" or "file"; keys are fail_write, fail_append,
// fail_fsync, fail_read, heal, torn, enospc, rate, seed, device, persist.
// On success fills *out and *inner_kind.
Status ParseFaultSpec(const std::string& spec, FaultSpec* out,
                      std::string* inner_kind);

// Monotonic op-trace counters (reads via ReadFile and ReadFileShared
// share one counter: both are "a read" to the schedule).
struct FaultCounters {
  uint64_t writes = 0;
  uint64_t appends = 0;
  uint64_t fsyncs = 0;
  uint64_t reads = 0;
  uint64_t removes = 0;
  uint64_t faults_injected = 0;
};

// One successful mutating operation, in cross-device arrival order.
// RemoveAll and reads are not journaled: the former is a test reset, the
// latter does not change state.
struct OpJournalEntry {
  enum class Kind { kWrite, kAppend, kRemove };
  Kind kind = Kind::kWrite;
  uint32_t device = 0;
  std::string name;
  std::vector<uint8_t> bytes;  // Payload for kWrite/kAppend.
};

// Shared, thread-safe journal: attach one to every device of a database
// and the entry order is a linearization of its durable operations.
class OpJournal {
 public:
  void Append(OpJournalEntry entry) {
    std::lock_guard<std::mutex> g(mu_);
    entries_.push_back(std::move(entry));
  }
  size_t size() const {
    std::lock_guard<std::mutex> g(mu_);
    return entries_.size();
  }
  std::vector<OpJournalEntry> Snapshot() const {
    std::lock_guard<std::mutex> g(mu_);
    return entries_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<OpJournalEntry> entries_;
};

// Applies entries [0, upto) to fresh target devices (index = entry.device),
// rebuilding the exact device state a crash at that operation boundary
// would have left behind.
void ReplayJournal(const std::vector<OpJournalEntry>& entries, size_t upto,
                   const std::vector<StorageDevice*>& targets);

class FaultInjectingDevice final : public StorageDevice {
 public:
  // `index` is the database's device index (for only_device and the
  // journal); `journal` may be null.
  FaultInjectingDevice(std::unique_ptr<StorageDevice> inner, FaultSpec spec,
                       uint32_t index = 0,
                       std::shared_ptr<OpJournal> journal = nullptr);

  IoResult WriteFile(const std::string& name,
                     std::vector<uint8_t> bytes) override;
  IoResult AppendFile(const std::string& name,
                      const std::vector<uint8_t>& bytes) override;
  Status ReadFile(const std::string& name,
                  std::vector<uint8_t>* out) const override;
  Status ReadFileShared(
      const std::string& name,
      std::shared_ptr<const std::vector<uint8_t>>* out) const override;
  bool Exists(const std::string& name) const override;
  std::vector<std::string> ListFiles(const std::string& prefix) const override;
  void RemoveAll() override;
  IoResult RemoveFile(const std::string& name) override;
  size_t FileSize(const std::string& name) const override;
  IoResult SyncBarrier() override;
  bool IsPersistent() const override {
    return spec_.persist || inner_->IsPersistent();
  }

  double WriteSeconds(size_t bytes) const override {
    return inner_->WriteSeconds(bytes);
  }
  double ReadSeconds(size_t bytes) const override {
    return inner_->ReadSeconds(bytes);
  }
  double FsyncSeconds() const override { return inner_->FsyncSeconds(); }

  // --- Programmatic schedule controls (tests) --------------------------
  // Kills the device now: every mutating op and barrier fails until
  // Heal(). Models yanking the log volume mid-run.
  void FailAllWrites(std::string reason);
  // Clears a kill and the ENOSPC budget consumption.
  void Heal();

  FaultCounters counters() const;
  StorageDevice* inner() { return inner_.get(); }

 private:
  // Shared schedule decision for one op: returns non-OK when the op with
  // 1-based number `opno` of a type triggered at `trigger` must fail.
  Status FaultFor(const char* op, const std::string& name, uint64_t opno,
                  uint64_t trigger) const;
  bool RateFault() const;

  std::unique_ptr<StorageDevice> inner_;
  FaultSpec spec_;
  uint32_t index_;
  std::shared_ptr<OpJournal> journal_;

  mutable std::mutex mu_;  // Guards counters_, rng_, bytes_attempted_, kill.
  mutable FaultCounters counters_;
  mutable uint64_t rng_;
  uint64_t bytes_attempted_ = 0;
  bool killed_ = false;
  std::string kill_reason_;
};

}  // namespace pacman::device

#endif  // PACMAN_DEVICE_FAULT_INJECTING_DEVICE_H_
