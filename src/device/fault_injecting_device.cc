#include "device/fault_injecting_device.h"

#include <algorithm>
#include <utility>

namespace pacman::device {

namespace {

// Splits "a,b,c" on commas; no escaping (names in specs carry no commas).
std::vector<std::string> SplitComma(const std::string& s) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    const size_t comma = s.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

bool ParseU64(const std::string& s, uint64_t* out) {
  if (s.empty()) return false;
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

}  // namespace

Status ParseFaultSpec(const std::string& spec, FaultSpec* out,
                      std::string* inner_kind) {
  const std::vector<std::string> parts = SplitComma(spec);
  if (parts.empty() || (parts[0] != "sim" && parts[0] != "file")) {
    return Status::InvalidArgument(
        "faulty device spec must start with inner backend sim|file: \"" +
        spec + "\"");
  }
  *inner_kind = parts[0];
  FaultSpec s;
  for (size_t i = 1; i < parts.size(); ++i) {
    const size_t eq = parts[i].find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("faulty spec entry is not key=value: \"" +
                                     parts[i] + "\"");
    }
    const std::string key = parts[i].substr(0, eq);
    uint64_t value = 0;
    if (!ParseU64(parts[i].substr(eq + 1), &value)) {
      return Status::InvalidArgument(
          "faulty spec value is not a non-negative integer: \"" + parts[i] +
          "\"");
    }
    if (key == "fail_write") {
      s.fail_write = value;
    } else if (key == "fail_append") {
      s.fail_append = value;
    } else if (key == "fail_fsync") {
      s.fail_fsync = value;
    } else if (key == "fail_read") {
      s.fail_read = value;
    } else if (key == "heal") {
      s.heal_after = value;
    } else if (key == "torn") {
      s.torn_bytes = value;
    } else if (key == "enospc") {
      s.enospc_bytes = value;
    } else if (key == "rate") {
      if (value > 100) {
        return Status::InvalidArgument("faulty spec rate must be 0..100");
      }
      s.rate_percent = value;
    } else if (key == "seed") {
      s.seed = value | 1;  // xorshift state must be non-zero.
    } else if (key == "device") {
      s.only_device = static_cast<int>(value);
    } else if (key == "persist") {
      s.persist = value != 0;
    } else {
      return Status::InvalidArgument("unknown faulty spec key: \"" + key +
                                     "\"");
    }
  }
  *out = s;
  return Status::Ok();
}

void ReplayJournal(const std::vector<OpJournalEntry>& entries, size_t upto,
                   const std::vector<StorageDevice*>& targets) {
  upto = std::min(upto, entries.size());
  for (size_t i = 0; i < upto; ++i) {
    const OpJournalEntry& e = entries[i];
    if (e.device >= targets.size() || targets[e.device] == nullptr) continue;
    StorageDevice* dev = targets[e.device];
    switch (e.kind) {
      case OpJournalEntry::Kind::kWrite: {
        IoResult r = dev->WriteFile(e.name, e.bytes);
        (void)r;  // Replay targets are healthy in-memory devices.
        break;
      }
      case OpJournalEntry::Kind::kAppend: {
        IoResult r = dev->AppendFile(e.name, e.bytes);
        (void)r;
        break;
      }
      case OpJournalEntry::Kind::kRemove: {
        IoResult r = dev->RemoveFile(e.name);
        (void)r;
        break;
      }
    }
  }
}

FaultInjectingDevice::FaultInjectingDevice(
    std::unique_ptr<StorageDevice> inner, FaultSpec spec, uint32_t index,
    std::shared_ptr<OpJournal> journal)
    : inner_(std::move(inner)),
      spec_(spec),
      index_(index),
      journal_(std::move(journal)),
      rng_(spec.seed | 1) {}

bool FaultInjectingDevice::RateFault() const {
  if (spec_.rate_percent == 0) return false;
  // xorshift64*: deterministic per (seed, op order).
  rng_ ^= rng_ >> 12;
  rng_ ^= rng_ << 25;
  rng_ ^= rng_ >> 27;
  return (rng_ * 0x2545f4914f6cdd1dull) % 100 < spec_.rate_percent;
}

Status FaultInjectingDevice::FaultFor(const char* op, const std::string& name,
                                      uint64_t opno,
                                      uint64_t trigger) const {
  // Caller holds mu_.
  if (spec_.only_device >= 0 &&
      index_ != static_cast<uint32_t>(spec_.only_device)) {
    return Status::Ok();
  }
  if (killed_) {
    return Status::Internal("FaultInjectingDevice: device failed (" +
                            kill_reason_ + "): " + op + " " + name);
  }
  const bool scheduled =
      trigger != 0 && opno >= trigger &&
      (spec_.heal_after == 0 || opno < trigger + spec_.heal_after);
  if (scheduled || RateFault()) {
    return Status::Internal("FaultInjectingDevice: injected " +
                            std::string(op) + " failure #" +
                            std::to_string(opno) + ": " + name);
  }
  return Status::Ok();
}

IoResult FaultInjectingDevice::WriteFile(const std::string& name,
                                         std::vector<uint8_t> bytes) {
  uint64_t opno;
  Status fault;
  bool torn = false;
  {
    std::lock_guard<std::mutex> g(mu_);
    opno = ++counters_.writes;
    fault = FaultFor("write", name, opno, spec_.fail_write);
    if (fault.ok() && spec_.enospc_bytes != 0) {
      bytes_attempted_ += bytes.size();
      if (bytes_attempted_ > spec_.enospc_bytes) {
        fault = Status::Internal(
            "FaultInjectingDevice: no space left on device (budget " +
            std::to_string(spec_.enospc_bytes) + " bytes): write " + name);
      }
    }
    if (!fault.ok()) {
      counters_.faults_injected++;
      // Tear only the scheduled fail_write fault: a dead device writes
      // nothing, a torn medium persists a prefix.
      torn = !killed_ && spec_.torn_bytes != FaultSpec::kNoTear &&
             spec_.fail_write != 0 && opno >= spec_.fail_write;
    }
  }
  if (fault.ok()) {
    IoResult r = inner_->WriteFile(name, bytes);
    if (r.ok()) {
      CountBytesWritten(bytes.size());
      if (journal_ != nullptr) {
        journal_->Append({OpJournalEntry::Kind::kWrite, index_, name,
                          std::move(bytes)});
      }
    }
    return r;
  }
  if (torn) {
    std::vector<uint8_t> prefix(
        bytes.begin(),
        bytes.begin() +
            static_cast<ptrdiff_t>(std::min<uint64_t>(spec_.torn_bytes,
                                                      bytes.size())));
    IoResult r = inner_->WriteFile(name, std::move(prefix));
    (void)r;  // The op still reports failure; the tear is the point.
  }
  return IoResult{fault, inner_->WriteSeconds(bytes.size())};
}

IoResult FaultInjectingDevice::AppendFile(const std::string& name,
                                          const std::vector<uint8_t>& bytes) {
  Status fault;
  bool torn = false;
  {
    std::lock_guard<std::mutex> g(mu_);
    const uint64_t opno = ++counters_.appends;
    fault = FaultFor("append", name, opno, spec_.fail_append);
    if (fault.ok() && spec_.enospc_bytes != 0) {
      bytes_attempted_ += bytes.size();
      if (bytes_attempted_ > spec_.enospc_bytes) {
        fault = Status::Internal(
            "FaultInjectingDevice: no space left on device (budget " +
            std::to_string(spec_.enospc_bytes) + " bytes): append " + name);
      }
    }
    if (!fault.ok()) {
      counters_.faults_injected++;
      // As for writes: only the scheduled fail_append fault tears.
      torn = !killed_ && spec_.torn_bytes != FaultSpec::kNoTear &&
             spec_.fail_append != 0 && opno >= spec_.fail_append;
    }
  }
  if (fault.ok()) {
    IoResult r = inner_->AppendFile(name, bytes);
    if (r.ok()) {
      CountBytesWritten(bytes.size());
      if (journal_ != nullptr) {
        journal_->Append({OpJournalEntry::Kind::kAppend, index_, name, bytes});
      }
    }
    return r;
  }
  if (torn) {
    // The file keeps its earlier content plus a prefix of this append.
    const size_t kept = std::min<uint64_t>(spec_.torn_bytes, bytes.size());
    const std::vector<uint8_t> prefix(
        bytes.begin(), bytes.begin() + static_cast<ptrdiff_t>(kept));
    IoResult r = inner_->AppendFile(name, prefix);
    (void)r;  // The op still reports failure; the tear is the point.
  }
  return IoResult{fault, inner_->WriteSeconds(bytes.size())};
}

Status FaultInjectingDevice::ReadFile(const std::string& name,
                                      std::vector<uint8_t>* out) const {
  Status fault;
  {
    std::lock_guard<std::mutex> g(mu_);
    const uint64_t opno = ++counters_.reads;
    fault = FaultFor("read", name, opno, spec_.fail_read);
    if (!fault.ok()) counters_.faults_injected++;
  }
  if (!fault.ok()) {
    return Status::Corruption("read failed: " + name + " at offset 0: " +
                              fault.message());
  }
  return inner_->ReadFile(name, out);
}

Status FaultInjectingDevice::ReadFileShared(
    const std::string& name,
    std::shared_ptr<const std::vector<uint8_t>>* out) const {
  Status fault;
  {
    std::lock_guard<std::mutex> g(mu_);
    const uint64_t opno = ++counters_.reads;
    fault = FaultFor("read", name, opno, spec_.fail_read);
    if (!fault.ok()) counters_.faults_injected++;
  }
  if (!fault.ok()) {
    return Status::Corruption("read failed: " + name + " at offset 0: " +
                              fault.message());
  }
  return inner_->ReadFileShared(name, out);
}

bool FaultInjectingDevice::Exists(const std::string& name) const {
  return inner_->Exists(name);
}

std::vector<std::string> FaultInjectingDevice::ListFiles(
    const std::string& prefix) const {
  return inner_->ListFiles(prefix);
}

void FaultInjectingDevice::RemoveAll() { inner_->RemoveAll(); }

IoResult FaultInjectingDevice::RemoveFile(const std::string& name) {
  Status fault;
  {
    std::lock_guard<std::mutex> g(mu_);
    const uint64_t opno = ++counters_.removes;
    // Removes ride the write schedule's kill switch only: GC deletions
    // are not interesting to schedule individually, but a dead device
    // must fail them too.
    fault = FaultFor("remove", name, opno, 0);
    if (!fault.ok()) counters_.faults_injected++;
  }
  if (!fault.ok()) return IoResult{fault, 0.0};
  IoResult r = inner_->RemoveFile(name);
  if (r.ok() && journal_ != nullptr) {
    journal_->Append({OpJournalEntry::Kind::kRemove, index_, name, {}});
  }
  return r;
}

size_t FaultInjectingDevice::FileSize(const std::string& name) const {
  return inner_->FileSize(name);
}

IoResult FaultInjectingDevice::SyncBarrier() {
  Status fault;
  {
    std::lock_guard<std::mutex> g(mu_);
    const uint64_t opno = ++counters_.fsyncs;
    fault = FaultFor("fsync", "<barrier>", opno, spec_.fail_fsync);
    if (!fault.ok()) counters_.faults_injected++;
  }
  if (!fault.ok()) return IoResult{fault, inner_->FsyncSeconds()};
  IoResult r = inner_->SyncBarrier();
  if (r.ok()) CountFsync();
  return r;
}

void FaultInjectingDevice::FailAllWrites(std::string reason) {
  std::lock_guard<std::mutex> g(mu_);
  killed_ = true;
  kill_reason_ = std::move(reason);
}

void FaultInjectingDevice::Heal() {
  std::lock_guard<std::mutex> g(mu_);
  killed_ = false;
  kill_reason_.clear();
  bytes_attempted_ = 0;
}

FaultCounters FaultInjectingDevice::counters() const {
  std::lock_guard<std::mutex> g(mu_);
  return counters_;
}

}  // namespace pacman::device
