#include "device/simulated_ssd.h"

#include <algorithm>

namespace pacman::device {

IoResult SimulatedSsd::WriteFile(const std::string& name,
                                 std::vector<uint8_t> bytes) {
  const double cost = WriteSeconds(bytes.size());
  CountBytesWritten(bytes.size());
  auto buf = std::make_shared<std::vector<uint8_t>>(std::move(bytes));
  std::lock_guard<std::mutex> g(mu_);
  files_[name] = std::move(buf);  // Readers of the old buffer keep it.
  return IoResult::Ok(cost);
}

IoResult SimulatedSsd::AppendFile(const std::string& name,
                                  const std::vector<uint8_t>& bytes) {
  const double cost = WriteSeconds(bytes.size());
  CountBytesWritten(bytes.size());
  std::lock_guard<std::mutex> g(mu_);
  auto& slot = files_[name];
  if (slot == nullptr) {
    slot = std::make_shared<std::vector<uint8_t>>();
  } else if (slot.use_count() > 1) {
    // Copy-on-write: a reader shares the stored buffer and keeps its
    // snapshot. Handles are only handed out under mu_, so a count of one
    // here means no reader exists or can appear while we append in place
    // (a group-committing logger then never copies its growing batch).
    slot = std::make_shared<std::vector<uint8_t>>(*slot);
  }
  slot->insert(slot->end(), bytes.begin(), bytes.end());
  return IoResult::Ok(cost);
}

Status SimulatedSsd::ReadFile(const std::string& name,
                              std::vector<uint8_t>* out) const {
  std::lock_guard<std::mutex> g(mu_);
  auto it = files_.find(name);
  if (it == files_.end()) return Status::NotFound("no file: " + name);
  *out = *it->second;
  return Status::Ok();
}

Status SimulatedSsd::ReadFileShared(
    const std::string& name,
    std::shared_ptr<const std::vector<uint8_t>>* out) const {
  std::lock_guard<std::mutex> g(mu_);
  auto it = files_.find(name);
  if (it == files_.end()) return Status::NotFound("no file: " + name);
  *out = it->second;
  return Status::Ok();
}

bool SimulatedSsd::Exists(const std::string& name) const {
  std::lock_guard<std::mutex> g(mu_);
  return files_.count(name) > 0;
}

std::vector<std::string> SimulatedSsd::ListFiles(
    const std::string& prefix) const {
  std::lock_guard<std::mutex> g(mu_);
  std::vector<std::string> out;
  for (const auto& [name, bytes] : files_) {
    if (name.rfind(prefix, 0) == 0) out.push_back(name);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void SimulatedSsd::RemoveAll() {
  std::lock_guard<std::mutex> g(mu_);
  files_.clear();
}

IoResult SimulatedSsd::RemoveFile(const std::string& name) {
  std::lock_guard<std::mutex> g(mu_);
  files_.erase(name);  // Outstanding shared readers keep their buffer.
  return IoResult::Ok(FsyncSeconds());
}

size_t SimulatedSsd::FileSize(const std::string& name) const {
  std::lock_guard<std::mutex> g(mu_);
  auto it = files_.find(name);
  return it == files_.end() ? 0 : it->second->size();
}

IoResult SimulatedSsd::SyncBarrier() {
  CountFsync();
  return IoResult::Ok(FsyncSeconds());
}

}  // namespace pacman::device
