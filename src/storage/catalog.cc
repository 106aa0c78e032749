#include "storage/catalog.h"

namespace pacman::storage {

Table* Catalog::CreateTable(const std::string& name, Schema schema) {
  PACMAN_CHECK(by_name_.count(name) == 0);
  auto id = static_cast<TableId>(tables_.size());
  tables_.push_back(std::make_unique<Table>(id, name, std::move(schema),
                                            default_num_shards_));
  by_name_[name] = id;
  return tables_.back().get();
}

Table* Catalog::GetTable(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : tables_[it->second].get();
}

Table* Catalog::GetTable(TableId id) const {
  return id < tables_.size() ? tables_[id].get() : nullptr;
}

TableId Catalog::GetTableId(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? kInvalidTableId : it->second;
}

uint64_t Catalog::ContentHash(Timestamp ts) const {
  uint64_t h = 0x6a09e667f3bcc909ull;
  for (const auto& t : tables_) {
    uint64_t th = t->ContentHash(ts);
    h ^= (th + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2)) ^
         (static_cast<uint64_t>(t->id()) << 32);
  }
  return h;
}

void Catalog::ResetAllTables() {
  for (const auto& t : tables_) t->Reset();
}

}  // namespace pacman::storage
