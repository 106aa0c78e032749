// Copyright (c) 2026 The PACMAN reproduction authors.
// Catalog: owns all tables of a database instance. Every table has the
// same layout (storage/table.h): per shard, slot lanes and a hash index.
#ifndef PACMAN_STORAGE_CATALOG_H_
#define PACMAN_STORAGE_CATALOG_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/macros.h"
#include "common/schema.h"
#include "common/types.h"
#include "storage/table.h"

namespace pacman::storage {

class Catalog {
 public:
  Catalog() = default;
  PACMAN_DISALLOW_COPY_AND_MOVE(Catalog);

  // Creates a table (partitioned into `default_num_shards()` shards,
  // each with its own hash index); PACMAN_CHECKs on duplicate names.
  Table* CreateTable(const std::string& name, Schema schema);

  // Shard count applied to subsequently created tables. The Database sets
  // this once from DatabaseOptions::num_shards before any schema install;
  // every table shares the count so ShardOfKey routes uniformly.
  void set_default_num_shards(uint32_t n) {
    PACMAN_CHECK_MSG(n >= 1, "Catalog default_num_shards must be >= 1");
    default_num_shards_ = n;
  }
  uint32_t default_num_shards() const { return default_num_shards_; }

  Table* GetTable(const std::string& name) const;
  Table* GetTable(TableId id) const;
  // Returns kInvalidTableId if absent.
  TableId GetTableId(const std::string& name) const;

  const std::vector<std::unique_ptr<Table>>& tables() const {
    return tables_;
  }

  // Fingerprint of the whole database's visible content at `ts`.
  uint64_t ContentHash(Timestamp ts) const;

  // Drops all tuple data, keeping schemas (crash simulation).
  void ResetAllTables();

 private:
  std::vector<std::unique_ptr<Table>> tables_;
  std::unordered_map<std::string, TableId> by_name_;
  uint32_t default_num_shards_ = 1;
};

}  // namespace pacman::storage

#endif  // PACMAN_STORAGE_CATALOG_H_
