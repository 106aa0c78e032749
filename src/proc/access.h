// Copyright (c) 2026 The PACMAN reproduction authors.
// Data access for stored-procedure execution.
//
// The bytecode VM (proc/bytecode.h) executes the same operation stream in
// two worlds:
//  - forward processing: inside an optimistic transaction (TxnAccess);
//  - recovery replay: directly against the tables at a known commit
//    timestamp (ReplayAccess), installing latch-free: CLR and CLR-P replay
//    conflicting commands in commit order, so no two installs race.
#ifndef PACMAN_PROC_ACCESS_H_
#define PACMAN_PROC_ACCESS_H_

#include <cstdint>

#include "common/status.h"
#include "common/types.h"
#include "common/value.h"
#include "storage/catalog.h"
#include "storage/table.h"
#include "txn/transaction_manager.h"

namespace pacman::proc {

// Abstract data access used by the bytecode VM.
class AccessContext {
 public:
  virtual ~AccessContext() = default;
  virtual Status Read(TableId table, Key key, Row* out) = 0;
  virtual void Write(TableId table, Key key, Row row, bool deleted,
                     bool is_insert) = 0;

  // Pre-resolved-table fast path used by compiled programs: the compiler
  // caches the catalog_->GetTable(table) descent once per (program, table)
  // at FinalizeSchema() time. Contexts that can use the pointer directly
  // override these; the defaults fall back to the TableId virtuals so any
  // context keeps working unmodified.
  virtual Status ReadTable(storage::Table* /*t*/, TableId table, Key key,
                           Row* out) {
    return Read(table, key, out);
  }
  virtual void WriteTable(storage::Table* /*t*/, TableId table, Key key,
                          Row row, bool deleted, bool is_insert) {
    Write(table, key, std::move(row), deleted, is_insert);
  }
};

// Forward-processing access: routes through an optimistic Transaction.
class TxnAccess : public AccessContext {
 public:
  TxnAccess(storage::Catalog* catalog, txn::Transaction* txn)
      : catalog_(catalog), txn_(txn) {}

  Status Read(TableId table, Key key, Row* out) override {
    return ReadTable(catalog_->GetTable(table), table, key, out);
  }
  void Write(TableId table, Key key, Row row, bool deleted,
             bool is_insert) override {
    WriteTable(catalog_->GetTable(table), table, key, std::move(row),
               deleted, is_insert);
  }

  Status ReadTable(storage::Table* t, TableId /*table*/, Key key,
                   Row* out) override {
    return txn_->Read(t, key, out);
  }
  void WriteTable(storage::Table* t, TableId /*table*/, Key key, Row row,
                  bool deleted, bool is_insert) override {
    if (deleted) {
      txn_->Delete(t, key);
    } else if (is_insert) {
      txn_->Insert(t, key, std::move(row));
    } else {
      txn_->Write(t, key, std::move(row));
    }
  }

 private:
  storage::Catalog* catalog_;
  txn::Transaction* txn_;
};

// Replay access for command replay: reads current state, installs at a
// fixed commit ts without a latch (Table::InstallVersionUnlatched).
// (A (table, key) -> slot memo was tried here and measured ~10% slower
// than the plain index descent on the replay path — the B+tree is three
// cache-hot levels at these table sizes, cheaper than hash-map churn.)
class ReplayAccess : public AccessContext {
 public:
  explicit ReplayAccess(storage::Catalog* catalog) : catalog_(catalog) {}

  void set_commit_ts(Timestamp cts) { cts_ = cts; }

  Status Read(TableId table, Key key, Row* out) override {
    return ReadTable(catalog_->GetTable(table), table, key, out);
  }

  void Write(TableId table, Key key, Row row, bool deleted,
             bool is_insert) override {
    WriteTable(catalog_->GetTable(table), table, key, std::move(row),
               deleted, is_insert);
  }

  Status ReadTable(storage::Table* t, TableId /*table*/, Key key,
                   Row* out) override {
    reads_++;
    return t->Read(key, kMaxTimestamp, out);
  }

  void WriteTable(storage::Table* t, TableId /*table*/, Key key, Row row,
                  bool deleted, bool /*is_insert*/) override {
    writes_++;
    storage::Table::InstallVersionUnlatched(t->GetOrCreateSlot(key), row,
                                            cts_, deleted);
  }

  uint64_t reads() const { return reads_; }
  uint64_t writes() const { return writes_; }

 private:
  storage::Catalog* catalog_;
  Timestamp cts_ = kInvalidTimestamp;
  uint64_t reads_ = 0;
  uint64_t writes_ = 0;
};

}  // namespace pacman::proc

#endif  // PACMAN_PROC_ACCESS_H_
