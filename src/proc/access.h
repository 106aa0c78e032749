// Copyright (c) 2026 The PACMAN reproduction authors.
// Data access for stored-procedure execution.
//
// The bytecode VM (proc/bytecode.h) executes the same operation stream in
// two worlds:
//  - forward processing: inside an optimistic transaction (TxnAccess);
//  - recovery replay: directly against the tables at a known commit
//    timestamp (ReplayAccess), installing latch-free: CLR and CLR-P replay
//    conflicting commands in commit order, so no two installs race.
//
// A read returns a view, not a decoded row: a pointer to the packed row
// bytes (common/serializer.h) of the version it resolved to, or to the
// transaction's own buffered write encoded once. The VM keeps that pointer
// as the read's local and decodes only the columns it loads. A version's
// row is immutable, and it lives until an install below a horizon that
// has passed it frees it (storage/tuple.h). Forward, the caller's read
// pin keeps the horizon from passing what the transaction views
// (Database::Execute). In replay, a ReplayAccess installs below the
// horizon it is given, which its caller keeps below every version a
// running piece views (recovery/recovery.h, BatchGates), so a replayed
// transaction's views stay valid across its pieces and threads even when
// later installs supersede the versions they point at.
#ifndef PACMAN_PROC_ACCESS_H_
#define PACMAN_PROC_ACCESS_H_

#include <atomic>
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
  // Points *row at the packed row of `key` in `t` (resolved at compile
  // time from `table`), or sets it null and returns kNotFound when the row
  // is absent. The view must stay valid for the rest of the execution.
  virtual Status ReadTable(storage::Table* t, TableId table, Key key,
                           const uint8_t** row) = 0;
  // Writes `row` to `key` of `table`. The row is the caller's (the VM's
  // row-build scratch): a context copies or encodes what it keeps, so the
  // scratch keeps its capacity for the next write.
  virtual void Write(TableId table, Key key, const Row& row, bool deleted,
                     bool is_insert) = 0;

  // Pre-resolved-table write used by compiled programs: the compiler
  // caches the catalog_->GetTable(table) descent once per (program, table)
  // at FinalizeSchema() time. Contexts that can use the pointer directly
  // override it; the default falls back to the TableId virtual.
  virtual void WriteTable(storage::Table* /*t*/, TableId table, Key key,
                          const Row& row, bool deleted, bool is_insert) {
    Write(table, key, row, deleted, is_insert);
  }
};

// Forward-processing access: routes through an optimistic Transaction,
// whose reads' views last as long as the Transaction.
class TxnAccess : public AccessContext {
 public:
  TxnAccess(storage::Catalog* catalog, txn::Transaction* txn)
      : catalog_(catalog), txn_(txn) {}

  Status ReadTable(storage::Table* t, TableId /*table*/, Key key,
                   const uint8_t** row) override {
    return txn_->Read(t, key, row);
  }
  void Write(TableId table, Key key, const Row& row, bool deleted,
             bool is_insert) override {
    WriteTable(catalog_->GetTable(table), table, key, row, deleted,
               is_insert);
  }
  // Buffers a copy of the row in the transaction's write set.
  void WriteTable(storage::Table* t, TableId /*table*/, Key key,
                  const Row& row, bool deleted, bool is_insert) override {
    if (deleted) {
      txn_->Delete(t, key);
    } else if (is_insert) {
      txn_->Insert(t, key, row);
    } else {
      txn_->Write(t, key, row);
    }
  }

 private:
  storage::Catalog* catalog_;
  txn::Transaction* txn_;
};

// Replay access for command replay: reads current state, installs at a
// fixed commit ts without a latch (Table::InstallVersionUnlatched),
// reclaiming below `*horizon` as it stands at each install (nothing
// without one, as on a simulated graph).
// (A (table, key) -> slot memo in front of the index was tried here and
// measured ~10% slower than the plain index lookup on the replay path.)
class ReplayAccess : public AccessContext {
 public:
  explicit ReplayAccess(storage::Catalog* catalog,
                        const std::atomic<Timestamp>* horizon = nullptr)
      : catalog_(catalog), horizon_(horizon) {}

  void set_commit_ts(Timestamp cts) { cts_ = cts; }

  // Views the newest version; an install that later supersedes it leaves
  // the viewed version in the chain until the horizon passes the newer
  // one.
  Status ReadTable(storage::Table* t, TableId /*table*/, Key key,
                   const uint8_t** row) override {
    reads_++;
    return t->Read(key, kMaxTimestamp, row);
  }

  void Write(TableId table, Key key, const Row& row, bool deleted,
             bool is_insert) override {
    WriteTable(catalog_->GetTable(table), table, key, row, deleted,
               is_insert);
  }

  // Encodes the row straight into the new version.
  void WriteTable(storage::Table* t, TableId /*table*/, Key key,
                  const Row& row, bool deleted,
                  bool /*is_insert*/) override {
    writes_++;
    storage::Table::InstallVersionUnlatched(
        t->GetOrCreateSlot(key), row, cts_, deleted,
        horizon_ != nullptr ? horizon_->load(std::memory_order_acquire)
                            : kInvalidTimestamp);
  }

  uint64_t reads() const { return reads_; }
  uint64_t writes() const { return writes_; }

 private:
  storage::Catalog* catalog_;
  const std::atomic<Timestamp>* horizon_;
  Timestamp cts_ = kInvalidTimestamp;
  uint64_t reads_ = 0;
  uint64_t writes_ = 0;
};

}  // namespace pacman::proc

#endif  // PACMAN_PROC_ACCESS_H_
