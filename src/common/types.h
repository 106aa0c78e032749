// Copyright (c) 2026 The PACMAN reproduction authors.
// Fundamental identifier and timestamp types shared across the engine.
#ifndef PACMAN_COMMON_TYPES_H_
#define PACMAN_COMMON_TYPES_H_

#include <cstdint>
#include <limits>

namespace pacman {

// Identifier of a table in the catalog.
using TableId = uint32_t;

// Candidate key of a tuple. Composite benchmark keys (e.g. TPC-C
// (w_id, d_id, c_id)) are bit-packed into 64 bits by the workloads.
using Key = uint64_t;

// Monotone commit timestamp assigned by the transaction manager. Also used
// as the version-visibility timestamp in MVCC version chains.
using Timestamp = uint64_t;

// Commit order ticket of a transaction in the durable log stream. With
// the parallel commit protocol this orders conflicting transactions (and,
// per key, the write images); it is not a globally serialized sequence.
using CommitOrder = uint64_t;

// Group-commit epoch number (Silo-style).
using Epoch = uint64_t;

// Stored procedure identifier (index into the ProcedureRegistry).
using ProcId = uint32_t;

// Dense id of a forward-processing worker's log-buffer slot
// (Database::AllocateWorkerSlot). kInvalidWorkerId marks a caller without
// a slot, whose records go to the shared loggers.
using WorkerId = uint32_t;

// Index of an operation within a stored procedure body.
using OpIndex = uint32_t;

// Index of a slice within a procedure / of a block within the GDG.
using SliceId = uint32_t;
using BlockId = uint32_t;

inline constexpr Timestamp kMaxTimestamp =
    std::numeric_limits<Timestamp>::max();

// --- Epoch-prefixed commit TIDs (Silo-style) --------------------------------
// Commit timestamps are transaction ids with the group-commit epoch in the
// high bits and a monotone sequence in the low bits. Comparing two TIDs
// therefore first compares epochs: per-key version order within an epoch
// and across epochs is one uniform `<` on Timestamp. The sequence field is
// never reset, so TIDs stay strictly monotone even when a draw races an
// epoch advance (the prefix of a TID is a lower bound on the epoch that
// group-commits it, not the durable epoch itself — loggers stamp records
// with the epoch of the flush that persists them).
//
// 40 sequence bits hold ~10^12 commits; with the lock bit the OCC slot
// stamps steal (storage/tuple.h), epochs up to 2^22 fit without overflow.
inline constexpr int kTidEpochShift = 40;

constexpr Timestamp MakeTid(Epoch epoch, uint64_t seq) {
  return (epoch << kTidEpochShift) | seq;
}
constexpr Epoch TidEpoch(Timestamp tid) { return tid >> kTidEpochShift; }
inline constexpr Timestamp kInvalidTimestamp = 0;
inline constexpr TableId kInvalidTableId =
    std::numeric_limits<TableId>::max();
inline constexpr ProcId kAdhocProcId = std::numeric_limits<ProcId>::max();
inline constexpr WorkerId kInvalidWorkerId =
    std::numeric_limits<WorkerId>::max();

}  // namespace pacman

#endif  // PACMAN_COMMON_TYPES_H_
