#include "recovery/cost_model.h"

#include "common/macros.h"
#include "recovery/recovery.h"

namespace pacman::recovery {

Breakdown CostModel::Price(const sim::Work& work, Scheme scheme,
                           uint32_t threads,
                           const device::StorageDevice* device) const {
  auto n = [](uint64_t count) { return static_cast<double>(count); };
  // The scheme differences: tuple_replay.h and checkpoint_recovery.h.
  const bool plr = scheme == Scheme::kPlr;
  const double write = plr ? write_op - index_insert : write_op;
  double install = load_tuple;
  if (!plr) install += index_insert;
  if (!plr && scheme != Scheme::kLlr) install += ckpt_install_extra;

  Breakdown b;
  // A latched write is a write plus its latch.
  b.useful_work = read_op * n(work.reads) +
                  (write + LatchCost(threads)) * n(work.latched_writes) +
                  write * n(work.writes - work.latched_writes) +
                  install * n(work.tuples_installed) +
                  index_insert * n(work.index_keys_rebuilt);
  // CLR dispatches each logged transaction whole; CLR-P dispatches pieces
  // (scheduling, below) and tuple-level schemes install writes.
  if (scheme == Scheme::kClr) b.useful_work += txn_dispatch * n(work.records);
  b.data_loading = deserialize_byte * n(work.bytes_deserialized);
  if (work.device_read_bytes > 0) {
    PACMAN_CHECK(device != nullptr);
    b.data_loading += device->ReadSeconds(work.device_read_bytes);
  }
  b.param_checking = piece_param_check * n(work.param_checks);
  b.scheduling =
      (SchedCost(threads) + per_piece_coordination) * n(work.pieces) +
      pieceset_coordination * n(work.piece_sets);
  return b;
}

double CostModel::PieceWeight(const sim::Work& piece, uint32_t threads) const {
  CostModel weights = *this;
  weights.per_piece_coordination = 0.0;
  return weights.Price(piece, Scheme::kClrP, threads, nullptr).Total();
}

}  // namespace pacman::recovery
