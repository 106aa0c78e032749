// Copyright (c) 2026 The PACMAN reproduction authors.
// The forward reclamation horizon: the timestamp below which no reader can
// still view a version, so the install that supersedes a version may free
// the ones below it (storage/tuple.h).
//
// Silo (Tu et al., SOSP 2013) reclaims by epoch: retired versions wait on
// per-worker epoch announcements and a collector frees them. Here the
// commit that supersedes a version already holds its slot exclusively, so
// it cuts the chain itself, below this horizon; there is no retire list,
// no cross-thread unlink and no background thread. The horizon must stay
// at or below the snapshot of every reader that may still walk a chain
// or hold a view: a transaction attempt, from before Begin() reads the
// commit clock until its results are evaluated (views outlive commit),
// and a checkpoint scan, from before its snapshot timestamp is drawn to
// the end of the scan. Such a reader holds a ReadPin.
//
// Pins are counted in two generations, by parity: a pin adds one to the
// current generation's counter and takes one off again, and no thread
// registers. Advance(S) flips the generation only when no pin of the
// generation before the current one remains, and then publishes as the
// horizon the S it was handed at the previous flip. S must be a stable
// commit clock: every commit with a TID at or below S has finished its
// installs before Advance runs (TransactionManager records one at each
// commit quiesce point). A high watermark, the largest TID installed so
// far, is not stable: a smaller TID may still be mid-install, a reader
// pinned after the flip then views the version that install supersedes,
// and once that watermark is published the next install frees the view.
// Why a stable S is safe, with every access below seq_cst:
//  - a pin re-reads the generation after counting itself and retries if
//    it moved, so a pin that counted itself in generation g did so before
//    the flip that ended g; the flip after that checks g's counter and
//    waits the pin out;
//  - a pin of generation g read g from the flip that began g, so the
//    installs of every TID at or below the S that flip was handed happen
//    before its reads, and every snapshot it takes is at or above those
//    TIDs: what it views is at least the newest version at or below that
//    S. The horizon published while such a pin lives is at most that S,
//    and an install keeps the newest version at or below the horizon.
#ifndef PACMAN_TXN_RECLAIM_HORIZON_H_
#define PACMAN_TXN_RECLAIM_HORIZON_H_

#include <atomic>
#include <cstdint>
#include <mutex>

#include "common/macros.h"
#include "common/types.h"

namespace pacman::txn {

// One reader's hold on the horizon (ReclaimHorizon::Pin). Released when
// destroyed, or earlier by Release().
class ReadPin {
 public:
  PACMAN_DISALLOW_COPY_AND_MOVE(ReadPin);
  ~ReadPin() { Release(); }

  // Ends the hold: the reader views no version from here on. Idempotent.
  void Release() {
    if (count_ != nullptr) {
      count_->fetch_sub(1, std::memory_order_seq_cst);
      count_ = nullptr;
    }
  }

 private:
  friend class ReclaimHorizon;
  explicit ReadPin(std::atomic<uint64_t>* count) : count_(count) {}

  std::atomic<uint64_t>* count_ = nullptr;
};

class ReclaimHorizon {
 public:
  ReclaimHorizon() = default;
  PACMAN_DISALLOW_COPY_AND_MOVE(ReclaimHorizon);

  // Takes a pin. Read the commit clock only after this returns: the
  // horizon stays at or below what such a read returns until the pin is
  // released.
  ReadPin Pin();

  // The published horizon: installs may free what lies below it.
  Timestamp Get() const { return horizon_.load(std::memory_order_acquire); }

  // One step of the flip protocol above, handed a stable commit clock.
  // Never waits for a pin: with one of the previous generation left it
  // changes nothing.
  void Advance(Timestamp stable);

  // Lowers the horizon, and the value the next flip would publish, to at
  // most `ts`: for a point at which the commit clock moved back, with no
  // pin held (recovery to a lower watermark, whose TIDs are drawn again).
  void Clamp(Timestamp ts);

 private:
  // A pin reads the generation and writes its parity's counter, so the
  // three share one line.
  alignas(64) std::atomic<uint64_t> generation_{1};
  std::atomic<uint64_t> pins_[2] = {0, 0};
  alignas(64) std::atomic<Timestamp> horizon_{kInvalidTimestamp};
  std::mutex mu_;  // Serializes Advance and Clamp.
  // The stable clock handed to the last flip, published by the next one.
  Timestamp pending_ = kInvalidTimestamp;
};

}  // namespace pacman::txn

#endif  // PACMAN_TXN_RECLAIM_HORIZON_H_
