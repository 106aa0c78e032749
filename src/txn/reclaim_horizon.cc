#include "txn/reclaim_horizon.h"

#include <algorithm>

namespace pacman::txn {

ReadPin ReclaimHorizon::Pin() {
  for (;;) {
    const uint64_t g = generation_.load(std::memory_order_seq_cst);
    std::atomic<uint64_t>& count = pins_[g & 1];
    count.fetch_add(1, std::memory_order_seq_cst);
    // Counted before the flip that ends g: that flip's successor sees it.
    if (generation_.load(std::memory_order_seq_cst) == g) {
      return ReadPin(&count);
    }
    count.fetch_sub(1, std::memory_order_seq_cst);
  }
}

void ReclaimHorizon::Advance(Timestamp stable) {
  std::lock_guard<std::mutex> g(mu_);
  const uint64_t gen = generation_.load(std::memory_order_seq_cst);
  // Pins of the generation before the current one, counted at its parity,
  // which the current generation's successor will share.
  if (pins_[(gen - 1) & 1].load(std::memory_order_seq_cst) != 0) return;
  horizon_.store(pending_, std::memory_order_release);
  pending_ = stable;
  generation_.store(gen + 1, std::memory_order_seq_cst);
}

void ReclaimHorizon::Clamp(Timestamp ts) {
  std::lock_guard<std::mutex> g(mu_);
  pending_ = std::min(pending_, ts);
  if (horizon_.load(std::memory_order_relaxed) > ts) {
    horizon_.store(ts, std::memory_order_release);
  }
}

}  // namespace pacman::txn
