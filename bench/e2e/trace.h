// Copyright (c) 2026 The PACMAN reproduction authors.
// In-memory span recorder for the traced benchmark run.
//
// A span is a name, a start, an end, and a parent: the innermost span
// still open on the same thread, or else the phase span the round's main
// thread has open (setup, forward, crash, recover, probe). Spans are only
// recorded from the benchmark's own files, around the calls it makes into
// each layer. With tracing off, opening a span costs one relaxed load.
#ifndef PACMAN_BENCH_E2E_TRACE_H_
#define PACMAN_BENCH_E2E_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pacman::e2e {

// Which part of a round the main thread is in. Every span is tagged with
// it, so device metrics split forward I/O from recovery I/O.
enum class Phase : int { kOther, kForward, kRecover };

struct SpanRecord {
  const char* name = nullptr;  // Static string.
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t bytes = 0;  // Payload size of a device operation.
  uint32_t thread = 0;
  Phase phase = Phase::kOther;
};

// Per-name aggregate over all recorded spans.
struct SpanSummary {
  uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;  // Duration minus the union of child spans.
};

class Tracer {
 public:
  static Tracer& Get();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Opens a span on the calling thread; returns its id (0 when disabled).
  uint64_t Begin(const char* name);
  void End(uint64_t id, uint64_t bytes = 0);

  // Phase spans are opened by the main thread and parent every span that
  // has no open span on its own thread.
  void BeginPhase(const char* name, Phase phase);
  void EndPhase();
  Phase phase() const { return phase_.load(std::memory_order_relaxed); }

  // Every span finished so far, from all threads.
  std::vector<SpanRecord> Collect() const;
  static std::map<std::string, SpanSummary> Summarize(
      const std::vector<SpanRecord>& spans);
  // Chrome trace-event JSON ("X" events). At most `per_name_cap` events
  // of each name are written; the summary always covers all of them.
  static bool WriteChromeTrace(const std::vector<SpanRecord>& spans,
                               const std::string& path,
                               size_t per_name_cap = 4000);

 private:
  struct ThreadLog;
  ThreadLog* Local();

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> phase_span_{0};
  std::atomic<Phase> phase_{Phase::kOther};
  uint64_t phase_begin_id_ = 0;  // Main thread only.

  mutable std::mutex mu_;  // Guards logs_ (registration and Collect).
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

// RAII span; a no-op while tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : id_(Tracer::Get().Begin(name)) {}
  ~ScopedSpan() {
    if (id_ != 0) Tracer::Get().End(id_, bytes_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_bytes(uint64_t n) { bytes_ = n; }

 private:
  uint64_t id_;
  uint64_t bytes_ = 0;
};

// RAII phase span on the main thread.
class ScopedPhase {
 public:
  ScopedPhase(const char* name, Phase phase) {
    Tracer::Get().BeginPhase(name, phase);
  }
  ~ScopedPhase() { Tracer::Get().EndPhase(); }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;
};

}  // namespace pacman::e2e

#endif  // PACMAN_BENCH_E2E_TRACE_H_
