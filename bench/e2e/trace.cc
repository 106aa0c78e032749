#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace pacman::e2e {

namespace {

// steady_clock is CLOCK_MONOTONIC, so spans recorded by different round
// processes share one time base.
int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct OpenSpan {
  uint64_t id;
  uint64_t parent;
  const char* name;
  int64_t start_ns;
  Phase phase;
};

}  // namespace

struct Tracer::ThreadLog {
  uint32_t thread = 0;
  std::vector<OpenSpan> open;  // Owning thread only.
  std::mutex mu;               // Guards done against Collect.
  std::vector<SpanRecord> done;
};

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

Tracer::ThreadLog* Tracer::Local() {
  // Logs are owned by the tracer, so spans recorded by a pool thread
  // survive the thread.
  thread_local ThreadLog* log = nullptr;
  if (log == nullptr) {
    std::lock_guard<std::mutex> g(mu_);
    logs_.push_back(std::make_unique<ThreadLog>());
    log = logs_.back().get();
    log->thread = static_cast<uint32_t>(logs_.size() - 1);
  }
  return log;
}

uint64_t Tracer::Begin(const char* name) {
  if (!enabled()) return 0;
  ThreadLog* log = Local();
  const uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t parent = log->open.empty()
                              ? phase_span_.load(std::memory_order_relaxed)
                              : log->open.back().id;
  log->open.push_back({id, parent, name, NowNs(), phase()});
  return id;
}

void Tracer::End(uint64_t id, uint64_t bytes) {
  ThreadLog* log = Local();
  if (log->open.empty() || log->open.back().id != id) return;
  const OpenSpan s = log->open.back();
  log->open.pop_back();
  SpanRecord r;
  r.name = s.name;
  r.id = s.id;
  r.parent = s.parent;
  r.start_ns = s.start_ns;
  r.end_ns = NowNs();
  r.bytes = bytes;
  r.thread = log->thread;
  r.phase = s.phase;
  std::lock_guard<std::mutex> g(log->mu);
  log->done.push_back(r);
}

void Tracer::BeginPhase(const char* name, Phase phase) {
  phase_.store(phase, std::memory_order_relaxed);
  phase_begin_id_ = Begin(name);
  phase_span_.store(phase_begin_id_, std::memory_order_relaxed);
}

void Tracer::EndPhase() {
  phase_span_.store(0, std::memory_order_relaxed);
  if (phase_begin_id_ != 0) End(phase_begin_id_);
  phase_begin_id_ = 0;
  phase_.store(Phase::kOther, std::memory_order_relaxed);
}

std::vector<SpanRecord> Tracer::Collect() const {
  std::vector<SpanRecord> out;
  std::lock_guard<std::mutex> g(mu_);
  for (const auto& log : logs_) {
    std::lock_guard<std::mutex> lg(log->mu);
    out.insert(out.end(), log->done.begin(), log->done.end());
  }
  return out;
}

std::map<std::string, SpanSummary> Tracer::Summarize(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, SpanSummary> out;
  for (const SpanRecord& s : spans) {
    // Union of the children's intervals, clipped to this span: children on
    // other threads overlap each other, and must count once.
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<int64_t, int64_t>> iv;
      for (const SpanRecord* c : it->second) {
        const int64_t a = std::max(c->start_ns, s.start_ns);
        const int64_t b = std::min(c->end_ns, s.end_ns);
        if (b > a) iv.emplace_back(a, b);
      }
      std::sort(iv.begin(), iv.end());
      int64_t cur_a = 0;
      int64_t cur_b = -1;
      for (const auto& [a, b] : iv) {
        if (a > cur_b) {
          if (cur_b > cur_a) covered += cur_b - cur_a;
          cur_a = a;
          cur_b = b;
        } else {
          cur_b = std::max(cur_b, b);
        }
      }
      if (cur_b > cur_a) covered += cur_b - cur_a;
    }
    SpanSummary& sum = out[s.name];
    sum.count++;
    const int64_t dur = s.end_ns - s.start_ns;
    sum.total_s += static_cast<double>(dur) * 1e-9;
    sum.self_s += static_cast<double>(dur - covered) * 1e-9;
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::vector<SpanRecord>& spans,
                              const std::string& path, size_t per_name_cap) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  int64_t origin = 0;
  for (const SpanRecord& s : spans) {
    if (origin == 0 || s.start_ns < origin) origin = s.start_ns;
  }
  std::unordered_map<std::string, size_t> written;
  bool first = true;
  for (const SpanRecord& s : spans) {
    if (written[s.name]++ >= per_name_cap) continue;
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %llu, \"parent\": %llu, \"bytes\": %llu}}",
                 first ? "" : ",\n", s.name, s.thread,
                 static_cast<double>(s.start_ns - origin) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.bytes));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  const bool written_ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && written_ok;
}

}  // namespace pacman::e2e
