// Copyright (c) 2026 The PACMAN reproduction authors.
// End-to-end wall-clock benchmark: forward latency and throughput, disk
// bytes per transaction and measured recovery time, on real files.
//
//   bench_e2e --workload NAME --seed N [--seconds S] [--dir SCRATCH]
//             [--out RUN.json] [--trace TRACE.json]
//
// Runs max(3, S / round_s) rounds (round.h), each in a forked child
// process, so every round starts from a fresh heap: allocator state left
// by one round would otherwise change the next round's page faults and
// peak memory. Then prints every metric as `metric <name> <value> <unit>`
// and every correctness check as `check <name> ok|FAIL`, and exits 1 if
// any check failed.
//
// Without --trace every round is untraced and the end-to-end metrics are
// printed. With --trace, rounds alternate traced/untraced: the traced ones
// (spans on, device ops timed) give the per-layer metrics, and the
// untraced ones give forward throughput and latency, recovery wall time
// and the tracing overhead. The spans are written to
// TRACE.json as Chrome trace events.
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "round.h"
#include "trace.h"

namespace pacman::e2e {
namespace {

constexpr uint64_t kMinRounds = 3;

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  std::string dir = "build/e2e/scratch";
  std::string out;
  std::string trace;
};

bool ParseFlags(int argc, char** argv, Flags* f) {
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return false;
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      f->workload = v;
    } else if (k == "--seed") {
      f->seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      f->seconds = std::strtod(v, &end);
      if (*end != '\0' || !(f->seconds > 0.0) || f->seconds > 3600.0) {
        return false;
      }
    } else if (k == "--dir") {
      f->dir = v;
    } else if (k == "--out") {
      f->out = v;
    } else if (k == "--trace") {
      f->trace = v;
    } else {
      return false;
    }
  }
  return !f->workload.empty();
}

// --- One round in a child process -----------------------------------------
// The child sends back the RoundResult bytes, its spans, and its checks.

bool WriteAll(int fd, const void* data, size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t w = write(fd, p, n);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    p += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

class Reader {
 public:
  explicit Reader(std::string bytes) : bytes_(std::move(bytes)) {}
  bool Get(void* out, size_t n) {
    if (bytes_.size() - pos_ < n) return false;
    std::memcpy(out, bytes_.data() + pos_, n);
    pos_ += n;
    return true;
  }

 private:
  std::string bytes_;
  size_t pos_ = 0;
};

[[noreturn]] void ChildMain(int fd, const WorkloadSpec& w, uint64_t seed,
                            const std::string& dir, bool traced) {
  const RoundResult r = RunRound(w, seed, dir, traced);
  const std::vector<SpanRecord> spans = Tracer::Get().Collect();
  const std::map<std::string, bool> checks = Checks();
  const uint64_t nspans = spans.size();
  const uint64_t nchecks = checks.size();
  bool ok = WriteAll(fd, &r, sizeof(r)) &&
            WriteAll(fd, &nspans, sizeof(nspans)) &&
            WriteAll(fd, spans.data(), spans.size() * sizeof(SpanRecord)) &&
            WriteAll(fd, &nchecks, sizeof(nchecks));
  for (const auto& [name, passed] : checks) {
    const uint32_t len = static_cast<uint32_t>(name.size());
    const uint8_t pass = passed ? 1 : 0;
    ok = ok && WriteAll(fd, &len, sizeof(len)) &&
         WriteAll(fd, name.data(), len) && WriteAll(fd, &pass, 1);
  }
  std::fflush(stdout);
  _exit(ok ? 0 : 3);
}

// Commits the filesystem holding `dir`, so the deletes, discards and
// journal writes a round leaves behind are paid before the next round
// starts instead of inside it.
void SyncFilesystem(const std::string& dir) {
  const int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  syncfs(fd);
  close(fd);
}

// Runs one round in a child; false (with a failed check) if the child did
// not finish. Span ids and thread numbers are made unique across rounds.
bool RunIsolated(const WorkloadSpec& w, uint64_t seed, uint64_t index,
                 const std::string& dir, bool traced, RoundResult* out,
                 std::vector<SpanRecord>* spans) {
  int fds[2];
  if (pipe(fds) != 0) {
    Check("round.completed", false, "pipe failed");
    return false;
  }
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    Check("round.completed", false, "fork failed");
    return false;
  }
  if (pid == 0) {
    close(fds[0]);
    ChildMain(fds[1], w, seed, dir, traced);
  }
  close(fds[1]);
  std::string bytes;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    bytes.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  // A child that died mid-round leaves its database files behind.
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    if (e.path().filename().string().rfind("round-", 0) == 0) {
      std::filesystem::remove_all(e.path(), ec);
    }
  }
  SyncFilesystem(dir);

  Reader in(std::move(bytes));
  uint64_t nspans = 0;
  bool ok = WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
            in.Get(out, sizeof(*out)) && in.Get(&nspans, sizeof(nspans)) &&
            nspans < (uint64_t{1} << 32);
  const uint64_t base = (index + 1) << 40;
  for (uint64_t i = 0; ok && i < nspans; ++i) {
    SpanRecord s;
    ok = in.Get(&s, sizeof(s));
    s.id += base;
    if (s.parent != 0) s.parent += base;
    s.thread += static_cast<uint32_t>(index * 1000);
    spans->push_back(s);
  }
  uint64_t nchecks = 0;
  ok = ok && in.Get(&nchecks, sizeof(nchecks));
  for (uint64_t i = 0; ok && i < nchecks; ++i) {
    uint32_t len = 0;
    uint8_t pass = 0;
    ok = in.Get(&len, sizeof(len)) && len < 4096;
    std::string name(ok ? len : 0, '\0');
    ok = ok && in.Get(name.data(), len) && in.Get(&pass, 1);
    if (ok) Check(name, pass != 0, "in round " + std::to_string(index));
  }
  Check("round.completed", ok,
        "round " + std::to_string(index) + " exit status " +
            std::to_string(status));
  return ok;
}

// --- Aggregation ----------------------------------------------------------

double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

double Ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

using Rounds = std::vector<const RoundResult*>;
using R = const RoundResult&;

// Median over rounds of f(round).
template <class F>
double MedianOf(const Rounds& rounds, F f) {
  std::vector<double> v;
  for (const RoundResult* r : rounds) v.push_back(f(*r));
  return Median(v);
}

// Median over every forward window of every round of f(window).
template <class F>
double WindowMedian(const Rounds& rounds, F f) {
  std::vector<double> v;
  for (const RoundResult* r : rounds) {
    for (uint32_t i = 0; i < r->num_windows; ++i) v.push_back(f(r->windows[i]));
  }
  return Median(v);
}

double PerTxn(double v, R r) {
  return Ratio(v, static_cast<double>(r.committed));
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
    std::printf("metric %s %.12g %s\n", name.c_str(), value, unit.c_str());
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

// Median set-up time of one round's set-ups, or of every set-up of `rounds`.
double SetupMedian(const Rounds& rounds) {
  std::vector<double> v;
  for (const RoundResult* r : rounds) {
    v.insert(v.end(), r->setup_s, r->setup_s + kSetupsPerRound);
  }
  return Median(v);
}

void EndToEnd(const Rounds& rounds, Report* rep) {
  rep->Add("setup_s", SetupMedian(rounds), "s");
  rep->Add("disk_bytes_per_txn", MedianOf(rounds, [](R r) {
             return PerTxn(static_cast<double>(r.disk_bytes), r);
           }), "B/txn");
  rep->Add("peak_rss_mb", MedianOf(rounds, [](R r) { return r.peak_rss_mb; }),
           "MB");
}

// Forward throughput and latency and recovery wall time, from untraced
// rounds. They are per-layer metrics, not end-to-end ones, only because
// this host's speed drifts more between runs than an end-to-end bound may
// allow (README.md, "Baseline and bounds").
void WallClock(const Rounds& rounds, Report* rep) {
  uint64_t samples = 0;
  uint64_t windows = 0;
  for (const RoundResult* r : rounds) {
    samples += r->committed;
    windows += r->num_windows;
  }
  rep->Add("txn_per_s",
           WindowMedian(rounds, [](const Window& w) { return w.txn_per_s; }),
           "1/s");
  rep->Add("txn_p50_us",
           WindowMedian(rounds, [](const Window& w) { return w.p50_us; }),
           "us");
  rep->Add("txn_p99_us",
           WindowMedian(rounds, [](const Window& w) { return w.p99_us; }),
           "us");
  std::printf("info latency_samples %llu in %llu windows of %u\n",
              static_cast<unsigned long long>(samples),
              static_cast<unsigned long long>(windows), kWindowTxns);
  rep->Add("recovery_s", MedianOf(rounds, [](R r) { return r.recover_s; }),
           "s");
}

// Device metrics of one (phase, op) from the traced rounds' spans: count
// and bytes per round, latency percentiles over all operations, and busy
// seconds per round.
void DeviceMetrics(const std::vector<SpanRecord>& spans, Phase phase,
                   const char* phase_name, const char* op, const char* span,
                   bool with_bytes, bool with_times, size_t rounds,
                   Report* rep) {
  std::vector<double> us;
  double bytes = 0.0;
  double busy = 0.0;
  for (const SpanRecord& s : spans) {
    if (s.phase != phase || std::strcmp(s.name, span) != 0) continue;
    const double d = static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
    us.push_back(d);
    bytes += static_cast<double>(s.bytes);
    busy += d * 1e-6;
  }
  const double n = static_cast<double>(rounds);
  const std::string p = std::string("device.") + phase_name + "." + op + ".";
  rep->Add(p + "count", static_cast<double>(us.size()) / n, "count");
  if (with_bytes) rep->Add(p + "bytes", bytes / n, "B");
  if (!with_times) return;
  rep->Add(p + "p50_us", Percentile(us, 0.50), "us");
  rep->Add(p + "p99_us", Percentile(us, 0.99), "us");
  rep->Add(p + "busy_s", busy / n, "s");
}

void PerLayer(const Rounds& traced, const Rounds& untraced,
              const std::vector<SpanRecord>& spans, Report* rep) {
  WallClock(untraced, rep);
  rep->Add("storage.load_s", MedianOf(traced, [](R r) { return r.install_s; }),
           "s");
  rep->Add("storage.table_mb",
           MedianOf(traced, [](R r) { return r.table_mb; }), "MB");
  rep->Add("storage.crash_s", MedianOf(traced, [](R r) { return r.crash_s; }),
           "s");
  rep->Add("analysis.finalize_s",
           MedianOf(traced, [](R r) { return r.finalize_s; }), "s");
  rep->Add("analysis.gdg_blocks",
           static_cast<double>(traced.front()->gdg_blocks), "count");

  rep->Add("net.wire_bytes_per_txn", MedianOf(traced, [](R r) {
             return PerTxn(static_cast<double>(r.wire_bytes), r);
           }), "B/txn");
  double call_errors = 0.0;
  double shed = 0.0;
  for (const RoundResult* r : traced) {
    call_errors += static_cast<double>(r->call_errors);
    shed += static_cast<double>(r->shed);
  }
  rep->Add("net.call_errors", call_errors, "count");
  rep->Add("net.shed", shed, "count");
  rep->Add("client.call_p999_us",
           MedianOf(traced, [](R r) { return r.call_p999_us; }), "us");
  rep->Add("loadgen.late_p99_us",
           MedianOf(traced, [](R r) { return r.late_p99_us; }), "us");

  rep->Add("txn.abort_rate", MedianOf(traced, [](R r) {
             return Ratio(static_cast<double>(r.aborts),
                          static_cast<double>(r.aborts + r.committed));
           }), "ratio");
  rep->Add("txn.retries_per_txn", MedianOf(traced, [](R r) {
             return PerTxn(static_cast<double>(r.retries), r);
           }), "ratio");
  rep->Add("txn.lock_waits_per_txn", MedianOf(traced, [](R r) {
             return PerTxn(static_cast<double>(r.lock_waits), r);
           }), "ratio");

  rep->Add("logging.log_bytes_per_txn", MedianOf(traced, [](R r) {
             return PerTxn(static_cast<double>(r.log_bytes), r);
           }), "B/txn");
  rep->Add("logging.write_amp", MedianOf(traced, [](R r) {
             return Ratio(static_cast<double>(r.disk_bytes),
                          static_cast<double>(r.log_bytes));
           }), "ratio");
  rep->Add("logging.fsyncs_per_txn", MedianOf(traced, [](R r) {
             return PerTxn(static_cast<double>(r.fsyncs), r);
           }), "ratio");
  rep->Add("logging.flush_us_per_txn", MedianOf(traced, [](R r) {
             return PerTxn(r.flush_s * 1e6, r);
           }), "us");

  const size_t n = traced.size();
  DeviceMetrics(spans, Phase::kForward, "forward", "write", "device.write",
                true, true, n, rep);
  DeviceMetrics(spans, Phase::kForward, "forward", "sync", "device.sync",
                false, true, n, rep);
  DeviceMetrics(spans, Phase::kForward, "forward", "remove", "device.remove",
                false, false, n, rep);
  DeviceMetrics(spans, Phase::kRecover, "recovery", "read", "device.read",
                true, true, n, rep);

  rep->Add("maint.checkpoints", MedianOf(traced, [](R r) {
             return static_cast<double>(r.maint_checkpoints);
           }), "count");
  rep->Add("maint.ckpt_bytes", MedianOf(traced, [](R r) {
             return static_cast<double>(r.maint_ckpt_bytes);
           }), "B");
  rep->Add("maint.truncated_bytes", MedianOf(traced, [](R r) {
             return static_cast<double>(r.maint_truncated_bytes);
           }), "B");
  double maint_failures = 0.0;
  for (const RoundResult* r : traced) {
    maint_failures += static_cast<double>(r->maint_failures);
  }
  rep->Add("maint.failures", maint_failures, "count");
  rep->Add("maint.busy_pct", MedianOf(traced, [](R r) {
             return 100.0 * Ratio(r.maint_busy_s, r.forward_s);
           }), "%");

  // The stage split comes from the one round whose Recover() time is the
  // median, so prelude + restore + replay add up to it exactly.
  Rounds by_recovery = traced;
  std::sort(by_recovery.begin(), by_recovery.end(),
            [](const RoundResult* a, const RoundResult* b) {
              return a->recover_s < b->recover_s;
            });
  const RoundResult& med = *by_recovery[by_recovery.size() / 2];
  rep->Add("recovery.prelude_s",
           med.recover_s - med.ckpt_restore_s - med.log_replay_s, "s");
  rep->Add("recovery.ckpt_restore_s", med.ckpt_restore_s, "s");
  rep->Add("recovery.log_replay_s", med.log_replay_s, "s");
  rep->Add("recovery.load_s",
           MedianOf(traced, [](R r) { return r.probe_load_s; }), "s");
  rep->Add("recovery.load_bytes", MedianOf(traced, [](R r) {
             return static_cast<double>(r.probe_load_bytes);
           }), "B");
  rep->Add("recovery.ckpt_read_s",
           MedianOf(traced, [](R r) { return r.probe_ckpt_read_s; }), "s");
  rep->Add("recovery.records_replayed",
           static_cast<double>(med.records_replayed), "count");
  rep->Add("recovery.tuples_restored",
           static_cast<double>(med.tuples_restored), "count");
  rep->Add("recovery.latch_acquisitions",
           static_cast<double>(med.latch_acquisitions), "count");
  rep->Add("recovery.records_per_s",
           Ratio(static_cast<double>(med.records_replayed), med.log_replay_s),
           "1/s");

  auto tput = [](const Rounds& rs) {
    return WindowMedian(rs, [](const Window& w) { return w.txn_per_s; });
  };
  rep->Add("trace.overhead", 1.0 - Ratio(tput(traced), tput(untraced)),
           "ratio");
}

bool WriteRunJson(const std::string& path, const Flags& f, bool traced,
                  size_t rounds, bool correct, uint64_t attempted,
                  uint64_t failed, const Report& rep,
                  const std::map<std::string, bool>& checks) {
  // Names and units are fixed identifiers, and the workload name matched
  // a known one, so nothing written here needs JSON escaping.
  std::ofstream out(path);
  if (!out) return false;
  char buf[64];
  out << "{\"workload\": \"" << f.workload << "\", \"seed\": " << f.seed
      << ", \"seconds\": " << f.seconds
      << ", \"trace\": " << (traced ? "true" : "false")
      << ", \"rounds\": " << rounds
      << ", \"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < rep.metrics().size(); ++i) {
    const Metric& m = rep.metrics()[i];
    std::snprintf(buf, sizeof(buf), "%.12g", m.value);
    out << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << buf
        << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}, \"checks\": {";
  bool first = true;
  for (const auto& [name, ok] : checks) {
    out << (first ? "" : ", ") << "\"" << name
        << "\": " << (ok ? "true" : "false");
    first = false;
  }
  out << "}}\n";
  return static_cast<bool>(out);
}

bool AllChecksPass() {
  for (const auto& [name, ok] : Checks()) {
    if (!ok) return false;
  }
  return true;
}

int Main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload NAME --seed N [--seconds S] "
                 "[--dir SCRATCH] [--out RUN.json] [--trace TRACE.json]\n");
    return 2;
  }
  const WorkloadSpec* w = FindWorkload(flags.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; known:",
                 flags.workload.c_str());
    for (const std::string& n : WorkloadNames()) {
      std::fprintf(stderr, " %s", n.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(flags.dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", flags.dir.c_str(),
                 ec.message().c_str());
    return 2;
  }
  const bool tracing = !flags.trace.empty();

  // The round count depends only on --seconds, never on how fast the
  // rounds run, so two commits compared at one setting do the same work.
  const uint64_t num_rounds = std::max<uint64_t>(
      kMinRounds,
      static_cast<uint64_t>(std::llround(flags.seconds / w->round_s)));
  std::vector<RoundResult> rounds(num_rounds);
  std::vector<SpanRecord> spans;
  size_t done = 0;
  SyncFilesystem(flags.dir);
  for (uint64_t i = 0; i < num_rounds; ++i) {
    const bool traced = tracing && i % 2 == 0;
    RoundResult& r = rounds[done];
    if (!RunIsolated(*w, flags.seed * 1000003ull + i, i, flags.dir, traced,
                     &r, &spans)) {
      break;
    }
    done++;
    std::printf("info round %llu traced=%d setup_s=%.3f txn_per_s=%.0f "
                "recover_s=%.3f table_mb=%.0f rss_mb=%.0f\n",
                static_cast<unsigned long long>(i), traced ? 1 : 0,
                SetupMedian({&r}),
                Ratio(static_cast<double>(r.committed), r.forward_s),
                r.recover_s, r.table_mb, r.peak_rss_mb);
    std::fflush(stdout);
    if (!AllChecksPass()) break;
  }
  rounds.resize(done);

  Rounds traced;
  Rounds untraced;
  for (const RoundResult& r : rounds) {
    (r.traced ? traced : untraced).push_back(&r);
  }
  const Rounds& reported = tracing ? traced : untraced;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const RoundResult* r : reported) {
    attempted += r->attempted;
    failed += r->failed;
  }
  Check("run.measured_rounds",
        done == num_rounds && !reported.empty() && attempted > 0);

  Report rep;
  if (AllChecksPass()) {
    if (!tracing) {
      EndToEnd(reported, &rep);
    } else {
      PerLayer(traced, untraced, spans, &rep);
      for (const auto& [name, s] : Tracer::Summarize(spans)) {
        std::printf("span %s count=%llu total_s=%.6f self_s=%.6f\n",
                    name.c_str(), static_cast<unsigned long long>(s.count),
                    s.total_s, s.self_s);
      }
      Check("trace.written", Tracer::WriteChromeTrace(spans, flags.trace),
            flags.trace);
    }
  }

  const std::map<std::string, bool> checks = Checks();
  bool correct = true;
  for (const auto& [name, ok] : checks) {
    std::printf("check %s %s\n", name.c_str(), ok ? "ok" : "FAIL");
    correct = correct && ok;
  }
  std::printf("info rounds %zu\n", rounds.size());
  if (!flags.out.empty() &&
      !WriteRunJson(flags.out, flags, tracing, reported.size(), correct,
                    attempted, failed, rep, checks)) {
    std::fprintf(stderr, "cannot write %s\n", flags.out.c_str());
    return 1;
  }
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace pacman::e2e

int main(int argc, char** argv) { return pacman::e2e::Main(argc, argv); }
