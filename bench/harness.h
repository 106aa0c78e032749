// Copyright (c) 2026 The PACMAN reproduction authors.
// Shared benchmark harness: workload setup, transaction driving and table
// printing. Every bench binary regenerates one table or figure of the
// paper; EXPERIMENTS.md records paper-vs-measured for each.
#ifndef PACMAN_BENCH_HARNESS_H_
#define PACMAN_BENCH_HARNESS_H_

#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "pacman/database.h"
#include "pacman/device_flags.h"
#include "pacman/workload_driver.h"
#include "workload/adhoc.h"
#include "workload/smallbank.h"
#include "workload/tpcc.h"

namespace pacman::bench {

// A database bundled with a workload generator.
struct Env {
  std::unique_ptr<Database> db;
  std::function<ProcId(Rng*, std::vector<Value>*)> next_txn;
  std::string name;
};

// Device selection shared by every Env a bench constructs: call
// SetDeviceFlags(flags) once after ParseCommonFlags and all subsequent
// environments honor --device/--log-dir, each in a disjoint subdirectory
// (benches build many databases; their logs must not mix).
inline CommonFlags& DeviceFlags() {
  static CommonFlags flags;
  return flags;
}
inline void SetDeviceFlags(const CommonFlags& flags) {
  DeviceFlags() = flags;
}

inline DatabaseOptions DefaultDbOptions(logging::LogScheme scheme) {
  DatabaseOptions opts;
  opts.scheme = scheme;
  opts.num_ssds = 2;
  opts.num_loggers = 2;
  opts.epochs_per_batch = 4;
  opts.commits_per_epoch = 125;  // ~10 batches per 5000 transactions.
  static std::atomic<int> env_counter{0};
  ApplyDeviceFlags(DeviceFlags(), &opts,
                   "env" + std::to_string(env_counter++));
  return opts;
}

// Bench-scale TPC-C: the paper used 200 warehouses / 20 GB; we run a
// reduced load and rely on the calibrated cost model
// (recovery/cost_model.h) for virtual-time magnitudes.
inline workload::TpccConfig BenchTpccConfig() {
  workload::TpccConfig c;
  c.num_warehouses = 4;
  c.districts_per_warehouse = 10;
  c.customers_per_district = 100;
  c.num_items = 500;
  c.orders_per_district = 16;
  return c;
}

inline Env MakeTpccEnv(logging::LogScheme scheme,
                       workload::TpccConfig config = BenchTpccConfig()) {
  Env env;
  env.name = "TPC-C";
  env.db = std::make_unique<Database>(DefaultDbOptions(scheme));
  ExitIfUnrecoveredState(env.db.get());
  auto tpcc = std::make_shared<workload::Tpcc>(config);
  tpcc->Install(env.db.get());
  env.db->FinalizeSchema();
  env.next_txn = [tpcc](Rng* rng, std::vector<Value>* params) {
    return tpcc->NextTransaction(rng, params);
  };
  return env;
}

inline Env MakeSmallbankEnv(logging::LogScheme scheme) {
  Env env;
  env.name = "Smallbank";
  env.db = std::make_unique<Database>(DefaultDbOptions(scheme));
  ExitIfUnrecoveredState(env.db.get());
  auto sb = std::make_shared<workload::Smallbank>(workload::SmallbankConfig{
      .num_accounts = 20000, .hotspot_fraction = 0.1, .hotspot_size = 100});
  sb->Install(env.db.get());
  env.db->FinalizeSchema();
  env.next_txn = [sb](Rng* rng, std::vector<Value>* params) {
    return sb->NextTransaction(rng, params);
  };
  return env;
}

// The `--threads N` / `--txns N` / `--seed N` / `--adhoc F` dimensions are
// parsed with pacman::ParseCommonFlags (common/flags.h), shared with the
// examples.

// Runs `n` transactions on `threads` forward-processing workers (after
// taking the baseline checkpoint) and returns the driver result. The
// pre-crash content hash is env->db->ContentHash() afterwards.
inline DriverResult RunWorkloadThreaded(Env* env, int n, uint32_t threads,
                                        double adhoc_fraction = 0.0,
                                        uint64_t seed = 42) {
  PACMAN_CHECK(env->db->TryTakeCheckpoint().ok());
  DriverOptions opts;
  opts.num_workers = threads;
  opts.num_txns = static_cast<uint64_t>(n);
  opts.adhoc_fraction = adhoc_fraction;
  opts.seed = seed;
  DriverResult r = env->db->RunWorkers(env->next_txn, opts);
  PACMAN_CHECK(r.failed == 0);
  return r;
}

// Runs `n` transactions (optionally tagging an ad-hoc fraction) after
// taking the baseline checkpoint, through a single client session.
// Returns the pre-crash content hash.
inline uint64_t RunWorkload(Env* env, int n, double adhoc_fraction = 0.0,
                            uint64_t seed = 42) {
  PACMAN_CHECK(env->db->TryTakeCheckpoint().ok());
  auto session = env->db->OpenSession();
  Rng rng(seed);
  std::vector<Value> params;
  for (int i = 0; i < n; ++i) {
    ProcId proc = env->next_txn(&rng, &params);
    TxnOptions topts;
    topts.adhoc = workload::TagAdhoc(&rng, adhoc_fraction);
    TxnResult r = session->Call(env->db->proc(proc), params, topts);
    PACMAN_CHECK(r.ok());
  }
  return env->db->ContentHash();
}

// One line of forward-processing numbers: aggregate and per-worker
// throughput (txn/s per thread), so scaling regressions show up directly
// in recorded BENCH_*.json entries.
inline void PrintForwardStats(const char* label, const DriverResult& r) {
  std::printf(
      "%-10s workers=%2zu committed=%llu retries=%llu wall=%.3fs "
      "tput=%.0f txn/s (%.0f txn/s/worker)\n",
      label, r.workers.size(),
      static_cast<unsigned long long>(r.committed),
      static_cast<unsigned long long>(r.retries), r.wall_seconds,
      r.TxnsPerSecond(), r.TxnsPerSecondPerWorker());
}

// Crash + recover + verify; returns the recovery result.
inline FullRecoveryResult CrashAndRecover(
    Env* env, recovery::Scheme scheme, const recovery::RecoveryOptions& opts,
    uint64_t expected_hash, bool verify = true) {
  env->db->Crash();
  FullRecoveryResult r = env->db->Recover(scheme, opts);
  if (verify && !opts.reload_only) {
    PACMAN_CHECK(env->db->ContentHash() == expected_hash);
  }
  return r;
}

// Measures the real serialized log bytes per transaction for a scheme by
// running the workload through the actual serializers. `threads` > 1
// drives the engine concurrently (byte counts are commit-order invariant);
// per-worker throughput is reported via *forward_stats when non-null.
inline double MeasureBytesPerTxn(Env* env, int n, double adhoc_fraction = 0.0,
                                 uint64_t seed = 42, uint32_t threads = 1,
                                 DriverResult* forward_stats = nullptr) {
  if (threads > 1 || forward_stats != nullptr) {
    DriverResult r = RunWorkloadThreaded(env, n, threads, adhoc_fraction, seed);
    if (forward_stats != nullptr) *forward_stats = r;
  } else {
    RunWorkload(env, n, adhoc_fraction, seed);
  }
  env->db->AdvanceEpoch();
  return static_cast<double>(env->db->log_bytes()) / n;
}

// The thread counts the paper sweeps (x-axes of Figs. 13-15, 19).
inline std::vector<uint32_t> PaperThreadCounts() {
  return {1, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40};
}

// --- Machine-readable bench output (--json) ---------------------------------
// Benches call RecordJson once per measured row and WriteJsonReport at the
// end of main; with an empty path the report is skipped and only the human
// tables are printed. Committed baselines (BENCH_*.json at the repo root)
// use exactly this format, so a rerun is diffable against them.
struct JsonRow {
  // Rows are written positionally, in the field order below; `extra` is
  // the only optional field.
  JsonRow(std::string section, std::string scheme, uint32_t threads,
          uint64_t txns, double txns_per_sec, double abort_rate,
          double retries_per_txn, double lock_waits_per_txn, double seconds,
          std::string extra = "")
      : section(std::move(section)),
        scheme(std::move(scheme)),
        threads(threads),
        txns(txns),
        txns_per_sec(txns_per_sec),
        abort_rate(abort_rate),
        retries_per_txn(retries_per_txn),
        lock_waits_per_txn(lock_waits_per_txn),
        seconds(seconds),
        extra(std::move(extra)) {}

  std::string section;  // e.g. "forward_commit_scaling", "recovery_fig15a".
  std::string scheme;   // Log/recovery scheme name of the row.
  uint32_t threads;
  uint64_t txns;
  double txns_per_sec;        // 0 when the row measures recovery only.
  double abort_rate;          // Aborted attempts / total attempts.
  double retries_per_txn;
  double lock_waits_per_txn;  // Commit slot-lock contention events.
  double seconds;             // Wall (forward) or virtual (recovery) time.
  // Pre-rendered JSON fragment appended inside the row object for
  // bench-specific fields (e.g. `"p50_us": 12.3, "p99_us": 45.6`). Must
  // start with a comma when non-empty; empty keeps the row byte-identical
  // to the historical format.
  std::string extra;
};

inline std::vector<JsonRow>& JsonRows() {
  static std::vector<JsonRow> rows;
  return rows;
}

inline void RecordJson(JsonRow row) { JsonRows().push_back(std::move(row)); }

inline void WriteJsonReport(const std::string& path, const char* bench) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  PACMAN_CHECK_MSG(f != nullptr, "cannot open --json output path");
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"rows\": [\n", bench);
  const std::vector<JsonRow>& rows = JsonRows();
  for (size_t i = 0; i < rows.size(); ++i) {
    const JsonRow& r = rows[i];
    std::fprintf(
        f,
        "    {\"section\": \"%s\", \"scheme\": \"%s\", \"threads\": %u, "
        "\"txns\": %llu, \"txns_per_sec\": %.1f, \"abort_rate\": %.6f, "
        "\"retries_per_txn\": %.6f, \"lock_waits_per_txn\": %.6f, "
        "\"seconds\": %.6f%s}%s\n",
        r.section.c_str(), r.scheme.c_str(), r.threads,
        static_cast<unsigned long long>(r.txns), r.txns_per_sec,
        r.abort_rate, r.retries_per_txn, r.lock_waits_per_txn, r.seconds,
        r.extra.c_str(), i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("json report written to %s (%zu rows)\n", path.c_str(),
              rows.size());
}

// Forward-processing commit scaling: runs `txns` transactions of `env_fn`'s
// workload at each worker count, printing and recording throughput,
// OCC abort rate and the commit path's slot-lock contention events. Under
// the retired global commit latch every concurrent commit was one
// serialization event; after the Silo-style protocol only genuine
// same-slot conflicts are, which `lockw/txn` measures directly — the
// hardware-independent signal that there is no global-latch flatline
// (wall-clock tput on an oversubscribed host is bounded by core count,
// exactly like the paper's recovery sweeps, which is why the simulated
// figures use virtual time).
inline void RunForwardCommitScaling(
    const std::function<Env(void)>& env_fn, const char* scheme_label,
    int txns, const std::vector<uint32_t>& worker_counts) {
  std::printf("--- Forward commit scaling: %s ---\n", scheme_label);
  std::printf("%-8s %12s %12s %12s %12s\n", "workers", "txn/s", "abort rate",
              "retries/txn", "lockw/txn");
  for (uint32_t w : worker_counts) {
    Env env = env_fn();
    DriverResult r = RunWorkloadThreaded(&env, txns, w);
    const double n = static_cast<double>(r.committed);
    const uint64_t aborts = env.db->txn_manager()->num_aborts();
    const double attempts = n + static_cast<double>(r.retries);
    const double abort_rate =
        attempts > 0.0 ? static_cast<double>(aborts) / attempts : 0.0;
    const double lock_waits =
        static_cast<double>(env.db->txn_manager()->num_commit_lock_waits());
    std::printf("%-8u %12.0f %12.4f %12.4f %12.4f\n", w, r.TxnsPerSecond(),
                abort_rate, n > 0.0 ? r.retries / n : 0.0,
                n > 0.0 ? lock_waits / n : 0.0);
    RecordJson({"forward_commit_scaling", scheme_label, w, r.committed,
                r.TxnsPerSecond(), abort_rate, n > 0.0 ? r.retries / n : 0.0,
                n > 0.0 ? lock_waits / n : 0.0, r.wall_seconds});
  }
}

inline void PrintRule(char c = '-') {
  for (int i = 0; i < 78; ++i) std::putchar(c);
  std::putchar('\n');
}

inline void PrintTitle(const std::string& title) {
  PrintRule('=');
  std::printf("%s\n", title.c_str());
  PrintRule('=');
}

}  // namespace pacman::bench

#endif  // PACMAN_BENCH_HARNESS_H_
