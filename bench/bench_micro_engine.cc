// Engine micro-benchmarks.
//
// Default run: the procedure engine's rows — bank transactions executed
// single-threaded through the register-bytecode VM against stubbed
// storage (logic only) and against the tables (exec only), through the
// full engine (forward processing), and re-executed through CLR
// command-log replay. `--json PATH` records the four rows in the
// BENCH_micro_engine.json format; `--txns N` sizes the run.
//
// `--gbench` (or any --benchmark_* flag) additionally runs the
// google-benchmark micros: index operations, value hashing, log-record
// serialization, commits and multi-worker forward-processing throughput.
#include <benchmark/benchmark.h>

#include <chrono>
#include <type_traits>
#include <vector>

#include "bench/harness.h"
#include "common/random.h"
#include "common/serializer.h"
#include "logging/log_record.h"
#include "pacman/database.h"
#include "proc/exec_arena.h"
#include "storage/catalog.h"
#include "storage/hash_index.h"
#include "storage/table.h"
#include "txn/transaction_manager.h"
#include "workload/bank.h"

namespace pacman {
namespace {

// Fills a fresh index with as many keys as one smallbank_large table
// holds, growing it from empty: sequential keys (random:0, the order a
// bulk load inserts them) or random 64-bit keys (random:1).
void BM_HashIndexInsert(benchmark::State& state) {
  constexpr Key kKeys = 600000;
  std::vector<Key> keys(kKeys);
  Rng rng(1);
  for (Key i = 0; i < kKeys; ++i) {
    keys[i] = state.range(0) != 0 ? rng.Next() : i;
  }
  for (auto _ : state) {
    storage::HashIndex idx;
    for (Key k : keys) benchmark::DoNotOptimize(idx.Insert(k, &idx));
  }
  state.SetItemsProcessed(state.iterations() * kKeys);
}
BENCHMARK(BM_HashIndexInsert)->ArgName("random")->Arg(0)->Arg(1);

void BM_HashIndexLookup(benchmark::State& state) {
  storage::HashIndex idx;
  for (Key k = 0; k < 100000; ++k) idx.Insert(k, &idx);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(idx.Lookup(rng.Uniform(0, 99999)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashIndexLookup);

void BM_RowHash(benchmark::State& state) {
  Row row = {Value(int64_t{1}), Value(2.5), Value(std::string(64, 'x'))};
  for (auto _ : state) benchmark::DoNotOptimize(HashRow(row));
}
BENCHMARK(BM_RowHash);

void BM_SerializeLogicalRecord(benchmark::State& state) {
  logging::LogRecord rec;
  rec.commit_ts = 1;
  rec.epoch = 1;
  for (int i = 0; i < 8; ++i) {
    rec.AddImage(0, static_cast<Key>(i),
                 {Value(int64_t{i}), Value(1.0), Value(std::string(32, 'y'))},
                 false);
  }
  for (auto _ : state) {
    Serializer s(1024);
    logging::SerializeRecord(logging::LogScheme::kLogical, rec,
                             logging::RecordBases{}, &s);
    benchmark::DoNotOptimize(s.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SerializeLogicalRecord);

void BM_TxnCommitSingleWrite(benchmark::State& state) {
  storage::Catalog catalog;
  storage::Table* t =
      catalog.CreateTable("t", Schema({{"v", ValueType::kInt64, 0}}));
  for (Key k = 0; k < 1000; ++k) t->LoadRow(k, {Value(int64_t{0})}, 1);
  txn::EpochManager epochs(0);
  txn::TransactionManager tm(&epochs);
  Rng rng(4);
  for (auto _ : state) {
    txn::Transaction txn = tm.Begin();
    txn.Write(t, rng.Uniform(0, 999), {Value(int64_t{1})});
    txn::CommitInfo info;
    benchmark::DoNotOptimize(tm.Commit(&txn, &info));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TxnCommitSingleWrite);

// Forward-processing scaling: the bank workload driven end-to-end (OCC
// retry, per-worker command logging, epoch group commit) across worker
// counts. items/s is committed transactions per second; the
// txn_per_s_per_worker counter is the scaling metric (flat == linear).
void BM_ForwardProcessingBank(benchmark::State& state) {
  const uint32_t threads = static_cast<uint32_t>(state.range(0));
  constexpr uint64_t kTxns = 20000;
  uint64_t committed = 0;
  double per_worker = 0.0;
  for (auto _ : state) {
    state.PauseTiming();
    DatabaseOptions opts;
    opts.scheme = logging::LogScheme::kCommand;
    Database db(opts);
    workload::Bank bank({.num_users = 20000, .num_nations = 16,
                         .single_fraction = 0.0});
    bank.Install(&db);
    db.FinalizeSchema();
    PACMAN_CHECK(db.TryTakeCheckpoint().ok());
    state.ResumeTiming();

    DriverOptions dopts;
    dopts.num_workers = threads;
    dopts.num_txns = kTxns;
    DriverResult r = db.RunWorkers(
        [&bank](Rng* rng, std::vector<Value>* params) {
          return bank.NextTransaction(rng, params);
        },
        dopts);
    committed += r.committed;
    per_worker = r.TxnsPerSecondPerWorker();
  }
  state.SetItemsProcessed(static_cast<int64_t>(committed));
  state.counters["txn_per_s_per_worker"] = per_worker;
}
BENCHMARK(BM_ForwardProcessingBank)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// --- Procedure engine rows --------------------------------------------------
// The bank workload through the bytecode VM: forward processing (full OCC
// + command logging path) and CLR command-log replay (nearly pure
// procedure re-execution). CLR replay runs on the kThreads backend for
// honest wall-clock seconds.

bench::Env MakeBankEnv() {
  bench::Env env;
  env.name = "compiled";
  env.db = std::make_unique<Database>(
      bench::DefaultDbOptions(logging::LogScheme::kCommand));
  ExitIfUnrecoveredState(env.db.get());
  auto bank = std::make_shared<workload::Bank>(workload::BankConfig{
      .num_users = 20000, .num_nations = 16, .single_fraction = 0.0});
  bank->Install(env.db.get());
  env.db->FinalizeSchema();
  env.next_txn = [bank](Rng* rng, std::vector<Value>* params) {
    return bank->NextTransaction(rng, params);
  };
  return env;
}

// Storage-stubbed access context: every read views one fixed one-column
// packed row, encoded once, and writes are dropped. Takes the storage
// engine (index descent, version install) out of the measurement, leaving
// bytecode evaluation, per-txn state management and row building.
class StubAccess : public proc::AccessContext {
 public:
  StubAccess() {
    const Row row = {Value(1000.0)};
    row_.resize(CompactRowBytes(row));
    EncodeCompactRow(row, row_.data());
  }
  Status ReadTable(storage::Table*, TableId, Key,
                   const uint8_t** row) override {
    *row = row_.data();
    return Status::Ok();
  }
  void Write(TableId, Key, const Row&, bool, bool) override {}

 private:
  std::vector<uint8_t> row_;
};

// Times `run_one` over the request stream, best of `kRepeats` passes (the
// first doubles as warmup). Best-of is the standard microbenchmark
// estimator: it discards scheduler noise, which on a shared host dwarfs
// small deltas.
constexpr int kRepeats = 5;

template <typename Fn>
double BestOfRuns(
    const std::vector<std::pair<ProcId, std::vector<Value>>>& reqs,
    const Fn& run_one) {
  double best = 0.0;
  for (int r = 0; r < kRepeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto& req : reqs) run_one(req);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    best = std::max(best, static_cast<double>(reqs.size()) / secs);
  }
  return best;
}

// Executes the request stream through the VM against `access`, best of
// kRepeats.
template <typename Access>
double VmTps(bench::Env* env, Access* access,
             const std::vector<std::pair<ProcId, std::vector<Value>>>& reqs) {
  proc::ExecArena arena;
  Timestamp ts = 0;
  auto run_one = [&](const std::pair<ProcId, std::vector<Value>>& req) {
    if constexpr (std::is_same_v<Access, proc::ReplayAccess>) {
      access->set_commit_ts(++ts);
    }
    proc::VmState vm =
        arena.Bind(env->db->programs().Get(req.first), &req.second);
    PACMAN_CHECK(proc::VmExecuteAll(&vm, access).ok());
  };
  return BestOfRuns(reqs, run_one);
}

void RunEngineRows(const CommonFlags& flags) {
  bench::PrintTitle("Procedure engine: bytecode VM (bank, 1 thread)");
  const int txns = flags.txns;
  const uint64_t seed = flags.seed;
  bench::Env env = MakeBankEnv();

  std::vector<std::pair<ProcId, std::vector<Value>>> reqs;
  reqs.reserve(static_cast<size_t>(txns));
  Rng rng(seed);
  std::vector<Value> params;
  for (int i = 0; i < txns; ++i) {
    ProcId pid = env.next_txn(&rng, &params);
    reqs.emplace_back(pid, params);
  }
  // Logic only: stubbed storage. Exec only: the same stream re-executed
  // through ReplayAccess (unlatched installs, no OCC/logging/commit) —
  // exactly the CLR replay inner loop. Both on their own env, so the
  // forward run below starts from freshly loaded tables.
  bench::Env exec_env = MakeBankEnv();
  StubAccess stub;
  const double logic_tps = VmTps(&exec_env, &stub, reqs);
  proc::ReplayAccess replay(exec_env.db->catalog());
  const double exec_tps = VmTps(&exec_env, &replay, reqs);

  DriverResult fwd = bench::RunWorkloadThreaded(&env, txns, 1, 0.0, seed);
  const uint64_t hash = env.db->ContentHash();

  env.db->Crash();
  recovery::RecoveryOptions ropts;
  ropts.num_threads = 1;
  FullRecoveryResult rec = env.db->Recover(recovery::Scheme::kClr, ropts,
                                           ExecutionBackend::kThreads);
  PACMAN_CHECK(env.db->ContentHash() == hash);

  const double forward_tps = fwd.TxnsPerSecond();
  const double replay_tps =
      static_cast<double>(rec.log.records_replayed) / rec.log.seconds;
  const char* name = "compiled";
  std::printf(
      "%-12s logic %9.0f txn/s   exec %9.0f txn/s   forward %8.0f txn/s "
      "(%.3fs)   clr-replay %8.0f txn/s (%.3fs)\n",
      name, logic_tps, exec_tps, forward_tps, fwd.wall_seconds, replay_tps,
      rec.log.seconds);
  bench::RecordJson({"micro_exec_logic", name, 1,
                     static_cast<uint64_t>(txns), logic_tps, 0.0, 0.0, 0.0,
                     static_cast<double>(txns) / logic_tps});
  bench::RecordJson({"micro_exec_only", name, 1,
                     static_cast<uint64_t>(txns), exec_tps, 0.0, 0.0, 0.0,
                     static_cast<double>(txns) / exec_tps});
  bench::RecordJson({"micro_forward", name, 1, fwd.committed, forward_tps,
                     0.0, 0.0, 0.0, fwd.wall_seconds});
  bench::RecordJson({"micro_clr_replay", name, 1, rec.log.records_replayed,
                     replay_tps, 0.0, 0.0, 0.0, rec.log.seconds});
}

}  // namespace
}  // namespace pacman

// ParseCommonFlags and google-benchmark both reject flags they do not
// recognize, so main splits argv: --benchmark_* goes to
// benchmark::Initialize, everything else to ParseCommonFlags. The micros
// only run when requested (--gbench or any --benchmark_* flag); the
// default run is the engine rows CI smokes.
int main(int argc, char** argv) {
  std::vector<char*> common{argv[0]};
  std::vector<char*> gbench{argv[0]};
  bool run_gbench = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--benchmark", 0) == 0) {
      gbench.push_back(argv[i]);
      run_gbench = true;
    } else if (arg == "--gbench") {
      run_gbench = true;
    } else {
      common.push_back(argv[i]);
    }
  }

  pacman::CommonFlags defaults;
  defaults.txns = 20000;
  int cargc = static_cast<int>(common.size());
  const pacman::CommonFlags flags =
      pacman::ParseCommonFlags(cargc, common.data(), defaults);
  pacman::bench::SetDeviceFlags(flags);

  pacman::RunEngineRows(flags);
  pacman::bench::WriteJsonReport(flags.json, "micro_engine");

  if (run_gbench) {
    int gargc = static_cast<int>(gbench.size());
    benchmark::Initialize(&gargc, gbench.data());
    benchmark::RunSpecifiedBenchmarks();
  }
  return 0;
}
