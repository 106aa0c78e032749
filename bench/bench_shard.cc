// Partitioned-engine benchmark: the sharded engine against the unsharded
// baseline on the same workload, all other dimensions matched (device
// count, logger count, worker count).
//
// Sections (BENCH_shard.json at the repo root holds the committed
// baseline in the shared --json format):
//   shard_forward   forward-processing throughput, shards=1 vs shards=4
//                   at the same worker count (extra: "shards"), on the
//                   partitionable smallbank mix (single-account
//                   procedures only, i.e. every commit routes whole to
//                   its home shard — the fast path the partitioned
//                   engine adds). Repetitions are interleaved
//                   (1,4,1,4,...) and each side reports its best, so
//                   host noise hits both configurations symmetrically.
//   shard_forward_mixed  the same comparison on the standard smallbank
//                   mix, whose 40% two-account transactions make ~3/4 of
//                   their commits cross-shard at 4 shards. Cross-shard
//                   commits pay the documented downgrade — per-shard
//                   self-contained streams need row images instead of a
//                   command record (see README) — so this section also
//                   reports log bytes per transaction (extra:
//                   "log_bytes_per_txn") to quantify the amplification.
//   shard_recovery  per-scheme log-replay virtual seconds (simulated
//                   machine, so the multicore result is deterministic on
//                   any host): single global pipeline vs one recovery
//                   lane per shard at the same total thread count.
//   shard_parity    per-scheme content-hash parity between the sharded
//                   and unsharded engines, before and after a
//                   crash/recovery cycle (extra: "hash_match").
#include <algorithm>
#include <atomic>

#include "bench/harness.h"
#include "recovery/recovery.h"

namespace pacman::bench {
namespace {

using recovery::Scheme;

constexpr uint32_t kShards = 4;

logging::LogScheme FormatFor(Scheme s) {
  switch (s) {
    case Scheme::kPlr:
      return logging::LogScheme::kPhysical;
    case Scheme::kLlr:
    case Scheme::kLlrP:
      return logging::LogScheme::kLogical;
    default:
      return logging::LogScheme::kCommand;
  }
}

// Both engines get the same device and log-stream layout (kShards of
// each), so the only varied dimension is partitioning itself: the
// unsharded baseline stripes commits across its loggers by TID, the
// sharded engine routes them by home shard. num_shards is set after
// ApplyDeviceFlags because this bench sweeps that dimension itself.
DatabaseOptions ShardBenchOptions(logging::LogScheme scheme,
                                  uint32_t num_shards) {
  DatabaseOptions opts;
  opts.scheme = scheme;
  opts.num_ssds = kShards;
  opts.num_loggers = kShards;
  opts.epochs_per_batch = 4;
  opts.commits_per_epoch = 125;
  static std::atomic<int> env_counter{0};
  ApplyDeviceFlags(DeviceFlags(), &opts,
                   "shard_env" + std::to_string(env_counter++));
  opts.num_shards = num_shards;
  return opts;
}

// The two forward workloads. kPartitionable draws only the
// single-account smallbank procedures (deposit/transact/write-check,
// renormalized to 40/30/30) — every commit is single-shard at any N.
// kMixed is the standard smallbank mix, whose amalgamate + send_payment
// (40%) touch two random accounts.
enum class ForwardMix { kPartitionable, kMixed };

Env MakeEnv(logging::LogScheme scheme, uint32_t num_shards,
            ForwardMix mix = ForwardMix::kMixed) {
  Env env;
  env.name = "Smallbank";
  env.db = std::make_unique<Database>(ShardBenchOptions(scheme, num_shards));
  ExitIfUnrecoveredState(env.db.get());
  auto sb = std::make_shared<workload::Smallbank>(workload::SmallbankConfig{
      .num_accounts = 20000, .hotspot_fraction = 0.1, .hotspot_size = 100});
  sb->Install(env.db.get());
  env.db->FinalizeSchema();
  if (mix == ForwardMix::kPartitionable) {
    env.next_txn = [sb](Rng* rng, std::vector<Value>* params) {
      const uint64_t pick = rng->Uniform(0, 99);
      const auto account = Value(rng->UniformInt(0, 19999));
      const auto amount =
          Value(static_cast<double>(rng->UniformInt(1, 100)));
      params->assign({account, amount});
      if (pick < 40) return sb->deposit_checking_id();
      if (pick < 70) return sb->transact_savings_id();
      return sb->write_check_id();
    };
  } else {
    env.next_txn = [sb](Rng* rng, std::vector<Value>* params) {
      return sb->NextTransaction(rng, params);
    };
  }
  return env;
}

// One shards=1-vs-shards=N forward comparison: `reps` repetitions per
// configuration, interleaved (1, N, 1, N, ...) so slow phases of a
// shared host penalize both sides alike; each side keeps its best.
void ForwardComparison(const char* section, const std::string& title,
                       ForwardMix mix, int txns, uint32_t workers, int reps,
                       uint64_t seed) {
  PrintTitle(title);
  std::printf("%-10s %8s %12s %12s %14s %14s %14s\n", "config", "workers",
              "txn/s", "wall (s)", "single-shard", "cross-shard",
              "log B/txn");
  struct Side {
    explicit Side(uint32_t n) : shards(n) {}
    uint32_t shards;
    DriverResult best;
    uint64_t single = 0, cross = 0, bytes = 0;
  };
  Side sides[2] = {Side(1u), Side(kShards)};
  for (int rep = 0; rep < reps; ++rep) {
    for (Side& side : sides) {
      Env env = MakeEnv(logging::LogScheme::kCommand, side.shards, mix);
      DriverResult r = RunWorkloadThreaded(&env, txns, workers,
                                           /*adhoc_fraction=*/0.0, seed);
      if (r.TxnsPerSecond() > side.best.TxnsPerSecond()) {
        side.best = r;
        side.single = env.db->log_manager()->single_shard_commits();
        side.cross = env.db->log_manager()->cross_shard_commits();
        side.bytes = env.db->log_manager()->total_bytes();
      }
    }
  }
  for (const Side& side : sides) {
    const double n = static_cast<double>(side.best.committed);
    const double bytes_per_txn =
        n > 0.0 ? static_cast<double>(side.bytes) / n : 0.0;
    std::printf("shards=%-3u %8u %12.0f %12.3f %14llu %14llu %14.1f\n",
                side.shards, workers, side.best.TxnsPerSecond(),
                side.best.wall_seconds,
                static_cast<unsigned long long>(side.single),
                static_cast<unsigned long long>(side.cross), bytes_per_txn);
    RecordJson({section,
                mix == ForwardMix::kPartitionable ? "smallbank-partitionable"
                                                  : "smallbank-mixed",
                workers, side.best.committed, side.best.TxnsPerSecond(), 0.0,
                n > 0.0 ? side.best.retries / n : 0.0, 0.0,
                side.best.wall_seconds,
                ", \"shards\": " + std::to_string(side.shards) +
                    ", \"log_bytes_per_txn\": " +
                    std::to_string(bytes_per_txn)});
  }
}

void RunForward(int txns, uint32_t workers, uint64_t seed) {
  ForwardComparison(
      "shard_forward",
      "Forward processing (partitionable mix): shards=1 vs shards=" +
          std::to_string(kShards),
      ForwardMix::kPartitionable, txns, workers, /*reps=*/7, seed);
  ForwardComparison(
      "shard_forward_mixed",
      "Forward processing (mixed, 40% two-account): shards=1 vs shards=" +
          std::to_string(kShards),
      ForwardMix::kMixed, txns, workers, /*reps=*/5, seed);
}

void RunRecoveryAndParity(int txns, uint32_t rec_threads, uint64_t seed) {
  PrintTitle("Recovery: single pipeline vs one lane per shard (" +
             std::to_string(rec_threads) + " threads, virtual time)");
  std::printf("%-8s %16s %16s %12s\n", "scheme", "single log (s)",
              "per-shard log (s)", "hash match");
  for (Scheme scheme : {Scheme::kPlr, Scheme::kLlr, Scheme::kLlrP,
                        Scheme::kClr, Scheme::kClrP}) {
    const char* label = recovery::SchemeName(scheme);
    Env single = MakeEnv(FormatFor(scheme), 1);
    Env sharded = MakeEnv(FormatFor(scheme), kShards);
    const uint64_t hash_single =
        RunWorkload(&single, txns, /*adhoc_fraction=*/0.15, seed);
    const uint64_t hash_sharded =
        RunWorkload(&sharded, txns, /*adhoc_fraction=*/0.15, seed);
    PACMAN_CHECK_MSG(hash_single == hash_sharded,
                     "sharded engine diverged from unsharded state");

    recovery::RecoveryOptions ropts;
    ropts.num_threads = rec_threads;
    // CrashAndRecover verifies each engine recovers its exact pre-crash
    // hash; the PACMAN_CHECKs above and below verify the two engines
    // agree with *each other* before and after.
    FullRecoveryResult r_single =
        CrashAndRecover(&single, scheme, ropts, hash_single);
    FullRecoveryResult r_sharded =
        CrashAndRecover(&sharded, scheme, ropts, hash_sharded);
    PACMAN_CHECK_MSG(single.db->ContentHash() == sharded.db->ContentHash(),
                     "post-recovery hash mismatch sharded vs unsharded");

    std::printf("%-8s %16.4f %16.4f %12s\n", label, r_single.log.seconds,
                r_sharded.log.seconds, "yes");
    RecordJson({"shard_recovery", label, rec_threads,
                static_cast<uint64_t>(txns), 0.0, 0.0, 0.0, 0.0,
                r_single.log.seconds, ", \"shards\": 1"});
    RecordJson({"shard_recovery", label, rec_threads,
                static_cast<uint64_t>(txns), 0.0, 0.0, 0.0, 0.0,
                r_sharded.log.seconds,
                ", \"shards\": " + std::to_string(kShards)});
    RecordJson({"shard_parity", label, 1, static_cast<uint64_t>(txns), 0.0,
                0.0, 0.0, 0.0, 0.0, ", \"hash_match\": 1"});
  }
}

}  // namespace
}  // namespace pacman::bench

int main(int argc, char** argv) {
  pacman::CommonFlags defaults;
  defaults.threads = 4;
  const pacman::CommonFlags flags =
      pacman::ParseCommonFlags(argc, argv, defaults);
  pacman::bench::SetDeviceFlags(flags);
  const int txns =
      flags.txns != 0 ? static_cast<int>(flags.txns) : 4000;

  pacman::bench::RunForward(txns, flags.threads, flags.seed);
  pacman::bench::RunRecoveryAndParity(txns, /*rec_threads=*/8, flags.seed);
  pacman::bench::WriteJsonReport(flags.json, "shard");
  return 0;
}
