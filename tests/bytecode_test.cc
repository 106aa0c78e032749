// Compiled-execution suite: golden pins on everything the bytecode VM
// computes — emitted values and final table state on forward processing,
// and the state every recovery scheme restores — and on the virtual time
// the simulated backend reports for each recovery configuration, plus a
// transaction's reads of its own writes, arena reuse and view semantics,
// the compiled program summary and the unfinalized-procedure death check.
//
// The pinned values were captured while the VM still ran beside an
// expression-tree interpreter and matched it bit for bit (forward and
// CLR/CLR-P replay), and every recovery also matched a serial reference
// loader. The pins keep those oracles' outputs as data.
#include "proc/bytecode.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "common/serializer.h"
#include "pacman/database.h"
#include "proc/compiler.h"
#include "proc/exec_arena.h"
#include "workload/bank.h"
#include "workload/tpcc.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PACMAN_SANITIZED_MALLOC 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PACMAN_SANITIZED_MALLOC 1
#endif
#endif

#ifndef PACMAN_SANITIZED_MALLOC
// Counts the calling thread's operator new calls, for the allocation pin
// below. The library's operator delete frees with free(), which matches;
// kept out of line so the compiler pairs callers' deletes with operator
// new, not with the malloc inside it. Sanitizer builds keep their own
// operator new (the pin skips).
namespace {
thread_local uint64_t t_allocations = 0;
}  // namespace

[[gnu::noinline]] void* operator new(size_t n) {
  ++t_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
#endif

namespace pacman {
namespace {

using logging::LogScheme;
using recovery::RecoveryOptions;
using recovery::Scheme;

LogScheme SchemeLogFormat(Scheme s) {
  switch (s) {
    case Scheme::kPlr:
      return LogScheme::kPhysical;
    case Scheme::kLlr:
    case Scheme::kLlrP:
      return LogScheme::kLogical;
    case Scheme::kClr:
    case Scheme::kClrP:
      return LogScheme::kCommand;
  }
  return LogScheme::kCommand;
}

std::unique_ptr<Database> MakeBankDb(workload::Bank* bank) {
  auto db = std::make_unique<Database>();
  bank->Install(db.get());
  db->FinalizeSchema();
  return db;
}

// --- Golden pins ------------------------------------------------------------

// FNV-1a over one transaction's outcome: status code, value count, then
// each emitted value's type tag and exact payload (doubles bit for bit).
uint64_t DigestResult(uint64_t h, const TxnResult& r) {
  const uint8_t code = static_cast<uint8_t>(r.status.code());
  h = Fnv1a(&code, 1, h);
  const uint64_t n = r.values.size();
  h = Fnv1a(&n, sizeof(n), h);
  for (const Value& v : r.values) {
    const uint8_t tag = static_cast<uint8_t>(v.type());
    h = Fnv1a(&tag, 1, h);
    switch (v.type()) {
      case ValueType::kNull:
        break;
      case ValueType::kInt64: {
        const int64_t i = v.AsInt64();
        h = Fnv1a(&i, sizeof(i), h);
        break;
      }
      case ValueType::kDouble: {
        const double d = v.AsDouble();
        uint64_t bits;
        std::memcpy(&bits, &d, sizeof(bits));
        h = Fnv1a(&bits, sizeof(bits), h);
        break;
      }
      case ValueType::kString:
        h = Fnv1a(v.AsStringView().data(), v.AsStringView().size(), h);
        break;
    }
  }
  return h;
}

enum class Workload { kBank, kTpcc };

// One pinned run: bank runs 400 transactions from seed 7, TPC-C 300 from
// seed 11, each on a small fixed database.
struct PinnedRun {
  std::unique_ptr<Database> db;
  std::unique_ptr<workload::Bank> bank;
  std::unique_ptr<workload::Tpcc> tpcc;

  PinnedRun(Workload w, LogScheme log, uint32_t shards) {
    DatabaseOptions opts;
    opts.scheme = log;
    opts.num_shards = shards;
    opts.commits_per_epoch = 25;
    opts.epochs_per_batch = 2;
    db = std::make_unique<Database>(opts);
    if (w == Workload::kBank) {
      bank = std::make_unique<workload::Bank>(workload::BankConfig{
          .num_users = 300, .num_nations = 8, .single_fraction = 0.2});
      bank->Install(db.get());
    } else {
      tpcc = std::make_unique<workload::Tpcc>(workload::TpccConfig{
          .num_warehouses = 2,
          .districts_per_warehouse = 4,
          .customers_per_district = 30,
          .num_items = 100,
          .orders_per_district = 8});
      tpcc->Install(db.get());
    }
    db->FinalizeSchema();
  }

  // Runs the pinned transactions; returns the digest of their outcomes.
  uint64_t Forward() {
    Rng rng(bank != nullptr ? 7 : 11);
    std::vector<Value> params;
    uint64_t h = 1469598103934665603ull;
    for (int i = 0; i < (bank != nullptr ? 400 : 300); ++i) {
      const ProcId proc = bank != nullptr
                              ? bank->NextTransaction(&rng, &params)
                              : tpcc->NextTransaction(&rng, &params);
      h = DigestResult(h, db->Execute(proc, params));
    }
    return h;
  }
};

constexpr uint64_t kBankDigest = 0x7b608f1ac631c3a0ull;
constexpr uint64_t kBankHash = 0xfc6129b093603fafull;
constexpr uint64_t kTpccDigest = 0x585e9123afedb393ull;
constexpr uint64_t kTpccHash = 0xfe6a2f47d1bbb5b2ull;

TEST(GoldenPinTest, BankForwardValuesAndState) {
  PinnedRun run(Workload::kBank, LogScheme::kCommand, 1);
  EXPECT_EQ(run.Forward(), kBankDigest);
  EXPECT_EQ(run.db->ContentHash(), kBankHash);
}

TEST(GoldenPinTest, TpccForwardValuesAndState) {
  PinnedRun run(Workload::kTpcc, LogScheme::kCommand, 1);
  EXPECT_EQ(run.Forward(), kTpccDigest);
  EXPECT_EQ(run.db->ContentHash(), kTpccHash);
}

// Every scheme, sharded and unsharded, restores the pinned state: CLR and
// CLR-P by re-executing the procedures on the VM, the tuple schemes by
// installing the logged images.
TEST(GoldenPinTest, EverySchemeRecoversPinnedState) {
  for (Workload w : {Workload::kBank, Workload::kTpcc}) {
    for (Scheme scheme : {Scheme::kPlr, Scheme::kLlr, Scheme::kLlrP,
                          Scheme::kClr, Scheme::kClrP}) {
      for (uint32_t shards : {1u, 2u}) {
        SCOPED_TRACE(std::string(recovery::SchemeName(scheme)) +
                     (w == Workload::kBank ? " bank" : " tpcc") +
                     " shards=" + std::to_string(shards));
        PinnedRun run(w, SchemeLogFormat(scheme), shards);
        ASSERT_TRUE(run.db->TryTakeCheckpoint().ok());
        run.Forward();
        run.db->Crash();
        RecoveryOptions ropts;
        ropts.num_threads = 4;
        run.db->Recover(scheme, ropts);
        EXPECT_EQ(run.db->ContentHash(),
                  w == Workload::kBank ? kBankHash : kTpccHash);
      }
    }
  }
}

// --- Checkpoint stripe pins -------------------------------------------------

// FNV-1a over every stripe file of checkpoint `meta`, in (device, file)
// order, each file's size first. Physical checkpoints also persist each
// tuple's slot and version addresses, which differ from run to run; those
// 16 bytes of every record are hashed as zeros.
uint64_t StripeDigest(Database* db, const logging::CheckpointMeta& meta,
                      LogScheme log) {
  uint64_t h = 1469598103934665603ull;
  for (uint32_t d = 0; d < meta.num_ssds; ++d) {
    for (uint32_t f = 0; f < meta.files_per_ssd; ++f) {
      std::vector<uint8_t> bytes;
      EXPECT_TRUE(db->device(d)
                      ->ReadFile(logging::Checkpointer::StripeFileName(
                                     meta.id, d, f),
                                 &bytes)
                      .ok());
      if (log == LogScheme::kPhysical) {
        Deserializer in(bytes);
        while (!in.AtEnd()) {
          uint32_t table = 0;
          uint64_t key = 0;
          size_t row = 0;
          bool ok = in.GetVarint32(&table).ok() && in.GetVarint(&key).ok() &&
                    in.remaining() >= 16;
          if (ok) std::memset(bytes.data() + in.position(), 0, 16);
          ok = ok && in.Skip(16).ok() &&
               CheckCompactRow(in.cursor(), in.remaining(), &row).ok() &&
               in.Skip(row).ok();
          if (!ok) {
            ADD_FAILURE() << "unparsable stripe (" << d << ", " << f << ")";
            break;
          }
        }
      }
      const uint64_t n = bytes.size();
      h = Fnv1a(&n, sizeof(n), h);
      h = Fnv1a(bytes.data(), bytes.size(), h);
    }
  }
  return h;
}

// The stripes a checkpoint writes after the pinned transactions, under the
// command log (contents only) and the physical log (contents and
// addresses), unsharded and on two shards. Captured when versions and
// stripes moved to the compact row encoding: the stripe writer copies each
// version's row bytes as they are, and these pins hold that copy, and the
// varint table and key before it, byte for byte.
TEST(GoldenPinTest, CheckpointStripeBytes) {
  struct StripePin {
    Workload workload;
    LogScheme log;
    uint32_t shards;
    uint64_t digest;
  };
  const StripePin pins[] = {
      {Workload::kBank, LogScheme::kCommand, 1, 0xc3a8ce346508b5baull},
      {Workload::kBank, LogScheme::kCommand, 2, 0xe6d8d39c25310e22ull},
      {Workload::kBank, LogScheme::kPhysical, 1, 0x62b55f3181aa250aull},
      {Workload::kBank, LogScheme::kPhysical, 2, 0xe60156772481e895ull},
      {Workload::kTpcc, LogScheme::kCommand, 1, 0x687c07f1486c2eccull},
      {Workload::kTpcc, LogScheme::kCommand, 2, 0xc58e0fba9cd8d7f5ull},
      {Workload::kTpcc, LogScheme::kPhysical, 1, 0x06480445478c17e8ull},
      {Workload::kTpcc, LogScheme::kPhysical, 2, 0xbb0683e33dd69fe2ull},
  };
  for (const StripePin& pin : pins) {
    SCOPED_TRACE(std::string(pin.workload == Workload::kBank ? "bank" : "tpcc") +
                 (pin.log == LogScheme::kCommand ? " CL" : " PL") +
                 " shards=" + std::to_string(pin.shards));
    PinnedRun run(pin.workload, pin.log, pin.shards);
    run.Forward();
    logging::CheckpointMeta meta;
    ASSERT_TRUE(run.db->TryTakeCheckpoint(&meta).ok());
    const uint64_t got = StripeDigest(run.db.get(), meta, pin.log);
    char hex[32];
    std::snprintf(hex, sizeof(hex), "0x%016llx",
                  static_cast<unsigned long long>(got));
    EXPECT_EQ(got, pin.digest) << hex;
  }
}

// --- Log batch pins ---------------------------------------------------------

// Zeroes the 16 version-location bytes of every physical image in the v4
// batch file `bytes` (addresses that differ from run to run, as
// StripeDigest masks them). Returns false if the file does not parse.
bool MaskPhysicalImages(std::vector<uint8_t>* bytes) {
  Deserializer in(*bytes);
  if (!in.Skip(logging::LogStore::kFileHeaderBytes).ok()) return false;
  while (!in.AtEnd()) {
    uint64_t count = 0, header = 0;
    bool ok = in.GetVarint(&count).ok();
    for (int i = 0; ok && i < 4; ++i) ok = in.GetVarint(&header).ok();
    for (uint64_t r = 0; ok && r < count; ++r) {
      uint64_t images = 0;
      ok = in.GetVarint(&header).ok() && in.GetVarint(&header).ok() &&
           in.GetVarint(&images).ok();
      for (uint64_t w = 0; ok && w < images; ++w) {
        ok = in.remaining() >= 16;
        if (ok) std::memset(bytes->data() + in.position(), 0, 16);
        uint8_t deleted = 0;
        uint64_t values = 0;
        ok = ok && in.Skip(16).ok() && in.GetVarint(&header).ok() &&
             in.GetVarint(&header).ok() && in.GetU8(&deleted).ok() &&
             in.GetVarint(&values).ok();
        Value v;
        for (uint64_t c = 0; ok && c < values; ++c) {
          ok = in.GetCompactValue(&v).ok();
        }
      }
    }
    if (!ok) return false;
  }
  return true;
}

// FNV-1a over every batch file on the database's devices, in (device,
// name) order, each file's name and size first; physical images masked.
uint64_t LogDigest(Database* db, LogScheme log) {
  uint64_t h = 1469598103934665603ull;
  for (uint32_t d = 0; d < db->options().num_ssds; ++d) {
    std::vector<std::string> names = db->device(d)->ListFiles("log_");
    std::sort(names.begin(), names.end());
    for (const std::string& name : names) {
      std::vector<uint8_t> bytes;
      EXPECT_TRUE(db->device(d)->ReadFile(name, &bytes).ok());
      if (log == LogScheme::kPhysical && !MaskPhysicalImages(&bytes)) {
        ADD_FAILURE() << "unparsable batch file " << name;
      }
      h = Fnv1a(name.data(), name.size(), h);
      const uint64_t n = bytes.size();
      h = Fnv1a(&n, sizeof(n), h);
      h = Fnv1a(bytes.data(), bytes.size(), h);
    }
  }
  return h;
}

// The batch files the pinned transactions leave once the crash's final
// flush closed them: the logical log, the command log with one more
// transaction logged ad hoc (row images inside a command stream), and the
// physical log, unsharded and on two shards. Captured on the engine whose
// log records still held decoded rows and encoded them at flush, so they
// hold batch format v4 to that writer byte for byte.
TEST(GoldenPinTest, LogBatchBytes) {
  struct LogPin {
    Workload workload;
    LogScheme log;
    uint32_t shards;
    uint64_t digest;
  };
  const LogPin pins[] = {
      {Workload::kBank, LogScheme::kLogical, 1, 0x3a5018197a3bf372ull},
      {Workload::kBank, LogScheme::kLogical, 2, 0x5bf89d95d3577551ull},
      {Workload::kBank, LogScheme::kCommand, 1, 0xdc3c3905b441418aull},
      {Workload::kBank, LogScheme::kCommand, 2, 0xfb69a70507b0b0dfull},
      {Workload::kBank, LogScheme::kPhysical, 1, 0xf929ff5b42363ad3ull},
      {Workload::kBank, LogScheme::kPhysical, 2, 0xf03092f51ab45590ull},
      {Workload::kTpcc, LogScheme::kLogical, 1, 0x70a125a267f4f542ull},
      {Workload::kTpcc, LogScheme::kLogical, 2, 0x670a9c5802b324c8ull},
      {Workload::kTpcc, LogScheme::kCommand, 1, 0x3884a3dce6baadd8ull},
      {Workload::kTpcc, LogScheme::kCommand, 2, 0x9746917a687e9aabull},
      {Workload::kTpcc, LogScheme::kPhysical, 1, 0x08a242ef5441f070ull},
      {Workload::kTpcc, LogScheme::kPhysical, 2, 0x0e2dc81f6148592full},
  };
  for (const LogPin& pin : pins) {
    SCOPED_TRACE(std::string(pin.workload == Workload::kBank ? "bank " : "tpcc ") +
                 logging::LogSchemeName(pin.log) +
                 " shards=" + std::to_string(pin.shards));
    PinnedRun run(pin.workload, pin.log, pin.shards);
    run.Forward();
    if (pin.log == LogScheme::kCommand) {
      // One more transaction, logged as row images.
      Rng rng(5);
      std::vector<Value> params;
      const ProcId proc = run.bank != nullptr
                              ? run.bank->NextTransaction(&rng, &params)
                              : run.tpcc->NextTransaction(&rng, &params);
      Database::ExecOptions adhoc;
      adhoc.adhoc = true;
      ASSERT_TRUE(run.db->Execute(proc, params, adhoc).status.ok());
    }
    run.db->Crash();
    const uint64_t got = LogDigest(run.db.get(), pin.log);
    char hex[32];
    std::snprintf(hex, sizeof(hex), "0x%016llx",
                  static_cast<unsigned long long>(got));
    EXPECT_EQ(got, pin.digest) << hex;
  }
}

// --- Virtual-time pins ------------------------------------------------------

// A path of the cost model or the scheduler beyond a scheme's default.
enum class Variant {
  kNone,
  kStaticOnly,    // CLR-P, PacmanMode::kStaticOnly.
  kSynchronous,   // CLR-P, PacmanMode::kSynchronous.
  kNoLatches,     // PLR, latch_base = latch_quad = 0.
  kReloadOnly,    // CLR-P, reload_only.
  kChopping,      // CLR-P over the transaction-chopping GDG.
  kCoordination,  // CLR-P, costs.per_piece_coordination = 1e-6.
};

struct VirtualTimeConfig {
  Workload workload;
  Scheme scheme;
  uint32_t threads;
  uint32_t shards;
  Variant variant;
};

// What the simulated backend reports for one configuration.
struct VirtualTimePin {
  const char* config;
  double checkpoint_s;
  double log_s;
  double useful_work;
  double data_loading;
  double param_checking;
  double scheduling;
  uint64_t records_replayed;
  uint64_t tuples_restored;
  uint64_t latch_acquisitions;
};

std::vector<VirtualTimeConfig> VirtualTimeConfigs() {
  std::vector<VirtualTimeConfig> configs;
  for (Workload w : {Workload::kBank, Workload::kTpcc}) {
    for (Scheme scheme : {Scheme::kPlr, Scheme::kLlr, Scheme::kLlrP,
                          Scheme::kClr, Scheme::kClrP}) {
      for (uint32_t threads : {1u, 40u}) {
        for (uint32_t shards : {1u, 2u}) {
          configs.push_back({w, scheme, threads, shards, Variant::kNone});
        }
      }
    }
    for (Variant v : {Variant::kStaticOnly, Variant::kSynchronous,
                      Variant::kReloadOnly, Variant::kChopping,
                      Variant::kCoordination}) {
      configs.push_back({w, Scheme::kClrP, 40, 1, v});
    }
    configs.push_back({w, Scheme::kPlr, 40, 1, Variant::kNoLatches});
  }
  return configs;
}

std::string ConfigName(const VirtualTimeConfig& c) {
  static const char* const kVariants[] = {
      "",         " static-only", " synchronous", " no-latches",
      " reload-only", " chopping",   " coordination"};
  return std::string(c.workload == Workload::kBank ? "bank " : "tpcc ") +
         recovery::SchemeName(c.scheme) + " t" + std::to_string(c.threads) +
         " s" + std::to_string(c.shards) +
         kVariants[static_cast<int>(c.variant)];
}

// Runs the pinned workload, crashes, and recovers under `c` on the
// simulated backend.
VirtualTimePin RunVirtualTimeConfig(const VirtualTimeConfig& c) {
  PinnedRun run(c.workload, SchemeLogFormat(c.scheme), c.shards);
  EXPECT_TRUE(run.db->TryTakeCheckpoint().ok());
  run.Forward();
  run.db->Crash();
  RecoveryOptions ropts;
  ropts.num_threads = c.threads;
  analysis::GlobalDependencyGraph chopping;
  switch (c.variant) {
    case Variant::kNone:
      break;
    case Variant::kStaticOnly:
      ropts.mode = recovery::PacmanMode::kStaticOnly;
      break;
    case Variant::kSynchronous:
      ropts.mode = recovery::PacmanMode::kSynchronous;
      break;
    case Variant::kNoLatches:
      ropts.costs.latch_base = ropts.costs.latch_quad = 0.0;
      break;
    case Variant::kReloadOnly:
      ropts.reload_only = true;
      break;
    case Variant::kChopping:
      chopping = run.db->BuildChoppingGdg();
      ropts.gdg_override = &chopping;
      break;
    case Variant::kCoordination:
      ropts.costs.per_piece_coordination = 1e-6;
      break;
  }
  const FullRecoveryResult r =
      run.db->Recover(c.scheme, ropts, ExecutionBackend::kSimulated);
  const recovery::Breakdown& b = r.log.breakdown;
  return {nullptr,           r.checkpoint.seconds,   r.log.seconds,
          b.useful_work,     b.data_loading,         b.param_checking,
          b.scheduling,      r.log.records_replayed, r.log.tuples_restored,
          r.log.latch_acquisitions};
}

// kVirtualTimePins[i] belongs to VirtualTimeConfigs()[i], printed with
// %.17g, so any change to a task graph's shape, dispatch order or costs
// shows here. The schedules date from the engine that still ran CLR-P's
// extra block workers as spin-waiting tasks; the last bits were
// re-captured when tasks began returning counted work, which
// CostModel::Price prices per task and, for the breakdown, from the
// phase's integer tally (relative moves below 1e-14).
constexpr VirtualTimePin kVirtualTimePins[] = {
    {"bank PLR t1 s1", 0.0011326439999999999, 0.0041034660909090911,
     0.0040574690000000002, 8.355709090909091e-05, 0, 0, 363, 829, 829},
    {"bank PLR t1 s2", 0.0011326076363636364, 0.0020585390909090909,
     0.0040574690000000002, 8.4702545454545453e-05, 0, 0, 463, 829, 829},
    {"bank PLR t40 s1", 8.9555999999999994e-05, 0.00047885709090909087,
     0.018638749999999999, 8.355709090909091e-05, 0, 0, 363, 829, 829},
    {"bank PLR t40 s2", 8.9875090909090913e-05, 0.00020267909090909087,
     0.0076959499999999991, 8.4702545454545453e-05, 0, 0, 463, 829, 829},
    {"bank LLR t1 s1", 0.0023731298181818182, 0.0039649708181818174,
     0.0039468689999999996, 3.291272727272727e-05, 0, 0, 363, 829, 829},
    {"bank LLR t1 s2", 0.0023731225454545458, 0.0019904270909090909,
     0.0039468689999999996, 3.4054363636363638e-05, 0, 0, 463, 829, 829},
    {"bank LLR t40 s1", 0.00015426654545454543, 0.00047210181818181808,
     0.018528149999999997, 3.291272727272727e-05, 0, 0, 363, 829, 829},
    {"bank LLR t40 s2", 0.00015630945454545454, 0.00019534309090909089,
     0.0075853499999999994, 3.4054363636363638e-05, 0, 0, 463, 829, 829},
    {"bank LLR-P t1 s1", 0.0026455298181818181, 0.0037486018181818186,
     0.0037305000000000003, 3.291272727272727e-05, 0, 0, 363, 829, 0},
    {"bank LLR-P t1 s2", 0.0026455225454545452, 0.0037491052727272735,
     0.0037305000000000003, 3.4054363636363638e-05, 0, 0, 463, 829, 0},
    {"bank LLR-P t40 s1", 0.00017136654545454543, 0.00020975181818181821,
     0.0037305000000000003, 3.291272727272727e-05, 0, 0, 363, 829, 0},
    {"bank LLR-P t40 s2", 0.00017370945454545455, 0.00015511909090909091,
     0.0037305000000000003, 3.4054363636363638e-05, 0, 0, 463, 829, 0},
    {"bank CLR t1 s1", 0.0026455298181818181, 0.0078647421818181813,
     0.0078549999999999991, 1.7533090909090907e-05, 0, 0, 363, 829, 0},
    {"bank CLR t1 s2", 0.0026455225454545452, 0.0034195098181818186,
     0.0068054999999999999, 2.937327272727273e-05, 0, 0, 463, 829, 0},
    {"bank CLR t40 s1", 0.00017136654545454543, 0.0078567361818181816,
     0.0078549999999999991, 1.7533090909090907e-05, 0, 0, 363, 829, 0},
    {"bank CLR t40 s2", 0.00017370945454545455, 0.0034129778181818185,
     0.0068054999999999999, 2.937327272727273e-05, 0, 0, 463, 829, 0},
    {"bank CLR-P t1 s1", 0.0026455298181818181, 0.0093562821818181843,
     0.0071289999999999999, 1.7533090909090907e-05, 0.00087119999999999993,
     0.0013463400000000001, 363, 829, 0},
    {"bank CLR-P t1 s2", 0.0026455225454545452, 0.0041590743636363628,
     0.0058795000000000002, 2.937327272727273e-05, 0.00087119999999999993,
     0.00153834, 463, 829, 0},
    {"bank CLR-P t40 s1", 0.00017136654545454543, 0.00081943618181818181,
     0.0071289999999999999, 1.7533090909090907e-05, 0.00087119999999999993,
     0.0081416999999999982, 363, 829, 0},
    {"bank CLR-P t40 s2", 0.00017370945454545455, 0.00062347781818181819,
     0.0058795000000000002, 2.937327272727273e-05, 0.00087119999999999993,
     0.0048488999999999997, 463, 829, 0},
    {"bank CLR-P t40 s1 static-only", 0.00017136654545454543,
     0.0065467361818181804, 0.0071289999999999999, 1.7533090909090907e-05, 0,
     0.000192, 363, 829, 0},
    {"bank CLR-P t40 s1 synchronous", 0.00017136654545454543,
     0.0016812361818181816, 0.0071289999999999999, 1.7533090909090907e-05,
     0.00087119999999999993, 0.0081416999999999982, 363, 829, 0},
    {"bank CLR-P t40 s1 reload-only", 6.0665454545454538e-06,
     5.3787272727272732e-06, 0, 1.7533090909090907e-05, 0, 0, 363, 0, 0},
    {"bank CLR-P t40 s1 chopping", 0.00017136654545454543,
     0.0012752361818181817, 0.0071289999999999999, 1.7533090909090907e-05,
     0.00040400000000000001, 0.0037824999999999998, 363, 829, 0},
    {"bank CLR-P t40 s1 coordination", 0.00017136654545454543,
     0.00086143618181818186, 0.0071289999999999999, 1.7533090909090907e-05,
     0.00087119999999999993, 0.0092306999999999997, 363, 829, 0},
    {"bank PLR t40 s1 no-latches", 8.9555999999999994e-05,
     0.0001060170909090909, 0.0038411000000000001, 8.355709090909091e-05, 0, 0,
     363, 829, 829},
    {"tpcc PLR t1 s1", 0.0020136483636363635, 0.01532653790909091,
     0.013932503000000001, 0.0024526167272727272, 0, 0, 282, 3623, 3623},
    {"tpcc PLR t1 s2", 0.0020133592727272728, 0.0079003244545454536,
     0.013932503000000001, 0.0024556025454545456, 0, 0, 542, 3623, 3623},
    {"tpcc PLR t40 s1", 0.00034350290909090908, 0.0024307629090909093,
     0.077657449999999989, 0.0024526167272727272, 0, 0, 282, 3623, 3623},
    {"tpcc PLR t40 s2", 0.00036146327272727275, 0.0011166903636363635,
     0.029833849999999995, 0.0024556025454545456, 0, 0, 542, 3623, 3623},
    {"tpcc LLR t1 s1", 0.0037268512727272724, 0.018517223727272727,
     0.017249102999999998, 0.0022312843636363641, 0, 0, 282, 3623, 3623},
    {"tpcc LLR t1 s2", 0.0037266494545454541, 0.0095444233636363639,
     0.017249102999999998, 0.002234270181818182, 0, 0, 542, 3623, 3623},
    {"tpcc LLR t40 s1", 0.0004318796363636363, 0.0024598827272727273,
     0.080974049999999992, 0.0022312843636363641, 0, 0, 282, 3623, 3623},
    {"tpcc LLR t40 s2", 0.00045443927272727268, 0.0011713343636363634,
     0.033150449999999998, 0.002234270181818182, 0, 0, 542, 3623, 3623},
    {"tpcc LLR-P t1 s1", 0.004103051272727273, 0.017571620727272728,
     0.016303500000000002, 0.0022312843636363641, 0, 0, 282, 3623, 0},
    {"tpcc LLR-P t1 s2", 0.0041028494545454547, 0.017550633818181817,
     0.016303500000000002, 0.002234270181818182, 0, 0, 542, 3623, 0},
    {"tpcc LLR-P t40 s1", 0.00045527963636363632, 0.0013243947272727271,
     0.016303500000000002, 0.0022312843636363641, 0, 0, 282, 3623, 0},
    {"tpcc LLR-P t40 s2", 0.00047903927272727274, 0.00078557272727272718,
     0.016303500000000002, 0.002234270181818182, 0, 0, 542, 3623, 0},
    {"tpcc CLR t1 s1", 0.004103051272727273, 0.030239536909090904, 0.0302165,
     4.067509090909091e-05, 0, 0, 282, 3623, 0},
    {"tpcc CLR t1 s2", 0.0041028494545454547, 0.0095843123636363652,
     0.017618500000000002, 0.0021953514545454546, 0, 0, 542, 3623, 0},
    {"tpcc CLR t40 s1", 0.00045527963636363632, 0.030221898909090911, 0.0302165,
     4.067509090909091e-05, 0, 0, 282, 3623, 0},
    {"tpcc CLR t40 s2", 0.00047903927272727274, 0.0090781403636363642,
     0.017618500000000002, 0.0021953514545454546, 0, 0, 542, 3623, 0},
    {"tpcc CLR-P t1 s1", 0.004103051272727273, 0.034958536909090877,
     0.029652500000000002, 4.067509090909091e-05, 0.0020399999999999997,
     0.0032430000000000002, 282, 3623, 0},
    {"tpcc CLR-P t1 s2", 0.0041028494545454547, 0.010707292363636376,
     0.016534500000000001, 0.0021953514545454546, 0.0010287999999999999,
     0.0024431599999999998, 542, 3623, 0},
    {"tpcc CLR-P t40 s1", 0.00045527963636363632, 0.0072117989090909104,
     0.029652500000000002, 4.067509090909091e-05, 0.0020399999999999997,
     0.019154999999999998, 282, 3623, 0},
    {"tpcc CLR-P t40 s2", 0.00047903927272727274, 0.0024635403636363638,
     0.016534500000000001, 0.0021953514545454546, 0.0010287999999999999,
     0.0063525999999999999, 542, 3623, 0},
    {"tpcc CLR-P t40 s1 static-only", 0.00045527963636363632,
     0.023280398909090904, 0.029652500000000002, 4.067509090909091e-05, 0,
     0.00054000000000000001, 282, 3623, 0},
    {"tpcc CLR-P t40 s1 synchronous", 0.00045527963636363632,
     0.01097849890909091, 0.029652500000000002, 4.067509090909091e-05,
     0.0020399999999999997, 0.019154999999999998, 282, 3623, 0},
    {"tpcc CLR-P t40 s1 reload-only", 0.00022907963636363633,
     1.3649272727272727e-05, 0, 4.067509090909091e-05, 0, 0, 282, 0, 0},
    {"tpcc CLR-P t40 s1 chopping", 0.00045527963636363632, 0.031339924909090912,
     0.029652500000000002, 4.067509090909091e-05, 0.00022559999999999998,
     0.0020945999999999998, 282, 3623, 0},
    {"tpcc CLR-P t40 s1 coordination", 0.00045527963636363632,
     0.0073207989090909083, 0.029652500000000002, 4.067509090909091e-05,
     0.0020399999999999997, 0.021704999999999999, 282, 3623, 0},
    {"tpcc PLR t40 s1 no-latches", 0.00034350290909090908,
     0.00093639672727272711, 0.012986899999999999, 0.0024526167272727272, 0, 0,
     282, 3623, 3623},
};

// Every recovery figure is a virtual-time number from these schedules;
// the pins hold them bit for bit.
TEST(GoldenPinTest, VirtualTimeOfEveryRecovery) {
  const std::vector<VirtualTimeConfig> configs = VirtualTimeConfigs();
  ASSERT_EQ(configs.size(), std::size(kVirtualTimePins));
  for (size_t i = 0; i < configs.size(); ++i) {
    const std::string name = ConfigName(configs[i]);
    SCOPED_TRACE(name);
    const VirtualTimePin& want = kVirtualTimePins[i];
    ASSERT_EQ(name, want.config);
    const VirtualTimePin got = RunVirtualTimeConfig(configs[i]);
    EXPECT_EQ(got.checkpoint_s, want.checkpoint_s);
    EXPECT_EQ(got.log_s, want.log_s);
    EXPECT_EQ(got.useful_work, want.useful_work);
    EXPECT_EQ(got.data_loading, want.data_loading);
    EXPECT_EQ(got.param_checking, want.param_checking);
    EXPECT_EQ(got.scheduling, want.scheduling);
    EXPECT_EQ(got.records_replayed, want.records_replayed);
    EXPECT_EQ(got.tuples_restored, want.tuples_restored);
    EXPECT_EQ(got.latch_acquisitions, want.latch_acquisitions);
  }
}

// Both backends count the same work: the real-thread backend's tally and
// its priced breakdown equal the simulator's, whatever order its tasks
// complete in.
TEST(CountedWorkTest, BothBackendsCountTheSameWork) {
  for (Workload w : {Workload::kBank, Workload::kTpcc}) {
    for (Scheme scheme : {Scheme::kPlr, Scheme::kLlr, Scheme::kLlrP,
                          Scheme::kClr, Scheme::kClrP}) {
      for (uint32_t shards : {1u, 2u}) {
        SCOPED_TRACE(std::string(w == Workload::kBank ? "bank " : "tpcc ") +
                     recovery::SchemeName(scheme) + " s" +
                     std::to_string(shards));
        std::vector<FullRecoveryResult> results;
        for (ExecutionBackend backend :
             {ExecutionBackend::kSimulated, ExecutionBackend::kThreads}) {
          PinnedRun run(w, SchemeLogFormat(scheme), shards);
          ASSERT_TRUE(run.db->TryTakeCheckpoint().ok());
          run.Forward();
          run.db->Crash();
          RecoveryOptions ropts;
          ropts.num_threads = 4;
          results.push_back(run.db->Recover(scheme, ropts, backend));
        }
        for (auto stage : {&FullRecoveryResult::checkpoint,
                           &FullRecoveryResult::log}) {
          const recovery::RecoveryStats& sim = results[0].*stage;
          const recovery::RecoveryStats& threads = results[1].*stage;
          EXPECT_EQ(sim.records_replayed, threads.records_replayed);
          EXPECT_EQ(sim.tuples_restored, threads.tuples_restored);
          EXPECT_EQ(sim.latch_acquisitions, threads.latch_acquisitions);
          EXPECT_TRUE(sim.work == threads.work);
          EXPECT_EQ(sim.breakdown.useful_work, threads.breakdown.useful_work);
          EXPECT_EQ(sim.breakdown.data_loading,
                    threads.breakdown.data_loading);
          EXPECT_EQ(sim.breakdown.param_checking,
                    threads.breakdown.param_checking);
          EXPECT_EQ(sim.breakdown.scheduling, threads.breakdown.scheduling);
        }
        EXPECT_GT(results[0].log.records_replayed, 0u);
      }
    }
  }
}

// --- Reads of a transaction's own writes ------------------------------------

// Table KV(v int64, s string) and WriteThenRead(key, v, s): writes KV[key],
// reads it back in the same transaction, writes a row derived from what it
// read to KV[key + 100] and emits the read columns. Forward processing
// views the write's buffered image, which the Transaction encodes once;
// replay views the version it just installed. Both must give the same
// values and the same state.
ProcId InstallWriteThenRead(Database* db) {
  db->catalog()->CreateTable("KV",
                             Schema({{"v", ValueType::kInt64, 0},
                                     {"s", ValueType::kString, 64}}));
  proc::ProcedureBuilder b(
      "WriteThenRead",
      {ValueType::kInt64, ValueType::kInt64, ValueType::kString});
  using proc::Add, proc::C, proc::F, proc::P;
  b.WriteRow("KV", P(0), {P(1), P(2)});
  const int l = b.Read("KV", P(0));
  b.WriteRow("KV", Add(P(0), C(int64_t{100})),
             {Add(F(l, 0), C(int64_t{1})), F(l, 1)});
  b.Emit(F(l, 0));
  b.Emit(F(l, 1));
  const ProcId id = db->registry()->Register(b.Build());
  db->FinalizeSchema();
  return id;
}

// The state 20 WriteThenRead calls over 7 keys leave. Captured from the
// forward run; the engine whose reads decoded rows reaches it too, and
// every recovery below must restore it.
constexpr uint64_t kWriteThenReadHash = 0xd0b20564e56daeb8ull;

TEST(OwnWriteTest, ReadBackOfOwnWriteForwardAndReplayed) {
  for (const auto& [scheme, backend] :
       {std::pair{Scheme::kClr, ExecutionBackend::kSimulated},
        std::pair{Scheme::kClrP, ExecutionBackend::kSimulated},
        std::pair{Scheme::kClrP, ExecutionBackend::kThreads}}) {
    SCOPED_TRACE(std::string(recovery::SchemeName(scheme)) +
                 (backend == ExecutionBackend::kThreads ? " threads" : ""));
    DatabaseOptions opts;
    opts.scheme = LogScheme::kCommand;
    opts.commits_per_epoch = 4;
    opts.epochs_per_batch = 2;
    Database db(opts);
    const ProcId id = InstallWriteThenRead(&db);
    ASSERT_TRUE(db.TryTakeCheckpoint().ok());
    for (int64_t i = 0; i < 20; ++i) {
      // Strings past the small-string buffer, so a view that outlived its
      // bytes would show under ASan.
      const std::string s(40 + i, static_cast<char>('a' + i));
      const TxnResult r =
          db.Execute(id, {Value(i % 7), Value(i * 3), Value(s)});
      ASSERT_TRUE(r.status.ok()) << r.status.ToString();
      ASSERT_EQ(r.values.size(), 2u);
      EXPECT_EQ(r.values[0].AsInt64(), i * 3);
      EXPECT_EQ(r.values[1].AsStringView(), s);
    }
    // The last call on key 6 was i = 13: KV[106] = (40, 53 'n's).
    Row row;
    ASSERT_TRUE(db.catalog()->GetTable("KV")->Read(106, kMaxTimestamp, &row)
                    .ok());
    ASSERT_EQ(row.size(), 2u);
    EXPECT_EQ(row[0].AsInt64(), 13 * 3 + 1);
    EXPECT_EQ(row[1].AsStringView(), std::string(53, 'n'));
    char hex[32];
    std::snprintf(hex, sizeof(hex), "0x%016llx",
                  static_cast<unsigned long long>(db.ContentHash()));
    EXPECT_EQ(db.ContentHash(), kWriteThenReadHash) << hex;

    db.Crash();
    RecoveryOptions ropts;
    ropts.num_threads = 4;
    db.Recover(scheme, ropts, backend);
    EXPECT_EQ(db.ContentHash(), kWriteThenReadHash);
  }
}

// Arena reuse: Bind() nulls every local between transactions, and a read
// leaves its local viewing the version's own packed bytes, not a copy.
TEST(ExecArenaTest, BindNullsLocalsAndReadsViewVersions) {
  workload::Bank bank{workload::BankConfig{
      .num_users = 20, .num_nations = 2, .single_fraction = 0.0}};
  auto db = MakeBankDb(&bank);
  const proc::CompiledProgram& prog =
      db->programs().Get(bank.transfer_id());

  proc::ExecArena arena;
  const std::vector<Value> params = {Value(int64_t{0}), Value(5.0)};
  proc::VmState st = arena.Bind(prog, &params);
  for (uint16_t l = 0; l < prog.num_locals; ++l) {
    EXPECT_EQ(st.locals[l], nullptr);
  }

  proc::ReplayAccess access(db->catalog());
  access.set_commit_ts(2);
  ASSERT_TRUE(proc::VmExecuteAll(&st, &access).ok());
  // Local 0 read Family[0], local 1 Current[0]; Transfer then installed a
  // newer Current[0], and local 1 still views the version it read.
  const storage::TupleSlot* family =
      db->catalog()->GetTable("Family")->GetSlot(0);
  const storage::TupleSlot* current =
      db->catalog()->GetTable("Current")->GetSlot(0);
  EXPECT_EQ(st.locals[0], family->newest.load()->row());
  const storage::Version* newest = current->newest.load();
  ASSERT_NE(newest->older, nullptr);
  EXPECT_EQ(st.locals[1], newest->older->row());

  // Rebind: every local is null again.
  proc::VmState st2 = arena.Bind(prog, &params);
  for (uint16_t l = 0; l < prog.num_locals; ++l) {
    EXPECT_EQ(st2.locals[l], nullptr);
  }
}

// A replayed write hands the VM's row scratch to the access context by
// reference, so on a warm arena the only allocations a replayed Transfer
// makes are its three new versions. When kWriteRow moved the scratch out,
// each write also rebuilt it in a fresh allocation: six in all.
TEST(ExecArenaTest, ReplayedWritesAllocateOnlyTheirVersions) {
#ifdef PACMAN_SANITIZED_MALLOC
  GTEST_SKIP() << "sanitizer allocators replace operator new";
#else
  workload::Bank bank{workload::BankConfig{
      .num_users = 20, .num_nations = 2, .single_fraction = 0.0}};
  auto db = MakeBankDb(&bank);
  const proc::CompiledProgram& prog =
      db->programs().Get(bank.transfer_id());
  const std::vector<Value> params = {Value(int64_t{0}), Value(5.0)};
  proc::ExecArena arena;
  proc::ReplayAccess access(db->catalog());
  // The first replay warms the arena's registers and row scratch.
  access.set_commit_ts(2);
  proc::VmState st = arena.Bind(prog, &params);
  ASSERT_TRUE(proc::VmExecuteAll(&st, &access).ok());

  access.set_commit_ts(3);
  st = arena.Bind(prog, &params);
  const uint64_t writes = access.writes();
  const uint64_t before = t_allocations;
  const Status s = proc::VmExecuteAll(&st, &access);
  const uint64_t allocations = t_allocations - before;
  ASSERT_TRUE(s.ok());
  ASSERT_EQ(access.writes() - writes, 3u);
  EXPECT_EQ(allocations, 3u);
#endif
}

// Shared-locals binding (CLR-P): VmTxnLocals carries the per-transaction
// views across piece executions; BindShared points the state at them.
TEST(ExecArenaTest, BindSharedUsesTxnLocals) {
  workload::Bank bank{workload::BankConfig{
      .num_users = 20, .num_nations = 2, .single_fraction = 0.0}};
  auto db = MakeBankDb(&bank);
  const proc::CompiledProgram& prog =
      db->programs().Get(bank.transfer_id());

  proc::VmTxnLocals locals;
  locals.Reset(prog.num_locals);
  ASSERT_EQ(locals.rows.size(), prog.num_locals);

  proc::ExecArena arena;
  const std::vector<Value> params = {Value(int64_t{0}), Value(5.0)};
  proc::VmState st = arena.BindShared(prog, &params, &locals);
  EXPECT_EQ(st.locals, locals.rows.data());

  proc::ReplayAccess access(db->catalog());
  access.set_commit_ts(2);
  ASSERT_TRUE(proc::VmExecuteAll(&st, &access).ok());
  bool any_read = false;
  for (uint16_t l = 0; l < prog.num_locals; ++l) {
    any_read = any_read || locals.rows[l] != nullptr;
  }
  EXPECT_TRUE(any_read);
  locals.Reset(prog.num_locals);
  for (uint16_t l = 0; l < prog.num_locals; ++l) {
    EXPECT_EQ(locals.rows[l], nullptr);
  }
}

// The compiled program records the procedure's static footprint for the
// commit-path fast paths and the disassembler round-trips the stream.
TEST(CompiledProgramTest, SummaryAndDisassembly) {
  workload::Bank bank{workload::BankConfig{
      .num_users = 20, .num_nations = 2, .single_fraction = 0.0}};
  auto db = MakeBankDb(&bank);
  const proc::CompiledProgram& prog =
      db->programs().Get(bank.transfer_id());

  EXPECT_FALSE(prog.code.empty());
  EXPECT_GT(prog.num_regs, 0);
  // Transfer: reads Family, Current x2, Saving; updates Current x2,
  // Saving.
  EXPECT_EQ(prog.summary.num_reads, 4u);
  EXPECT_EQ(prog.summary.num_writes, 3u);
  EXPECT_TRUE(prog.summary.writes_may_alias);  // Current written twice.
  ASSERT_EQ(prog.summary.canonical_write_order.size(), 3u);
  const auto& defs = prog.def->ops;
  for (size_t i = 1; i < prog.summary.canonical_write_order.size(); ++i) {
    EXPECT_LE(defs[prog.summary.canonical_write_order[i - 1]].table_id,
              defs[prog.summary.canonical_write_order[i]].table_id);
  }

  const std::string dis = proc::DisassembleProgram(prog);
  EXPECT_NE(dis.find("read_row"), std::string::npos);
  EXPECT_NE(dis.find("write_row"), std::string::npos);
  EXPECT_NE(dis.find("jump_if_false"), std::string::npos);
}

// Executing on a database whose schema was never finalized must trip the
// check: no compiled program exists to run.
TEST(BytecodeDeathTest, ExecuteWithoutFinalizeDies) {
  DatabaseOptions opts;
  opts.scheme = LogScheme::kCommand;
  Database db(opts);
  workload::Bank bank{workload::BankConfig{
      .num_users = 10, .num_nations = 2, .single_fraction = 0.0}};
  bank.CreateTables(db.catalog());
  bank.RegisterProcedures(db.registry());
  bank.Load(db.catalog());
  // No FinalizeSchema(): no compiled programs exist.
  const std::vector<Value> params = {Value(int64_t{0}), Value(5.0)};
  EXPECT_DEATH(db.ExecuteProcedure(bank.transfer_id(), params),
               "Execute requires FinalizeSchema");
}

}  // namespace
}  // namespace pacman
