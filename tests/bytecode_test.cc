// Compiled-execution suite: golden pins on everything the bytecode VM
// computes — emitted values and final table state on forward processing,
// and the state every recovery scheme restores — and on the virtual time
// the simulated backend reports for each recovery configuration, plus
// arena reuse semantics, the compiled program summary and the
// unfinalized-procedure death check.
//
// The pinned values were captured while the VM still ran beside an
// expression-tree interpreter and matched it bit for bit (forward and
// CLR/CLR-P replay), and every recovery also matched a serial reference
// loader. The pins keep those oracles' outputs as data.
#include "proc/bytecode.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "pacman/database.h"
#include "proc/compiler.h"
#include "proc/exec_arena.h"
#include "workload/bank.h"
#include "workload/tpcc.h"

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

// --- Virtual-time pins ------------------------------------------------------

// A path of the cost model or the scheduler beyond a scheme's default.
enum class Variant {
  kNone,
  kStaticOnly,    // CLR-P, PacmanMode::kStaticOnly.
  kSynchronous,   // CLR-P, PacmanMode::kSynchronous.
  kNoLatches,     // PLR, use_latches = false.
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
      ropts.use_latches = false;
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

// kVirtualTimePins[i] belongs to VirtualTimeConfigs()[i]. Captured on the
// engine that still ran CLR-P's extra block workers as spin-waiting tasks
// and three copies of the batch-reload stage, printed with %.17g, so any
// change to a task graph's shape, dispatch order or costs shows here.
constexpr VirtualTimePin kVirtualTimePins[] = {
    {"bank PLR t1 s1", 0.0011683050909090909, 0.0041034660909090911,
     0.0040574690000000002, 8.355709090909091e-05, 0, 0, 363, 829, 829},
    {"bank PLR t1 s2", 0.0011682305454545456, 0.0020585390909090909,
     0.0040574689999999993, 8.4702545454545466e-05, 0, 0, 463, 829, 829},
    {"bank PLR t40 s1", 0.00010706672727272727, 0.00047885709090909087,
     0.018638749999999905, 8.355709090909091e-05, 0, 0, 363, 829, 829},
    {"bank PLR t40 s2", 0.00010758854545454545, 0.00020267909090909087,
     0.0076959499999999723, 8.4702545454545466e-05, 0, 0, 463, 829, 829},
    {"bank LLR t1 s1", 0.0024087909090909085, 0.0039649708181818174,
     0.0039468689999999996, 3.291272727272727e-05, 0, 0, 363, 829, 829},
    {"bank LLR t1 s2", 0.0024087454545454537, 0.0019904270909090909,
     0.0039468690000000004, 3.4054363636363631e-05, 0, 0, 463, 829, 829},
    {"bank LLR t40 s1", 0.0001717772727272727, 0.00047210181818181808,
     0.018528150000000077, 3.291272727272727e-05, 0, 0, 363, 829, 829},
    {"bank LLR t40 s2", 0.00017215454545454543, 0.00019534309090909089,
     0.007585349999999995, 3.4054363636363631e-05, 0, 0, 463, 829, 829},
    {"bank LLR-P t1 s1", 0.0026811909090909089, 0.0037486018181818186,
     0.0037304999999999999, 3.291272727272727e-05, 0, 0, 363, 829, 0},
    {"bank LLR-P t1 s2", 0.0026811454545454545, 0.0037491052727272735,
     0.0037304999999999999, 3.4054363636363631e-05, 0, 0, 463, 829, 0},
    {"bank LLR-P t40 s1", 0.00018887727272727271, 0.00020975181818181821,
     0.0037304999999999934, 3.2912727272727277e-05, 0, 0, 363, 829, 0},
    {"bank LLR-P t40 s2", 0.00018955454545454544, 0.00015511909090909091,
     0.0037304999999999964, 3.4054363636363638e-05, 0, 0, 463, 829, 0},
    {"bank CLR t1 s1", 0.0026811909090909089, 0.007864742181818183,
     0.0078550000000000009, 1.7533090909090907e-05, 0, 0, 363, 829, 0},
    {"bank CLR t1 s2", 0.0026811454545454545, 0.0034195098181818186,
     0.0068054999999999982, 2.937327272727272e-05, 0, 0, 463, 829, 0},
    {"bank CLR t40 s1", 0.00018887727272727271, 0.0078567361818181834,
     0.0078550000000000009, 1.753309090909091e-05, 0, 0, 363, 829, 0},
    {"bank CLR t40 s2", 0.00018955454545454544, 0.0034129778181818185,
     0.0068054999999999982, 2.937327272727272e-05, 0, 0, 463, 829, 0},
    {"bank CLR-P t1 s1", 0.0026811909090909089, 0.0093562821818181843,
     0.0071289999999999991, 1.7533090909090907e-05, 0.00087119999999999906,
     0.0013463400000000003, 363, 829, 0},
    {"bank CLR-P t1 s2", 0.0026811454545454545, 0.0041590743636363637,
     0.005879500000000001, 2.937327272727272e-05, 0.00087119999999999993,
     0.0015383400000000007, 463, 829, 0},
    {"bank CLR-P t40 s1", 0.00018887727272727271, 0.00081943618181818181,
     0.0071289999999999999, 1.753309090909091e-05, 0.00087119999999999906,
     0.0081416999999999965, 363, 829, 0},
    {"bank CLR-P t40 s2", 0.00018955454545454544, 0.00062347781818181808,
     0.0058795000000000002, 2.937327272727272e-05, 0.00087119999999999993,
     0.0048489000000000006, 463, 829, 0},
    {"bank CLR-P t40 s1 static-only", 0.00018887727272727271,
     0.0065467361818181804, 0.0071289999999999991, 1.753309090909091e-05, 0,
     0.00019200000000000009, 363, 829, 0},
    {"bank CLR-P t40 s1 synchronous", 0.00018887727272727271,
     0.0016812361818181816, 0.0071289999999999991, 1.753309090909091e-05,
     0.00087119999999999906, 0.0081416999999999965, 363, 829, 0},
    {"bank CLR-P t40 s1 reload-only", 2.3577272727272733e-05,
     5.3787272727272732e-06, 0, 1.753309090909091e-05, 0, 0, 363, 0, 0},
    {"bank CLR-P t40 s1 chopping", 0.00018887727272727271,
     0.0012752361818181822, 0.0071290000000000008, 1.753309090909091e-05,
     0.00040399999999999974, 0.0037824999999999985, 363, 829, 0},
    {"bank CLR-P t40 s1 coordination", 0.00018887727272727271,
     0.00086143618181818175, 0.0071289999999999999, 1.753309090909091e-05,
     0.00087119999999999917, 0.0092307000000000014, 363, 829, 0},
    {"bank PLR t40 s1 no-latches", 0.00010706672727272727,
     0.0001060170909090909, 0.0038410999999999975, 8.355709090909091e-05, 0, 0,
     363, 829, 829},
    {"tpcc PLR t1 s1", 0.0020945614545454547, 0.01532653790909091,
     0.013932502999999999, 0.0024526167272727272, 0, 0, 282, 3623, 3623},
    {"tpcc PLR t1 s2", 0.0020941250909090911, 0.0079003244545454536,
     0.013932503000000001, 0.002455602545454546, 0, 0, 542, 3623, 3623},
    {"tpcc PLR t40 s1", 0.00038332781818181823, 0.0024307629090909093,
     0.077657450000000072, 0.0024526167272727272, 0, 0, 282, 3623, 3623},
    {"tpcc PLR t40 s2", 0.00040313654545454547, 0.0011166903636363635,
     0.029833850000000023, 0.002455602545454546, 0, 0, 542, 3623, 3623},
    {"tpcc LLR t1 s1", 0.0038077643636363631, 0.018517223727272727,
     0.017249102999999998, 0.0022312843636363637, 0, 0, 282, 3623, 3623},
    {"tpcc LLR t1 s2", 0.0038074152727272724, 0.0095444233636363639,
     0.017249103000000002, 0.002234270181818182, 0, 0, 542, 3623, 3623},
    {"tpcc LLR t40 s1", 0.00047170454545454544, 0.0024598827272727273,
     0.080974050000000075, 0.0022312843636363637, 0, 0, 282, 3623, 3623},
    {"tpcc LLR t40 s2", 0.00049611254545454541, 0.0011713343636363634,
     0.033150449999999991, 0.002234270181818182, 0, 0, 542, 3623, 3623},
    {"tpcc LLR-P t1 s1", 0.0041839643636363633, 0.017571620727272728,
     0.016303500000000002, 0.0022312843636363637, 0, 0, 282, 3623, 0},
    {"tpcc LLR-P t1 s2", 0.004183615272727273, 0.017550633818181817,
     0.016303500000000002, 0.002234270181818182, 0, 0, 542, 3623, 0},
    {"tpcc LLR-P t40 s1", 0.00049510454545454536, 0.0013243947272727271,
     0.016303499999999999, 0.0022312843636363637, 0, 0, 282, 3623, 0},
    {"tpcc LLR-P t40 s2", 0.00052071254545454546, 0.00078557272727272718,
     0.016303499999999978, 0.0022342701818181816, 0, 0, 542, 3623, 0},
    {"tpcc CLR t1 s1", 0.0041839643636363633, 0.030239536909090925,
     0.030216500000000014, 4.067509090909091e-05, 0, 0, 282, 3623, 0},
    {"tpcc CLR t1 s2", 0.004183615272727273, 0.0095843123636363634,
     0.017618499999999995, 0.0021953514545454546, 0, 0, 542, 3623, 0},
    {"tpcc CLR t40 s1", 0.00049510454545454536, 0.030221898909090925,
     0.030216500000000014, 4.067509090909091e-05, 0, 0, 282, 3623, 0},
    {"tpcc CLR t40 s2", 0.00052071254545454546, 0.0090781403636363625,
     0.017618499999999995, 0.0021953514545454546, 0, 0, 542, 3623, 0},
    {"tpcc CLR-P t1 s1", 0.0041839643636363633, 0.034958536909090919,
     0.029652500000000026, 4.067509090909091e-05, 0.0020399999999999997,
     0.003243000000000002, 282, 3623, 0},
    {"tpcc CLR-P t1 s2", 0.004183615272727273, 0.010707292363636376,
     0.016534499999999997, 0.0021953514545454546, 0.0010287999999999996,
     0.0024431599999999959, 542, 3623, 0},
    {"tpcc CLR-P t40 s1", 0.00049510454545454536, 0.0072117989090909104,
     0.029652500000000012, 4.067509090909091e-05, 0.0020399999999999993,
     0.019154999999999988, 282, 3623, 0},
    {"tpcc CLR-P t40 s2", 0.00052071254545454546, 0.0024635403636363638,
     0.016534499999999994, 0.0021953514545454546, 0.0010287999999999996,
     0.0063525999999999956, 542, 3623, 0},
    {"tpcc CLR-P t40 s1 static-only", 0.00049510454545454536,
     0.023280398909090904, 0.029652500000000026, 4.067509090909091e-05, 0,
     0.00053999999999999979, 282, 3623, 0},
    {"tpcc CLR-P t40 s1 synchronous", 0.00049510454545454536,
     0.01097849890909091, 0.029652500000000026, 4.067509090909091e-05,
     0.0020399999999999997, 0.019154999999999995, 282, 3623, 0},
    {"tpcc CLR-P t40 s1 reload-only", 0.00026890454545454545,
     1.3649272727272727e-05, 0, 4.067509090909091e-05, 0, 0, 282, 0, 0},
    {"tpcc CLR-P t40 s1 chopping", 0.00049510454545454536, 0.031339924909090884,
     0.029652499999999998, 4.067509090909091e-05, 0.00022559999999999985,
     0.0020945999999999998, 282, 3623, 0},
    {"tpcc CLR-P t40 s1 coordination", 0.00049510454545454536,
     0.0073207989090909101, 0.029652500000000012, 4.067509090909091e-05,
     0.0020399999999999993, 0.02170500000000003, 282, 3623, 0},
    {"tpcc PLR t40 s1 no-latches", 0.00038332781818181823,
     0.00093639672727272711, 0.012986900000000006, 0.0024526167272727272, 0, 0,
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

// Arena reuse: Bind() resets presence flags between transactions but
// keeps row/register capacity, so steady-state execution does not grow.
TEST(ExecArenaTest, BindResetsPresenceAndKeepsCapacity) {
  workload::Bank bank{workload::BankConfig{
      .num_users = 20, .num_nations = 2, .single_fraction = 0.0}};
  auto db = MakeBankDb(&bank);
  const proc::CompiledProgram& prog =
      db->programs().Get(bank.transfer_id());

  proc::ExecArena arena;
  const std::vector<Value> params = {Value(int64_t{0}), Value(5.0)};
  proc::VmState st = arena.Bind(prog, &params);
  for (uint16_t l = 0; l < prog.num_locals; ++l) {
    EXPECT_EQ(st.present[l], 0);
  }

  proc::ReplayAccess access(db->catalog(), proc::InstallMode::kUnlatched);
  access.set_commit_ts(1);
  ASSERT_TRUE(proc::VmExecuteAll(&st, &access).ok());
  bool any_present = false;
  for (uint16_t l = 0; l < prog.num_locals; ++l) {
    any_present = any_present || st.present[l] != 0;
  }
  EXPECT_TRUE(any_present);
  std::vector<size_t> caps;
  for (uint16_t l = 0; l < prog.num_locals; ++l) {
    caps.push_back(st.locals[l].capacity());
  }

  // Rebind: presence cleared, the rows' heap capacity survives.
  proc::VmState st2 = arena.Bind(prog, &params);
  for (uint16_t l = 0; l < prog.num_locals; ++l) {
    EXPECT_EQ(st2.present[l], 0);
    EXPECT_EQ(st2.locals[l].capacity(), caps[l]);
  }
}

// Shared-locals binding (CLR-P): VmTxnLocals carries the per-transaction
// rows across piece executions; BindShared points the state at them.
TEST(ExecArenaTest, BindSharedUsesTxnLocals) {
  workload::Bank bank{workload::BankConfig{
      .num_users = 20, .num_nations = 2, .single_fraction = 0.0}};
  auto db = MakeBankDb(&bank);
  const proc::CompiledProgram& prog =
      db->programs().Get(bank.transfer_id());

  proc::VmTxnLocals locals;
  locals.Reset(prog.num_locals);
  ASSERT_EQ(locals.rows.size(), prog.num_locals);
  ASSERT_EQ(locals.present.size(), prog.num_locals);

  proc::ExecArena arena;
  const std::vector<Value> params = {Value(int64_t{0}), Value(5.0)};
  proc::VmState st = arena.BindShared(prog, &params, &locals);
  EXPECT_EQ(st.locals, locals.rows.data());
  EXPECT_EQ(st.present, locals.present.data());

  proc::ReplayAccess access(db->catalog(), proc::InstallMode::kUnlatched);
  access.set_commit_ts(1);
  ASSERT_TRUE(proc::VmExecuteAll(&st, &access).ok());
  bool any_present = false;
  for (uint16_t l = 0; l < prog.num_locals; ++l) {
    any_present = any_present || locals.present[l] != 0;
  }
  EXPECT_TRUE(any_present);
  locals.Reset(prog.num_locals);
  for (uint16_t l = 0; l < prog.num_locals; ++l) {
    EXPECT_EQ(locals.present[l], 0);
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
