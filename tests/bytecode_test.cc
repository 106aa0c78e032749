// Compiled-execution suite: golden pins on everything the bytecode VM
// computes — emitted values and final table state on forward processing,
// and the state every recovery scheme restores — plus arena reuse
// semantics, the compiled program summary and the unfinalized-procedure
// death check.
//
// The pinned values were captured while the VM still ran beside an
// expression-tree interpreter and matched it bit for bit (forward and
// CLR/CLR-P replay), and every recovery also matched a serial reference
// loader. The pins keep those oracles' outputs as data.
#include "proc/bytecode.h"

#include <gtest/gtest.h>

#include <cstring>

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
