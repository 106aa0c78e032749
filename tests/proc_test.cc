// Tests for the stored-procedure DSL and its one evaluator: expressions
// lowered through the bytecode VM, builder-derived flow dependencies,
// piece execution and dynamic access-set extraction.
#include "proc/bytecode.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>

#include "proc/compiler.h"
#include "proc/exec_arena.h"
#include "proc/expr.h"
#include "proc/procedure.h"
#include "proc/registry.h"
#include "storage/catalog.h"
#include "workload/bank.h"

namespace pacman::proc {
namespace {

// Compiles `def` (table-free) and returns its Emit() results for `params`.
std::vector<Value> EvalEmits(ProcedureDef def, std::vector<Value> params) {
  const CompiledProgram prog =
      CompileProcedure(def, nullptr, nullptr, nullptr);
  ExecArena arena;
  VmState st = arena.Bind(prog, &params);
  EXPECT_TRUE(VmExecuteAll(&st, nullptr).ok());
  return VmEvalResults(&st);
}

TEST(ExprTest, EvalArithmeticAndComparison) {
  ProcedureBuilder b("arith", 2);
  b.Emit(Add(P(0), C(int64_t{3})));
  b.Emit(Mul(P(0), P(1)));
  b.Emit(Gt(P(0), C(int64_t{3})));
  b.Emit(Lt(P(0), C(int64_t{3})));
  b.Emit(Mod(C(int64_t{17}), C(int64_t{5})));
  b.Emit(Mod(C(int64_t{-3}), C(int64_t{5})));  // Positive modulo.
  const std::vector<Value> out =
      EvalEmits(b.Build(), {Value(int64_t{4}), Value(2.5)});
  ASSERT_EQ(out.size(), 6u);
  EXPECT_EQ(out[0].AsInt64(), 7);
  EXPECT_DOUBLE_EQ(out[1].AsDouble(), 10.0);
  EXPECT_EQ(out[2].AsInt64(), 1);
  EXPECT_EQ(out[3].AsInt64(), 0);
  EXPECT_EQ(out[4].AsInt64(), 2);
  EXPECT_EQ(out[5].AsInt64(), 2);
}

TEST(ExprTest, PackBuildsCompositeKeys) {
  ProcedureBuilder b("pack", 2);
  b.Emit(Expr::Pack({P(0), P(1)}, {0, 8}));
  const std::vector<Value> out =
      EvalEmits(b.Build(), {Value(int64_t{3}), Value(int64_t{7})});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].AsInt64(), (3 << 8) | 7);
}

TEST(ExprTest, CollectRefsFindsParamsAndLocals) {
  ExprPtr e = Add(Mul(P(1), F(0, 2)), F(3, 0));
  std::vector<int> params, locals;
  e->CollectRefs(&params, &locals);
  EXPECT_EQ(params, (std::vector<int>{1}));
  std::sort(locals.begin(), locals.end());
  EXPECT_EQ(locals, (std::vector<int>{0, 3}));
}

TEST(BuilderTest, FlowDepsFromDefineUseAndControl) {
  // op0: l0 = read(T, p0)
  // op1: write(T, p0, f(l0))        -- define-use dep on op0
  // op2 guarded by l0: l1 = read(U, p1)   -- control dep on op0
  // op3: write(U, p1, f(l1))        -- define-use dep on op2 (+ guard dep).
  ProcedureBuilder b("p", 2);
  int l0 = b.Read("T", P(0));
  b.Update("T", P(0), l0, {{0, Add(F(l0, 0), C(int64_t{1}))}});
  b.BeginIf(Exists(l0));
  int l1 = b.Read("U", P(1));
  b.Update("U", P(1), l1, {{0, F(l1, 0)}});
  b.EndIf();
  ProcedureDef def = b.Build();

  ASSERT_EQ(def.ops.size(), 4u);
  EXPECT_EQ(def.ops[0].flow_deps, (std::vector<OpIndex>{}));
  EXPECT_EQ(def.ops[1].flow_deps, (std::vector<OpIndex>{0}));
  EXPECT_EQ(def.ops[2].flow_deps, (std::vector<OpIndex>{0}));
  std::vector<OpIndex> d3 = def.ops[3].flow_deps;
  EXPECT_EQ(d3, (std::vector<OpIndex>{0, 2}));
  EXPECT_EQ(def.num_locals, 2);
  EXPECT_EQ(def.ops[2].guard != nullptr, true);
}

// The bank schema plus a one-column int64 table "T" (keys 0..9, value =
// key), every procedure compiled as FinalizeSchema would.
class VmTest : public ::testing::Test {
 protected:
  VmTest() : registry_(&catalog_) {
    bank_.CreateTables(&catalog_);
    bank_.RegisterProcedures(&registry_);
    bank_.Load(&catalog_);
    storage::Table* t = catalog_.CreateTable(
        "T", Schema({{"v", ValueType::kInt64, 0}}));
    for (int64_t k = 0; k < 10; ++k) t->LoadRow(k, {Value(k)}, 1);
    access_.set_commit_ts(10);
  }

  ProcId Register(ProcedureDef def) {
    return registry_.Register(std::move(def));
  }
  const CompiledProgram& Program(ProcId id) {
    programs_.Build(registry_, &catalog_, {}, {});
    return programs_.Get(id);
  }
  Row ReadRow(const std::string& table, Key key) {
    Row row;
    EXPECT_TRUE(catalog_.GetTable(table)->Read(key, 10, &row).ok());
    return row;
  }

  storage::Catalog catalog_;
  ProcedureRegistry registry_;
  ProgramSet programs_;
  ExecArena arena_;
  ReplayAccess access_{&catalog_};
  workload::Bank bank_{workload::BankConfig{.num_users = 100,
                                            .num_nations = 4,
                                            .single_fraction = 0.0}};
};

TEST_F(VmTest, TransferMovesMoney) {
  // User 0's spouse is user 1 (single_fraction = 0).
  const std::vector<Value> args = {Value(int64_t{0}), Value(100.0)};
  VmState st = arena_.Bind(Program(bank_.transfer_id()), &args);
  ASSERT_TRUE(VmExecuteAll(&st, &access_).ok());
  EXPECT_DOUBLE_EQ(ReadRow("Current", 0)[0].AsDouble(), 1000.0 - 100.0);
  EXPECT_DOUBLE_EQ(ReadRow("Current", 1)[0].AsDouble(), 1001.0 + 100.0);
  EXPECT_DOUBLE_EQ(ReadRow("Saving", 0)[0].AsDouble(), 5001.0);  // +$1.
  EXPECT_EQ(access_.writes(), 3u);
  EXPECT_EQ(access_.reads(), 4u);
}

TEST_F(VmTest, GuardSkipsBody) {
  // Nation deposits below the threshold touch only Current.
  const std::vector<Value> args = {Value(int64_t{5}), Value(1.0),
                                   Value(int64_t{2})};
  VmState st = arena_.Bind(Program(bank_.deposit_id()), &args);
  ASSERT_TRUE(VmExecuteAll(&st, &access_).ok());
  EXPECT_EQ(access_.writes(), 1u);
  EXPECT_EQ(ReadRow("Stats", 2)[0].AsInt64(), 0);
}

TEST_F(VmTest, GuardTriggersBody) {
  const std::vector<Value> args = {Value(int64_t{5}), Value(20000.0),
                                   Value(int64_t{2})};
  VmState st = arena_.Bind(Program(bank_.deposit_id()), &args);
  ASSERT_TRUE(VmExecuteAll(&st, &access_).ok());
  EXPECT_EQ(access_.writes(), 3u);
  EXPECT_EQ(ReadRow("Stats", 2)[0].AsInt64(), 1);
}

TEST_F(VmTest, ExecuteOpsSubsetSharesState) {
  // Execute the Transfer ops in two stages, like recovery pieces would:
  // the second stage reads the local the first one produced.
  const std::vector<Value> args = {Value(int64_t{2}), Value(50.0)};
  const CompiledProgram& prog = Program(bank_.transfer_id());
  VmTxnLocals locals;
  locals.Reset(prog.num_locals);
  VmState st = arena_.BindShared(prog, &args, &locals);
  ASSERT_TRUE(VmExecuteOps({0}, &st, &access_).ok());  // Family read.
  EXPECT_NE(locals.rows[0], nullptr);
  ExecArena other_thread;
  VmState st2 = other_thread.BindShared(prog, &args, &locals);
  ASSERT_TRUE(VmExecuteOps({1, 2, 3, 4, 5, 6}, &st2, &access_).ok());
  EXPECT_DOUBLE_EQ(ReadRow("Current", 3)[0].AsDouble(), 1003.0 + 50.0);
}

TEST_F(VmTest, AccessSetResolvableAfterUpstreamRead) {
  const std::vector<Value> args = {Value(int64_t{0}), Value(10.0)};
  VmState st = arena_.Bind(Program(bank_.transfer_id()), &args);

  // Ops 1-4 (Current accesses) include dst = F(l0, 0): unresolved until
  // the Family read ran.
  std::vector<std::pair<TableId, Key>> accesses;
  EXPECT_FALSE(VmTryExtractAccessSet({1, 2, 3, 4}, &st, &accesses));

  ASSERT_TRUE(VmExecuteOps({0}, &st, &access_).ok());
  ASSERT_TRUE(VmTryExtractAccessSet({1, 2, 3, 4}, &st, &accesses));
  ASSERT_EQ(accesses.size(), 4u);
  const TableId current = catalog_.GetTableId("Current");
  EXPECT_EQ(accesses[0], (std::pair<TableId, Key>{current, 0}));
  EXPECT_EQ(accesses[2], (std::pair<TableId, Key>{current, 1}));
}

TEST_F(VmTest, AccessSetOmitsGuardedOutOps) {
  const std::vector<Value> args = {Value(int64_t{5}), Value(1.0),
                                   Value(int64_t{0})};
  VmState st = arena_.Bind(Program(bank_.deposit_id()), &args);
  ASSERT_TRUE(VmExecuteOps({0}, &st, &access_).ok());  // Read Current.
  // Stats ops (indices 4,5) are guarded by the >10000 condition == false.
  std::vector<std::pair<TableId, Key>> accesses;
  ASSERT_TRUE(VmTryExtractAccessSet({4, 5}, &st, &accesses));
  EXPECT_TRUE(accesses.empty());
}

TEST_F(VmTest, ExistsGuardResolvesOnAbsentLocal) {
  // A field guard waits for its read; an Exists() guard is answered by
  // the absence itself, so a guarded-out op leaves the access set.
  ProcedureBuilder b("exists", 1);
  const int l0 = b.Read("T", P(0));
  b.BeginIf(Exists(l0));
  b.WriteRow("T", P(0), {C(int64_t{1})});
  b.EndIf();
  b.BeginIf(Gt(F(l0, 0), C(int64_t{0})));
  b.WriteRow("T", C(int64_t{1}), {C(int64_t{1})});
  b.EndIf();
  const ProcId id = Register(b.Build());
  const std::vector<Value> miss = {Value(int64_t{99})};
  VmState st = arena_.Bind(Program(id), &miss);
  ASSERT_TRUE(VmExecuteOps({0}, &st, &access_).ok());
  std::vector<std::pair<TableId, Key>> accesses;
  ASSERT_TRUE(VmTryExtractAccessSet({1}, &st, &accesses));
  EXPECT_TRUE(accesses.empty());
  // The unresolvable field guard conservatively keeps the op's key.
  ASSERT_TRUE(VmTryExtractAccessSet({2}, &st, &accesses));
  EXPECT_EQ(accesses.size(), 1u);
}

TEST_F(VmTest, FieldOnAbsentLocalIsNull) {
  ProcedureBuilder b("probe", 1);
  const int l0 = b.Read("T", P(0));
  b.WriteRow("T", C(int64_t{5}), {F(l0, 0)});
  b.Emit(F(l0, 0));
  b.Emit(Exists(l0));
  const ProcId id = Register(b.Build());

  const std::vector<Value> hit = {Value(int64_t{9})};
  VmState st = arena_.Bind(Program(id), &hit);
  ASSERT_TRUE(VmExecuteAll(&st, &access_).ok());
  std::vector<Value> out = VmEvalResults(&st);
  EXPECT_EQ(out[0].AsInt64(), 9);
  EXPECT_EQ(out[1].AsInt64(), 1);

  const std::vector<Value> miss = {Value(int64_t{99})};
  st = arena_.Bind(Program(id), &miss);
  ASSERT_TRUE(VmExecuteAll(&st, &access_).ok());
  out = VmEvalResults(&st);
  EXPECT_TRUE(out[0].is_null());
  EXPECT_EQ(out[1].AsInt64(), 0);
  // The field load inside the write yielded Null too.
  EXPECT_TRUE(ReadRow("T", 5)[0].is_null());
}

// A local is a view of a packed row: a field past the row's last column
// decodes to Null, as does any field of an absent (null) local.
TEST_F(VmTest, FieldPastLastColumnIsNull) {
  ProcedureBuilder b("short_row", 2);
  const int hit = b.Read("T", P(0));
  const int miss = b.Read("T", P(1));
  b.Emit(F(hit, 0));
  b.Emit(F(hit, 1));
  b.Emit(F(hit, 7));
  b.Emit(F(miss, 0));
  b.Emit(Exists(miss));
  const ProcId id = Register(b.Build());

  const std::vector<Value> args = {Value(int64_t{4}), Value(int64_t{99})};
  VmState st = arena_.Bind(Program(id), &args);
  ASSERT_TRUE(VmExecuteAll(&st, &access_).ok());
  EXPECT_NE(st.locals[hit], nullptr);
  EXPECT_EQ(st.locals[miss], nullptr);
  const std::vector<Value> out = VmEvalResults(&st);
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out[0].AsInt64(), 4);
  EXPECT_TRUE(out[1].is_null());
  EXPECT_TRUE(out[2].is_null());
  EXPECT_TRUE(out[3].is_null());
  EXPECT_EQ(out[4].AsInt64(), 0);
}

// Replay installs a newer version of a key a local still views. With the
// replay's reclamation horizon below the transaction, the local keeps
// viewing the version it read (superseded, not freed), so later ops and
// the results see the old row while a fresh read sees the new one. Once
// the horizon reaches the transaction, the next install on the key frees
// the viewed version, and the chain ends at the version the horizon keeps.
TEST_F(VmTest, ViewSurvivesLaterInstallOnSameKey) {
  ProcedureBuilder b("overwrite", 1);
  const int before = b.Read("T", P(0));
  b.WriteRow("T", P(0), {C(int64_t{77})});
  const int after = b.Read("T", P(0));
  b.WriteRow("T", C(int64_t{8}), {F(before, 0)});
  b.Emit(F(before, 0));
  b.Emit(F(after, 0));
  const ProcId id = Register(b.Build());

  // Below the transaction's commit TID (10), above the loaded rows' (1).
  std::atomic<Timestamp> horizon{5};
  ReplayAccess access(&catalog_, &horizon);
  access.set_commit_ts(10);
  const std::vector<Value> args = {Value(int64_t{3})};
  VmState st = arena_.Bind(Program(id), &args);
  ASSERT_TRUE(VmExecuteAll(&st, &access).ok());
  storage::TupleSlot* slot = catalog_.GetTable("T")->GetSlot(3);
  const storage::Version* newest = slot->newest.load();
  ASSERT_NE(newest->older, nullptr);
  EXPECT_EQ(st.locals[before], newest->older->row());
  EXPECT_EQ(st.locals[after], newest->row());
  const std::vector<Value> out = VmEvalResults(&st);
  EXPECT_EQ(out[0].AsInt64(), 3);
  EXPECT_EQ(out[1].AsInt64(), 77);
  EXPECT_EQ(ReadRow("T", 8)[0].AsInt64(), 3);
  EXPECT_EQ(ReadRow("T", 3)[0].AsInt64(), 77);

  // The horizon passes the transaction: the next install on T[3] keeps
  // the version at 10 (the newest at or below it) and frees the one the
  // local viewed.
  horizon.store(10);
  access.set_commit_ts(11);
  access.Write(catalog_.GetTableId("T"), 3, {Value(int64_t{78})},
               /*deleted=*/false, /*is_insert=*/false);
  newest = slot->newest.load();
  EXPECT_EQ(newest->begin_ts, 11u);
  ASSERT_NE(newest->older, nullptr);
  EXPECT_EQ(newest->older->begin_ts, 10u);
  EXPECT_EQ(newest->older->row(), st.locals[after]);
  EXPECT_EQ(newest->older->older, nullptr);
}

// Every VM op that needs a number treats a field of an absent local (Null)
// as the integer 0: arithmetic stays int64, comparisons, modulo, key
// operands and key packing are defined.
TEST_F(VmTest, NumericOpsOnAbsentLocalTreatNullAsZero) {
  ProcedureBuilder b("absent", 2);
  const int l0 = b.Read("T", P(0));  // Misses: l0 is absent.
  const ExprPtr absent = F(l0, 0);
  b.WriteRow("T", absent, {Add(absent, P(1))});                     // T[0]
  b.WriteRow("T", Add(C(int64_t{1}), Mod(absent, C(int64_t{7}))),  // T[1]
             {Sub(absent, P(1))});
  b.WriteRow("T", C(int64_t{2}), {Mul(absent, P(1))});              // T[2]
  b.WriteRow("T", C(int64_t{3}), {Lt(absent, P(1))});               // T[3]
  b.WriteRow("T", Expr::Pack({C(int64_t{1}), absent}, {0, 2}),      // T[4]
             {Mod(absent, C(int64_t{7}))});
  const ProcId id = Register(b.Build());

  const std::vector<Value> args = {Value(int64_t{99}), Value(int64_t{6})};
  VmState st = arena_.Bind(Program(id), &args);
  ASSERT_TRUE(VmExecuteAll(&st, &access_).ok());
  const int64_t want[] = {6, -6, 0, 1, 0};
  for (Key k = 0; k < 5; ++k) {
    const Value v = ReadRow("T", k)[0];
    ASSERT_EQ(v.type(), ValueType::kInt64) << "T[" << k << "]";
    EXPECT_EQ(v.AsInt64(), want[k]) << "T[" << k << "]";
  }
}

TEST_F(VmTest, RegistryResolvesTablesAndNames) {
  EXPECT_EQ(registry_.size(), 2u);
  EXPECT_NE(registry_.Find("Transfer"), nullptr);
  EXPECT_EQ(registry_.Find("Nope"), nullptr);
  for (const Operation& op : registry_.Get(bank_.transfer_id()).ops) {
    EXPECT_NE(op.table_id, kInvalidTableId);
  }
}

}  // namespace
}  // namespace pacman::proc
