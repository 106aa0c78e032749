// Tests for the session-oriented client API: typed procedure handles,
// TxnResult values round-tripping out of procedures, signature-mismatch
// rejection, asynchronous (and ad-hoc) submission through the open-system
// executor pool, concurrent sessions on one database, and crash + CLR-P
// recovery with open sessions. Also covers the constructor-time
// validation of DatabaseOptions / DriverOptions.
#include "pacman/session.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "pacman/database.h"
#include "storage/table.h"
#include "test_util.h"
#include "workload/bank.h"

namespace pacman {
namespace {

class SessionTest : public ::testing::Test {
 protected:
  std::unique_ptr<Database> MakeDb(uint32_t commits_per_epoch = 50) {
    DatabaseOptions opts;
    opts.scheme = logging::LogScheme::kCommand;
    opts.commits_per_epoch = commits_per_epoch;
    opts.epochs_per_batch = 2;
    auto db = std::make_unique<Database>(opts);
    bank_.Install(db.get());
    db->FinalizeSchema();
    return db;
  }

  // Every user has a spouse (single_fraction 0), so Transfer always takes
  // its guarded branch. Load() gives user u the Current balance
  // 1000 + u % 97.
  workload::Bank bank_{workload::BankConfig{
      .num_users = 500, .num_nations = 8, .single_fraction = 0.0}};
};

TEST_F(SessionTest, HandleResolvesByNameOnce) {
  auto db = MakeDb();
  ProcHandle transfer = db->proc("Transfer");
  ASSERT_TRUE(transfer.valid());
  EXPECT_EQ(transfer.name(), "Transfer");
  EXPECT_EQ(transfer.num_params(), 2);
  ASSERT_EQ(transfer.param_types().size(), 2u);
  EXPECT_EQ(transfer.param_types()[0], ValueType::kInt64);
  EXPECT_EQ(transfer.param_types()[1], ValueType::kDouble);

  EXPECT_FALSE(db->proc("NoSuchProc").valid());
}

TEST_F(SessionTest, CallThroughInvalidHandleIsRejected) {
  auto db = MakeDb();
  auto session = db->OpenSession();
  TxnResult r = session->Call(ProcHandle{}, {Value(int64_t{1})});
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.attempts, 0);
  EXPECT_EQ(db->commits(), 0u);
}

TEST_F(SessionTest, HandleFromAnotherDatabaseIsRejected) {
  auto db1 = MakeDb();
  auto db2 = MakeDb();
  auto session = db1->OpenSession();
  TxnResult r = session->Call(db2->proc("Deposit"),
                              {Value(int64_t{1}), Value(1.0),
                               Value(int64_t{0})});
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(db1->commits(), 0u);
}

TEST_F(SessionTest, EmittedValuesRoundTripFromProcedure) {
  auto db = MakeDb();
  auto session = db->OpenSession();
  // User 10 starts at 1000 + 10 % 97 = 1010; Deposit(10, 250) -> 1260.
  TxnResult r = session->Call(
      db->proc("Deposit"),
      {Value(int64_t{10}), Value(250.0), Value(int64_t{2})});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.attempts, 1);
  EXPECT_NE(r.commit_ts, kInvalidTimestamp);
  ASSERT_EQ(r.values.size(), 1u);
  EXPECT_DOUBLE_EQ(r.values[0].AsDouble(), 1260.0);

  // Transfer emits (branch-taken, new source balance).
  TxnResult t = session->Call(db->proc("Transfer"),
                              {Value(int64_t{10}), Value(60.0)});
  ASSERT_TRUE(t.ok());
  ASSERT_EQ(t.values.size(), 2u);
  EXPECT_EQ(t.values[0].AsInt64(), 1);  // Guarded branch executed.
  EXPECT_DOUBLE_EQ(t.values[1].AsDouble(), 1200.0);  // 1260 - 60.
}

TEST_F(SessionTest, SignatureMismatchesAreRejectedBeforeExecution) {
  auto db = MakeDb();
  auto session = db->OpenSession();
  ProcHandle deposit = db->proc("Deposit");

  // Wrong arity.
  TxnResult r1 = session->Call(deposit, {Value(int64_t{1})});
  EXPECT_EQ(r1.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r1.attempts, 0);

  // Wrong type (string where int64 declared).
  TxnResult r2 = session->Call(
      deposit, {Value(std::string("x")), Value(1.0), Value(int64_t{0})});
  EXPECT_EQ(r2.status.code(), StatusCode::kInvalidArgument);

  // Double where int64 declared: no narrowing, rejected.
  TxnResult r3 =
      session->Call(deposit, {Value(1.5), Value(1.0), Value(int64_t{0})});
  EXPECT_EQ(r3.status.code(), StatusCode::kInvalidArgument);

  // Int64 where double declared: promoted, accepted.
  TxnResult r4 = session->Call(
      deposit, {Value(int64_t{1}), Value(int64_t{5}), Value(int64_t{0})});
  EXPECT_TRUE(r4.ok());

  // Nothing but the promoted call committed.
  EXPECT_EQ(db->commits(), 1u);
}

TEST_F(SessionTest, SubmitRunsOnExecutorPoolAndResolvesFutures) {
  auto db = MakeDb();
  ASSERT_TRUE(db->TryTakeCheckpoint().ok());
  db->StartWorkers(2);
  auto session = db->OpenSession();
  ProcHandle transfer = db->proc("Transfer");

  std::vector<TxnFuture> futures;
  for (int64_t i = 0; i < 200; ++i) {
    futures.push_back(session->Submit(
        transfer, {Value(i % 500), Value(5.0)}));
  }
  for (TxnFuture& f : futures) {
    ASSERT_TRUE(f.valid());
    const TxnResult& r = f.Get();
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.values.size(), 2u);
  }
  db->StopWorkers();
  EXPECT_EQ(db->commits(), 200u);
}

TEST_F(SessionTest, ClosedSessionSlotsAreRecycled) {
  auto db = MakeDb();
  WorkerId first;
  {
    auto s = db->OpenSession();
    first = s->slot();
  }
  // The released slot is reused, and churning far past the slot cap
  // (4096) does not exhaust the allocator.
  auto s2 = db->OpenSession();
  EXPECT_EQ(s2->slot(), first);
  for (int i = 0; i < 10000; ++i) {
    auto s = db->OpenSession();
    EXPECT_LT(s->slot(), 3u);  // s2 holds one slot; churn reuses one more.
  }
}

TEST_F(SessionTest, PostIsFireAndForgetWithValidation) {
  auto db = MakeDb();
  ASSERT_TRUE(db->TryTakeCheckpoint().ok());
  db->StartWorkers(2);
  auto session = db->OpenSession();
  ProcHandle transfer = db->proc("Transfer");

  // Rejections are reported synchronously and never enqueue.
  EXPECT_EQ(session->Post(transfer, {Value(int64_t{1})}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session->Post(ProcHandle{}, {}).code(),
            StatusCode::kInvalidArgument);

  for (int64_t i = 0; i < 150; ++i) {
    ASSERT_TRUE(session->Post(transfer, {Value(i % 500), Value(1.0)}).ok());
  }
  db->service()->Drain();
  EXPECT_EQ(db->commits(), 150u);
  uint64_t committed = 0;
  for (const WorkerStats& w : db->service()->worker_stats()) {
    committed += w.committed;
  }
  EXPECT_EQ(committed, 150u);
  db->StopWorkers();
}

TEST_F(SessionTest, SubmitValidationFailureResolvesImmediately) {
  auto db = MakeDb();
  db->StartWorkers(1);
  auto session = db->OpenSession();
  TxnFuture f = session->Submit(db->proc("Transfer"), {Value(int64_t{1})});
  ASSERT_TRUE(f.valid());
  EXPECT_TRUE(f.Done());
  EXPECT_EQ(f.Get().status.code(), StatusCode::kInvalidArgument);
  db->StopWorkers();
  EXPECT_EQ(db->commits(), 0u);
}

TEST_F(SessionTest, AdhocSubmissionsSurviveCrashRecovery) {
  auto db = MakeDb();
  ASSERT_TRUE(db->TryTakeCheckpoint().ok());
  db->StartWorkers(2);
  auto session = db->OpenSession();
  ProcHandle transfer = db->proc("Transfer");
  std::vector<TxnFuture> futures;
  for (int64_t i = 0; i < 300; ++i) {
    TxnOptions topts;
    topts.adhoc = (i % 3 == 0);  // §4.5 logging downgrade for a third.
    futures.push_back(
        session->Submit(transfer, {Value(i % 500), Value(2.0)}, topts));
  }
  for (TxnFuture& f : futures) ASSERT_TRUE(f.Get().ok());
  db->StopWorkers();

  const uint64_t hash = db->ContentHash();
  db->Crash();
  recovery::RecoveryOptions ropts;
  ropts.num_threads = 4;
  db->Recover(recovery::Scheme::kClrP, ropts);
  EXPECT_EQ(db->ContentHash(), hash);
}

TEST_F(SessionTest, ConcurrentSessionsShareOneDatabase) {
  auto db = MakeDb();
  ASSERT_TRUE(db->TryTakeCheckpoint().ok());
  const storage::Table* current = db->catalog()->GetTable("Current");
  const double sum_before =
      testutil::VisibleSum(current, db->txn_manager()->LastCommitted());

  db->StartWorkers(4);
  constexpr int kClients = 4;
  constexpr int kTxnsPerClient = 500;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&db, c] {
      // Sessions are opened mid-run: slot allocation must be safe while
      // other sessions' transactions are in flight.
      auto session = db->OpenSession();
      ProcHandle transfer = db->proc("Transfer");
      std::vector<TxnFuture> in_flight;
      for (int i = 0; i < kTxnsPerClient; ++i) {
        in_flight.push_back(session->Submit(
            transfer,
            {Value(static_cast<int64_t>((c * 131 + i) % 500)),
             Value(1.0)}));
        if (in_flight.size() >= 64) {
          EXPECT_TRUE(in_flight.front().Get().ok());
          in_flight.erase(in_flight.begin());
        }
      }
      for (TxnFuture& f : in_flight) EXPECT_TRUE(f.Get().ok());
    });
  }
  for (std::thread& t : clients) t.join();
  db->StopWorkers();

  EXPECT_EQ(db->commits(),
            static_cast<uint64_t>(kClients) * kTxnsPerClient);
  // Transfers conserve the Current balance sum.
  EXPECT_NEAR(testutil::VisibleSum(current, db->txn_manager()->LastCommitted()),
              sum_before, 1e-6);
}

TEST_F(SessionTest, CrashWithOpenSessionsAndRunningWorkers) {
  auto db = MakeDb();
  ASSERT_TRUE(db->TryTakeCheckpoint().ok());
  auto s1 = db->OpenSession();
  auto s2 = db->OpenSession();
  EXPECT_NE(s1->slot(), s2->slot());
  ProcHandle transfer = db->proc("Transfer");

  db->StartWorkers(2);
  std::vector<TxnFuture> futures;
  for (int64_t i = 0; i < 100; ++i) {
    Session* s = i % 2 == 0 ? s1.get() : s2.get();
    futures.push_back(s->Submit(transfer, {Value(i % 500), Value(2.0)}));
  }
  for (TxnFuture& f : futures) ASSERT_TRUE(f.Get().ok());
  const uint64_t hash = db->ContentHash();

  // Crash drains and stops the executor pool itself.
  db->Crash();
  EXPECT_FALSE(db->workers_running());

  recovery::RecoveryOptions ropts;
  ropts.num_threads = 4;
  db->Recover(recovery::Scheme::kClrP, ropts);
  EXPECT_EQ(db->ContentHash(), hash);

  // The same sessions keep working on the recovered database.
  TxnResult r = s1->Call(transfer, {Value(int64_t{42}), Value(3.0)});
  EXPECT_TRUE(r.ok());
  TxnResult r2 = s2->Call(transfer, {Value(int64_t{43}), Value(3.0)});
  EXPECT_TRUE(r2.ok());
}

TEST_F(SessionTest, DriverRejectsDegenerateOptionsButAcceptsZeroTxns) {
  auto db = MakeDb();
  ASSERT_TRUE(db->TryTakeCheckpoint().ok());
  TxnGenerator gen = [this](Rng* rng, std::vector<Value>* params) {
    return bank_.NextTransaction(rng, params);
  };

  // num_txns == 0 is a defined no-op.
  DriverOptions zero;
  zero.num_workers = 2;
  zero.num_txns = 0;
  DriverResult r = db->RunWorkers(gen, zero);
  EXPECT_EQ(r.committed, 0u);
  EXPECT_EQ(r.workers.size(), 2u);
  EXPECT_FALSE(db->workers_running());

  // num_workers == 0 aborts with a clear message.
  DriverOptions bad;
  bad.num_workers = 0;
  bad.num_txns = 10;
  EXPECT_DEATH(db->RunWorkers(gen, bad), "num_workers");
}

TEST(DatabaseValidationDeathTest, RejectsDegenerateOptions) {
  {
    DatabaseOptions o;
    o.num_ssds = 0;
    EXPECT_DEATH(Database db(o), "num_ssds");
  }
  {
    DatabaseOptions o;
    o.num_loggers = 0;
    EXPECT_DEATH(Database db(o), "num_loggers");
  }
  {
    DatabaseOptions o;
    o.epochs_per_batch = 0;
    EXPECT_DEATH(Database db(o), "epochs_per_batch");
  }
}

using RecoveryValidationDeathTest = SessionTest;

// Recovery with no threads names the option instead of failing a bare
// check after the load pipeline has started, on either backend.
TEST_F(RecoveryValidationDeathTest, ZeroThreadsIsNamedOnBothBackends) {
  for (ExecutionBackend backend :
       {ExecutionBackend::kSimulated, ExecutionBackend::kThreads}) {
    auto db = MakeDb();
    ASSERT_TRUE(db->TryTakeCheckpoint().ok());
    Rng rng(3);
    std::vector<Value> params;
    for (int i = 0; i < 20; ++i) {
      const ProcId proc = bank_.NextTransaction(&rng, &params);
      ASSERT_TRUE(db->ExecuteProcedure(proc, params).ok());
    }
    db->Crash();
    recovery::RecoveryOptions ropts;
    ropts.num_threads = 0;
    EXPECT_DEATH(db->Recover(recovery::Scheme::kClrP, ropts, backend),
                 "RecoveryOptions::num_threads must be >= 1");
  }
}

TEST(DatabaseValidationDeathTest, DeviceAccessIsBoundsChecked) {
  Database db;  // Two SSDs by default.
  EXPECT_NE(db.device(0), nullptr);
  EXPECT_NE(db.device(1), nullptr);
  EXPECT_DEATH(db.device(2), "device index out of range");
}

}  // namespace
}  // namespace pacman
