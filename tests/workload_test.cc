// Workload-level tests: schema/loader consistency, generator bounds and
// application-semantic invariants (conservation laws) under concurrent
// execution and across crash/recovery.
#include <gtest/gtest.h>

#include <set>

#include "pacman/database.h"
#include "workload/bank.h"
#include "workload/smallbank.h"
#include "workload/tpcc.h"

namespace pacman {
namespace {

double SumColumn(storage::Table* table, int col, Timestamp ts) {
  double sum = 0.0;
  Row row;
  table->ForEachSlot([&](storage::TupleSlot* slot) {
    const storage::Version* v = slot->VisibleAt(ts);
    if (v == nullptr || v->deleted) return;
    v->ReadRow(&row);
    sum += row[col].AsDouble();
  });
  return sum;
}

TEST(BankWorkloadTest, LoadPopulatesAllTables) {
  storage::Catalog catalog;
  workload::Bank bank({.num_users = 50, .num_nations = 4,
                       .single_fraction = 0.2});
  bank.CreateTables(&catalog);
  bank.Load(&catalog);
  EXPECT_EQ(catalog.GetTable("Family")->NumKeys(), 50u);
  EXPECT_EQ(catalog.GetTable("Current")->NumKeys(), 50u);
  EXPECT_EQ(catalog.GetTable("Saving")->NumKeys(), 50u);
  EXPECT_EQ(catalog.GetTable("Stats")->NumKeys(), 4u);
}

TEST(BankWorkloadTest, SpousePairingIsSymmetricOrSingle) {
  storage::Catalog catalog;
  workload::Bank bank({.num_users = 100, .num_nations = 4,
                       .single_fraction = 0.3});
  bank.CreateTables(&catalog);
  bank.Load(&catalog);
  storage::Table* family = catalog.GetTable("Family");
  for (Key u = 0; u < 100; ++u) {
    Row row;
    ASSERT_TRUE(family->Read(u, 2, &row).ok());
    int64_t spouse = row[0].AsInt64();
    if (spouse >= 0) {
      EXPECT_EQ(static_cast<Key>(spouse), u ^ 1ull);
    }
  }
}

TEST(BankWorkloadTest, TransferConservesCurrentTotal) {
  // Transfers move money between Current accounts: the Current total is
  // invariant (deposits change it, so run transfers only).
  DatabaseOptions opts;
  opts.scheme = logging::LogScheme::kCommand;
  Database db(opts);
  workload::Bank bank({.num_users = 100, .num_nations = 4,
                       .single_fraction = 0.0});
  bank.CreateTables(db.catalog());
  bank.RegisterProcedures(db.registry());
  bank.Load(db.catalog());
  db.FinalizeSchema();

  storage::Table* current = db.catalog()->GetTable("Current");
  const double before =
      SumColumn(current, 0, db.txn_manager()->LastCommitted());
  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    std::vector<Value> params = {
        Value(rng.UniformInt(0, 99)),
        Value(static_cast<double>(rng.UniformInt(1, 50)))};
    ASSERT_TRUE(db.ExecuteProcedure(bank.transfer_id(), params).ok());
  }
  const double after =
      SumColumn(current, 0, db.txn_manager()->LastCommitted());
  EXPECT_NEAR(before, after, 1e-6);
}

TEST(SmallbankWorkloadTest, SendPaymentConservesCheckingTotal) {
  DatabaseOptions opts;
  opts.scheme = logging::LogScheme::kCommand;
  Database db(opts);
  workload::Smallbank sb(
      {.num_accounts = 100, .hotspot_fraction = 0.5, .hotspot_size = 10});
  sb.CreateTables(db.catalog());
  sb.RegisterProcedures(db.registry());
  sb.Load(db.catalog());
  db.FinalizeSchema();

  storage::Table* checking = db.catalog()->GetTable("Checking");
  const double before =
      SumColumn(checking, 0, db.txn_manager()->LastCommitted());
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    int64_t a = rng.UniformInt(0, 99);
    int64_t b = (a + 1 + rng.UniformInt(0, 97)) % 100;
    std::vector<Value> params = {
        Value(a), Value(b), Value(static_cast<double>(rng.UniformInt(1, 20)))};
    ASSERT_TRUE(db.ExecuteProcedure(sb.send_payment_id(), params).ok());
  }
  EXPECT_NEAR(before,
              SumColumn(checking, 0, db.txn_manager()->LastCommitted()),
              1e-6);
}

TEST(SmallbankWorkloadTest, AmalgamateMovesEverything) {
  DatabaseOptions opts;
  opts.scheme = logging::LogScheme::kCommand;
  Database db(opts);
  workload::Smallbank sb(
      {.num_accounts = 10, .hotspot_fraction = 0.0, .hotspot_size = 1});
  sb.CreateTables(db.catalog());
  sb.RegisterProcedures(db.registry());
  sb.Load(db.catalog());
  db.FinalizeSchema();

  std::vector<Value> params = {Value(int64_t{3}), Value(int64_t{7})};
  ASSERT_TRUE(db.ExecuteProcedure(sb.amalgamate_id(), params).ok());
  Timestamp now = db.txn_manager()->LastCommitted();
  Row sav, chk;
  ASSERT_TRUE(db.catalog()->GetTable("Savings")->Read(3, now, &sav).ok());
  ASSERT_TRUE(db.catalog()->GetTable("Checking")->Read(3, now, &chk).ok());
  EXPECT_DOUBLE_EQ(sav[0].AsDouble(), 0.0);
  EXPECT_DOUBLE_EQ(chk[0].AsDouble(), 0.0);
}

TEST(SmallbankWorkloadTest, BalanceIsReadOnly) {
  DatabaseOptions opts;
  opts.scheme = logging::LogScheme::kCommand;
  Database db(opts);
  workload::Smallbank sb(
      {.num_accounts = 10, .hotspot_fraction = 0.0, .hotspot_size = 1});
  sb.CreateTables(db.catalog());
  sb.RegisterProcedures(db.registry());
  sb.Load(db.catalog());
  db.FinalizeSchema();
  const uint64_t before = db.ContentHash();
  ASSERT_TRUE(
      db.ExecuteProcedure(sb.balance_id(), {Value(int64_t{5})}).ok());
  EXPECT_EQ(db.ContentHash(), before);
  EXPECT_EQ(db.log_manager()->total_bytes(), 0u);  // Not logged.
}

TEST(SmallbankWorkloadTest, GeneratorRespectsMixAndBounds) {
  workload::Smallbank sb(
      {.num_accounts = 1000, .hotspot_fraction = 0.25, .hotspot_size = 10});
  storage::Catalog catalog;
  proc::ProcedureRegistry registry(&catalog);
  sb.CreateTables(&catalog);
  sb.RegisterProcedures(&registry);
  Rng rng(5);
  std::vector<Value> params;
  int counts[6] = {0};
  for (int i = 0; i < 5000; ++i) {
    ProcId p = sb.NextTransaction(&rng, &params);
    ASSERT_LT(p, registry.size());
    counts[p]++;
    for (const Value& v : params) {
      if (v.type() == ValueType::kInt64) {
        EXPECT_GE(v.AsInt64(), 0);
        EXPECT_LT(v.AsInt64(), 1000);
      }
    }
  }
  EXPECT_GT(counts[sb.deposit_checking_id()], 0);
  EXPECT_GT(counts[sb.send_payment_id()], 0);
  EXPECT_GT(counts[sb.amalgamate_id()], 0);
  EXPECT_GT(counts[sb.write_check_id()], 0);
  EXPECT_GT(counts[sb.transact_savings_id()], 0);
  EXPECT_EQ(counts[sb.balance_id()], 0);  // Not in the logged mix.
}

class TpccWorkloadTest : public ::testing::Test {
 protected:
  workload::TpccConfig SmallConfig(bool inserts = false) {
    workload::TpccConfig c;
    c.num_warehouses = 2;
    c.districts_per_warehouse = 3;
    c.customers_per_district = 20;
    c.num_items = 50;
    c.orders_per_district = 8;
    c.enable_inserts = inserts;
    return c;
  }
};

TEST_F(TpccWorkloadTest, LoadCountsMatchConfig) {
  storage::Catalog catalog;
  workload::Tpcc tpcc(SmallConfig());
  tpcc.CreateTables(&catalog);
  tpcc.Load(&catalog);
  EXPECT_EQ(catalog.GetTable("WAREHOUSE")->NumKeys(), 2u);
  EXPECT_EQ(catalog.GetTable("DISTRICT")->NumKeys(), 6u);
  EXPECT_EQ(catalog.GetTable("CUSTOMER")->NumKeys(), 2u * 3 * 20);
  EXPECT_EQ(catalog.GetTable("ITEM")->NumKeys(), 50u);
  EXPECT_EQ(catalog.GetTable("STOCK")->NumKeys(), 2u * 50);
  EXPECT_EQ(catalog.GetTable("ORDERS")->NumKeys(), 2u * 3 * 8);
  EXPECT_EQ(catalog.GetTable("ORDER_LINE")->NumKeys(), 2u * 3 * 8 * 10);
}

TEST_F(TpccWorkloadTest, KeyPackingIsInjectivePerTable) {
  // Keys only need to be unique within their own table's key space.
  std::set<Key> district, customer, order, order_line;
  for (int64_t w = 0; w < 4; ++w) {
    for (int64_t d = 0; d < 10; ++d) {
      EXPECT_TRUE(district.insert(workload::Tpcc::DistrictKey(w, d)).second);
      for (int64_t c = 0; c < 30; ++c) {
        EXPECT_TRUE(
            customer.insert(workload::Tpcc::CustomerKey(w, d, c)).second);
      }
      for (int64_t o = 0; o < 8; ++o) {
        EXPECT_TRUE(order.insert(workload::Tpcc::OrderKey(w, d, o)).second);
        for (int64_t n = 0; n < 10; ++n) {
          EXPECT_TRUE(
              order_line.insert(workload::Tpcc::OrderLineKey(w, d, o, n))
                  .second);
        }
      }
    }
  }
}

TEST_F(TpccWorkloadTest, NewOrderAdvancesDistrictAndUpdatesStock) {
  DatabaseOptions opts;
  opts.scheme = logging::LogScheme::kCommand;
  Database db(opts);
  workload::Tpcc tpcc(SmallConfig());
  tpcc.CreateTables(db.catalog());
  tpcc.RegisterProcedures(db.registry());
  tpcc.Load(db.catalog());
  db.FinalizeSchema();

  std::vector<Value> params = {Value(int64_t{0}), Value(int64_t{1}),
                               Value(int64_t{2})};
  for (int64_t k = 0; k < 10; ++k) params.push_back(Value(k));  // Items.
  for (int64_t k = 0; k < 10; ++k) params.push_back(Value(int64_t{2}));

  Timestamp before_ts = db.txn_manager()->LastCommitted();
  Row district_before, stock_before;
  Key dkey = workload::Tpcc::DistrictKey(0, 1);
  Key skey = workload::Tpcc::StockKey(0, 3);
  ASSERT_TRUE(
      db.catalog()->GetTable("DISTRICT")->Read(dkey, before_ts,
                                               &district_before).ok());
  ASSERT_TRUE(db.catalog()
                  ->GetTable("STOCK")
                  ->Read(skey, before_ts, &stock_before)
                  .ok());

  ASSERT_TRUE(db.ExecuteProcedure(tpcc.new_order_id(), params).ok());
  Timestamp after_ts = db.txn_manager()->LastCommitted();
  Row district_after, stock_after;
  ASSERT_TRUE(db.catalog()
                  ->GetTable("DISTRICT")
                  ->Read(dkey, after_ts, &district_after)
                  .ok());
  ASSERT_TRUE(db.catalog()
                  ->GetTable("STOCK")
                  ->Read(skey, after_ts, &stock_after)
                  .ok());
  EXPECT_EQ(district_after[2].AsInt64(),
            district_before[2].AsInt64() + 1);
  EXPECT_EQ(stock_after[0].AsInt64(), stock_before[0].AsInt64() - 2);
  EXPECT_EQ(stock_after[2].AsInt64(), stock_before[2].AsInt64() + 1);
}

TEST_F(TpccWorkloadTest, PaymentUpdatesYtdChain) {
  DatabaseOptions opts;
  opts.scheme = logging::LogScheme::kCommand;
  Database db(opts);
  workload::Tpcc tpcc(SmallConfig());
  tpcc.CreateTables(db.catalog());
  tpcc.RegisterProcedures(db.registry());
  tpcc.Load(db.catalog());
  db.FinalizeSchema();

  std::vector<Value> params = {Value(int64_t{1}), Value(int64_t{0}),
                               Value(int64_t{5}), Value(100.5)};
  Timestamp t0 = db.txn_manager()->LastCommitted();
  Row w0, c0;
  ASSERT_TRUE(db.catalog()->GetTable("WAREHOUSE")->Read(1, t0, &w0).ok());
  Key ckey = workload::Tpcc::CustomerKey(1, 0, 5);
  ASSERT_TRUE(db.catalog()->GetTable("CUSTOMER")->Read(ckey, t0, &c0).ok());
  ASSERT_TRUE(db.ExecuteProcedure(tpcc.payment_id(), params).ok());
  Timestamp t1 = db.txn_manager()->LastCommitted();
  Row w1, c1;
  ASSERT_TRUE(db.catalog()->GetTable("WAREHOUSE")->Read(1, t1, &w1).ok());
  ASSERT_TRUE(db.catalog()->GetTable("CUSTOMER")->Read(ckey, t1, &c1).ok());
  EXPECT_NEAR(w1[2].AsDouble(), w0[2].AsDouble() + 100.5, 1e-9);
  EXPECT_NEAR(c1[0].AsDouble(), c0[0].AsDouble() - 100.5, 1e-9);
  EXPECT_EQ(c1[2].AsInt64(), c0[2].AsInt64() + 1);
}

TEST_F(TpccWorkloadTest, InsertVariantCreatesAndConsumesNewOrders) {
  DatabaseOptions opts;
  opts.scheme = logging::LogScheme::kCommand;
  Database db(opts);
  workload::Tpcc tpcc(SmallConfig(/*inserts=*/true));
  tpcc.CreateTables(db.catalog());
  tpcc.RegisterProcedures(db.registry());
  tpcc.Load(db.catalog());
  db.FinalizeSchema();
  storage::Table* new_order = db.catalog()->GetTable("NEW_ORDER");
  ASSERT_NE(new_order, nullptr);

  std::vector<Value> params = {Value(int64_t{0}), Value(int64_t{0}),
                               Value(int64_t{2})};
  for (int64_t k = 0; k < 10; ++k) params.push_back(Value(k));
  for (int64_t k = 0; k < 10; ++k) params.push_back(Value(int64_t{1}));
  ASSERT_TRUE(db.ExecuteProcedure(tpcc.new_order_id(), params).ok());
  Timestamp t1 = db.txn_manager()->LastCommitted();
  EXPECT_EQ(new_order->VisibleCount(t1), 1u);

  // Deliver order slot 0 of warehouse 0 (the slot NewOrder just used:
  // next_o_id was preloaded at orders_per_district => slot 0).
  std::vector<Value> dparams = {Value(int64_t{0}), Value(int64_t{0}),
                                Value(int64_t{7})};
  ASSERT_TRUE(db.ExecuteProcedure(tpcc.delivery_id(), dparams).ok());
  Timestamp t2 = db.txn_manager()->LastCommitted();
  EXPECT_EQ(new_order->VisibleCount(t2), 0u);  // Consumed (tombstoned).
  EXPECT_EQ(new_order->VisibleCount(t1), 1u);  // Old snapshot intact.
}

TEST_F(TpccWorkloadTest, GeneratorBoundsAndMix) {
  workload::Tpcc tpcc(SmallConfig());
  storage::Catalog catalog;
  proc::ProcedureRegistry registry(&catalog);
  tpcc.CreateTables(&catalog);
  tpcc.RegisterProcedures(&registry);
  Rng rng(11);
  std::vector<Value> params;
  int counts[5] = {0};
  for (int i = 0; i < 5000; ++i) {
    ProcId p = tpcc.NextTransaction(&rng, &params);
    counts[p]++;
    if (p == tpcc.new_order_id()) {
      ASSERT_EQ(params.size(), 23u);
      std::set<int64_t> items;
      for (int k = 3; k < 13; ++k) {
        EXPECT_TRUE(items.insert(params[k].AsInt64()).second)
            << "duplicate item in order";
        EXPECT_LT(params[k].AsInt64(), 50);
      }
    }
  }
  // Mix roughly follows the configured percentages.
  EXPECT_NEAR(counts[tpcc.new_order_id()] / 5000.0, 0.45, 0.05);
  EXPECT_NEAR(counts[tpcc.payment_id()] / 5000.0, 0.43, 0.05);
  EXPECT_GT(counts[tpcc.delivery_id()], 0);
  EXPECT_GT(counts[tpcc.stock_level_id()], 0);
  EXPECT_GT(counts[tpcc.order_status_id()], 0);
}

TEST_F(TpccWorkloadTest, InsertVariantRecoversUnderAllSchemes) {
  struct Case {
    recovery::Scheme scheme;
    logging::LogScheme format;
  };
  const Case cases[] = {
      {recovery::Scheme::kPlr, logging::LogScheme::kPhysical},
      {recovery::Scheme::kLlr, logging::LogScheme::kLogical},
      {recovery::Scheme::kLlrP, logging::LogScheme::kLogical},
      {recovery::Scheme::kClr, logging::LogScheme::kCommand},
      {recovery::Scheme::kClrP, logging::LogScheme::kCommand},
  };
  for (const Case& c : cases) {
    DatabaseOptions opts;
    opts.scheme = c.format;
    opts.commits_per_epoch = 20;
    Database db(opts);
    workload::Tpcc tpcc(SmallConfig(/*inserts=*/true));
    tpcc.CreateTables(db.catalog());
    tpcc.RegisterProcedures(db.registry());
    tpcc.Load(db.catalog());
    db.FinalizeSchema();
    ASSERT_TRUE(db.TryTakeCheckpoint().ok());
    Rng rng(13);
    std::vector<Value> params;
    for (int i = 0; i < 150; ++i) {
      ProcId p = tpcc.NextTransaction(&rng, &params);
      ASSERT_TRUE(db.ExecuteProcedure(p, params).ok());
    }
    const uint64_t pre = db.ContentHash();
    db.Crash();
    recovery::RecoveryOptions ropts;
    ropts.num_threads = 8;
    db.Recover(c.scheme, ropts);
    EXPECT_EQ(db.ContentHash(), pre)
        << recovery::SchemeName(c.scheme) << " insert-variant mismatch";
  }
}

}  // namespace
}  // namespace pacman
