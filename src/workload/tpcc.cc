#include "workload/tpcc.h"

#include "pacman/database.h"

#include "common/macros.h"
#include "proc/expr.h"
#include "proc/procedure.h"

namespace pacman::workload {

using proc::Add;
using proc::C;
using proc::Exists;
using proc::Expr;
using proc::ExprPtr;
using proc::F;
using proc::Mod;
using proc::Mul;
using proc::P;
using proc::Sub;

namespace {

// Expression-level key packers mirroring the static helpers.
ExprPtr DistrictKeyE(ExprPtr w, ExprPtr d) {
  return Expr::Pack({std::move(w), std::move(d)}, {0, 8});
}
ExprPtr CustomerKeyE(ExprPtr w, ExprPtr d, ExprPtr c) {
  return Expr::Pack({std::move(w), std::move(d), std::move(c)}, {0, 8, 16});
}
ExprPtr StockKeyE(ExprPtr w, ExprPtr i) {
  return Expr::Pack({std::move(w), std::move(i)}, {0, 20});
}
ExprPtr OrderKeyE(ExprPtr w, ExprPtr d, ExprPtr o) {
  return Expr::Pack({std::move(w), std::move(d), std::move(o)}, {0, 8, 16});
}
ExprPtr OrderLineKeyE(ExprPtr w, ExprPtr d, ExprPtr o, ExprPtr n) {
  return Expr::Pack({std::move(w), std::move(d), std::move(o), std::move(n)},
                    {0, 8, 16, 4});
}

}  // namespace

void Tpcc::CreateTables(storage::Catalog* catalog) {
  catalog->CreateTable(
      "WAREHOUSE",
      Schema({{"name", ValueType::kString, 10},
              {"tax", ValueType::kDouble, 0},
              {"ytd", ValueType::kDouble, 0}}));
  catalog->CreateTable(
      "DISTRICT",
      Schema({{"tax", ValueType::kDouble, 0},
              {"ytd", ValueType::kDouble, 0},
              {"next_o_id", ValueType::kInt64, 0}}));
  catalog->CreateTable(
      "CUSTOMER",
      Schema({{"balance", ValueType::kDouble, 0},
              {"ytd_payment", ValueType::kDouble, 0},
              {"payment_cnt", ValueType::kInt64, 0},
              {"delivery_cnt", ValueType::kInt64, 0},
              {"discount", ValueType::kDouble, 0},
              // c_data is up to 500 chars in the TPC-C spec; row sizes
              // drive the tuple-level log volume (Table 1).
              {"data", ValueType::kString, 500}}));
  catalog->CreateTable(
      "ITEM",
      Schema({{"price", ValueType::kDouble, 0},
              {"name", ValueType::kString, 24}}));
  catalog->CreateTable(
      "STOCK",
      Schema({{"quantity", ValueType::kInt64, 0},
              {"ytd", ValueType::kInt64, 0},
              {"order_cnt", ValueType::kInt64, 0},
              // s_dist_01..s_dist_10 are ten 24-char fields in the spec.
              {"dist_info", ValueType::kString, 240},
              {"data", ValueType::kString, 50}}));
  catalog->CreateTable(
      "ORDERS",
      Schema({{"c_id", ValueType::kInt64, 0},
              {"carrier_id", ValueType::kInt64, 0},
              {"ol_cnt", ValueType::kInt64, 0}}));
  catalog->CreateTable(
      "ORDER_LINE",
      Schema({{"i_id", ValueType::kInt64, 0},
              {"quantity", ValueType::kInt64, 0},
              {"amount", ValueType::kDouble, 0},
              {"dist_info", ValueType::kString, 24}}));
  if (config_.enable_inserts) {
    catalog->CreateTable(
        "NEW_ORDER", Schema({{"o_id", ValueType::kInt64, 0}}));
  }
}

void Tpcc::RegisterProcedures(proc::ProcedureRegistry* registry) {
  const auto n_orders = static_cast<int64_t>(config_.orders_per_district);
  const int k_items = static_cast<int>(config_.items_per_order);

  {
    // NewOrder(w, d, c, i[0..9], qty[0..9]).
    std::vector<ValueType> sig(3 + 2 * static_cast<size_t>(k_items),
                               ValueType::kInt64);
    proc::ProcedureBuilder b("NewOrder", std::move(sig));
    int lw = b.Read("WAREHOUSE", P(0));
    int ld = b.Read("DISTRICT", DistrictKeyE(P(0), P(1)));
    b.Update("DISTRICT", DistrictKeyE(P(0), P(1)), ld,
             {{2, Add(F(ld, 2), C(int64_t{1}))}});
    int lc = b.Read("CUSTOMER", CustomerKeyE(P(0), P(1), P(2)));
    // The order slot is a ring buffer: o = next_o_id % orders_per_district.
    ExprPtr o_slot = Mod(F(ld, 2), C(n_orders));
    b.WriteRow("ORDERS", OrderKeyE(P(0), P(1), o_slot),
               {P(2), C(int64_t{0}), C(static_cast<int64_t>(k_items))});
    for (int k = 0; k < k_items; ++k) {
      int li = b.Read("ITEM", P(3 + k));
      int ls = b.Read("STOCK", StockKeyE(P(0), P(3 + k)));
      b.Update("STOCK", StockKeyE(P(0), P(3 + k)), ls,
               {{0, Sub(F(ls, 0), P(3 + k_items + k))},
                {1, Add(F(ls, 1), P(3 + k_items + k))},
                {2, Add(F(ls, 2), C(int64_t{1}))}});
      // amount = qty * price * (1 + w_tax + d_tax) * (1 - c_discount).
      ExprPtr amount =
          Mul(Mul(P(3 + k_items + k), F(li, 0)),
              Mul(Add(C(1.0), Add(F(lw, 1), F(ld, 0))),
                  Sub(C(1.0), F(lc, 4))));
      b.WriteRow("ORDER_LINE",
                 OrderLineKeyE(P(0), P(1), o_slot, C(static_cast<int64_t>(k))),
                 {P(3 + k), P(3 + k_items + k), amount, C(std::string("DIST"))});
    }
    if (config_.enable_inserts) {
      // Spec behaviour: a NEW_ORDER row marks the order undelivered. The
      // ring-buffer slot may still hold an undelivered marker when the
      // order ids wrap around; the guard skips the insert then.
      int lno = b.Read("NEW_ORDER", OrderKeyE(P(0), P(1), o_slot));
      b.BeginIf(proc::Expr::Not(Exists(lno)));
      b.Insert("NEW_ORDER", OrderKeyE(P(0), P(1), o_slot), {F(ld, 2)});
      b.EndIf();
    }
    new_order_id_ = registry->Register(b.Build());
  }
  {
    // Payment(w, d, c, amount).
    proc::ProcedureBuilder b("Payment",
                             {ValueType::kInt64, ValueType::kInt64,
                              ValueType::kInt64, ValueType::kDouble});
    int lw = b.Read("WAREHOUSE", P(0));
    b.Update("WAREHOUSE", P(0), lw, {{2, Add(F(lw, 2), P(3))}});
    int ld = b.Read("DISTRICT", DistrictKeyE(P(0), P(1)));
    b.Update("DISTRICT", DistrictKeyE(P(0), P(1)), ld,
             {{1, Add(F(ld, 1), P(3))}});
    int lc = b.Read("CUSTOMER", CustomerKeyE(P(0), P(1), P(2)));
    b.Update("CUSTOMER", CustomerKeyE(P(0), P(1), P(2)), lc,
             {{0, Sub(F(lc, 0), P(3))},
              {1, Add(F(lc, 1), P(3))},
              {2, Add(F(lc, 2), C(int64_t{1}))}});
    payment_id_ = registry->Register(b.Build());
  }
  {
    // Delivery(w, o_slot, carrier). One round over all districts; the
    // customer key comes from the ORDERS row (foreign-key pattern).
    proc::ProcedureBuilder b(
        "Delivery",
        {ValueType::kInt64, ValueType::kInt64, ValueType::kInt64});
    for (int64_t d = 0; d < config_.districts_per_warehouse; ++d) {
      ExprPtr dk = C(d);
      int lo = b.Read("ORDERS", OrderKeyE(P(0), dk, P(1)));
      b.Update("ORDERS", OrderKeyE(P(0), dk, P(1)), lo, {{1, P(2)}});
      if (config_.enable_inserts) {
        // Consume the NEW_ORDER entry (delete), as in the spec.
        b.Delete("NEW_ORDER", OrderKeyE(P(0), dk, P(1)));
      }
      int lol = b.Read("ORDER_LINE",
                       OrderLineKeyE(P(0), dk, P(1), C(int64_t{0})));
      int lc = b.Read("CUSTOMER", CustomerKeyE(P(0), dk, F(lo, 0)));
      b.Update("CUSTOMER", CustomerKeyE(P(0), dk, F(lo, 0)), lc,
               {{0, Add(F(lc, 0), F(lol, 2))},
                {3, Add(F(lc, 3), C(int64_t{1}))}});
    }
    delivery_id_ = registry->Register(b.Build());
  }
  {
    // StockLevel(w, d, i) — read-only.
    proc::ProcedureBuilder b(
        "StockLevel",
        {ValueType::kInt64, ValueType::kInt64, ValueType::kInt64});
    int ld = b.Read("DISTRICT", DistrictKeyE(P(0), P(1)));
    ExprPtr last_slot =
        Mod(Add(F(ld, 2), C(n_orders - 1)), C(n_orders));
    int lol = b.Read("ORDER_LINE",
                     OrderLineKeyE(P(0), P(1), last_slot, C(int64_t{0})));
    b.Read("STOCK", StockKeyE(P(0), F(lol, 0)));
    b.Read("STOCK", StockKeyE(P(0), P(2)));
    stock_level_id_ = registry->Register(b.Build());
  }
  {
    // OrderStatus(w, d, c, o_slot) — read-only.
    proc::ProcedureBuilder b("OrderStatus",
                             {ValueType::kInt64, ValueType::kInt64,
                              ValueType::kInt64, ValueType::kInt64});
    b.Read("CUSTOMER", CustomerKeyE(P(0), P(1), P(2)));
    int lo = b.Read("ORDERS", OrderKeyE(P(0), P(1), P(3)));
    (void)lo;
    b.Read("ORDER_LINE", OrderLineKeyE(P(0), P(1), P(3), C(int64_t{0})));
    order_status_id_ = registry->Register(b.Build());
  }
}

void Tpcc::Install(Database* db) {
  CreateTables(db->catalog());
  RegisterProcedures(db->registry());
  Load(db->catalog());
}

void Tpcc::Load(storage::Catalog* catalog) {
  Rng rng(1234);
  storage::Table* w_t = catalog->GetTable("WAREHOUSE");
  storage::Table* d_t = catalog->GetTable("DISTRICT");
  storage::Table* c_t = catalog->GetTable("CUSTOMER");
  storage::Table* i_t = catalog->GetTable("ITEM");
  storage::Table* s_t = catalog->GetTable("STOCK");
  storage::Table* o_t = catalog->GetTable("ORDERS");
  storage::Table* ol_t = catalog->GetTable("ORDER_LINE");

  for (int64_t i = 0; i < config_.num_items; ++i) {
    i_t->LoadRow(i,
                 {Value(1.0 + static_cast<double>(rng.UniformInt(0, 9900)) /
                                  100.0),
                  Value(rng.AlphaString(24))},
                 1);
  }
  for (int64_t w = 0; w < config_.num_warehouses; ++w) {
    w_t->LoadRow(w,
                 {Value(rng.AlphaString(10)),
                  Value(static_cast<double>(rng.UniformInt(0, 20)) / 100.0),
                  Value(300000.0)},
                 1);
    for (int64_t i = 0; i < config_.num_items; ++i) {
      s_t->LoadRow(StockKey(w, i),
                   {Value(rng.UniformInt(10, 100)), Value(int64_t{0}),
                    Value(int64_t{0}), Value(rng.AlphaString(240)),
                    Value(rng.AlphaString(50))},
                   1);
    }
    for (int64_t d = 0; d < config_.districts_per_warehouse; ++d) {
      d_t->LoadRow(
          DistrictKey(w, d),
          {Value(static_cast<double>(rng.UniformInt(0, 20)) / 100.0),
           Value(30000.0), Value(config_.orders_per_district)},
          1);
      for (int64_t c = 0; c < config_.customers_per_district; ++c) {
        c_t->LoadRow(
            CustomerKey(w, d, c),
            {Value(-10.0), Value(10.0), Value(int64_t{1}), Value(int64_t{0}),
             Value(static_cast<double>(rng.UniformInt(0, 50)) / 100.0),
             Value(rng.AlphaString(500))},
            1);
      }
      for (int64_t o = 0; o < config_.orders_per_district; ++o) {
        o_t->LoadRow(
            OrderKey(w, d, o),
            {Value(rng.UniformInt(0, config_.customers_per_district - 1)),
             Value(int64_t{0}), Value(config_.items_per_order)},
            1);
        for (int64_t n = 0; n < config_.items_per_order; ++n) {
          ol_t->LoadRow(
              OrderLineKey(w, d, o, n),
              {Value(rng.UniformInt(0, config_.num_items - 1)),
               Value(rng.UniformInt(1, 10)),
               Value(static_cast<double>(rng.UniformInt(1, 9999)) / 100.0),
               Value(rng.AlphaString(24))},
              1);
        }
      }
    }
  }
}

ProcId Tpcc::NextTransaction(Rng* rng, std::vector<Value>* params) const {
  params->clear();
  const int64_t w = rng->UniformInt(0, config_.num_warehouses - 1);
  const int64_t d = rng->UniformInt(0, config_.districts_per_warehouse - 1);
  const int pick = static_cast<int>(rng->Uniform(0, 99));
  if (pick < config_.new_order_pct) {
    const int64_t c =
        rng->NuRand(1023, 0, config_.customers_per_district - 1);
    params->assign({Value(w), Value(d), Value(c)});
    // Distinct item ids per order.
    std::vector<int64_t> items;
    while (items.size() < static_cast<size_t>(config_.items_per_order)) {
      int64_t i = rng->NuRand(8191, 0, config_.num_items - 1);
      bool dup = false;
      for (int64_t x : items) dup = dup || (x == i);
      if (!dup) items.push_back(i);
    }
    for (int64_t i : items) params->push_back(Value(i));
    for (int64_t k = 0; k < config_.items_per_order; ++k) {
      params->push_back(Value(rng->UniformInt(1, 10)));
    }
    return new_order_id_;
  }
  if (pick < config_.new_order_pct + config_.payment_pct) {
    const int64_t c =
        rng->NuRand(1023, 0, config_.customers_per_district - 1);
    params->assign({Value(w), Value(d), Value(c),
                    Value(static_cast<double>(rng->UniformInt(100, 500000)) /
                          100.0)});
    return payment_id_;
  }
  if (pick <
      config_.new_order_pct + config_.payment_pct + config_.delivery_pct) {
    params->assign({Value(w),
                    Value(rng->UniformInt(0, config_.orders_per_district - 1)),
                    Value(rng->UniformInt(1, 10))});
    return delivery_id_;
  }
  if (pick < config_.new_order_pct + config_.payment_pct +
                 config_.delivery_pct + config_.stock_level_pct) {
    params->assign({Value(w), Value(d),
                    Value(rng->UniformInt(0, config_.num_items - 1))});
    return stock_level_id_;
  }
  params->assign({Value(w), Value(d),
                  Value(rng->NuRand(1023, 0,
                                    config_.customers_per_district - 1)),
                  Value(rng->UniformInt(0, config_.orders_per_district - 1))});
  return order_status_id_;
}

}  // namespace pacman::workload
