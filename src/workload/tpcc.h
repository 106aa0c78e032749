// Copyright (c) 2026 The PACMAN reproduction authors.
// TPC-C benchmark in the paper's insert-disabled variant (§6.1.1: "we
// disabled the insert operations in the original benchmark so that the
// database size will not grow without bound").
//
// Adaptations:
//  - ORDERS / ORDER_LINE are preloaded ring buffers of `orders_per_district`
//    slots per district; NewOrder overwrites the slot at
//    next_o_id % orders_per_district instead of inserting, and Delivery
//    takes the order slot as a parameter instead of consuming NEW_ORDER.
//  - HISTORY (insert-only) is dropped.
//  - Delivery reads one representative ORDER_LINE per district instead of
//    summing all lines (bounds the op count per template).
// The access patterns the paper's analysis depends on are preserved:
// read-modify-write on DISTRICT/STOCK/CUSTOMER and the foreign-key pattern
// in Delivery (customer key read from the ORDERS row, §4.3.1).
#ifndef PACMAN_WORKLOAD_TPCC_H_
#define PACMAN_WORKLOAD_TPCC_H_

#include <vector>

#include "common/random.h"
#include "common/types.h"
#include "common/value.h"
#include "proc/registry.h"
#include "storage/catalog.h"

namespace pacman {
class Database;
}  // namespace pacman

namespace pacman::workload {

struct TpccConfig {
  int64_t num_warehouses = 4;
  int64_t districts_per_warehouse = 10;
  int64_t customers_per_district = 300;
  int64_t num_items = 1000;
  int64_t orders_per_district = 32;
  int64_t items_per_order = 10;  // Fixed ol_cnt (template has fixed arity).
  // Standard-mix weights (read-only StockLevel/OrderStatus included).
  int new_order_pct = 45;
  int payment_pct = 43;
  int delivery_pct = 4;
  int stock_level_pct = 4;  // Remainder goes to OrderStatus.
  // When true, NewOrder additionally *inserts* a NEW_ORDER row and
  // Delivery *deletes* it — the spec's behaviour that the paper disabled
  // to bound memory (§6.1.1). The insert-enabled variant exercises
  // insert/delete replay through every recovery scheme.
  bool enable_inserts = false;
};

class Tpcc {
 public:
  explicit Tpcc(TpccConfig config = TpccConfig{}) : config_(config) {}

  void CreateTables(storage::Catalog* catalog);
  void RegisterProcedures(proc::ProcedureRegistry* registry);
  void Load(storage::Catalog* catalog);

  // CreateTables + RegisterProcedures + Load against a Database — the
  // session-API setup used by examples and clients (no raw internals).
  void Install(Database* db);

  ProcId NextTransaction(Rng* rng, std::vector<Value>* params) const;

  // Key packing (also used by tests).
  static Key DistrictKey(int64_t w, int64_t d) {
    return (static_cast<Key>(w) << 8) | static_cast<Key>(d);
  }
  static Key CustomerKey(int64_t w, int64_t d, int64_t c) {
    return (DistrictKey(w, d) << 16) | static_cast<Key>(c);
  }
  static Key StockKey(int64_t w, int64_t i) {
    return (static_cast<Key>(w) << 20) | static_cast<Key>(i);
  }
  static Key OrderKey(int64_t w, int64_t d, int64_t o) {
    return (DistrictKey(w, d) << 16) | static_cast<Key>(o);
  }
  static Key OrderLineKey(int64_t w, int64_t d, int64_t o, int64_t n) {
    return (OrderKey(w, d, o) << 4) | static_cast<Key>(n);
  }

  ProcId new_order_id() const { return new_order_id_; }
  ProcId payment_id() const { return payment_id_; }
  ProcId delivery_id() const { return delivery_id_; }
  ProcId stock_level_id() const { return stock_level_id_; }
  ProcId order_status_id() const { return order_status_id_; }
  const TpccConfig& config() const { return config_; }

 private:
  TpccConfig config_;
  ProcId new_order_id_ = 0;
  ProcId payment_id_ = 0;
  ProcId delivery_id_ = 0;
  ProcId stock_level_id_ = 0;
  ProcId order_status_id_ = 0;
};

}  // namespace pacman::workload

#endif  // PACMAN_WORKLOAD_TPCC_H_
