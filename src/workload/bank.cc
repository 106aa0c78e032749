#include "workload/bank.h"

#include "pacman/database.h"
#include "proc/expr.h"
#include "proc/procedure.h"

namespace pacman::workload {

using proc::Add;
using proc::And;
using proc::C;
using proc::Exists;
using proc::F;
using proc::Ge;
using proc::Gt;
using proc::Mul;
using proc::P;
using proc::Sub;

void Bank::CreateTables(storage::Catalog* catalog) {
  catalog->CreateTable("Family", Schema({{"spouse", ValueType::kInt64, 0}}));
  catalog->CreateTable("Current", Schema({{"value", ValueType::kDouble, 0}}));
  catalog->CreateTable("Saving", Schema({{"value", ValueType::kDouble, 0}}));
  catalog->CreateTable("Stats", Schema({{"count", ValueType::kInt64, 0}}));
}

void Bank::RegisterProcedures(proc::ProcedureRegistry* registry) {
  {
    // Fig. 2a: Transfer(src, amount).
    proc::ProcedureBuilder b("Transfer",
                             {ValueType::kInt64, ValueType::kDouble});
    int fam = b.Read("Family", P(0));  // dst <- read(Family, src).
    // "dst != NULL": the row exists and names a spouse (>= 0).
    b.BeginIf(And(Exists(fam), Ge(F(fam, 0), C(int64_t{0}))));
    int src_cur = b.Read("Current", P(0));
    b.Update("Current", P(0), src_cur, {{0, Sub(F(src_cur, 0), P(1))}});
    int dst_cur = b.Read("Current", F(fam, 0));
    b.Update("Current", F(fam, 0), dst_cur,
             {{0, Add(F(dst_cur, 0), P(1))}});
    int sav = b.Read("Saving", P(0));
    b.Update("Saving", P(0), sav, {{0, Add(F(sav, 0), C(1.0))}});
    b.EndIf();
    // Results: did the transfer branch run, and src's new balance (Null
    // when the guard skipped the branch).
    b.Emit(Exists(src_cur));
    b.Emit(Sub(F(src_cur, 0), P(1)));
    transfer_id_ = registry->Register(b.Build());
  }
  {
    // Fig. 4: Deposit(name, amount, nation).
    proc::ProcedureBuilder b(
        "Deposit",
        {ValueType::kInt64, ValueType::kDouble, ValueType::kInt64});
    int cur = b.Read("Current", P(0));
    b.Update("Current", P(0), cur, {{0, Add(F(cur, 0), P(1))}});
    b.BeginIf(Gt(Add(F(cur, 0), P(1)), C(10000.0)));
    int sav = b.Read("Saving", P(0));
    b.Update("Saving", P(0), sav,
             {{0, Add(F(sav, 0), Mul(C(0.02), F(cur, 0)))}});
    int st = b.Read("Stats", P(2));
    b.Update("Stats", P(2), st, {{0, Add(F(st, 0), C(int64_t{1}))}});
    b.EndIf();
    // Result: the account's new Current balance.
    b.Emit(Add(F(cur, 0), P(1)));
    deposit_id_ = registry->Register(b.Build());
  }
}

ProcId Bank::RegisterBalance(proc::ProcedureRegistry* registry) {
  // Balance(user): pure read — commits with an empty write set, so a
  // database in read-only degraded mode keeps serving it.
  proc::ProcedureBuilder b("Balance", {ValueType::kInt64});
  int cur = b.Read("Current", P(0));
  int sav = b.Read("Saving", P(0));
  b.Emit(F(cur, 0));
  b.Emit(F(sav, 0));
  balance_id_ = registry->Register(b.Build());
  return balance_id_;
}

void Bank::Install(Database* db) {
  CreateTables(db->catalog());
  RegisterProcedures(db->registry());
  Load(db->catalog());
}

void Bank::Load(storage::Catalog* catalog) {
  storage::Table* family = catalog->GetTable("Family");
  storage::Table* current = catalog->GetTable("Current");
  storage::Table* saving = catalog->GetTable("Saving");
  storage::Table* stats = catalog->GetTable("Stats");
  Rng rng(42);
  for (int64_t u = 0; u < config_.num_users; ++u) {
    int64_t spouse = (u % 2 == 0) ? u + 1 : u - 1;
    if (rng.Bernoulli(config_.single_fraction) ||
        spouse >= config_.num_users) {
      spouse = -1;
    }
    family->LoadRow(u, {Value(spouse)}, 1);
    current->LoadRow(u, {Value(1000.0 + static_cast<double>(u % 97))}, 1);
    saving->LoadRow(u, {Value(5000.0)}, 1);
  }
  for (int64_t n = 0; n < config_.num_nations; ++n) {
    stats->LoadRow(n, {Value(int64_t{0})}, 1);
  }
}

ProcId Bank::NextTransaction(Rng* rng, std::vector<Value>* params) const {
  params->clear();
  if (rng->Bernoulli(0.5)) {
    params->push_back(Value(rng->UniformInt(0, config_.num_users - 1)));
    params->push_back(Value(static_cast<double>(rng->UniformInt(1, 100))));
    return transfer_id_;
  }
  params->push_back(Value(rng->UniformInt(0, config_.num_users - 1)));
  params->push_back(Value(static_cast<double>(rng->UniformInt(1, 12000))));
  params->push_back(Value(rng->UniformInt(0, config_.num_nations - 1)));
  return deposit_id_;
}

}  // namespace pacman::workload
