#include "workload/smallbank.h"

#include "pacman/database.h"
#include "proc/expr.h"
#include "proc/procedure.h"

namespace pacman::workload {

using proc::Add;
using proc::C;
using proc::F;
using proc::Ge;
using proc::P;
using proc::Sub;

void Smallbank::CreateTables(storage::Catalog* catalog) {
  catalog->CreateTable("Accounts", Schema({{"name", ValueType::kString, 24}}));
  catalog->CreateTable("Savings", Schema({{"balance", ValueType::kDouble, 0}}));
  catalog->CreateTable(
      "Checking", Schema({{"balance", ValueType::kDouble, 0}}));
}

void Smallbank::RegisterProcedures(proc::ProcedureRegistry* registry) {
  {
    // Amalgamate(src, dst): move everything from src into dst's checking.
    proc::ProcedureBuilder b("Amalgamate",
                             {ValueType::kInt64, ValueType::kInt64});
    int sav = b.Read("Savings", P(0));
    int chk = b.Read("Checking", P(0));
    b.Update("Savings", P(0), sav, {{0, C(0.0)}});
    b.Update("Checking", P(0), chk, {{0, C(0.0)}});
    int dst = b.Read("Checking", P(1));
    b.Update("Checking", P(1), dst,
             {{0, Add(F(dst, 0), Add(F(sav, 0), F(chk, 0)))}});
    amalgamate_id_ = registry->Register(b.Build());
  }
  {
    // DepositChecking(acct, amount).
    proc::ProcedureBuilder b(
        "DepositChecking", {ValueType::kInt64, ValueType::kDouble});
    int chk = b.Read("Checking", P(0));
    b.Update("Checking", P(0), chk, {{0, Add(F(chk, 0), P(1))}});
    deposit_checking_id_ = registry->Register(b.Build());
  }
  {
    // SendPayment(src, dst, amount): checking-to-checking transfer.
    proc::ProcedureBuilder b(
        "SendPayment",
        {ValueType::kInt64, ValueType::kInt64, ValueType::kDouble});
    int src = b.Read("Checking", P(0));
    b.BeginIf(Ge(F(src, 0), P(2)));
    b.Update("Checking", P(0), src, {{0, Sub(F(src, 0), P(2))}});
    int dst = b.Read("Checking", P(1));
    b.Update("Checking", P(1), dst, {{0, Add(F(dst, 0), P(2))}});
    b.EndIf();
    send_payment_id_ = registry->Register(b.Build());
  }
  {
    // TransactSavings(acct, amount).
    proc::ProcedureBuilder b(
        "TransactSavings", {ValueType::kInt64, ValueType::kDouble});
    int sav = b.Read("Savings", P(0));
    b.Update("Savings", P(0), sav, {{0, Add(F(sav, 0), P(1))}});
    transact_savings_id_ = registry->Register(b.Build());
  }
  {
    // WriteCheck(acct, amount): deduct from checking; overdraft penalty $1
    // when savings + checking cannot cover the check.
    proc::ProcedureBuilder b("WriteCheck",
                             {ValueType::kInt64, ValueType::kDouble});
    int sav = b.Read("Savings", P(0));
    int chk = b.Read("Checking", P(0));
    b.BeginIf(Ge(Add(F(sav, 0), F(chk, 0)), P(1)));
    b.Update("Checking", P(0), chk, {{0, Sub(F(chk, 0), P(1))}});
    b.EndIf();
    b.BeginIf(proc::Lt(Add(F(sav, 0), F(chk, 0)), P(1)));
    b.Update("Checking", P(0), chk,
             {{0, Sub(Sub(F(chk, 0), P(1)), C(1.0))}});
    b.EndIf();
    write_check_id_ = registry->Register(b.Build());
  }
  {
    // Balance(acct): read-only; produces no log records.
    proc::ProcedureBuilder b("Balance", {ValueType::kInt64});
    int sav = b.Read("Savings", P(0));
    int chk = b.Read("Checking", P(0));
    // Results: savings, checking, and their sum (the client-visible
    // answer of this read-only procedure).
    b.Emit(F(sav, 0));
    b.Emit(F(chk, 0));
    b.Emit(Add(F(sav, 0), F(chk, 0)));
    balance_id_ = registry->Register(b.Build());
  }
}

void Smallbank::Install(Database* db) {
  CreateTables(db->catalog());
  RegisterProcedures(db->registry());
  Load(db->catalog());
}

void Smallbank::Load(storage::Catalog* catalog) {
  storage::Table* accounts = catalog->GetTable("Accounts");
  storage::Table* savings = catalog->GetTable("Savings");
  storage::Table* checking = catalog->GetTable("Checking");
  Rng rng(7);
  for (int64_t a = 0; a < config_.num_accounts; ++a) {
    accounts->LoadRow(a, {Value("acct_" + std::to_string(a))}, 1);
    savings->LoadRow(
        a, {Value(1000.0 + static_cast<double>(rng.UniformInt(0, 9000)))},
        1);
    checking->LoadRow(
        a, {Value(50.0 + static_cast<double>(rng.UniformInt(0, 950)))}, 1);
  }
}

int64_t Smallbank::PickAccount(Rng* rng) const {
  if (rng->Bernoulli(config_.hotspot_fraction)) {
    return rng->UniformInt(0, config_.hotspot_size - 1);
  }
  return rng->UniformInt(0, config_.num_accounts - 1);
}

ProcId Smallbank::NextTransaction(Rng* rng,
                                  std::vector<Value>* params) const {
  params->clear();
  const uint64_t pick = rng->Uniform(0, 99);
  const int64_t a = PickAccount(rng);
  const auto amount =
      static_cast<double>(rng->UniformInt(1, 100));
  if (pick < 15) {  // Amalgamate.
    int64_t d = PickAccount(rng);
    if (d == a) d = (d + 1) % config_.num_accounts;
    params->assign({Value(a), Value(d)});
    return amalgamate_id_;
  }
  if (pick < 40) {  // DepositChecking.
    params->assign({Value(a), Value(amount)});
    return deposit_checking_id_;
  }
  if (pick < 65) {  // SendPayment.
    int64_t d = PickAccount(rng);
    if (d == a) d = (d + 1) % config_.num_accounts;
    params->assign({Value(a), Value(d), Value(amount)});
    return send_payment_id_;
  }
  if (pick < 85) {  // TransactSavings.
    params->assign({Value(a), Value(amount)});
    return transact_savings_id_;
  }
  // WriteCheck.
  params->assign({Value(a), Value(amount)});
  return write_check_id_;
}

}  // namespace pacman::workload
