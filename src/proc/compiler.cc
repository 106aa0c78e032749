#include "proc/compiler.h"

#include <algorithm>
#include <map>

#include "proc/expr.h"
#include "storage/table.h"

namespace pacman::proc {

namespace {

// Constant-pool equality: type-exact, unlike Value::operator== (which
// compares 1 and 1.0 equal — pooling those together would change the type
// of downstream arithmetic).
bool SameConstant(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case ValueType::kNull:
      return true;
    case ValueType::kInt64:
      return a.AsInt64() == b.AsInt64();
    case ValueType::kDouble:
      return a.AsDouble() == b.AsDouble();
    case ValueType::kString:
      return a.AsStringView() == b.AsStringView();
  }
  return false;
}

// The locals whose presence an expression's evaluation requires, collected
// once at compile time. Only kField needs the local present; kLocalExists
// is resolvable regardless.
void CollectFieldLocals(const Expr& e, std::vector<uint16_t>* out) {
  if (e.kind() == ExprKind::kField) {
    out->push_back(static_cast<uint16_t>(e.index()));
  }
  for (const ExprPtr& c : e.children()) CollectFieldLocals(*c, out);
}

std::vector<uint16_t> FieldLocals(const Expr& e) {
  std::vector<uint16_t> out;
  CollectFieldLocals(e, &out);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

class Compiler {
 public:
  Compiler(const ProcedureDef& def, storage::Catalog* catalog)
      : catalog_(catalog) {
    prog_.def = &def;
    prog_.num_locals = static_cast<uint16_t>(def.num_locals);
  }

  CompiledProgram Run(const analysis::LocalDependencyGraph* ldg,
                      const analysis::LocalDependencyGraph* chopping) {
    const ProcedureDef& def = *prog_.def;
    prog_.ops.reserve(def.ops.size());
    for (OpIndex i = 0; i < def.ops.size(); ++i) {
      CompileOp(def.ops[i]);
    }
    CompileBody();
    prog_.results.reserve(def.results.size());
    for (const ExprPtr& e : def.results) CompileResult(*e);
    BuildSummary(ldg, chopping);
    return std::move(prog_);
  }

 private:
  void EmitInstr(BcOp op, uint16_t dst, Operand a, Operand b,
                 uint16_t c = 0) {
    prog_.code.push_back(Instr{op, dst, a, b, c});
  }

  uint16_t AllocReg() {
    PACMAN_CHECK(op_regs_ < kOperandIndexMask);
    uint16_t r = op_regs_++;
    if (op_regs_ > prog_.num_regs) prog_.num_regs = op_regs_;
    return r;
  }

  Operand InternConstant(const Value& v) {
    for (size_t i = 0; i < prog_.constants.size(); ++i) {
      if (SameConstant(prog_.constants[i], v)) {
        return kOperandConst | static_cast<Operand>(i);
      }
    }
    PACMAN_CHECK(prog_.constants.size() < kOperandIndexMask);
    prog_.constants.push_back(v);  // Copy materializes borrowed strings.
    return kOperandConst | static_cast<Operand>(prog_.constants.size() - 1);
  }

  uint16_t InternTable(TableId id) {
    PACMAN_CHECK(id != kInvalidTableId);
    for (size_t i = 0; i < prog_.table_ids.size(); ++i) {
      if (prog_.table_ids[i] == id) return static_cast<uint16_t>(i);
    }
    prog_.table_ids.push_back(id);
    prog_.tables.push_back(catalog_->GetTable(id));
    return static_cast<uint16_t>(prog_.table_ids.size() - 1);
  }

  // Postorder lowering; constant/param leaves cost no instructions.
  Operand CompileExpr(const Expr& e) {
    switch (e.kind()) {
      case ExprKind::kConstant:
        return InternConstant(e.constant());
      case ExprKind::kParam:
        PACMAN_CHECK(e.index() >= 0 && e.index() <= kOperandIndexMask);
        return kOperandParam | static_cast<Operand>(e.index());
      case ExprKind::kField: {
        uint16_t r = AllocReg();
        EmitInstr(BcOp::kLoadField, r, static_cast<Operand>(e.index()),
                  static_cast<Operand>(e.column()));
        return r;
      }
      case ExprKind::kLocalExists: {
        uint16_t r = AllocReg();
        EmitInstr(BcOp::kLoadExists, r, static_cast<Operand>(e.index()), 0);
        return r;
      }
      case ExprKind::kNot: {
        Operand a = CompileExpr(*e.children()[0]);
        uint16_t r = AllocReg();
        EmitInstr(BcOp::kNot, r, a, 0);
        return r;
      }
      case ExprKind::kPack: {
        // Children first (their instructions), then the (operand, bits)
        // pairs into aux so the fold is a single instruction.
        std::vector<Operand> parts;
        parts.reserve(e.children().size());
        for (const ExprPtr& c : e.children()) {
          parts.push_back(CompileExpr(*c));
        }
        uint16_t aux_start = static_cast<uint16_t>(prog_.aux.size());
        for (size_t i = 0; i < parts.size(); ++i) {
          prog_.aux.push_back(parts[i]);
          prog_.aux.push_back(static_cast<uint16_t>(e.pack_bits()[i]));
        }
        uint16_t r = AllocReg();
        EmitInstr(BcOp::kPack, r, aux_start,
                  static_cast<Operand>(parts.size()));
        return r;
      }
      default: {
        Operand a = CompileExpr(*e.children()[0]);
        Operand b = CompileExpr(*e.children()[1]);
        uint16_t r = AllocReg();
        EmitInstr(BinaryOp(e.kind()), r, a, b);
        return r;
      }
    }
  }

  static BcOp BinaryOp(ExprKind kind) {
    switch (kind) {
      case ExprKind::kAdd: return BcOp::kAdd;
      case ExprKind::kSub: return BcOp::kSub;
      case ExprKind::kMul: return BcOp::kMul;
      case ExprKind::kEq: return BcOp::kEq;
      case ExprKind::kNe: return BcOp::kNe;
      case ExprKind::kLt: return BcOp::kLt;
      case ExprKind::kLe: return BcOp::kLe;
      case ExprKind::kGt: return BcOp::kGt;
      case ExprKind::kGe: return BcOp::kGe;
      case ExprKind::kAnd: return BcOp::kAnd;
      case ExprKind::kOr: return BcOp::kOr;
      case ExprKind::kMod: return BcOp::kMod;
      default:
        PACMAN_CHECK(false);
        return BcOp::kAdd;
    }
  }

  void CompileOp(const Operation& op) {
    CompiledOp cop;
    // Each op's registers restart at zero: no register value crosses op
    // boundaries (data flows through locals), so the register file stays
    // the per-op maximum rather than the per-procedure sum.
    op_regs_ = 0;
    cop.begin = static_cast<uint32_t>(prog_.code.size());
    size_t guard_jump = 0;
    if (op.guard) {
      cop.has_guard = true;
      cop.guard_begin = cop.begin;
      cop.guard_operand = CompileExpr(*op.guard);
      cop.guard_end = static_cast<uint32_t>(prog_.code.size());
      cop.guard_field_locals = FieldLocals(*op.guard);
      guard_jump = prog_.code.size();
      EmitInstr(BcOp::kJumpIfFalse, 0, cop.guard_operand, 0);
    }
    cop.key_begin = static_cast<uint32_t>(prog_.code.size());
    cop.key_operand = CompileExpr(*op.key);
    cop.key_end = static_cast<uint32_t>(prog_.code.size());
    cop.key_field_locals = FieldLocals(*op.key);
    cop.table = op.table_id;
    cop.table_slot = InternTable(op.table_id);
    cop.is_write = op.IsModification();
    EmitAccess(op, cop.table_slot, cop.key_operand);
    cop.end = static_cast<uint32_t>(prog_.code.size());
    if (op.guard) {
      PACMAN_CHECK(cop.end <= 0xFFFF);  // Jump targets are 16-bit.
      prog_.code[guard_jump].dst = static_cast<uint16_t>(cop.end);
    }
    prog_.ops.push_back(std::move(cop));
  }

  // The operational part of an op — key evaluation already done, emit the
  // data access. Shared by the per-op self-contained range and the grouped
  // linear body.
  void EmitAccess(const Operation& op, uint16_t table_slot, Operand key) {
    switch (op.type) {
      case OpType::kRead:
        EmitInstr(BcOp::kReadRow, static_cast<uint16_t>(op.output_local),
                  table_slot, key);
        break;
      case OpType::kWrite:
      case OpType::kInsert:
        CompileRowBuild(op);
        EmitInstr(BcOp::kWriteRow, 0, table_slot, key,
                  op.type == OpType::kInsert ? 1 : 0);
        break;
      case OpType::kDelete:
        EmitInstr(BcOp::kDeleteRow, 0, table_slot, key);
        break;
    }
  }

  // The linear body VmExecuteAll runs (forward processing and CLR replay).
  // Consecutive ops sharing the same guard expression — one if-region; the
  // builder hands every op of a region the identical ExprPtr — evaluate it
  // once, with a single jump over the whole group. That is safe because
  // locals are single-assignment and a guard can only reference locals
  // defined before its region, so nothing inside the group can change the
  // guard's value. Piece-level VmExecuteOps, whose per-op ranges keep
  // their own guard, re-evaluates it per op; the value is identical, so
  // results stay bit-equal.
  void CompileBody() {
    const ProcedureDef& def = *prog_.def;
    prog_.body_begin = static_cast<uint32_t>(prog_.code.size());
    size_t i = 0;
    while (i < def.ops.size()) {
      const Expr* guard = def.ops[i].guard.get();
      size_t j = i + 1;
      while (j < def.ops.size() && def.ops[j].guard.get() == guard) ++j;
      size_t guard_jump = 0;
      op_regs_ = 0;
      if (guard != nullptr) {
        Operand g = CompileExpr(*guard);
        guard_jump = prog_.code.size();
        EmitInstr(BcOp::kJumpIfFalse, 0, g, 0);
      }
      for (size_t k = i; k < j; ++k) {
        const Operation& op = def.ops[k];
        // The guard register was consumed by the jump; each op may reuse
        // the file from zero (write-before-read within an op).
        op_regs_ = 0;
        Operand key = CompileExpr(*op.key);
        EmitAccess(op, InternTable(op.table_id), key);
      }
      if (guard != nullptr) {
        PACMAN_CHECK(prog_.code.size() <= 0xFFFF);
        prog_.code[guard_jump].dst =
            static_cast<uint16_t>(prog_.code.size());
      }
      i = j;
    }
    prog_.body_end = static_cast<uint32_t>(prog_.code.size());
  }

  // A full-row spec builds from scratch; otherwise start from the base
  // local (when present) and apply the column updates.
  void CompileRowBuild(const Operation& op) {
    if (!op.full_row.empty()) {
      EmitInstr(BcOp::kBeginRow, 0, kNoBaseLocal, 0);
      for (const ExprPtr& e : op.full_row) {
        Operand v = CompileExpr(*e);
        EmitInstr(BcOp::kAppendCol, 0, v, 0);
      }
      return;
    }
    EmitInstr(BcOp::kBeginRow, 0,
              op.base_local >= 0 ? static_cast<Operand>(op.base_local)
                                 : kNoBaseLocal,
              0);
    for (const auto& [col, e] : op.updates) {
      Operand v = CompileExpr(*e);
      EmitInstr(BcOp::kSetCol, 0, static_cast<Operand>(col), v);
    }
  }

  void CompileResult(const Expr& e) {
    CompiledResult res;
    op_regs_ = 0;
    res.begin = static_cast<uint32_t>(prog_.code.size());
    res.operand = CompileExpr(e);
    res.end = static_cast<uint32_t>(prog_.code.size());
    res.field_locals = FieldLocals(e);
    prog_.results.push_back(std::move(res));
  }

  void BuildSummary(const analysis::LocalDependencyGraph* ldg,
                    const analysis::LocalDependencyGraph* chopping) {
    const ProcedureDef& def = *prog_.def;
    StaticAccessSummary& s = prog_.summary;
    std::map<TableId, size_t> writes_per_table;
    for (OpIndex i = 0; i < def.ops.size(); ++i) {
      const Operation& op = def.ops[i];
      StaticAccessSummary::OpAccess acc;
      acc.op = i;
      acc.table = op.table_id;
      acc.is_write = op.IsModification();
      acc.guarded = op.guard != nullptr;
      acc.key_expr = op.key->ToString();
      s.accesses.push_back(std::move(acc));
      if (op.IsModification()) {
        s.num_writes++;
        writes_per_table[op.table_id]++;
        s.canonical_write_order.push_back(i);
      } else {
        s.num_reads++;
      }
    }
    // One execution can write one key per modification op; two ops on the
    // same table may still hit the same key, so aliasing is ruled out only
    // when every written table has exactly one writer op.
    s.writes_may_alias = false;
    for (const auto& [table, count] : writes_per_table) {
      if (count > 1) s.writes_may_alias = true;
    }
    // Every access sharing one key expression means every execution
    // resolves them all to a single key value — statically single-shard
    // under any hash partitioning of the key space.
    s.single_shard_static = !s.accesses.empty();
    for (const StaticAccessSummary::OpAccess& acc : s.accesses) {
      if (acc.key_expr != s.accesses[0].key_expr) {
        s.single_shard_static = false;
        break;
      }
    }
    // Canonical lock order: by table id, program order within a table
    // (runtime keys break the remaining ties at commit time).
    std::stable_sort(s.canonical_write_order.begin(),
                     s.canonical_write_order.end(),
                     [&def](OpIndex a, OpIndex b) {
                       return def.ops[a].table_id < def.ops[b].table_id;
                     });
    if (ldg != nullptr) {
      for (const analysis::Slice& slice : ldg->slices) {
        s.slices.push_back(slice.ops);
      }
    }
    if (chopping != nullptr) {
      for (const analysis::Slice& piece : chopping->slices) {
        s.chopping_pieces.push_back(piece.ops);
      }
    }
  }

  storage::Catalog* catalog_;
  CompiledProgram prog_;
  uint16_t op_regs_ = 0;
};

}  // namespace

CompiledProgram CompileProcedure(
    const ProcedureDef& def, storage::Catalog* catalog,
    const analysis::LocalDependencyGraph* ldg,
    const analysis::LocalDependencyGraph* chopping) {
  Compiler c(def, catalog);
  return c.Run(ldg, chopping);
}

void ProgramSet::Build(
    const ProcedureRegistry& registry, storage::Catalog* catalog,
    const std::vector<analysis::LocalDependencyGraph>& ldgs,
    const std::vector<analysis::LocalDependencyGraph>& chopping) {
  programs_.clear();
  programs_.reserve(registry.size());
  for (ProcId p = 0; p < registry.size(); ++p) {
    const analysis::LocalDependencyGraph* ldg =
        p < ldgs.size() ? &ldgs[p] : nullptr;
    const analysis::LocalDependencyGraph* chop =
        p < chopping.size() ? &chopping[p] : nullptr;
    programs_.push_back(
        CompileProcedure(registry.Get(p), catalog, ldg, chop));
  }
}

}  // namespace pacman::proc
