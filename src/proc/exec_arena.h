// Copyright (c) 2026 The PACMAN reproduction authors.
// Per-worker execution arena for compiled procedures.
//
// The VM's per-execution state — registers, local rows, present flags and
// the row-build scratch — lives here and is recycled across transactions:
// Bind() only resets the present flags; registers keep whatever string
// capacity they accumulated (Value copy-assign from a non-string clears
// the type but not the buffer) and rows keep their element capacity. After
// the first few transactions warm a worker's arena, steady-state execution
// performs no heap allocation at all.
//
// Threading: one ExecArena per thread (the users hold it thread_local).
// Forward processing and CLR bind the whole state from the arena. CLR-P
// executes different pieces of one transaction on different threads, so
// the locals/present pair — the only state that crosses piece boundaries —
// lives in a per-transaction VmTxnLocals instead, and BindShared() marries
// it to the calling thread's private registers and scratch: locals are
// per-transaction, registers per-execution.
#ifndef PACMAN_PROC_EXEC_ARENA_H_
#define PACMAN_PROC_EXEC_ARENA_H_

#include <cstring>
#include <vector>

#include "common/macros.h"
#include "common/value.h"
#include "proc/bytecode.h"

namespace pacman::proc {

// The transaction-scoped half of a VM state: local rows plus presence
// flags, shared by all pieces of one replayed transaction (CLR-P).
struct VmTxnLocals {
  std::vector<Row> rows;
  std::vector<uint8_t> present;

  void Reset(size_t num_locals) {
    if (rows.size() < num_locals) rows.resize(num_locals);
    present.assign(num_locals, 0);
  }
};

class ExecArena {
 public:
  ExecArena() = default;
  PACMAN_DISALLOW_COPY_AND_MOVE(ExecArena);

  // Binds full execution state for `prog` from this arena. Valid until the
  // next Bind/BindShared on the same arena.
  VmState Bind(const CompiledProgram& prog,
               const std::vector<Value>* params) {
    VmState st = BindShared(prog, params, nullptr);
    if (local_rows_.size() < prog.num_locals) {
      local_rows_.resize(prog.num_locals);
    }
    if (present_.size() < prog.num_locals) present_.resize(prog.num_locals);
    // Only the presence flags must clear between transactions: a stale row
    // behind present=0 is unreachable (kLoadField / kBeginRow check first),
    // and registers are written before read within every op.
    if (prog.num_locals > 0) {
      std::memset(present_.data(), 0, prog.num_locals);
    }
    st.locals = local_rows_.data();
    st.present = present_.data();
    return st;
  }

  // Binds thread-private registers and scratch from this arena, locals and
  // presence from the caller's per-transaction `shared` (CLR-P). `shared`
  // must already be Reset(prog.num_locals).
  VmState BindShared(const CompiledProgram& prog,
                     const std::vector<Value>* params, VmTxnLocals* shared) {
    PACMAN_DCHECK(params != nullptr);
    if (regs_.size() < prog.num_regs) regs_.resize(prog.num_regs);
    VmState st;
    st.prog = &prog;
    st.params = params;
    st.regs = regs_.data();
    st.scratch = &scratch_;
    if (shared != nullptr) {
      PACMAN_DCHECK(shared->rows.size() >= prog.num_locals &&
                    shared->present.size() >= prog.num_locals);
      st.locals = shared->rows.data();
      st.present = shared->present.data();
    }
    return st;
  }

 private:
  std::vector<Value> regs_;
  std::vector<Row> local_rows_;   // Bind()-mode locals.
  std::vector<uint8_t> present_;  // Bind()-mode presence flags.
  Row scratch_;
};

}  // namespace pacman::proc

#endif  // PACMAN_PROC_EXEC_ARENA_H_
