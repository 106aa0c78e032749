// Copyright (c) 2026 The PACMAN reproduction authors.
// Per-worker execution arena for compiled procedures.
//
// The VM's per-execution state — registers, locals and the row-build
// scratch — lives here and is recycled across transactions. A local is a
// view: a pointer to the packed row bytes of the version its read resolved
// to, null when the row is absent (proc/access.h), so Bind() only nulls
// the locals; registers keep whatever string capacity they accumulated
// (Value copy-assign from a non-string clears the type but not the
// buffer). After the first few transactions warm a worker's arena, reads,
// field loads, guards and row building allocate nothing: kWriteRow hands
// the access context the scratch row by reference and leaves it, with its
// capacity, in place. What a write keeps (the transaction's copy forward,
// the new version under replay) is the context's own allocation.
//
// Threading: one ExecArena per thread (the users hold it thread_local).
// Forward processing and CLR bind the whole state from the arena. CLR-P
// executes different pieces of one transaction on different threads, so
// the locals — the only state that crosses piece boundaries — live in a
// per-transaction VmTxnLocals instead, and BindShared() marries them to
// the calling thread's private registers and scratch: locals are
// per-transaction, registers per-execution.
#ifndef PACMAN_PROC_EXEC_ARENA_H_
#define PACMAN_PROC_EXEC_ARENA_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "common/value.h"
#include "proc/bytecode.h"

namespace pacman::proc {

// The transaction-scoped half of a VM state, shared by all pieces of one
// replayed transaction (CLR-P): one view per local, null until its read
// finds a row.
struct VmTxnLocals {
  std::vector<const uint8_t*> rows;

  void Reset(size_t num_locals) { rows.assign(num_locals, nullptr); }
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
    if (locals_.size() < prog.num_locals) locals_.resize(prog.num_locals);
    // Only the locals must clear between transactions (a stale view would
    // point into a previous transaction's rows); registers are written
    // before read within every op.
    std::fill_n(locals_.data(), prog.num_locals, nullptr);
    st.locals = locals_.data();
    return st;
  }

  // Binds thread-private registers and scratch from this arena, locals
  // from the caller's per-transaction `shared` (CLR-P). `shared` must
  // already be Reset(prog.num_locals).
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
      PACMAN_DCHECK(shared->rows.size() >= prog.num_locals);
      st.locals = shared->rows.data();
    }
    return st;
  }

 private:
  std::vector<Value> regs_;
  std::vector<const uint8_t*> locals_;  // Bind()-mode locals.
  Row scratch_;
};

}  // namespace pacman::proc

#endif  // PACMAN_PROC_EXEC_ARENA_H_
