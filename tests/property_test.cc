// Property-based tests: randomized stored procedures are fed through the
// static analysis (whose invariants are checked structurally) and through
// full crash/recovery with every scheme (whose recovered states must all
// equal the pre-crash state). This sweeps procedure shapes no hand-written
// workload covers: random flow/data dependencies, foreign-key patterns,
// nested guards.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>

#include "analysis/chopping.h"
#include "analysis/dependence.h"
#include "analysis/global_graph.h"
#include "common/random.h"
#include "pacman/database.h"

namespace pacman {
namespace {

constexpr int64_t kKeysPerTable = 64;

struct RandomApp {
  int num_tables = 0;
  std::vector<proc::ProcedureDef> defs;  // Unregistered templates.
  std::vector<int> num_params;
};

// Builds a random application: `num_tables` one-column tables and
// `num_procs` procedures of 3-10 abstract ops. Keys come from parameters
// or from previously read values (foreign-key pattern); all values stay in
// [0, kKeysPerTable) so foreign keys always resolve.
RandomApp MakeRandomApp(Rng* rng, int num_tables, int num_procs) {
  using namespace proc;
  RandomApp app;
  app.num_tables = num_tables;
  for (int pi = 0; pi < num_procs; ++pi) {
    const int nparams = 2 + static_cast<int>(rng->Uniform(0, 2));
    ProcedureBuilder b("proc" + std::to_string(pi), nparams);
    const int nops = 3 + static_cast<int>(rng->Uniform(0, 7));
    std::vector<int> locals;
    int guard_depth = 0;
    for (int oi = 0; oi < nops; ++oi) {
      std::string table = "t";
      table += std::to_string(rng->Uniform(0, num_tables - 1));
      // Key: 70% parameter, 30% foreign key from an earlier read.
      ExprPtr key;
      if (!locals.empty() && rng->Bernoulli(0.3)) {
        key = F(locals[rng->Uniform(0, locals.size() - 1)], 0);
      } else {
        key = P(static_cast<int>(rng->Uniform(0, nparams - 1)));
      }
      // Guard regions: open/close with small probability.
      if (guard_depth < 2 && !locals.empty() && rng->Bernoulli(0.2)) {
        b.BeginIf(Gt(F(locals.back(), 0), C(int64_t{kKeysPerTable / 2})));
        guard_depth++;
      }
      if (rng->Bernoulli(0.5)) {
        locals.push_back(b.Read(table, std::move(key)));
      } else if (!locals.empty() && rng->Bernoulli(0.7)) {
        int base = locals[rng->Uniform(0, locals.size() - 1)];
        b.Update(table, std::move(key), base,
                 {{0, Mod(Add(F(base, 0),
                              P(static_cast<int>(
                                  rng->Uniform(0, nparams - 1)))),
                          C(kKeysPerTable))}});
      } else {
        b.WriteRow(table, std::move(key),
                   {Mod(P(static_cast<int>(rng->Uniform(0, nparams - 1))),
                        C(kKeysPerTable))});
      }
      if (guard_depth > 0 && rng->Bernoulli(0.3)) {
        b.EndIf();
        guard_depth--;
      }
    }
    while (guard_depth-- > 0) b.EndIf();
    app.defs.push_back(b.Build());
    app.num_params.push_back(nparams);
  }
  return app;
}

void CreateAndLoadTables(storage::Catalog* catalog, int num_tables) {
  Rng rng(99);
  for (int t = 0; t < num_tables; ++t) {
    storage::Table* table = catalog->CreateTable(
        "t" + std::to_string(t), Schema({{"v", ValueType::kInt64, 0}}));
    for (Key k = 0; k < static_cast<Key>(kKeysPerTable); ++k) {
      table->LoadRow(k, {Value(rng.UniformInt(0, kKeysPerTable - 1))}, 1);
    }
  }
}

class AnalysisPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AnalysisPropertyTest, StaticAnalysisInvariants) {
  Rng rng(GetParam());
  RandomApp app = MakeRandomApp(&rng, 4, 4);

  storage::Catalog catalog;
  proc::ProcedureRegistry registry(&catalog);
  CreateAndLoadTables(&catalog, app.num_tables);
  for (auto& def : app.defs) registry.Register(std::move(def));

  std::vector<analysis::LocalDependencyGraph> ldgs;
  for (const auto& def : registry.procedures()) {
    ldgs.push_back(analysis::BuildLocalGraph(def));
  }

  for (ProcId p = 0; p < registry.size(); ++p) {
    const proc::ProcedureDef& def = registry.Get(p);
    const analysis::LocalDependencyGraph& g = ldgs[p];
    // (1) Slices partition the ops, in ascending program order.
    std::set<OpIndex> seen;
    for (const analysis::Slice& s : g.slices) {
      EXPECT_TRUE(std::is_sorted(s.ops.begin(), s.ops.end()));
      for (OpIndex op : s.ops) EXPECT_TRUE(seen.insert(op).second);
    }
    EXPECT_EQ(seen.size(), def.ops.size());
    // (2) Mutually data-dependent ops share a slice.
    for (OpIndex i = 0; i < def.ops.size(); ++i) {
      for (OpIndex j = i + 1; j < def.ops.size(); ++j) {
        if (analysis::DataDependent(def.ops[i], def.ops[j])) {
          EXPECT_EQ(g.op_to_slice[i], g.op_to_slice[j]);
        }
      }
    }
    // (3) Slice convexity w.r.t. intra-slice flow dependencies.
    for (OpIndex y = 0; y < def.ops.size(); ++y) {
      for (OpIndex x : def.ops[y].flow_deps) {
        if (g.op_to_slice[x] != g.op_to_slice[y]) continue;
        for (OpIndex z = x + 1; z < y; ++z) {
          EXPECT_EQ(g.op_to_slice[z], g.op_to_slice[x])
              << "op between flow-dependent pair escaped the slice";
        }
      }
    }
    // (4) The LDG edge relation matches inter-slice flow deps; the graph
    // is acyclic (checked via DFS).
    std::vector<int> color(g.slices.size(), 0);
    std::function<bool(SliceId)> has_cycle = [&](SliceId s) {
      color[s] = 1;
      for (SliceId c : g.slices[s].children) {
        if (color[c] == 1) return true;
        if (color[c] == 0 && has_cycle(c)) return true;
      }
      color[s] = 2;
      return false;
    };
    for (SliceId s = 0; s < g.slices.size(); ++s) {
      if (color[s] == 0) {
        EXPECT_FALSE(has_cycle(s));
      }
    }
  }

  // GDG invariants.
  analysis::GlobalDependencyGraph gdg =
      analysis::BuildGlobalGraph(ldgs, registry.procedures());
  std::set<std::pair<ProcId, SliceId>> placed;
  for (const analysis::Block& blk : gdg.blocks) {
    for (BlockId dep : blk.deps) EXPECT_LT(dep, blk.id);  // Topological.
    for (const analysis::GlobalSliceRef& ref : blk.member_slices) {
      EXPECT_TRUE(placed.insert({ref.proc, ref.slice}).second);
    }
  }
  for (ProcId p = 0; p < registry.size(); ++p) {
    size_t total = 0;
    for (const analysis::ProcPiece& piece : gdg.proc_pieces[p]) {
      total += piece.ops.size();
    }
    EXPECT_EQ(total, registry.Get(p).ops.size());
  }
  // Every written table lives in exactly one block.
  std::map<std::string, std::set<BlockId>> writers;
  for (ProcId p = 0; p < registry.size(); ++p) {
    for (const analysis::ProcPiece& piece : gdg.proc_pieces[p]) {
      for (OpIndex oi : piece.ops) {
        const proc::Operation& op = registry.Get(p).ops[oi];
        if (op.IsModification()) writers[op.table_name].insert(piece.block);
      }
    }
  }
  for (const auto& [table, blocks] : writers) EXPECT_EQ(blocks.size(), 1u);

  // Chopping invariants on the same app: contiguous serial pieces.
  auto chopped = analysis::BuildChoppingGraphs(registry.procedures());
  for (ProcId p = 0; p < registry.size(); ++p) {
    OpIndex expect = 0;
    for (const analysis::Slice& s : chopped[p].slices) {
      for (OpIndex op : s.ops) EXPECT_EQ(op, expect++);
    }
    EXPECT_EQ(expect, registry.Get(p).ops.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnalysisPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                           42, 1234));

class RecoveryPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RecoveryPropertyTest, AllSchemesRecoverRandomApps) {
  const uint64_t seed = GetParam();
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
  std::vector<uint64_t> recovered_hashes;
  uint64_t expected = 0;
  for (const Case& c : cases) {
    Rng app_rng(seed);  // Same app for every scheme.
    RandomApp app = MakeRandomApp(&app_rng, 4, 4);
    DatabaseOptions opts;
    opts.scheme = c.format;
    opts.commits_per_epoch = 25;
    opts.epochs_per_batch = 2;
    Database db(opts);
    CreateAndLoadTables(db.catalog(), app.num_tables);
    for (auto& def : app.defs) db.registry()->Register(std::move(def));
    db.FinalizeSchema();
    ASSERT_TRUE(db.TryTakeCheckpoint().ok());

    Rng rng(seed * 31 + 7);
    for (int i = 0; i < 200; ++i) {
      ProcId p = static_cast<ProcId>(rng.Uniform(0, app.defs.size() - 1));
      std::vector<Value> params;
      for (int j = 0; j < app.num_params[p]; ++j) {
        params.push_back(Value(rng.UniformInt(0, kKeysPerTable - 1)));
      }
      // Draw the tag unconditionally so the random stream (and thus the
      // transaction sequence) is identical for every scheme.
      bool tagged = rng.Bernoulli(0.15);
      bool adhoc = c.format == logging::LogScheme::kCommand && tagged;
      ASSERT_TRUE(db.ExecuteProcedure(p, params, adhoc).ok());
    }
    const uint64_t pre = db.ContentHash();
    if (expected == 0) expected = pre;
    ASSERT_EQ(pre, expected) << "forward execution diverged across schemes";
    db.Crash();
    recovery::RecoveryOptions ropts;
    ropts.num_threads = 1 + static_cast<uint32_t>(seed % 11);
    db.Recover(c.scheme, ropts);
    EXPECT_EQ(db.ContentHash(), pre)
        << recovery::SchemeName(c.scheme) << " seed " << seed;
    recovered_hashes.push_back(db.ContentHash());
  }
  for (uint64_t h : recovered_hashes) EXPECT_EQ(h, recovered_hashes[0]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecoveryPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

}  // namespace
}  // namespace pacman
