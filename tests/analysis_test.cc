// Tests for the static analysis: slice decomposition (Algorithm 1), the
// global dependency graph (Algorithm 2) and the transaction-chopping
// baseline. The bank example's expected structure is given in the paper
// (Figs. 3 and 5).
#include "analysis/global_graph.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "analysis/chopping.h"
#include "analysis/dependence.h"
#include "analysis/local_graph.h"
#include "proc/registry.h"
#include "storage/catalog.h"
#include "workload/bank.h"
#include "workload/tpcc.h"

namespace pacman::analysis {
namespace {

class BankAnalysisTest : public ::testing::Test {
 protected:
  BankAnalysisTest() : registry_(&catalog_) {
    bank_.CreateTables(&catalog_);
    bank_.RegisterProcedures(&registry_);
    for (const auto& def : registry_.procedures()) {
      ldgs_.push_back(BuildLocalGraph(def));
    }
    gdg_ = BuildGlobalGraph(ldgs_, registry_.procedures());
  }

  const LocalDependencyGraph& transfer_ldg() {
    return ldgs_[bank_.transfer_id()];
  }
  const LocalDependencyGraph& deposit_ldg() {
    return ldgs_[bank_.deposit_id()];
  }

  storage::Catalog catalog_;
  proc::ProcedureRegistry registry_;
  workload::Bank bank_;
  std::vector<LocalDependencyGraph> ldgs_;
  GlobalDependencyGraph gdg_;
};

TEST_F(BankAnalysisTest, TransferDecomposesIntoThreeSlices) {
  // Fig. 3: T1 = {Family read}, T2 = {4 Current ops}, T3 = {2 Saving ops}.
  const LocalDependencyGraph& g = transfer_ldg();
  ASSERT_EQ(g.slices.size(), 3u);
  EXPECT_EQ(g.slices[0].ops, (std::vector<OpIndex>{0}));
  EXPECT_EQ(g.slices[1].ops, (std::vector<OpIndex>{1, 2, 3, 4}));
  EXPECT_EQ(g.slices[2].ops, (std::vector<OpIndex>{5, 6}));
  // Fig. 5a: T2 and T3 flow-depend on T1.
  EXPECT_EQ(g.slices[1].deps, (std::vector<SliceId>{0}));
  EXPECT_EQ(g.slices[2].deps, (std::vector<SliceId>{0}));
  EXPECT_EQ(g.slices[0].children, (std::vector<SliceId>{1, 2}));
}

TEST_F(BankAnalysisTest, DepositDecomposesIntoThreeSlices) {
  // Fig. 4: D1 = {Current}, D2 = {Saving}, D3 = {Stats}.
  const LocalDependencyGraph& g = deposit_ldg();
  ASSERT_EQ(g.slices.size(), 3u);
  EXPECT_EQ(g.slices[0].ops, (std::vector<OpIndex>{0, 1}));
  EXPECT_EQ(g.slices[1].ops, (std::vector<OpIndex>{2, 3}));
  EXPECT_EQ(g.slices[2].ops, (std::vector<OpIndex>{4, 5}));
  // Fig. 5b: D2 and D3 flow-depend on D1.
  EXPECT_EQ(g.slices[1].deps, (std::vector<SliceId>{0}));
  EXPECT_EQ(g.slices[2].deps, (std::vector<SliceId>{0}));
}

TEST_F(BankAnalysisTest, GdgMatchesFig5c) {
  // Fig. 5c: four blocks. B_alpha = {T1}; B_beta = {T2, D1} (both touch
  // Current); B_gamma = {T3, D2} (Saving); B_delta = {D3} (Stats).
  ASSERT_EQ(gdg_.NumBlocks(), 4u);

  auto block_of = [&](ProcId p, SliceId s) -> BlockId {
    for (const Block& b : gdg_.blocks) {
      for (const GlobalSliceRef& ref : b.member_slices) {
        if (ref.proc == p && ref.slice == s) return b.id;
      }
    }
    ADD_FAILURE() << "slice not found";
    return 0;
  };
  const ProcId t = bank_.transfer_id(), d = bank_.deposit_id();
  BlockId alpha = block_of(t, 0);
  BlockId beta = block_of(t, 1);
  BlockId gamma = block_of(t, 2);
  BlockId delta = block_of(d, 2);
  EXPECT_EQ(beta, block_of(d, 0));   // T2 and D1 share a block.
  EXPECT_EQ(gamma, block_of(d, 1));  // T3 and D2 share a block.
  std::set<BlockId> all = {alpha, beta, gamma, delta};
  EXPECT_EQ(all.size(), 4u);

  // Dependencies: beta on alpha; gamma on {alpha, beta}; delta on beta.
  EXPECT_EQ(gdg_.blocks[beta].deps, (std::vector<BlockId>{alpha}));
  EXPECT_EQ(gdg_.blocks[gamma].deps, (std::vector<BlockId>{alpha, beta}));
  EXPECT_EQ(gdg_.blocks[delta].deps, (std::vector<BlockId>{beta}));
}

TEST_F(BankAnalysisTest, BlockIdsAreTopological) {
  for (const Block& b : gdg_.blocks) {
    for (BlockId dep : b.deps) EXPECT_LT(dep, b.id);
  }
}

TEST_F(BankAnalysisTest, ProcPiecesCoverAllOpsExactlyOnce) {
  for (ProcId p = 0; p < registry_.size(); ++p) {
    std::set<OpIndex> seen;
    for (const ProcPiece& piece : gdg_.proc_pieces[p]) {
      for (OpIndex op : piece.ops) {
        EXPECT_TRUE(seen.insert(op).second) << "op in two pieces";
      }
    }
    EXPECT_EQ(seen.size(), registry_.Get(p).ops.size());
  }
}

TEST_F(BankAnalysisTest, DotExportsContainAllNodes) {
  std::string local =
      LocalGraphToDot(transfer_ldg(), registry_.Get(bank_.transfer_id()));
  EXPECT_NE(local.find("Slice 0"), std::string::npos);
  EXPECT_NE(local.find("digraph"), std::string::npos);
  std::string global = GlobalGraphToDot(gdg_, registry_.procedures());
  EXPECT_NE(global.find("Block 0"), std::string::npos);
  EXPECT_NE(global.find("Transfer/S0"), std::string::npos);
}

TEST_F(BankAnalysisTest, ChoppingIsCoarserThanPacman) {
  std::vector<LocalDependencyGraph> chopped =
      BuildChoppingGraphs(registry_.procedures());
  ASSERT_EQ(chopped.size(), 2u);
  size_t pacman_slices = 0, chopping_pieces = 0;
  for (const auto& g : ldgs_) pacman_slices += g.slices.size();
  for (const auto& g : chopped) chopping_pieces += g.slices.size();
  // §7: chopping's correctness condition yields coarser decompositions.
  EXPECT_LE(chopping_pieces, pacman_slices);
  // Chopping pieces chain serially.
  for (const auto& g : chopped) {
    for (SliceId s = 1; s < g.slices.size(); ++s) {
      EXPECT_EQ(g.slices[s].deps, (std::vector<SliceId>{s - 1}));
    }
  }
}

// An operation of `type` on table `table`.
proc::Operation TableOp(proc::OpType type, std::string table) {
  proc::Operation op;
  op.type = type;
  op.table_name = std::move(table);
  return op;
}

TEST(DependenceTest, TableLevelDataDependence) {
  const proc::Operation read_t = TableOp(proc::OpType::kRead, "T");
  const proc::Operation write_t = TableOp(proc::OpType::kWrite, "T");
  const proc::Operation read_u = TableOp(proc::OpType::kRead, "U");
  EXPECT_TRUE(DataDependent(read_t, write_t));
  EXPECT_FALSE(DataDependent(read_t, read_u));
  EXPECT_FALSE(DataDependent(read_t, read_t));  // Read-read: no dep.
  const proc::Operation del_t = TableOp(proc::OpType::kDelete, "T");
  EXPECT_TRUE(DataDependent(del_t, write_t));  // Write-write: dep.
}

TEST(UnionFindTest, Basics) {
  UnionFind uf(5);
  EXPECT_FALSE(uf.Same(0, 4));
  uf.Union(0, 4);
  uf.Union(4, 2);
  EXPECT_TRUE(uf.Same(0, 2));
  EXPECT_EQ(uf.Find(2), 0u);  // Min root is kept.
  EXPECT_FALSE(uf.Same(1, 3));
}

TEST(TpccAnalysisTest, GdgIsConsistent) {
  storage::Catalog catalog;
  proc::ProcedureRegistry registry(&catalog);
  workload::Tpcc tpcc;
  tpcc.CreateTables(&catalog);
  tpcc.RegisterProcedures(&registry);
  std::vector<LocalDependencyGraph> ldgs;
  for (const auto& def : registry.procedures()) {
    ldgs.push_back(BuildLocalGraph(def));
  }
  GlobalDependencyGraph gdg = BuildGlobalGraph(ldgs, registry.procedures());
  ASSERT_GT(gdg.NumBlocks(), 1u);
  // Topological ids and piece coverage.
  for (const Block& b : gdg.blocks) {
    for (BlockId dep : b.deps) EXPECT_LT(dep, b.id);
  }
  for (ProcId p = 0; p < registry.size(); ++p) {
    std::set<OpIndex> seen;
    for (const ProcPiece& piece : gdg.proc_pieces[p]) {
      EXPECT_TRUE(std::is_sorted(piece.ops.begin(), piece.ops.end()));
      for (OpIndex op : piece.ops) EXPECT_TRUE(seen.insert(op).second);
    }
    EXPECT_EQ(seen.size(), registry.Get(p).ops.size());
  }
  // Any table written anywhere must live in exactly one block.
  std::map<std::string, std::set<BlockId>> writers;
  for (ProcId p = 0; p < registry.size(); ++p) {
    for (const ProcPiece& piece : gdg.proc_pieces[p]) {
      for (OpIndex oi : piece.ops) {
        const proc::Operation& op = registry.Get(p).ops[oi];
        if (op.IsModification()) writers[op.table_name].insert(piece.block);
      }
    }
  }
  for (const auto& [table, blocks] : writers) {
    EXPECT_EQ(blocks.size(), 1u) << table << " written in several blocks";
  }
}

}  // namespace
}  // namespace pacman::analysis
