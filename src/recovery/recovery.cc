#include "recovery/recovery.h"

#include <algorithm>
#include <string>
#include <unordered_map>

namespace pacman::recovery {

const char* SchemeName(Scheme s) {
  switch (s) {
    case Scheme::kPlr:
      return "PLR";
    case Scheme::kLlr:
      return "LLR";
    case Scheme::kLlrP:
      return "LLR-P";
    case Scheme::kClr:
      return "CLR";
    case Scheme::kClrP:
      return "CLR-P";
  }
  return "?";
}

void MergeBatchGroup(const logging::LogBatch* const* fragments, size_t n,
                     std::vector<const logging::LogRecord*>* out) {
  size_t total = 0;
  for (size_t i = 0; i < n; ++i) total += fragments[i]->records.size();
  out->reserve(total);
  for (size_t i = 0; i < n; ++i) {
    for (const logging::LogRecord& r : fragments[i]->records) {
      out->push_back(&r);
    }
  }
  std::sort(out->begin(), out->end(),
            [](const logging::LogRecord* a, const logging::LogRecord* b) {
              return a->commit_ts < b->commit_ts;
            });
}

void PriceStats(const CostModel& costs, Scheme scheme, uint32_t threads,
                const std::vector<device::StorageDevice*>& ssds,
                RecoveryStats* stats) {
  sim::Work total;
  for (sim::GroupId g = 0; g < stats->work.size(); ++g) {
    stats->breakdown += costs.Price(stats->work[g], scheme, threads,
                                    g < ssds.size() ? ssds[g] : nullptr);
    total += stats->work[g];
  }
  stats->records_replayed = total.records;
  stats->tuples_restored = total.writes + total.tuples_installed;
  stats->latch_acquisitions = total.latched_writes;
}

sim::TaskId AddReloadStage(const std::vector<GlobalBatch>& batches,
                           size_t index, const BatchGates* gates,
                           const std::vector<device::StorageDevice*>& ssds,
                           sim::TaskGraph* graph,
                           std::function<sim::Work()> on_deserialize) {
  const GlobalBatch& batch = batches[index];
  std::vector<sim::TaskId> ios;
  uint64_t batch_bytes = 0;
  for (const auto& [ssd_index, bytes] : batch.files) {
    batch_bytes += bytes;
    ios.push_back(graph->AddTask(SsdGroup(ssd_index), batch.seq, [bytes] {
      return sim::Work{.device_read_bytes = bytes};
    }));
  }
  const sim::TaskId deser = graph->AddTask(
      CpuGroup(static_cast<uint32_t>(ssds.size())), batch.seq,
      [batch_bytes, setup = std::move(on_deserialize)] {
        sim::Work work = setup ? setup() : sim::Work();
        work.bytes_deserialized += batch_bytes;
        return work;
      });
  for (sim::TaskId io : ios) graph->AddEdge(io, deser);
  if (gates != nullptr) graph->AddEdge(gates->tasks[index], deser);
  return deser;
}

void AddReleaseStage(const std::vector<GlobalBatch>& batches, size_t index,
                     const BatchGates* gates,
                     const std::vector<sim::TaskId>& replayed,
                     sim::GroupId group, sim::TaskGraph* graph,
                     std::function<void()> free_state) {
  if (gates == nullptr) return;
  const sim::TaskId release = graph->AddTask(
      group, batches[index].seq,
      [gates, batch = &batches[index], index, free = std::move(free_state)] {
        // Records ascend by commit TID, and go with the release below.
        if (!batch->records.empty()) {
          const Timestamp last = batch->records.back()->commit_ts;
          Timestamp cur = gates->horizon.load(std::memory_order_relaxed);
          while (cur < last && !gates->horizon.compare_exchange_weak(
                                   cur, last, std::memory_order_release,
                                   std::memory_order_relaxed)) {
          }
        }
        if (free) free();
        gates->release(index);
        return sim::Work();
      });
  for (sim::TaskId t : replayed) graph->AddEdge(t, release);
}

Status PerKeyOrderVerifier::Check(const GlobalBatch& batch) {
  for (const logging::LogRecord* rec : batch.records) {
    for (const logging::WriteImage& img : rec->writes) {
      if (img.table >= last_cts_.size()) last_cts_.resize(img.table + 1);
      auto [it, inserted] = last_cts_[img.table].emplace(img.key,
                                                         rec->commit_ts);
      if (!inserted) {
        if (it->second >= rec->commit_ts) {
          return Status::Corruption(
              "per-key commit order violated: table " +
              std::to_string(img.table) + " key " +
              std::to_string(img.key) + " has TID " +
              std::to_string(rec->commit_ts) + " after TID " +
              std::to_string(it->second));
        }
        it->second = rec->commit_ts;
      }
    }
  }
  return Status::Ok();
}

}  // namespace pacman::recovery
