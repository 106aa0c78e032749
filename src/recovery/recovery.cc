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
                     uint32_t num_ssds, Timestamp checkpoint_ts, Epoch pepoch,
                     GlobalBatch* out) {
  size_t total = 0;
  for (size_t i = 0; i < n; ++i) total += fragments[i]->records.size();
  out->records.reserve(total);
  out->files.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const logging::LogBatch& b = *fragments[i];
    out->seq = b.seq;
    out->files.emplace_back(b.logger_id % num_ssds, b.file_bytes);
    for (const logging::LogRecord& r : b.records) {
      if (r.commit_ts > checkpoint_ts && r.epoch <= pepoch) {
        out->records.push_back(&r);
      }
    }
  }
  std::sort(out->records.begin(), out->records.end(),
            [](const logging::LogRecord* a, const logging::LogRecord* b) {
              return a->commit_ts < b->commit_ts;
            });
}

sim::TaskId AddReloadStage(const std::vector<GlobalBatch>& batches,
                           size_t index,
                           const std::vector<sim::TaskId>* batch_gates,
                           const std::vector<device::StorageDevice*>& ssds,
                           const CostModel& costs, sim::TaskGraph* graph,
                           RecoveryCounters* counters,
                           std::function<void()> on_deserialize) {
  const GlobalBatch& batch = batches[index];
  std::vector<sim::TaskId> ios;
  size_t batch_bytes = 0;
  for (const auto& [ssd_index, bytes] : batch.files) {
    const double io_cost = ssds[ssd_index]->ReadSeconds(bytes);
    batch_bytes += bytes;
    ios.push_back(graph->AddTask(SsdGroup(ssd_index), batch.seq,
                                 [counters, io_cost] {
                                   counters->AddLoading(io_cost);
                                   return io_cost;
                                 }));
  }
  const double deser_cost =
      static_cast<double>(batch_bytes) * costs.deserialize_byte;
  const sim::TaskId deser = graph->AddTask(
      CpuGroup(static_cast<uint32_t>(ssds.size())), batch.seq,
      [counters, deser_cost, setup = std::move(on_deserialize)] {
        if (setup) setup();
        counters->AddLoading(deser_cost);
        return deser_cost;
      });
  for (sim::TaskId io : ios) graph->AddEdge(io, deser);
  if (batch_gates != nullptr) graph->AddEdge((*batch_gates)[index], deser);
  return deser;
}

Status PerKeyOrderVerifier::Check(const GlobalBatch& batch) {
  for (const logging::LogRecord* rec : batch.records) {
    for (const logging::WriteImage& img : rec->writes) {
      // (table, key) packed the way clr_p.cc packs conflict-chain keys:
      // workload keys stay under 56 bits, so the packing is exact.
      const uint64_t packed =
          (static_cast<uint64_t>(img.table) << 56) | img.key;
      auto [it, inserted] = last_cts_.emplace(packed, rec->commit_ts);
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
