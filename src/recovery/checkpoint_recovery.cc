#include "recovery/checkpoint_recovery.h"

#include <string>

#include "common/macros.h"
#include "recovery/log_pipeline.h"

namespace pacman::recovery {

void BuildCheckpointRecovery(const logging::CheckpointMeta& meta,
                             CheckpointPrefetch& prefetch,
                             const std::vector<device::StorageDevice*>& ssds,
                             storage::Catalog* catalog,
                             const RecoveryOptions& options,
                             sim::TaskGraph* graph) {
  const sim::GroupId cpu = CpuGroup(static_cast<uint32_t>(ssds.size()));
  const bool reload_only = options.reload_only;

  for (uint32_t d = 0; d < meta.num_ssds; ++d) {
    for (uint32_t f = 0; f < meta.files_per_ssd; ++f) {
      const std::string name =
          logging::Checkpointer::StripeFileName(meta.id, d, f);
      const uint64_t bytes = ssds[d]->FileSize(name);
      sim::TaskId io = graph->AddTask(SsdGroup(d), /*priority=*/f, [bytes] {
        return sim::Work{.device_read_bytes = bytes};
      });
      const Timestamp ts = meta.ts;
      sim::TaskId load = graph->AddTask(cpu, /*priority=*/f, [=, &prefetch] {
        const logging::CheckpointStripe stripe = prefetch.TakeStripe(d, f);
        sim::Work work{.bytes_deserialized = stripe.bytes.size()};
        // Each record's row is checked, then copied into its version as it
        // stands: one allocation and one memcpy per tuple.
        const Status s = logging::ForEachStripeTuple(
            stripe, [&](const logging::StripeTuple& t) {
              if (reload_only) return;
              ++work.tuples_installed;
              storage::Table* table = catalog->GetTable(t.table);
              PACMAN_CHECK_MSG(table != nullptr,
                               ("checkpoint stripe " + name +
                                ": unknown table " + std::to_string(t.table))
                                   .c_str());
              table->LoadRow(t.key, t.row, t.row_size, ts);
            });
        PACMAN_CHECK_MSG(
            s.ok(), ("checkpoint stripe " + name + ": " + s.message()).c_str());
        return work;
      });
      graph->AddEdge(io, load);
    }
  }
}

}  // namespace pacman::recovery
