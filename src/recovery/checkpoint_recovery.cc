#include "recovery/checkpoint_recovery.h"

#include <string>

#include "common/macros.h"
#include "recovery/log_pipeline.h"

namespace pacman::recovery {

sim::MachineConfig StandardMachine(uint32_t num_ssds, uint32_t num_threads) {
  sim::MachineConfig config;
  for (uint32_t d = 0; d < num_ssds; ++d) {
    config.cores_per_group.push_back(1);  // Each device is a serial server.
  }
  config.cores_per_group.push_back(num_threads);  // CPU pool.
  return config;
}

void BuildCheckpointRecovery(const logging::CheckpointMeta& meta,
                             CheckpointPrefetch& prefetch,
                             const std::vector<device::StorageDevice*>& ssds,
                             storage::Catalog* catalog, Scheme scheme,
                             const RecoveryOptions& options,
                             sim::TaskGraph* graph,
                             RecoveryCounters* counters) {
  const CostModel cm = options.costs;
  const auto num_ssds = static_cast<uint32_t>(ssds.size());
  const sim::GroupId cpu = CpuGroup(num_ssds);

  // Per-tuple install cost for this scheme (see header).
  double install_cost = cm.load_tuple;
  if (scheme != Scheme::kPlr) install_cost += cm.index_insert;
  if (scheme != Scheme::kPlr && scheme != Scheme::kLlr) {
    install_cost += cm.ckpt_install_extra;
  }
  const bool reload_only = options.reload_only;

  for (uint32_t d = 0; d < meta.num_ssds; ++d) {
    for (uint32_t f = 0; f < meta.files_per_ssd; ++f) {
      const std::string name =
          logging::Checkpointer::StripeFileName(meta.id, d, f);
      const size_t bytes = ssds[d]->FileSize(name);
      const double io_cost = ssds[d]->ReadSeconds(bytes);

      sim::TaskId io = graph->AddTask(SsdGroup(d), /*priority=*/f,
                                      [counters, io_cost] {
                                        counters->AddLoading(io_cost);
                                        return io_cost;
                                      });
      const Timestamp ts = meta.ts;
      sim::TaskId load = graph->AddTask(cpu, /*priority=*/f, [=, &prefetch] {
        const logging::CheckpointStripe stripe = prefetch.TakeStripe(d, f);
        double deser =
            static_cast<double>(stripe.bytes.size()) * cm.deserialize_byte;
        counters->AddLoading(deser);
        // Each record's row is checked, then copied into its version as it
        // stands: one allocation and one memcpy per tuple.
        size_t tuples = 0;
        const Status s = logging::ForEachStripeTuple(
            stripe, [&](const logging::StripeTuple& t) {
              ++tuples;
              if (reload_only) return;
              storage::Table* table = catalog->GetTable(t.table);
              PACMAN_CHECK_MSG(table != nullptr,
                               ("checkpoint stripe " + name +
                                ": unknown table " + std::to_string(t.table))
                                   .c_str());
              table->LoadRow(t.key, t.row, t.row_size, ts);
            });
        PACMAN_CHECK_MSG(
            s.ok(), ("checkpoint stripe " + name + ": " + s.message()).c_str());
        if (reload_only) return deser;
        const double useful = install_cost * static_cast<double>(tuples);
        counters->AddUseful(useful);
        counters->AddTuples(tuples);
        return deser + useful;
      });
      graph->AddEdge(io, load);
    }
  }
}

}  // namespace pacman::recovery
