#include "recovery/checkpoint_recovery.h"

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
            static_cast<double>(stripe.file_bytes) * cm.deserialize_byte;
        counters->AddLoading(deser);
        if (reload_only) return deser;
        for (const logging::WriteImage& img : stripe.tuples) {
          catalog->GetTable(img.table)->LoadRow(img.key, img.after, ts);
        }
        const double useful = install_cost * stripe.tuples.size();
        counters->AddUseful(useful);
        counters->AddTuples(stripe.tuples.size());
        return deser + useful;
      });
      graph->AddEdge(io, load);
    }
  }
}

}  // namespace pacman::recovery
