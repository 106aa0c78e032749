// Copyright (c) 2026 The PACMAN reproduction authors.
// CommonFlags -> DatabaseOptions bridge for the example and bench
// binaries. Deliberately its own header: the library itself takes no
// flags, so pacman/database.h must not pull in the argv parser — only
// binaries include this.
#ifndef PACMAN_PACMAN_DEVICE_FLAGS_H_
#define PACMAN_PACMAN_DEVICE_FLAGS_H_

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>

#include "common/flags.h"
#include "device/fault_injecting_device.h"
#include "pacman/database.h"

namespace pacman {

// Applies the shared --device / --log-dir / --shards flags to `opts`.
// `subdir` keeps independent database instances (per scheme, per sweep
// point) in disjoint directories under the one --log-dir the user passed.
// The single bridge between CommonFlags and DatabaseOptions, so no binary
// grows private device plumbing. A sharded engine gets one device per
// shard so every shard's logger (and its checkpoint stripes) lives on its
// own stream — the layout the per-shard recovery lanes assume.
//
// --device faulty:<spec> wraps the chosen inner backend ("sim" or "file",
// named first in the spec) in the FaultInjectingDevice decorator via a
// DatabaseOptions::device_factory; a malformed spec exits with the parse
// error. See device/fault_injecting_device.h for the spec grammar.
inline void ApplyDeviceFlags(const CommonFlags& flags, DatabaseOptions* opts,
                             const std::string& subdir = "") {
  opts->num_shards = flags.shards;
  if (flags.shards > 1) opts->num_ssds = flags.shards;
  if (flags.use_file_device()) {
    opts->device = device::DeviceKind::kFile;
    opts->log_dir =
        subdir.empty() ? flags.log_dir : flags.log_dir + "/" + subdir;
  }
  if (!flags.use_faulty_device()) return;
  device::FaultSpec spec;
  std::string inner_kind;
  const Status parsed =
      device::ParseFaultSpec(flags.faulty_spec(), &spec, &inner_kind);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: --device: %s\n", parsed.message().c_str());
    std::exit(2);
  }
  // Capture everything by value: the factory outlives this scope (the
  // Database constructor calls it once per device index).
  const std::string log_dir = opts->log_dir;
  opts->device_factory =
      [spec, inner_kind,
       log_dir](uint32_t index) -> std::unique_ptr<device::StorageDevice> {
    std::unique_ptr<device::StorageDevice> inner;
    if (inner_kind == "file") {
      device::FileDeviceConfig cfg;
      cfg.dir = log_dir + "/dev" + std::to_string(index);
      inner = std::make_unique<device::FileDevice>(cfg);
    } else {
      inner = std::make_unique<device::SimulatedSsd>();
    }
    return std::make_unique<device::FaultInjectingDevice>(std::move(inner),
                                                          spec, index);
  };
}

// Fresh-start walkthroughs (the examples install schema *and* data, then
// run transactions) cannot execute over a directory that already holds a
// durable image — the database starts crashed and the first Execute would
// abort deep in the engine. Exit with an actionable message instead.
inline void ExitIfUnrecoveredState(Database* db) {
  if (!db->opened_existing_state()) return;
  std::fprintf(stderr,
               "error: --log-dir \"%s\" already contains durable state from "
               "an earlier run.\nThis walkthrough starts from scratch: point "
               "--log-dir at a fresh directory, or remove the old one.\n",
               db->options().log_dir.c_str());
  std::exit(2);
}

// The walkthroughs' baseline checkpoint (bulk-loaded data is not logged,
// so recovery needs one): a device failure is reported, not aborted on.
inline void CheckpointOrExit(Database* db) {
  const Status s = db->TryTakeCheckpoint();
  if (s.ok()) return;
  std::fprintf(stderr, "error: checkpoint failed: %s\n", s.message().c_str());
  std::exit(1);
}

}  // namespace pacman

#endif  // PACMAN_PACMAN_DEVICE_FLAGS_H_
