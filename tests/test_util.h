// Copyright (c) 2026 The PACMAN reproduction authors.
// Small helpers shared by the test suites.
#ifndef PACMAN_TESTS_TEST_UTIL_H_
#define PACMAN_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.h"
#include "device/storage_device.h"
#include "exec/thread_pool.h"
#include "logging/log_record.h"
#include "recovery/log_pipeline.h"
#include "recovery/recovery.h"
#include "storage/table.h"

namespace pacman::testutil {

// Sum of column `col` over the rows of `table` visible at `ts`. Used by
// the balance-conservation invariants of the concurrency suites.
inline double VisibleSum(const storage::Table* table, Timestamp ts,
                         int col = 0) {
  double sum = 0.0;
  Row row;
  table->ForEachSlot([&](storage::TupleSlot* slot) {
    const storage::Version* v = slot->VisibleAt(ts);
    if (v == nullptr || v->deleted) return;
    v->ReadRow(&row);
    sum += row[col].AsDouble();
  });
  return sum;
}

// A recovery scheme and the log format it replays: the parameter of the
// suites that run once per scheme.
struct SchemeCase {
  logging::LogScheme log;
  recovery::Scheme rec;
};

// How gtest prints a case, and so how CMake's gtest_discover_tests names
// its ctest entries (".../CLR_P"): the scheme's name as a gtest name would
// spell it (SchemeName's '-' as '_'), not the struct's bytes, whose padding
// is uninitialized. The suites use no name generator: for a case name that
// is not an index, CMake keeps gtest's "# GetParam() = ..." comment in the
// ctest name.
inline void PrintTo(const SchemeCase& c, std::ostream* os) {
  std::string name = recovery::SchemeName(c.rec);
  std::replace(name.begin(), name.end(), '-', '_');
  *os << name;
}

// A log read the way recovery reads it: through the pipelined loader
// (recovery/log_pipeline.h), which owns the records the batches point
// into.
struct LoadedLog {
  exec::ThreadPool pool{2};
  std::unique_ptr<recovery::PipelinedLogLoader> loader;
  Status status;  // The loader's first error, if any.

  const std::vector<recovery::GlobalBatch>& batches() const {
    return loader->batches();
  }
  size_t num_records() const {
    size_t n = 0;
    for (const recovery::GlobalBatch& b : batches()) n += b.records.size();
    return n;
  }
};

// Loads every logger stream on `devices`, keeping only records with
// commit_ts > checkpoint_ts (no pepoch cut).
inline std::unique_ptr<LoadedLog> LoadLog(
    logging::LogScheme scheme, std::vector<device::StorageDevice*> devices,
    Timestamp checkpoint_ts = 0) {
  auto log = std::make_unique<LoadedLog>();
  recovery::LogPipelineOptions opts;
  opts.num_threads = 2;
  opts.checkpoint_ts = checkpoint_ts;
  opts.num_ssds = static_cast<uint32_t>(devices.size());
  log->loader = std::make_unique<recovery::PipelinedLogLoader>(
      scheme, std::move(devices), &log->pool, opts);
  log->loader->Start();
  log->status = log->loader->WaitAll();
  return log;
}

}  // namespace pacman::testutil

#endif  // PACMAN_TESTS_TEST_UTIL_H_
