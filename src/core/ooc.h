// Out-of-core scenario runner: the full trafficgen → clean → split →
// featurize → quantize → fit → evaluate pipeline executed entirely through
// SUGC stores, so the working set is one row group per stage plus the
// bounded page cache — never the dataset. This is the engine behind
// `bench_table8_shallow --scale <packets>`: the same shallow-baseline
// claim as Table 8, demonstrated at dataset sizes 10–100× the cache
// budget with flat peak RSS.
//
// Stages (each a streaming pass over stores on disk):
//   1. generate  — trafficgen chunks appended to a packet store
//                  (bytes, ts, cls, flow columns)
//   2. clean     — parse + Table-13 spurious filter, written as a
//                  selection vector (keep store), packets never rewritten
//   3. split     — per-flow splitmix hash 80/20, a second selection pass
//   4. featurize — header features (Table 12) for kept rows, routed to
//                  train/test F32 feature stores
//   5. quantize  — two-pass ColumnSketch over the train store (pass 1
//                  cuts, pass 2 codes) into a U8 code store — bit-identical
//                  to what BinnedMatrix would produce on the resident data
//   6. fit       — RandomForest::fit_binned over a PagedCodeSource
//   7. evaluate  — streamed per-row prediction on the test store
//
// Determinism: every stage is sequential in row order or delegates to the
// one-feature-per-worker parallel contracts, so the result digest is a
// pure function of the scale at any SUGAR_THREADS or page-cache budget.
#pragma once

#include <cstdint>
#include <string>

#include "core/artifact.h"

namespace sugar::core {

/// The pipeline's seed, rows per store page group and forest size. With
/// the scale they name a run, so bench_table8_shallow keys its journal
/// cell on them.
inline constexpr std::uint64_t kOocSeed = 5;
inline constexpr std::size_t kOocGroupRows = 65536;
inline constexpr int kOocForestTrees = 8;

struct OocOptions {
  /// Directory for the intermediate store files (created by the caller;
  /// the run removes the stores it wrote there).
  std::string dir;
  /// Stop generating once the packet store holds at least this many rows.
  std::uint64_t target_packets = 200000;
};

struct OocResult {
  /// Deterministic fingerprint of the test-set predictions.
  std::uint64_t digest = 0;
  /// Artifact payload: rows per stage, accuracy/macro-F1, rows/s, cache
  /// hit rate, peak RSS, total store bytes, per-stage seconds.
  Json json = Json::object();
};

/// Runs the pipeline. Throws core::RunError on store I/O failures or an
/// empty train/test partition.
OocResult run_ooc_scale(const OocOptions& opts);

}  // namespace sugar::core
