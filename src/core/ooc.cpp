#include "core/ooc.h"

#include <chrono>
#include <cstring>

#include "core/io.h"
#include "core/pager.h"
#include "core/runerror.h"
#include "core/splitmix.h"
#include "core/trace.h"
#include "dataset/store.h"
#include "ml/binned.h"
#include "ml/forest.h"
#include "ml/metrics.h"
#include "net/parser.h"
#include "net/proto.h"
#include "replearn/featurize.h"
#include "trafficgen/datasets.h"

namespace sugar::core {
namespace {

using dataset::ColumnBlock;
using dataset::ColumnSpec;
using dataset::ColumnType;
using dataset::RowBlockCursor;
using dataset::StoreError;
using dataset::StoreReader;
using dataset::StoreWriter;

// The rest of the pipeline's fixed settings (ooc.h has the three that name
// a run).
constexpr int kBins = 64;                    // quantization bins per feature
constexpr int kMaxDepth = 12;                // forest tree depth
constexpr int kFeaturesPerSplit = 6;         // candidate features per split
constexpr std::uint64_t kTrainPercent = 80;  // flow-hash split: train share

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

[[noreturn]] void die(const StoreError& err, const std::string& stage) {
  throw RunError(RunErrorKind::kInternal,
                 "ooc " + stage + ": " + dataset::to_string(err.kind) + ": " +
                     err.message);
}

std::unique_ptr<StoreReader> open_or_die(const std::string& path,
                                         const std::string& stage) {
  StoreError err;
  auto r = StoreReader::open(path, &err);
  if (!r) die(err, stage);
  return r;
}

}  // namespace

OocResult run_ooc_scale(const OocOptions& opts) {
  SUGAR_TRACE_SPAN("core.ooc.run");
  const std::string packets_path = opts.dir + "/ooc_packets.sugc";
  const std::string keep_path = opts.dir + "/ooc_keep.sugc";
  const std::string split_path = opts.dir + "/ooc_split.sugc";
  const std::string train_path = opts.dir + "/ooc_train.sugc";
  const std::string test_path = opts.dir + "/ooc_test.sugc";
  const std::string codes_path = opts.dir + "/ooc_codes.sugc";

  StoreError serr;
  Json timings = Json::object();
  int num_classes = 0;

  // -- Stage 1: generate, chunk by chunk, into the packet store. Each
  // chunk is an independent seeded trace; flow ids get a per-chunk stride
  // so the flow-hash split never merges flows across chunks.
  auto t0 = std::chrono::steady_clock::now();
  std::uint64_t total_bytes = 0;
  {
    StoreWriter w(packets_path,
                  {{"bytes", ColumnType::Bytes, {}},
                   {"ts", ColumnType::U64, {}},
                   {"cls", ColumnType::I32, {}},
                   {"flow", ColumnType::I32, {}}},
                  {.group_rows = kOocGroupRows});
    constexpr std::int32_t kFlowStride = 1 << 20;
    for (std::int32_t chunk = 0; w.rows() < opts.target_packets; ++chunk) {
      trafficgen::GenOptions gen;
      gen.seed = splitmix64(kOocSeed * 0x10001ull + static_cast<std::uint64_t>(chunk));
      gen.flows_per_class = 8;
      gen.spurious_fraction = 0.05;
      trafficgen::GeneratedTrace trace = trafficgen::generate_iscx_vpn(gen);
      num_classes = static_cast<int>(trace.class_names.size());
      for (std::size_t i = 0; i < trace.size(); ++i) {
        w.add_bytes(0, trace.packets[i].data);
        w.add_u64(1, trace.packets[i].ts_usec);
        w.add_i32(2, trace.labels[i].cls);
        w.add_i32(3, trace.flow_of[i] < 0
                         ? -1
                         : trace.flow_of[i] + chunk * kFlowStride);
        total_bytes += trace.packets[i].data.size();
        if (!w.end_row(&serr)) die(serr, "generate");
      }
    }
    if (!w.finalize(&serr)) die(serr, "generate");
  }
  timings.set("generate_s", Json(seconds_since(t0)));

  auto packets = open_or_die(packets_path, "open packets");
  const std::uint64_t rows_generated = packets->rows();

  // -- Stage 2: clean as a selection pass — parse every frame, keep only
  // labelled, non-spurious traffic (the paper's recommended filter). The
  // packet store is never rewritten; survivors are a U8 vector store.
  t0 = std::chrono::steady_clock::now();
  std::uint64_t rows_kept = 0;
  {
    StoreWriter w(keep_path, {{"keep", ColumnType::U8, {}}},
                  {.group_rows = kOocGroupRows});
    RowBlockCursor cur(*packets, {0, 2});  // bytes, cls
    std::vector<ColumnBlock> blocks;
    net::Packet pkt;
    while (cur.next(blocks, &serr)) {
      const ColumnBlock& bytes = blocks[0];
      const std::int32_t* cls = blocks[1].as<std::int32_t>();
      for (std::uint32_t i = 0; i < bytes.nrows; ++i) {
        std::uint8_t keep = 0;
        if (cls[i] >= 0) {
          auto span = bytes.bytes_at(i);
          pkt.data.assign(span.begin(), span.end());
          net::ParseOutcome out = net::parse_packet(pkt);
          if (out.ok() &&
              net::classify_spurious(*out.parsed) == net::SpuriousCategory::None)
            keep = 1;
        }
        rows_kept += keep;
        w.add_u8(0, keep);
        if (!w.end_row(&serr)) die(serr, "clean");
      }
    }
    if (serr) die(serr, "clean");
    if (!w.finalize(&serr)) die(serr, "clean");
  }
  timings.set("clean_s", Json(seconds_since(t0)));

  // -- Stage 3: split as a second selection pass — per-flow hash so all of
  // a flow's packets land on one side (the paper's leakage-free protocol).
  t0 = std::chrono::steady_clock::now();
  {
    auto keep = open_or_die(keep_path, "open keep");
    StoreWriter w(split_path, {{"split", ColumnType::U8, {}}},
                  {.group_rows = kOocGroupRows});
    RowBlockCursor pcur(*packets, {3});  // flow
    dataset::ColumnCursor kcur(*keep, 0);
    std::vector<ColumnBlock> blocks;
    ColumnBlock kb;
    while (pcur.next(blocks, &serr)) {
      if (!kcur.next(kb, &serr)) break;
      const std::int32_t* flow = blocks[0].as<std::int32_t>();
      for (std::uint32_t i = 0; i < blocks[0].nrows; ++i) {
        std::uint8_t split = 2;  // dropped
        if (kb.data[i] != 0) {
          const std::uint64_t h =
              splitmix64(static_cast<std::uint64_t>(flow[i]) ^ (kOocSeed << 32));
          split = (h % 100) < kTrainPercent ? 0 : 1;
        }
        w.add_u8(0, split);
        if (!w.end_row(&serr)) die(serr, "split");
      }
    }
    if (serr) die(serr, "split");
    if (!w.finalize(&serr)) die(serr, "split");
  }
  timings.set("split_s", Json(seconds_since(t0)));

  // -- Stage 4: featurize kept rows into train/test F32 stores (header
  // features + label column).
  t0 = std::chrono::steady_clock::now();
  const replearn::HeaderFeatureSpec fspec;
  const std::vector<std::string> fnames = replearn::header_feature_names(fspec);
  const std::size_t nfeat = fnames.size();
  std::uint64_t train_rows = 0, test_rows = 0;
  {
    std::vector<ColumnSpec> fschema;
    for (const auto& name : fnames) fschema.push_back({name, ColumnType::F32, {}});
    fschema.push_back({"y", ColumnType::I32, {}});
    StoreWriter wtrain(train_path, fschema, {.group_rows = kOocGroupRows});
    StoreWriter wtest(test_path, fschema, {.group_rows = kOocGroupRows});

    auto split = open_or_die(split_path, "open split");
    RowBlockCursor pcur(*packets, {0, 1, 2});  // bytes, ts, cls
    dataset::ColumnCursor scur(*split, 0);
    std::vector<ColumnBlock> blocks;
    ColumnBlock sb;
    std::vector<float> feat(nfeat);
    net::Packet pkt;
    while (pcur.next(blocks, &serr)) {
      if (!scur.next(sb, &serr)) break;
      const ColumnBlock& bytes = blocks[0];
      const std::uint64_t* ts = blocks[1].as<std::uint64_t>();
      const std::int32_t* cls = blocks[2].as<std::int32_t>();
      for (std::uint32_t i = 0; i < bytes.nrows; ++i) {
        if (sb.data[i] > 1) continue;
        auto span = bytes.bytes_at(i);
        pkt.data.assign(span.begin(), span.end());
        pkt.ts_usec = ts[i];
        net::ParseOutcome out = net::parse_packet(pkt);
        if (!out.ok()) continue;  // clean already vetted; belt and braces
        replearn::extract_header_features(pkt, *out.parsed, fspec, feat.data());
        StoreWriter& w = sb.data[i] == 0 ? wtrain : wtest;
        for (std::size_t f = 0; f < nfeat; ++f)
          w.add_f32(f, feat[f]);
        w.add_i32(nfeat, cls[i]);
        if (!w.end_row(&serr)) die(serr, "featurize");
        (sb.data[i] == 0 ? train_rows : test_rows) += 1;
      }
    }
    if (serr) die(serr, "featurize");
    if (!wtrain.finalize(&serr)) die(serr, "featurize");
    if (!wtest.finalize(&serr)) die(serr, "featurize");
  }
  timings.set("featurize_s", Json(seconds_since(t0)));
  if (train_rows == 0 || test_rows == 0)
    throw RunError(RunErrorKind::kEmptyPartition,
                   "ooc split left train=" + std::to_string(train_rows) +
                       " test=" + std::to_string(test_rows));

  // -- Stage 5: quantize the train features. Pass 1 streams every column
  // through the SAME ColumnSketch BinnedMatrix uses (bit-identical cuts),
  // pass 2 rewrites rows as uint8 codes.
  t0 = std::chrono::steady_clock::now();
  auto train = open_or_die(train_path, "open train");
  std::vector<std::vector<float>> cuts(nfeat);
  {
    std::vector<ml::ColumnSketch> sketches;
    sketches.reserve(nfeat);
    for (std::size_t f = 0; f < nfeat; ++f) sketches.emplace_back(kBins);
    std::vector<std::size_t> fcols(nfeat);
    for (std::size_t f = 0; f < nfeat; ++f) fcols[f] = f;
    RowBlockCursor cur(*train, fcols);
    std::vector<ColumnBlock> blocks;
    while (cur.next(blocks, &serr)) {
      for (std::size_t f = 0; f < nfeat; ++f) {
        const float* v = blocks[f].as<float>();
        for (std::uint32_t i = 0; i < blocks[f].nrows; ++i)
          sketches[f].add(v[i]);
      }
    }
    if (serr) die(serr, "quantize");
    for (std::size_t f = 0; f < nfeat; ++f) cuts[f] = sketches[f].finalize();

    std::vector<ColumnSpec> cschema;
    for (std::size_t f = 0; f < nfeat; ++f)
      cschema.push_back({fnames[f], ColumnType::U8, cuts[f]});
    StoreWriter w(codes_path, cschema,
                  {.group_rows = kOocGroupRows, .bins = kBins});
    RowBlockCursor cur2(*train, fcols);
    while (cur2.next(blocks, &serr)) {
      for (std::uint32_t i = 0; i < blocks[0].nrows; ++i) {
        for (std::size_t f = 0; f < nfeat; ++f)
          w.add_u8(f, static_cast<std::uint8_t>(
                          ml::quantize_bin(cuts[f], blocks[f].as<float>()[i])));
        if (!w.end_row(&serr)) die(serr, "quantize");
      }
    }
    if (serr) die(serr, "quantize");
    if (!w.finalize(&serr)) die(serr, "quantize");
  }
  timings.set("quantize_s", Json(seconds_since(t0)));

  // Labels are the one resident array (4 bytes/row — tiny next to the
  // packet/feature stores the pipeline refuses to materialize).
  std::vector<int> y_train;
  y_train.reserve(train_rows);
  {
    dataset::ColumnCursor ycur(*train, nfeat);
    ColumnBlock yb;
    while (ycur.next(yb, &serr))
      for (std::uint32_t i = 0; i < yb.nrows; ++i)
        y_train.push_back(yb.as<std::int32_t>()[i]);
    if (serr) die(serr, "labels");
  }

  // -- Stage 6: fit over the paged code source. Serial trees, feature-
  // parallel accumulation; working set = page cache budget.
  t0 = std::chrono::steady_clock::now();
  auto codes = open_or_die(codes_path, "open codes");
  std::vector<std::size_t> code_cols(nfeat);
  for (std::size_t f = 0; f < nfeat; ++f) code_cols[f] = f;
  dataset::PagedCodeSource src(*codes, code_cols);
  ml::ForestConfig fcfg;
  fcfg.num_trees = kOocForestTrees;
  fcfg.tree.max_depth = kMaxDepth;
  fcfg.tree.features_per_split = kFeaturesPerSplit;
  fcfg.tree.histogram_bins = kBins;
  fcfg.seed = kOocSeed;
  ml::RandomForest forest(fcfg);
  forest.fit_binned(src, y_train, num_classes);
  const double fit_s = seconds_since(t0);
  timings.set("fit_s", Json(fit_s));

  // -- Stage 7: streamed evaluation — one float row at a time off the
  // test store, through the forest's vote.
  t0 = std::chrono::steady_clock::now();
  auto test = open_or_die(test_path, "open test");
  std::vector<int> y_test, y_pred;
  y_test.reserve(test_rows);
  y_pred.reserve(test_rows);
  {
    std::vector<std::size_t> tcols(nfeat + 1);
    for (std::size_t f = 0; f <= nfeat; ++f) tcols[f] = f;
    RowBlockCursor cur(*test, tcols);
    std::vector<ColumnBlock> blocks;
    std::vector<float> row(nfeat);
    while (cur.next(blocks, &serr)) {
      for (std::uint32_t i = 0; i < blocks[0].nrows; ++i) {
        for (std::size_t f = 0; f < nfeat; ++f)
          row[f] = blocks[f].as<float>()[i];
        y_pred.push_back(forest.vote(row.data()));
        y_test.push_back(blocks[nfeat].as<std::int32_t>()[i]);
      }
    }
    if (serr) die(serr, "evaluate");
  }
  timings.set("evaluate_s", Json(seconds_since(t0)));
  ml::Metrics metrics = ml::evaluate(y_test, y_pred, num_classes);

  // Digest: the predictions are a pure function of (scale, seed) — any
  // thread count, page size or cache budget must reproduce them exactly.
  std::string pred_bytes(reinterpret_cast<const char*>(y_pred.data()),
                         y_pred.size() * sizeof(int));
  const std::uint64_t digest = fnv1a64(pred_bytes);

  const std::uint64_t store_bytes = packets->payload_bytes() +
                                    train->payload_bytes() +
                                    test->payload_bytes() +
                                    codes->payload_bytes();
  const PageCache::Stats cache = PageCache::global().stats();
  const double total_s = [&] {
    double s = 0;
    for (const auto& [k, v] : timings.members()) s += v.number_or(0);
    return s;
  }();

  OocResult res;
  res.digest = digest;
  res.json.set("scale", Json(static_cast<double>(opts.target_packets)))
      .set("rows_generated", Json(static_cast<double>(rows_generated)))
      .set("rows_kept", Json(static_cast<double>(rows_kept)))
      .set("train_rows", Json(static_cast<double>(train_rows)))
      .set("test_rows", Json(static_cast<double>(test_rows)))
      .set("num_classes", Json(num_classes))
      .set("accuracy", Json(metrics.accuracy))
      .set("macro_f1", Json(metrics.macro_f1))
      .set("digest", Json(hex64(digest)))
      .set("rows_per_sec",
           Json(total_s > 0 ? static_cast<double>(rows_generated) / total_s : 0.0))
      .set("fit_rows_per_sec",
           Json(fit_s > 0 ? static_cast<double>(train_rows) / fit_s : 0.0))
      .set("store_bytes", Json(static_cast<double>(store_bytes)))
      .set("packet_bytes", Json(static_cast<double>(total_bytes)))
      .set("page_cache_budget_bytes",
           Json(static_cast<double>(PageCache::global().budget_bytes())))
      .set("page_cache_hit_rate", Json(cache.hit_rate()))
      .set("page_cache_evictions", Json(static_cast<double>(cache.evictions)))
      .set("page_cache_prefetch_issued",
           Json(static_cast<double>(cache.prefetch_issued)))
      .set("peak_rss_bytes", Json(static_cast<double>(peak_rss_bytes())))
      .set("timings", timings);

  Io& io = real_io();
  for (const auto& p : {packets_path, keep_path, split_path, train_path,
                        test_path, codes_path})
    io.remove_file(p);
  return res;
}

}  // namespace sugar::core
