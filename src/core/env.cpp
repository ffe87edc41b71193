#include "core/env.h"

#include "core/envparse.h"
#include "core/trace.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string_view>

namespace sugar::core {

EnvConfig EnvConfig::from_env() {
  EnvConfig cfg;
  if (const char* s = std::getenv("SUGAR_SCALE")) {
    double scale = 0;
    if (parse_env_number("SUGAR_SCALE", s, scale)) {
      std::size_t* const counts[] = {
          &cfg.flows_per_class_iscx, &cfg.flows_per_class_ustc, &cfg.flows_per_class_tls,
          &cfg.backbone_flows,       &cfg.max_train_packets,    &cfg.max_test_packets,
          &cfg.pretrain_max_samples};
      std::size_t largest = 0;
      for (const std::size_t* c : counts) largest = std::max(largest, *c);
      // A product of 2^64 or more has no size_t value: casting it is
      // undefined, so such a scale is out of range like a non-positive one.
      if (scale > 0 && scale * static_cast<double>(largest) < 0x1p64) {
        for (std::size_t* c : counts)
          *c = std::max<std::size_t>(2, static_cast<std::size_t>(scale * static_cast<double>(*c)));
      } else {
        std::cerr << "sugar: ignoring out-of-range SUGAR_SCALE='" << s << "'\n";
      }
    }
  }
  if (const char* s = std::getenv("SUGAR_EPOCHS")) {
    int e = 0;
    if (parse_env_number("SUGAR_EPOCHS", s, e)) {
      if (e > 0)
        cfg.downstream_epochs = e;
      else
        std::cerr << "sugar: ignoring non-positive SUGAR_EPOCHS='" << s << "'\n";
    }
  }
  if (const char* s = std::getenv("SUGAR_SEED")) {
    std::uint64_t seed = 0;
    if (parse_env_number("SUGAR_SEED", s, seed)) cfg.seed = seed;
  }
  return cfg;
}

BenchmarkEnv::BenchmarkEnv(EnvConfig cfg) : cfg_(cfg) {}

namespace {

trafficgen::GeneratedTrace generate_source(const EnvConfig& cfg,
                                           dataset::SourceDataset src,
                                           const trafficgen::TraceVariant& variant) {
  trafficgen::GenOptions opts;
  opts.seed = cfg.seed;
  opts.variant = variant;
  switch (src) {
    case dataset::SourceDataset::IscxVpn:
      opts.flows_per_class = cfg.flows_per_class_iscx;
      opts.spurious_fraction = cfg.iscx_spurious;
      return trafficgen::generate_iscx_vpn(opts);
    case dataset::SourceDataset::UstcTfc:
      opts.flows_per_class = cfg.flows_per_class_ustc;
      opts.spurious_fraction = cfg.ustc_spurious;
      return trafficgen::generate_ustc_tfc(opts);
    case dataset::SourceDataset::CstnTls:
      opts.flows_per_class = cfg.flows_per_class_tls;
      opts.spurious_fraction = 0.0;  // CSTN is shared pre-cleaned
      opts.strip_tls_handshake = true;
      return trafficgen::generate_cstn_tls120(opts);
  }
  return {};
}

}  // namespace

BenchmarkEnv::SourceKey BenchmarkEnv::ensure_source(
    dataset::SourceDataset src, const trafficgen::TraceVariant& variant) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  SourceKey key{src, variant.tag()};
  if (traces_.count(key)) return key;
  SUGAR_TRACE_SPAN("env.generate_dataset");
  // Every variant tagged "default" generates the identity trace.
  auto trace = generate_source(
      cfg_, src, variant.is_default() ? trafficgen::TraceVariant{} : variant);
  dataset::CleaningOptions copts;  // recommended pipeline: extraneous only
  cleaning_[key] = dataset::clean_trace(trace, copts);
  traces_[key] = std::move(trace);
  return key;
}

const dataset::PacketDataset& BenchmarkEnv::task_dataset(
    dataset::TaskId task, const trafficgen::TraceVariant& variant) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  TaskKey key{task, variant.tag()};
  auto it = tasks_.find(key);
  if (it != tasks_.end()) return it->second;
  const SourceKey src = ensure_source(dataset::source_of(task), variant);
  auto [jt, _] =
      tasks_.emplace(std::move(key), dataset::make_task_dataset(traces_[src], task));
  return jt->second;
}

const dataset::CleaningReport& BenchmarkEnv::cleaning_report(
    dataset::SourceDataset src, const trafficgen::TraceVariant& variant) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  return cleaning_[ensure_source(src, variant)];
}

const dataset::PacketDataset& BenchmarkEnv::backbone() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (!backbone_) {
    SUGAR_TRACE_SPAN("env.generate_backbone");
    auto trace = trafficgen::generate_backbone(cfg_.seed ^ 0xBACB, cfg_.backbone_flows);
    backbone_ = dataset::make_unlabeled_dataset(trace);
  }
  return *backbone_;
}

replearn::ModelBundle BenchmarkEnv::pretrained(replearn::ModelKind kind,
                                               replearn::TaskMode mode,
                                               const ml::CancelToken* cancel) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  auto key = std::make_pair(kind, mode);
  auto it = pretrained_.find(key);
  if (it == pretrained_.end()) {
    SUGAR_TRACE_SPAN("env.pretrain_cache_fill");
    replearn::ModelBundle bundle = replearn::make_model(kind, mode);
    replearn::BackbonePretrainOptions opts;
    opts.pretrain.epochs = cfg_.pretrain_epochs;
    opts.pretrain.cancel = cancel;
    opts.max_samples = cfg_.pretrain_max_samples;
    opts.seed = cfg_.seed ^ 0x11E;
    pretrain_on_backbone(bundle, backbone(), opts);
    it = pretrained_.emplace(key, std::move(bundle)).first;
  }
  // Hand out an independent copy with a cloned encoder.
  replearn::ModelBundle copy;
  copy.kind = it->second.kind;
  copy.name = it->second.name;
  copy.mode = it->second.mode;
  copy.view_kind = it->second.view_kind;
  copy.byte_view = it->second.byte_view;
  copy.mm_view = it->second.mm_view;
  copy.flow_packets = it->second.flow_packets;
  copy.encoder = it->second.encoder->clone();
  return copy;
}

}  // namespace sugar::core
