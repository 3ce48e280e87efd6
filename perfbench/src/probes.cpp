// Layer probes: each times one layer's public entry point in isolation, on
// the deployed model and the workload's own samples, so a per-layer number
// can be set beside the end-to-end metric it should move.
#include <algorithm>
#include <cstdio>
#include <string>

#include "hdc/classifier.hpp"
#include "hdc/encoder.hpp"
#include "hdc/kernels/packed.hpp"
#include "hier/hier_encoder.hpp"
#include "proto/envelope.hpp"
#include "runtime/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace edgehd;

/// Probe budget: each probe repeats its call until this much time passed.
constexpr double kProbeSeconds = 0.15;
/// Samples the probes encode through the whole hierarchy.
constexpr std::size_t kProbeSamples = 200;

/// Mean seconds per call of fn(), repeated for at least kProbeSeconds.
template <class Fn>
double time_per_call(Fn&& fn) {
  const auto t0 = Clock::now();
  std::size_t calls = 0;
  do {
    fn();
    ++calls;
  } while (seconds_since(t0) < kProbeSeconds);
  return seconds_since(t0) / static_cast<double>(calls);
}

}  // namespace

void run_probes(const core::EdgeHdSystem& sys, const data::Dataset& ds,
                std::size_t threads, RunRecord& out) {
  runtime::ThreadPool pool(threads);
  const auto& topo = sys.topology();
  const auto& cfg = sys.config();
  const net::NodeId root = topo.root();
  const std::size_t n = std::min(kProbeSamples, ds.test_size());

  // hdc: leaf encoder (same kind, input width and dimension as leaf 0).
  {
    const net::NodeId leaf = topo.leaves().front();
    const std::size_t width = ds.partitions.front();
    const auto enc = hdc::make_encoder(cfg.leaf_encoder, width,
                                       sys.node_dim(leaf), cfg.seed,
                                       cfg.projection_mode);
    std::vector<std::vector<float>> slices;
    for (std::size_t i = 0; i < n; ++i) {
      slices.emplace_back(ds.test_x[i].begin(), ds.test_x[i].begin() + width);
    }
    const double s = time_per_call([&] { (void)enc->encode_batch(slices, pool); });
    out.metric("hdc.encode.ns_per_sample", s / static_cast<double>(n) * 1e9,
               "ns");
  }

  // Full-hierarchy encodings of the probe samples, indexed [sample][node].
  std::vector<std::vector<hdc::BipolarHV>> hvs;
  for (std::size_t i = 0; i < n; ++i) hvs.push_back(sys.encode_all(ds.test_x[i]));

  // hdc: the root classifier's perceptron epoch, batch predict and plane
  // rebuild, on copies so the deployed model is untouched.
  {
    const hdc::HDClassifier& model = sys.classifier_at(root);
    std::vector<hdc::BipolarHV> queries;
    std::vector<std::size_t> labels;
    for (std::size_t i = 0; i < n; ++i) {
      queries.push_back(hvs[i][root]);
      labels.push_back(ds.test_y[i]);
    }
    double epoch_s = 0.0;
    std::size_t epochs = 0;
    const auto t0 = Clock::now();
    do {
      hdc::HDClassifier copy = model;
      const auto t1 = Clock::now();
      copy.retrain_epoch(queries, labels);
      epoch_s += seconds_since(t1);
      ++epochs;
    } while (seconds_since(t0) < kProbeSeconds);
    out.metric("hdc.retrain.epoch_ms",
               epoch_s / static_cast<double>(epochs) * 1e3, "ms");

    const double b = time_per_call([&] {
      for (std::size_t c = 0; c < model.num_classes(); ++c) {
        (void)hdc::kernels::build_planes(model.class_accumulator(c));
      }
    });
    out.metric("hdc.kernels.build_planes_us",
               b / static_cast<double>(model.num_classes()) * 1e6, "us");

    const double p = time_per_call([&] { (void)model.predict_batch(queries, pool); });
    out.metric("hdc.predict.ns_per_query", p / static_cast<double>(n) * 1e9,
               "ns");
  }

  // hier: one aggregator per internal node, rebuilt with the node's shape.
  {
    std::vector<double> encode_us, project_us;
    for (std::size_t level = 2; level <= topo.depth(); ++level) {
      double level_us = 0.0;
      const auto nodes = topo.nodes_at_level(level);
      for (const net::NodeId id : nodes) {
        const auto children = topo.children(id);
        std::vector<std::size_t> dims;
        for (const auto c : children) dims.push_back(sys.node_dim(c));
        const hier::HierEncoder agg(dims, sys.node_dim(id), cfg.seed + id,
                                    cfg.aggregation, cfg.projection_row_nnz);
        std::vector<hdc::BipolarHV> inputs;
        for (std::size_t i = 0; i < n; ++i) {
          std::vector<hdc::BipolarHV> parts;
          for (const auto c : children) parts.push_back(hvs[i][c]);
          inputs.push_back(agg.concat(parts));
        }
        const double e = time_per_call([&] {
          for (const auto& in : inputs) (void)agg.encode(in);
        });
        encode_us.push_back(e / static_cast<double>(n) * 1e6);
        level_us += encode_us.back();

        bool all_classify = true;
        std::vector<hdc::AccumHV> accs;
        for (const auto c : children) {
          all_classify = all_classify && sys.has_classifier(c);
          if (sys.has_classifier(c)) {
            accs.push_back(sys.classifier_at(c).class_accumulator(0));
          }
        }
        if (all_classify) {
          const auto in = agg.concat_accum(accs);
          project_us.push_back(
              time_per_call([&] { (void)agg.project(in); }) * 1e6);
        }
      }
      std::printf("probe: hier encode level %zu: %.2f us per node-sample\n",
                  level, level_us / static_cast<double>(nodes.size()));
    }
    const auto mean = [](const std::vector<double>& v) {
      double s = 0.0;
      for (const double x : v) s += x;
      return v.empty() ? 0.0 : s / static_cast<double>(v.size());
    };
    out.metric("hier.encode_us", mean(encode_us), "us");
    out.metric("hier.project_us", mean(project_us), "us");
  }

  // proto: the envelope codec on messages built from this deployment.
  {
    const hdc::HDClassifier& model = sys.classifier_at(root);
    std::vector<proto::Envelope> envs;
    for (std::size_t c = 0; c < model.num_classes(); ++c) {
      envs.push_back({proto::kProtoVersion, 0, root,
                      proto::ModelUpdate{static_cast<std::uint32_t>(c),
                                         model.class_accumulator(c)}});
    }
    for (std::size_t i = 0; i < n; ++i) {
      envs.push_back({proto::kProtoVersion, 0, root,
                      proto::QueryEscalate{i, 1, hvs[i][root]}});
    }
    std::vector<std::vector<std::uint8_t>> frames;
    double bytes = 0.0;
    for (const auto& e : envs) {
      frames.push_back(proto::encode(e));
      bytes += static_cast<double>(frames.back().size());
    }
    const double enc = time_per_call([&] {
      for (const auto& e : envs) (void)proto::encode(e);
    });
    const double dec = time_per_call([&] {
      for (const auto& f : frames) (void)proto::decode(f);
    });
    out.metric("proto.codec.encode_MBps", bytes / enc / 1e6, "MB/s");
    out.metric("proto.codec.decode_MBps", bytes / dec / 1e6, "MB/s");
  }
}

}  // namespace perfbench
