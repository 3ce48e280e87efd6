// Unit tests for the class-hypervector classifier (src/hdc/classifier.*).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "hdc/classifier.hpp"
#include "hdc/encoder.hpp"
#include "hdc/random.hpp"

namespace {

using namespace edgehd::hdc;

/// Two well-separated clusters in hyperspace, built from prototypes with
/// per-sample bit noise.
struct TwoClusters {
  std::vector<BipolarHV> hvs;
  std::vector<std::size_t> labels;
  std::vector<BipolarHV> prototypes;

  explicit TwoClusters(std::size_t dim, std::size_t per_class,
                       double flip = 0.15, std::uint64_t seed = 1) {
    Rng rng(seed);
    for (int c = 0; c < 2; ++c) prototypes.push_back(rng.sign_vector(dim));
    for (int c = 0; c < 2; ++c) {
      for (std::size_t i = 0; i < per_class; ++i) {
        auto hv = prototypes[c];
        for (auto& v : hv) {
          if (rng.bernoulli(flip)) v = static_cast<std::int8_t>(-v);
        }
        hvs.push_back(std::move(hv));
        labels.push_back(c);
      }
    }
  }
};

TEST(Classifier, RejectsDegenerateShapes) {
  EXPECT_THROW(HDClassifier(1, 100), std::invalid_argument);
  EXPECT_THROW(HDClassifier(2, 0), std::invalid_argument);
}

TEST(Classifier, LearnsSeparableClusters) {
  TwoClusters data(1024, 40);
  HDClassifier clf(2, 1024);
  for (std::size_t i = 0; i < data.hvs.size(); ++i) {
    clf.add_sample(data.labels[i], data.hvs[i]);
  }
  EXPECT_EQ(clf.accuracy(data.hvs, data.labels), 1.0);
}

TEST(Classifier, RetrainReducesTrainingErrors) {
  // Overlapping clusters: initial bundling misclassifies some samples.
  TwoClusters data(256, 60, 0.42, 3);
  HDClassifier clf(2, 256);
  for (std::size_t i = 0; i < data.hvs.size(); ++i) {
    clf.add_sample(data.labels[i], data.hvs[i]);
  }
  const std::size_t before = clf.retrain_epoch(data.hvs, data.labels);
  std::size_t after = before;
  for (int e = 0; e < 19 && after > 0; ++e) {
    after = clf.retrain_epoch(data.hvs, data.labels);
  }
  EXPECT_LE(after, before);
}

/// Noisy clusters around `k` random prototypes (sample i has label i % k).
void noisy_clusters(Rng& rng, std::size_t k, std::size_t dim,
                    std::size_t per_class, double flip,
                    std::vector<BipolarHV>& prototypes,
                    std::vector<BipolarHV>& hvs,
                    std::vector<std::size_t>& labels) {
  for (std::size_t c = 0; c < k; ++c) prototypes.push_back(rng.sign_vector(dim));
  for (std::size_t i = 0; i < k * per_class; ++i) {
    auto hv = prototypes[i % k];
    for (auto& v : hv) {
      if (rng.bernoulli(flip)) v = static_cast<std::int8_t>(-v);
    }
    hvs.push_back(std::move(hv));
    labels.push_back(i % k);
  }
}

/// Reference perceptron for the differential test below: dense int32 class
/// accumulators scored by int64 dot products and cosine, with no bit planes
/// and no cache. Ties go to the lowest class index.
struct NaivePerceptron {
  std::size_t dim;
  std::vector<AccumHV> classes;

  NaivePerceptron(std::size_t k, std::size_t d)
      : dim(d), classes(k, AccumHV(d, 0)) {}

  std::size_t predict(const BipolarHV& q) const {
    std::size_t best = 0;
    double best_sim = 0.0;
    for (std::size_t c = 0; c < classes.size(); ++c) {
      std::int64_t dot = 0;
      std::int64_t squares = 0;
      for (std::size_t i = 0; i < dim; ++i) {
        dot += std::int64_t{q[i]} * classes[c][i];
        squares += std::int64_t{classes[c][i]} * classes[c][i];
      }
      const double denom = std::sqrt(static_cast<double>(dim)) *
                           std::sqrt(static_cast<double>(squares));
      const double sim = denom == 0.0 ? 0.0 : static_cast<double>(dot) / denom;
      if (c == 0 || sim > best_sim) {
        best = c;
        best_sim = sim;
      }
    }
    return best;
  }

  /// One online pass: each mispredict moves the sample into its true class
  /// and out of the predicted one before the next sample is scored.
  std::size_t epoch(const std::vector<BipolarHV>& hvs,
                    const std::vector<std::size_t>& labels) {
    std::size_t errors = 0;
    for (std::size_t s = 0; s < hvs.size(); ++s) {
      const std::size_t guess = predict(hvs[s]);
      if (guess == labels[s]) continue;
      ++errors;
      for (std::size_t i = 0; i < dim; ++i) {
        classes[labels[s]][i] += hvs[s][i];
        classes[guess][i] -= hvs[s][i];
      }
    }
    return errors;
  }
};

TEST(Classifier, RetrainMatchesNaiveReferencePerceptron) {
  // Noisy overlapping clusters at a dim that is not a multiple of 64, so the
  // packed planes carry a partial tail word. More samples than dimensions
  // keeps the perceptron making mistakes for several epochs.
  const std::size_t k = 4, dim = 333, per_class = 120;
  for (const std::uint64_t seed : {7u, 8u, 9u, 10u}) {
    Rng rng(seed);
    std::vector<BipolarHV> prototypes, hvs;
    std::vector<std::size_t> labels;
    noisy_clusters(rng, k, dim, per_class, 0.47, prototypes, hvs, labels);

    HDClassifier clf(k, dim);
    HDClassifier stepped(k, dim);
    NaivePerceptron ref(k, dim);
    for (std::size_t i = 0; i < hvs.size(); ++i) {
      clf.add_sample(labels[i], hvs[i]);
      stepped.add_sample(labels[i], hvs[i]);
      for (std::size_t d = 0; d < dim; ++d) ref.classes[labels[i]][d] += hvs[i][d];
    }

    // Same epoch budget and early stop as HDClassifier::retrain.
    std::vector<std::size_t> ref_errors;
    std::vector<std::size_t> got_errors;
    for (std::size_t e = 0; e < clf.config().retrain_epochs; ++e) {
      ref_errors.push_back(ref.epoch(hvs, labels));
      got_errors.push_back(stepped.retrain_epoch(hvs, labels));
      if (ref_errors.back() == 0) break;
    }
    const std::size_t final_errors = clf.retrain(hvs, labels);

    EXPECT_GT(ref_errors.front(), 0u) << "seed " << seed;
    EXPECT_GT(ref_errors.size(), 2u) << "seed " << seed;
    EXPECT_EQ(got_errors, ref_errors) << "seed " << seed;
    EXPECT_EQ(final_errors, ref_errors.back()) << "seed " << seed;
    for (std::size_t c = 0; c < k; ++c) {
      EXPECT_EQ(clf.class_accumulator(c), ref.classes[c])
          << "seed " << seed << " class " << c;
      EXPECT_EQ(stepped.class_accumulator(c), ref.classes[c])
          << "seed " << seed << " class " << c;
    }
  }
}

/// A model rebuilt from `clf`'s accumulators with a cold cache.
HDClassifier cold_twin(const HDClassifier& clf) {
  HDClassifier twin(clf.num_classes(), clf.dim(), clf.config());
  for (std::size_t c = 0; c < clf.num_classes(); ++c) {
    twin.set_class_accumulator(c, clf.class_accumulator(c));
  }
  return twin;
}

/// Every 5th sample plus tri-state probes must score bit-identically on the
/// incrementally kept model and its cold twin.
void expect_matches_cold_twin(const HDClassifier& clf,
                              const std::vector<BipolarHV>& hvs, Rng& rng,
                              const std::string& where) {
  const HDClassifier twin = cold_twin(clf);
  for (std::size_t i = 0; i < hvs.size(); i += 5) {
    EXPECT_EQ(clf.similarities(hvs[i]), twin.similarities(hvs[i]))
        << where << " sample " << i;
  }
  for (int p = 0; p < 8; ++p) {
    std::vector<std::int8_t> q(clf.dim());
    for (auto& v : q) v = static_cast<std::int8_t>(static_cast<int>(rng.index(3)) - 1);
    EXPECT_EQ(clf.similarities(q), twin.similarities(q)) << where << " probe " << p;
  }
}

std::int64_t sum_of_squares(const AccumHV& acc) {
  std::int64_t s = 0;
  for (const std::int32_t v : acc) s += static_cast<std::int64_t>(v) * v;
  return s;
}

TEST(Classifier, IncrementalRetrainMatchesColdTwinEveryEpoch) {
  // Retrain keeps planes and denominators current in place; after every
  // epoch, a twin rebuilt from the same accumulators must give the same
  // doubles. A dimension patch then goes through the same check.
  const std::size_t k = 4, dim = 333, per_class = 120;
  for (const std::uint64_t seed : {21u, 22u, 23u, 24u}) {
    Rng rng(seed);
    std::vector<BipolarHV> prototypes, hvs;
    std::vector<std::size_t> labels;
    noisy_clusters(rng, k, dim, per_class, 0.47, prototypes, hvs, labels);
    HDClassifier clf(k, dim);
    for (std::size_t i = 0; i < hvs.size(); ++i) clf.add_sample(labels[i], hvs[i]);

    std::size_t epochs = 0;
    for (std::size_t e = 0; e < clf.config().retrain_epochs; ++e, ++epochs) {
      const std::size_t errors = clf.retrain_epoch(hvs, labels);
      expect_matches_cold_twin(clf, hvs, rng,
                               "seed " + std::to_string(seed) + " epoch " +
                                   std::to_string(e));
      if (errors == 0) break;
    }
    EXPECT_GT(epochs, 2u) << "seed " << seed;

    const std::vector<std::uint32_t> dims = {0, 5, 64, 200, 332};
    const std::vector<std::int32_t> deltas = {3, -7, 1, 40, -2};
    clf.add_to_dimensions(1, dims, deltas);
    expect_matches_cold_twin(clf, hvs, rng,
                             "seed " + std::to_string(seed) + " patch");
  }
}

/// Rewrites lane 0 of class `c` so its sum of squares lands in
/// [target - 2|lane| - 1000, target - 1000]: within about one lane's step
/// (~1e7 at these magnitudes) of `target`.
void set_sum_of_squares_near(HDClassifier& clf, std::size_t c,
                             std::int64_t target) {
  AccumHV acc = clf.class_accumulator(c);
  const std::int64_t v = acc[0];
  const std::int64_t square = v * v + target - sum_of_squares(acc) - 1000;
  auto mag = static_cast<std::int64_t>(std::sqrt(static_cast<double>(square)));
  while (mag * mag > square) --mag;
  acc[0] = static_cast<std::int32_t>(v < 0 ? -mag : mag);
  clf.set_class_accumulator(c, std::move(acc));
}

TEST(Classifier, IncrementalRetrainAcrossExactSumOfSquaresLimit) {
  // Class magnitudes of ~5e6 put sum c_i^2 next to 2^53, where the exact
  // update must hand over to norm()-based rebuilds and back. The twin check
  // holds on both sides of the limit.
  const std::size_t dim = 333;
  constexpr std::int64_t kLimit = std::int64_t{1} << 53;
  const auto m = static_cast<std::int32_t>(
      std::sqrt(static_cast<double>(kLimit) / static_cast<double>(dim)));

  {
    // Upward: every sample is labelled 0 but class 1 (the same scaled
    // prototype plus the bundled samples) scores higher, so class 0 takes
    // +sample updates that push it from just below 2^53 past it.
    Rng rng(25);
    const BipolarHV proto = rng.sign_vector(dim);
    std::vector<BipolarHV> hvs;
    for (int i = 0; i < 40; ++i) {
      auto hv = proto;
      for (auto& v : hv) {
        if (rng.bernoulli(0.1)) v = static_cast<std::int8_t>(-v);
      }
      hvs.push_back(std::move(hv));
    }
    const std::vector<std::size_t> labels(hvs.size(), 0);
    HDClassifier clf(2, dim);
    AccumHV scaled(dim);
    for (std::size_t i = 0; i < dim; ++i) scaled[i] = m * proto[i];
    clf.set_class_accumulator(0, scaled);
    for (const auto& hv : hvs) bundle_into(scaled, hv);
    clf.set_class_accumulator(1, scaled);
    set_sum_of_squares_near(clf, 0, kLimit);
    ASSERT_LT(sum_of_squares(clf.class_accumulator(0)), kLimit);
    ASSERT_GT(sum_of_squares(clf.class_accumulator(0)), kLimit - 20000000);
    clf.warm_cache();

    const std::size_t errors = clf.retrain_epoch(hvs, labels);
    expect_matches_cold_twin(clf, hvs, rng, "upward");
    EXPECT_GT(errors, 0u);
    EXPECT_GE(sum_of_squares(clf.class_accumulator(0)), kLimit);
  }
  {
    // Downward: scaled noisy clusters lose magnitude over retraining, so a
    // class that starts just above 2^53 drops back under it.
    const std::size_t k = 3;
    Rng rng(26);
    std::vector<BipolarHV> prototypes, hvs;
    std::vector<std::size_t> labels;
    noisy_clusters(rng, k, dim, 60, 0.45, prototypes, hvs, labels);
    HDClassifier clf(k, dim);
    for (std::size_t i = 0; i < hvs.size(); ++i) clf.add_sample(labels[i], hvs[i]);
    for (std::size_t c = 0; c < 2; ++c) {
      AccumHV acc = clf.class_accumulator(c);
      for (std::size_t i = 0; i < dim; ++i) acc[i] += m * prototypes[c][i];
      clf.set_class_accumulator(c, std::move(acc));
    }
    set_sum_of_squares_near(clf, 0, kLimit + 20000000);
    ASSERT_GE(sum_of_squares(clf.class_accumulator(0)), kLimit);

    std::size_t updates = 0;
    for (std::size_t e = 0; e < 4; ++e) {
      updates += clf.retrain_epoch(hvs, labels);
      expect_matches_cold_twin(clf, hvs, rng, "downward epoch " + std::to_string(e));
    }
    EXPECT_GT(updates, 0u);
    EXPECT_LT(sum_of_squares(clf.class_accumulator(0)), kLimit);
  }
}

TEST(Classifier, PredictionReportsValidConfidence) {
  TwoClusters data(512, 20);
  HDClassifier clf(2, 512);
  for (std::size_t i = 0; i < data.hvs.size(); ++i) {
    clf.add_sample(data.labels[i], data.hvs[i]);
  }
  const auto p = clf.predict(data.hvs.front());
  EXPECT_LT(p.label, 2u);
  EXPECT_GT(p.confidence, 0.0);
  EXPECT_LE(p.confidence, 1.0);
  EXPECT_EQ(p.similarities.size(), 2u);
}

TEST(Classifier, ConfidenceHigherOnCleanSamples) {
  TwoClusters data(2048, 30, 0.1, 5);
  HDClassifier clf(2, 2048);
  for (std::size_t i = 0; i < data.hvs.size(); ++i) {
    clf.add_sample(data.labels[i], data.hvs[i]);
  }
  // A prototype is maximally clean; a heavily corrupted sample is ambiguous.
  Rng rng(9);
  auto noisy = data.prototypes[0];
  for (auto& v : noisy) {
    if (rng.bernoulli(0.45)) v = static_cast<std::int8_t>(-v);
  }
  EXPECT_GT(clf.predict(data.prototypes[0]).confidence,
            clf.predict(noisy).confidence);
}

TEST(Classifier, SoftmaxIsNormalizedAndOrderPreserving) {
  const std::vector<double> sims{0.1, 0.5, 0.3};
  const auto p = softmax(sims, 10.0);
  double sum = 0.0;
  for (const double v : p) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_GT(p[1], p[2]);
  EXPECT_GT(p[2], p[0]);
}

TEST(Classifier, NegativeFeedbackAccumulatesInResiduals) {
  HDClassifier clf(2, 64);
  Rng rng(2);
  const auto q = rng.sign_vector(64);
  EXPECT_FALSE(clf.has_pending_residuals());
  clf.feedback_negative(0, q);
  EXPECT_TRUE(clf.has_pending_residuals());
}

TEST(Classifier, ApplyResidualsSubtractsFromModel) {
  HDClassifier clf(2, 8);
  const BipolarHV q(8, 1);
  clf.add_sample(0, q);
  clf.add_sample(0, q);
  clf.feedback_negative(0, q);
  clf.apply_residuals();
  EXPECT_FALSE(clf.has_pending_residuals());
  // Model had +2 per dim, residual removes 1.
  for (const auto v : clf.class_accumulator(0)) EXPECT_EQ(v, 1);
}

TEST(Classifier, TakeResidualsMovesAndClears) {
  HDClassifier clf(2, 8);
  const BipolarHV q(8, 1);
  clf.feedback_negative(1, q);
  const auto res = clf.take_residuals();
  ASSERT_EQ(res.size(), 2u);
  for (const auto v : res[1]) EXPECT_EQ(v, 1);
  EXPECT_FALSE(clf.has_pending_residuals());
}

TEST(Classifier, ExternalResidualsValidateShape) {
  HDClassifier clf(2, 8);
  std::vector<AccumHV> wrong_count(1, AccumHV(8, 0));
  EXPECT_THROW(clf.apply_external_residuals(wrong_count),
               std::invalid_argument);
}

TEST(Classifier, NegativeFeedbackImprovesSubsequentPrediction) {
  // Model biased toward class 0; repeated rejections of class 0 on a query
  // eventually flip the prediction.
  HDClassifier clf(2, 512);
  Rng rng(4);
  const auto proto0 = rng.sign_vector(512);
  const auto proto1 = rng.sign_vector(512);
  for (int i = 0; i < 10; ++i) {
    clf.add_sample(0, proto0);
    clf.add_sample(1, proto1);
  }
  // Query near class 0's prototype but "wrong" per the user.
  auto q = proto0;
  for (std::size_t i = 0; i < 100; ++i) q[i] = proto1[i];
  ASSERT_EQ(clf.predict(q).label, 0u);
  for (int round = 0; round < 30 && clf.predict(q).label == 0; ++round) {
    clf.feedback_negative(0, q);
    clf.apply_residuals();
  }
  EXPECT_EQ(clf.predict(q).label, 1u);
}

TEST(Classifier, MergeAddsAccumulators) {
  HDClassifier a(2, 4);
  HDClassifier b(2, 4);
  const BipolarHV q(4, 1);
  a.add_sample(0, q);
  b.add_sample(0, q);
  a.merge(b);
  for (const auto v : a.class_accumulator(0)) EXPECT_EQ(v, 2);
  HDClassifier c(3, 4);
  EXPECT_THROW(a.merge(c), std::invalid_argument);
}

TEST(Classifier, AccumulatorAccessValidates) {
  HDClassifier clf(2, 4);
  EXPECT_THROW(clf.class_accumulator(5), std::out_of_range);
  EXPECT_THROW(clf.set_class_accumulator(0, AccumHV(3, 0)),
               std::invalid_argument);
  clf.set_class_accumulator(0, AccumHV{1, 2, 3, 4});
  EXPECT_EQ(clf.class_accumulator(0), (AccumHV{1, 2, 3, 4}));
}

TEST(Classifier, EncoderPlusClassifierSolvesNonLinearProblem) {
  // XOR in 2-D: linearly inseparable; the RBF encoder makes it separable by
  // a class-hypervector model (the paper's core encoding claim).
  RbfEncoder enc(2, 4096, 11, 1.0F);
  HDClassifier clf(2, 4096);
  Rng rng(12);
  std::vector<BipolarHV> hvs;
  std::vector<std::size_t> labels;
  for (int i = 0; i < 200; ++i) {
    const float x = rng.gaussian();
    const float y = rng.gaussian();
    const std::vector<float> f{x, y};
    hvs.push_back(enc.encode(f));
    labels.push_back((x > 0) == (y > 0) ? 0u : 1u);
  }
  for (std::size_t i = 0; i < hvs.size(); ++i) clf.add_sample(labels[i], hvs[i]);
  clf.retrain(hvs, labels);
  EXPECT_GT(clf.accuracy(hvs, labels), 0.85);
}

}  // namespace
