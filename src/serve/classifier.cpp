#include "serve/classifier.h"

namespace sugar::serve {

ForestFlowClassifier::ForestFlowClassifier(ml::RandomForest forest,
                                           std::size_t feature_dim,
                                           int num_classes)
    : forest_(std::move(forest)), dim_(feature_dim), classes_(num_classes) {}

std::unique_ptr<ForestFlowClassifier> fit_forest_classifier(
    const ml::Matrix& x, const std::vector<int>& y, int num_classes,
    ml::ForestConfig cfg) {
  ml::RandomForest forest(cfg);
  forest.fit(x, y, num_classes);
  return std::make_unique<ForestFlowClassifier>(std::move(forest), x.cols(),
                                                num_classes);
}

}  // namespace sugar::serve
