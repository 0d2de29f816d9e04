#include "exec/plan_features.h"

#include <algorithm>

#include "query/path_expr.h"
#include "query/path_parser.h"

namespace vist {
namespace exec {
namespace {

// Walks one step list (the main spine or a predicate's relative path),
// accumulating features.
void WalkSteps(const std::vector<query::Step>& steps, PlanFeatures* out) {
  for (const query::Step& step : steps) {
    if (step.axis == query::Axis::kDescendant) out->has_descendant = true;
    if (step.is_wildcard()) {
      out->has_wildcard = true;
    } else {
      out->names.push_back(step.name);
    }
    for (const query::Step::Predicate& pred : step.predicates) {
      if (pred.value.has_value()) out->has_value = true;
      if (!pred.steps.empty()) {
        ++out->branch_predicates;
        WalkSteps(pred.steps, out);
      }
    }
  }
}

}  // namespace

Result<PlanFeatures> ExtractPlanFeatures(std::string_view path) {
  VIST_ASSIGN_OR_RETURN(query::PathExpr expr, query::ParsePath(path));
  // Every engine lowers the path to this tree, so a shape it refuses no
  // engine can answer.
  VIST_RETURN_IF_ERROR(query::BuildQueryTree(expr).status());
  PlanFeatures features;
  WalkSteps(expr.steps, &features);
  return features;
}

double EstimateSelectivity(const PlanFeatures& features,
                           const NameStats& stats) {
  if (features.names.empty() || stats.total_elements == 0) return 1.0;
  double best = 1.0;
  for (const std::string& name : features.names) {
    auto it = stats.frequency.find(name);
    const uint64_t count = it == stats.frequency.end() ? 0 : it->second;
    best = std::min(best, static_cast<double>(count) /
                              static_cast<double>(stats.total_elements));
  }
  return best;
}

}  // namespace exec
}  // namespace vist
