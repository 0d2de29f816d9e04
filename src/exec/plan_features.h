// Plan features: the shape statistics of a path expression that the
// router buckets its observed engine costs by.
//
// *Path Summaries and Path Partitioning in Modern XML Databases*
// (PAPERS.md) keys plans on a few shape features of the query. exec::Router
// keys its feedback buckets on the ones extracted here: wildcard,
// descendant-axis and value presence, branch fan-out, and the selectivity
// of the concrete names.
//
// Extraction is pure parsing and lowering (query::ParsePath,
// query::BuildQueryTree); it never touches an index, so it works
// identically for every engine and costs microseconds (the router times it
// into `router.feature_extraction_us`).

#ifndef VIST_EXEC_PLAN_FEATURES_H_
#define VIST_EXEC_PLAN_FEATURES_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"

namespace vist {
namespace exec {

/// Shape statistics of one path expression. They cover the whole query
/// tree: main-spine steps plus every predicate's relative path, recursively.
struct PlanFeatures {
  /// Some name test is '*'.
  bool has_wildcard = false;
  /// Some step follows a '//' (descendant) axis.
  bool has_descendant = false;
  /// Some predicate tests a value ('[text()="v"]', '[a="v"]').
  bool has_value = false;
  /// Predicates that branch into a relative path ('[a/b]', '[a="v"]').
  size_t branch_predicates = 0;
  /// Concrete name tests in query order (duplicates kept). Selectivity
  /// estimation resolves them against corpus statistics.
  std::vector<std::string> names;
};

/// Parses `path`, lowers it once to a query tree, and extracts its
/// features. Fails when query::ParsePath fails (empty or malformed
/// expressions) and with query::BuildQueryTree's NotSupported for shapes
/// every engine's lowering rejects ("/a/*"), so the router refuses those
/// in Prepare instead of trying each engine.
Result<PlanFeatures> ExtractPlanFeatures(std::string_view path);

/// Corpus name statistics a selectivity estimate resolves against. The
/// router maintains one from its insert/delete fan-out; tests build them
/// by hand.
struct NameStats {
  /// Element/attribute occurrences per name across the corpus.
  std::unordered_map<std::string, uint64_t> frequency;
  /// Total element/attribute occurrences (the denominator).
  uint64_t total_elements = 0;
};

/// Smallest relative frequency among the query's concrete names, in
/// [0, 1]: the tightest posting list any engine can anchor the query on.
/// 1.0 when the query names nothing concrete (pure wildcard shapes) or the
/// stats are empty; 0.0 when a name never occurs (provably empty result).
double EstimateSelectivity(const PlanFeatures& features,
                           const NameStats& stats);

}  // namespace exec
}  // namespace vist

#endif  // VIST_EXEC_PLAN_FEATURES_H_
