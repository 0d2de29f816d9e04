#include "vist/matcher.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/metrics.h"
#include "seq/key_codec.h"
#include "seq/sequence.h"

namespace vist {
namespace {

using query::QuerySequence;
using query::QuerySequenceElement;

// Process-wide totals mirroring the per-query QueryProfile fields. Metric
// reference: docs/OBSERVABILITY.md (matcher section).
struct MatcherMetrics {
  obs::Counter& range_scans = obs::GetCounter("vist.matcher.range_scans");
  obs::Counter& entries_scanned =
      obs::GetCounter("vist.matcher.entries_scanned");
  obs::Counter& nodes_matched = obs::GetCounter("vist.matcher.nodes_matched");
  obs::Counter& docid_range_scans =
      obs::GetCounter("vist.matcher.docid_range_scans");

  static MatcherMetrics& Get() {
    static MatcherMetrics metrics;
    return metrics;
  }
};

// A query element's concrete binding during the search.
struct BoundMatch {
  std::vector<Symbol> prefix;
  Symbol symbol = kInvalidSymbol;
  NodeRecord record;
};

// Credits an anchor seek costs: at most one root-to-leaf descent, where an
// anchor entry costs one. The search earns one credit per range scan it opens.
constexpr uint64_t kAnchorSeekCredits = 4;

// The prefix lengths a D-key matching `pattern` can have: each symbol but
// '//' takes one position, and '//' any number, up to `max_depth`.
struct DepthRange {
  size_t lo = 0;
  size_t hi = 0;
};

DepthRange PatternDepths(const std::vector<Symbol>& pattern,
                         uint64_t max_depth) {
  DepthRange depths;
  bool unbounded = false;
  for (Symbol s : pattern) {
    if (s == kDescendantSymbol) {
      unbounded = true;
    } else {
      ++depths.lo;
    }
  }
  depths.hi = unbounded ? std::max<uint64_t>(max_depth, depths.lo)
                        : depths.lo;
  depths.hi = std::min(depths.hi, kMaxPrefixDepth);
  return depths;
}

class Searcher {
 public:
  Searcher(const MatchContext& context, const QuerySequence& query,
           obs::QueryProfile* profile, std::vector<uint64_t>* results)
      : context_(context),
        query_(query),
        profile_(profile),
        results_(results),
        bound_(query.size()),
        cursors_(query.size()) {}

  Status Run() {
    // q0..qc: the leading chain, each element the query-tree parent of the
    // next. The search starts at its end qc; c = 0 is the paper's top-down
    // order.
    while (chain_end_ + 1 < query_.size() &&
           query_[chain_end_ + 1].parent == static_cast<int>(chain_end_)) {
      ++chain_end_;
    }
    for (size_t i = chain_end_ + 1; i < query_.size(); ++i) {
      const int parent = query_[i].parent;
      if (parent >= 0 && static_cast<size_t>(parent) < chain_end_) {
        bind_chain_ = true;
      }
    }
    last_ = query_.size() - 1;
    if (last_ > chain_end_ && IsValueSymbol(query_[last_].symbol)) {
      StartAnchors();
    }
    // The virtual root's scope encloses every node.
    Search(chain_end_, Scope{0, kMaxScope});
    return status_;
  }

 private:
  void Count(uint64_t obs::QueryProfile::* field, obs::Counter& total,
             uint64_t delta = 1) {
    total.Increment(delta);
    if (profile_ != nullptr) profile_->*field += delta;
  }

  // Cooperative cancellation checkpoint: sets status_ (sticky via the
  // checker) and returns true once the query's deadline has passed.
  bool DeadlineExpired() {
    if (context_.deadline == nullptr || !context_.deadline->Expired()) {
      return false;
    }
    status_ = Status::DeadlineExceeded("deadline expired during matching");
    return true;
  }

  std::unique_ptr<BTree::Iterator> NewEntryIterator() {
    auto it = context_.entry_tree.NewIterator();
    it->set_deadline_checker(context_.deadline);
    return it;
  }

  // Element qi's entry cursor, kept for the whole search. The search
  // recurses from qi only into later elements, so at most one Search frame
  // uses it at a time.
  BTree::Iterator* EntryCursor(size_t qi) {
    if (cursors_[qi] == nullptr) cursors_[qi] = NewEntryIterator();
    return cursors_[qi].get();
  }

  // Matches query elements qi.. inside `enclosing`, the scope of the node
  // matched for element qi-1 (S-Ancestorship: labels in (n, n+size)).
  void Search(size_t qi, const Scope& enclosing) {
    if (!status_.ok() || NoAnchors()) return;
    if (DeadlineExpired()) return;
    if (qi == query_.size()) {
      if (context_.collect_doc_ids) CollectDocIds(bound_[qi - 1].record);
      return;
    }
    const QuerySequenceElement& elem = query_[qi];

    // The D-key pattern left to match. The chain end matches its whole
    // pattern. Every later element is instantiated with its query-tree
    // parent's concrete match (§3.3: the parent's match "instantiates" the
    // shared wildcards), so what remains unresolved is a trailing run of
    // wildcards.
    std::vector<Symbol> pattern;
    if (qi == chain_end_ || elem.parent < 0) {
      pattern = elem.pattern;
    } else {
      const BoundMatch& parent = bound_[elem.parent];
      pattern = parent.prefix;
      pattern.push_back(parent.symbol);
      pattern.insert(pattern.end(),
                     elem.pattern.begin() +
                         query_[elem.parent].pattern.size() + 1,
                     elem.pattern.end());
    }
    size_t known = 0;
    while (known < pattern.size() && !IsWildcardSymbol(pattern[known])) {
      ++known;
    }

    if (known == pattern.size()) {
      // A concrete D-key: seek straight to its S-Ancestor range.
      OpenRangeScan();
      BoundMatch& slot = bound_[qi];
      slot.symbol = elem.symbol;
      slot.prefix = std::move(pattern);
      // A concrete chain end has one alignment: each name at its own
      // pattern position.
      if (qi == chain_end_ && bind_chain_) AlignChain();
      ScanGroup(EntryCursor(qi), EncodeDKey(slot.symbol, slot.prefix), qi,
                enclosing, /*decode_dkey=*/false);
      return;
    }

    // '//' expands into "a series of '*' queries" (§3.3): one prefix-length
    // bucket per depth up to the deepest prefix in the index.
    for (size_t i = known; i < pattern.size(); ++i) {
      VIST_CHECK(qi == chain_end_ || IsWildcardSymbol(pattern[i]))
          << "non-wildcard in instantiated pattern tail";
    }
    const DepthRange depths = PatternDepths(pattern, context_.max_depth);
    pattern.resize(known);
    for (size_t depth = depths.lo; depth <= depths.hi && status_.ok();
         ++depth) {
      SearchDepth(qi, pattern, depth, enclosing);
    }
  }

  // Discovers the D-key groups with query_[qi].symbol, `depth` prefix
  // symbols, and the concrete prefix head `known`, and scans each.
  void SearchDepth(size_t qi, const std::vector<Symbol>& known, size_t depth,
                   const Scope& enclosing) {
    OpenRangeScan();
    const std::string partial =
        EncodeDKeyPartial(query_[qi].symbol, depth, known);
    const std::string partial_end = PrefixRangeEnd(partial);
    const bool at_chain_end = qi == chain_end_ && chain_end_ > 0;

    BTree::Iterator* it = EntryCursor(qi);
    it->Seek(partial);
    while (status_.ok() && !NoAnchors() && it->Valid() &&
           (partial_end.empty() || it->key().Compare(partial_end) < 0)) {
      Slice dkey_slice;
      uint64_t parent_n = 0, n = 0;
      if (!DecodeEntryKey(it->key(), &dkey_slice, &parent_n, &n)) {
        status_ = Status::Corruption("malformed entry key in index");
        return;
      }
      const std::string dkey = dkey_slice.ToString();
      if (!at_chain_end) {
        ScanGroup(it, dkey, qi, enclosing, /*decode_dkey=*/true);
      } else {
        // The chain end's pattern can hold names after a wildcard, which
        // the key range does not filter. Its scope is the whole label
        // space, so every group found here binds it.
        BoundMatch& slot = bound_[qi];
        if (!DecodeDKey(dkey, &slot.symbol, &slot.prefix)) {
          status_ = Status::Corruption("malformed D-key in index");
          return;
        }
        if (AlignChain()) {
          ScanGroup(it, dkey, qi, enclosing, /*decode_dkey=*/false);
        }
      }
      if (!status_.ok()) return;
      // Jump to the next D-key group in the wildcard range.
      const std::string next_group = PrefixRangeEnd(dkey);
      if (next_group.empty()) break;
      it->Seek(next_group);
    }
    if (!it->status().ok()) status_ = it->status();
  }

  // Scans one D-key group's S-Ancestor range: binds element qi to every
  // entry `dkey ‖ parent_n ‖ n` whose parent label lies in `enclosing` (a
  // node is a descendant of x iff its parent is in [x.n, x.n + size) — see
  // seq/key_codec.h) and continues the search below it. With `decode_dkey`,
  // the first bound entry decodes the group's (symbol, prefix) into the
  // binding; otherwise the caller has set it.
  void ScanGroup(BTree::Iterator* it, const std::string& dkey, size_t qi,
                 const Scope& enclosing, bool decode_dkey) {
    const uint64_t parent_hi = enclosing.n + enclosing.size;
    BoundMatch& slot = bound_[qi];
    for (it->Seek(EncodeEntryKey(dkey, enclosing.n, 0));
         it->Valid() && it->key().StartsWith(dkey); it->Next()) {
      if (DeadlineExpired()) return;
      Count(&obs::QueryProfile::entries_scanned,
            MatcherMetrics::Get().entries_scanned);
      Slice seen_dkey;
      uint64_t parent_n = 0, n = 0;
      if (!DecodeEntryKey(it->key(), &seen_dkey, &parent_n, &n)) {
        status_ = Status::Corruption("malformed entry key in index");
        return;
      }
      // A longer D-key sharing the byte prefix is out of group.
      if (seen_dkey != Slice(dkey) || parent_n >= parent_hi) break;
      // Every binding from the chain end on is an anchor or an ancestor
      // of one, and an ancestor's parent label lies below its descendants.
      if (anchors_complete_ &&
          (anchors_.empty() || parent_n >= anchors_.back())) {
        break;
      }
      NodeRecord record;
      if (!DecodeNodeRecord(it->value(), &record)) {
        status_ = Status::Corruption("malformed node record in index");
        return;
      }
      record.n = n;
      record.parent_n = parent_n;
      if (qi != last_ && !MayHoldLastMatch(record.scope())) continue;
      Count(&obs::QueryProfile::nodes_matched,
            MatcherMetrics::Get().nodes_matched);
      if (decode_dkey) {
        if (!DecodeDKey(dkey, &slot.symbol, &slot.prefix)) {
          status_ = Status::Corruption("malformed D-key in index");
          return;
        }
        decode_dkey = false;
      }
      slot.record = record;
      Descend(qi, record.scope());
      if (!status_.ok()) return;
    }
    if (!it->status().ok()) status_ = it->status();
  }

  // Continues the search below element qi's match. At the chain end, each
  // alignment first binds q0..qc-1 to the ancestors it names.
  void Descend(size_t qi, const Scope& scope) {
    if (qi != chain_end_ || !bind_chain_) {
      Search(qi + 1, scope);
      return;
    }
    const std::vector<Symbol>& prefix = bound_[qi].prefix;
    for (size_t a = 0; a < alignments_.size() && status_.ok();
         a += chain_end_) {
      for (size_t i = 0; i < chain_end_; ++i) {
        bound_[i].symbol = query_[i].symbol;
        bound_[i].prefix.assign(prefix.begin(),
                                prefix.begin() + alignments_[a + i]);
      }
      Search(qi + 1, scope);
    }
  }

  // Aligns the chain end's pattern with its bound prefix. Preorder puts a
  // node's tree ancestors on its own trie path, so the ancestor at prefix
  // position k has the D-key (prefix[k], prefix[0..k)): an alignment that
  // puts qi's name at position k binds qi to that ancestor. Records in
  // alignments_ the positions of q0..qc-1 for every alignment, or for the
  // first only when no later element refers to them; false when there is
  // none.
  bool AlignChain() {
    alignments_.clear();
    AlignFrom(0, 0);
    return !alignments_.empty();
  }

  void AlignFrom(size_t i, size_t from) {
    const std::vector<Symbol>& pattern = query_[chain_end_].pattern;
    const std::vector<Symbol>& prefix = bound_[chain_end_].prefix;
    // pattern[begin, end) is the wildcard run before qi's name, or before
    // the end of the prefix when i == c: '*' spans one prefix symbol, '//'
    // any number.
    const size_t begin = i == 0 ? 0 : query_[i - 1].pattern.size() + 1;
    const size_t end =
        i == chain_end_ ? pattern.size() : query_[i].pattern.size();
    size_t span = 0;
    bool unbounded = false;
    for (size_t j = begin; j < end; ++j) {
      if (pattern[j] == kDescendantSymbol) {
        unbounded = true;
      } else {
        ++span;
      }
    }
    if (i == chain_end_) {
      const size_t rest = prefix.size() - from;
      if (unbounded ? rest >= span : rest == span) {
        alignments_.insert(alignments_.end(), positions_.begin(),
                           positions_.end());
      }
      return;
    }
    for (size_t k = from + span; k < prefix.size(); ++k) {
      if (prefix[k] == query_[i].symbol) {
        positions_.push_back(k);
        AlignFrom(i + 1, k + 1);
        positions_.pop_back();
        if (!bind_chain_ && !alignments_.empty()) return;
      }
      if (!unbounded) break;
    }
  }

  // Counts a range scan the search opens and spends the credit it earns on
  // anchors.
  void OpenRangeScan() {
    Count(&obs::QueryProfile::range_scans, MatcherMetrics::Get().range_scans);
    if (anchor_it_ == nullptr) return;
    ++credit_;
    CollectAnchors();
  }

  // Anchors (header: "Anchors"): the labels of the index nodes that match
  // the last element's own pattern. The collection walks its D-key range
  // like SearchDepth, one prefix length at a time, holding the next seek
  // in anchor_seek_ until the search has earned its credits.
  void StartAnchors() {
    anchor_depths_ = PatternDepths(query_[last_].pattern, context_.max_depth);
    for (Symbol s : query_[last_].pattern) {
      if (IsWildcardSymbol(s)) break;
      anchor_known_.push_back(s);
    }
    anchor_depth_ = anchor_depths_.lo;
    anchor_seek_ = EncodeDKeyPartial(query_[last_].symbol, anchor_depth_,
                                     anchor_known_);
    anchor_end_ = PrefixRangeEnd(anchor_seek_);
    anchor_it_ = NewEntryIterator();
  }

  // Collects anchors while the credit lasts: a seek costs
  // kAnchorSeekCredits and counts as a range scan, an entry costs one.
  void CollectAnchors() {
    while (anchor_it_ != nullptr && status_.ok()) {
      if (!anchor_seek_.empty()) {
        if (credit_ < kAnchorSeekCredits) return;
        credit_ -= kAnchorSeekCredits;
        Count(&obs::QueryProfile::range_scans,
              MatcherMetrics::Get().range_scans);
        anchor_it_->Seek(anchor_seek_);
        anchor_seek_.clear();
        continue;
      }
      if (credit_ == 0) return;
      --credit_;
      if (DeadlineExpired()) return;
      if (!anchor_it_->status().ok()) {
        status_ = anchor_it_->status();
        return;
      }
      if (!anchor_it_->Valid() ||
          (!anchor_end_.empty() &&
           anchor_it_->key().Compare(anchor_end_) >= 0)) {
        NextAnchorDepth();
        continue;
      }
      Count(&obs::QueryProfile::entries_scanned,
            MatcherMetrics::Get().entries_scanned);
      Slice dkey;
      uint64_t parent_n = 0, n = 0;
      if (!DecodeEntryKey(anchor_it_->key(), &dkey, &parent_n, &n)) {
        status_ = Status::Corruption("malformed entry key in index");
        return;
      }
      if (dkey != Slice(anchor_group_)) {
        // A new group. The key range fixes its symbol, its prefix length
        // and the prefix head; names after a wildcard are checked here.
        anchor_group_ = dkey.ToString();
        Symbol symbol = kInvalidSymbol;
        std::vector<Symbol> prefix;
        if (!DecodeDKey(dkey, &symbol, &prefix)) {
          status_ = Status::Corruption("malformed D-key in index");
          return;
        }
        if (!PrefixPatternMatches(query_[last_].pattern, prefix)) {
          anchor_seek_ = PrefixRangeEnd(anchor_group_);
          if (anchor_seek_.empty()) NextAnchorDepth();
          continue;
        }
      }
      anchors_.push_back(n);
      anchor_it_->Next();
    }
  }

  void NextAnchorDepth() {
    if (++anchor_depth_ > anchor_depths_.hi) {
      // Complete: pruning starts.
      std::sort(anchors_.begin(), anchors_.end());
      anchors_complete_ = true;
      anchor_it_.reset();
      return;
    }
    std::string start = EncodeDKeyPartial(query_[last_].symbol,
                                          anchor_depth_, anchor_known_);
    anchor_end_ = PrefixRangeEnd(start);
    // D-keys order by prefix length after the symbol, so a cursor already
    // past the start (always, when the pattern opens with a wildcard)
    // needs no seek; one at the end of the tree has nothing left to find.
    if (anchor_it_->Valid() && anchor_it_->key().Compare(start) < 0) {
      anchor_seek_ = std::move(start);
    }
  }

  // No node matches the last element: the search can bind nothing more.
  bool NoAnchors() const { return anchors_complete_ && anchors_.empty(); }

  // False when `scope` provably holds no match of the last element: the
  // anchors are complete and none lies in (n, n + size).
  bool MayHoldLastMatch(const Scope& scope) const {
    if (!anchors_complete_) return true;
    const auto above = std::upper_bound(anchors_.begin(), anchors_.end(),
                                        scope.n);
    return above != anchors_.end() && *above < scope.n + scope.size;
  }

  // Final step of Algorithm 2: all documents attached at or under the last
  // matched node, i.e. DocId keys with n ∈ [node.n, node.n + size). One
  // cursor serves every binding. After a scope it rests on the first entry
  // at or past the scope's end, docid_floor_. A scope that starts there or
  // later, as the bindings of one D-key group do in label order, reads on
  // from it: no seek when the cursor already sits in the scope, else a
  // finger seek, which finds a target in the pinned leaf without loading a
  // page. Any other scope seeks back.
  void CollectDocIds(const NodeRecord& node) {
    Count(&obs::QueryProfile::docid_range_scans,
          MatcherMetrics::Get().docid_range_scans);
    if (docid_it_ == nullptr) {
      docid_it_ = context_.docid_tree.NewIterator();
      docid_it_->set_deadline_checker(context_.deadline);
    }
    BTree::Iterator* it = docid_it_.get();
    char start[kDocIdKeySize];
    const Slice lo = EncodeDocIdKey(node.n, 0, start);
    const uint64_t hi = node.n + node.size;
    if (node.n < docid_floor_ || (it->Valid() && it->key().Compare(lo) < 0)) {
      it->Seek(lo);
    }
    for (; it->Valid(); it->Next()) {
      if (DeadlineExpired()) return;
      uint64_t n = 0, doc_id = 0;
      if (!DecodeDocIdKey(it->key(), &n, &doc_id)) {
        status_ = Status::Corruption("malformed DocId key in index");
        return;
      }
      if (n >= hi) break;
      results_->push_back(doc_id);
    }
    if (!it->status().ok()) {
      status_ = it->status();
      return;
    }
    docid_floor_ = hi;
  }

  const MatchContext& context_;
  const QuerySequence& query_;
  obs::QueryProfile* profile_;
  std::vector<uint64_t>* results_;
  std::vector<BoundMatch> bound_;
  // The search's cursors: one per query element (created on first use) and
  // one over the DocId tree, which rests on the first entry at or past
  // docid_floor_ (no label before the first collection).
  std::vector<std::unique_ptr<BTree::Iterator>> cursors_;
  std::unique_ptr<BTree::Iterator> docid_it_;
  uint64_t docid_floor_ = UINT64_MAX;
  // Index of the leading chain's last element (qc), and whether any later
  // element's query-tree parent is one of q0..qc-1.
  size_t chain_end_ = 0;
  bool bind_chain_ = false;
  // The chain end's current alignments, chain_end_ positions each, and the
  // positions of the alignment being built.
  std::vector<size_t> alignments_;
  std::vector<size_t> positions_;
  // The last element, and its anchors: a sorted label list once complete.
  // While they are collected, anchor_it_ walks prefix lengths up to
  // anchor_depths_.hi, anchor_group_ is the D-key of the group in hand,
  // and credit_ what the search has earned and not spent.
  size_t last_ = 0;
  std::vector<uint64_t> anchors_;
  bool anchors_complete_ = false;
  std::unique_ptr<BTree::Iterator> anchor_it_;
  DepthRange anchor_depths_;
  size_t anchor_depth_ = 0;
  std::vector<Symbol> anchor_known_;
  std::string anchor_seek_;
  std::string anchor_end_;
  std::string anchor_group_;
  uint64_t credit_ = 0;
  Status status_;
};

}  // namespace

Result<std::vector<uint64_t>> MatchCompiledQuery(
    const MatchContext& context, const query::CompiledQuery& compiled,
    obs::QueryProfile* profile) {
  VIST_CHECK(context.entry_tree.valid() && context.docid_tree.valid());
  obs::ProfileScope scope(profile);
  if (profile != nullptr) {
    profile->alternatives += compiled.alternatives.size();
  }
  std::vector<uint64_t> results;
  for (const QuerySequence& alt : compiled.alternatives) {
    if (alt.empty()) continue;
    Searcher searcher(context, alt, profile, &results);
    VIST_RETURN_IF_ERROR(searcher.Run());
  }
  std::sort(results.begin(), results.end());
  results.erase(std::unique(results.begin(), results.end()), results.end());
  if (profile != nullptr) {
    // A later verification stage (VistIndex::Query with verify) narrows
    // verified_results; until then the two are equal by convention.
    profile->candidates += results.size();
    profile->verified_results = profile->candidates;
  }
  return results;
}

}  // namespace vist
