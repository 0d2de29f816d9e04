#include "workload.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <thread>
#include <unordered_map>

#include "datagen/dblp_gen.h"
#include "datagen/xmark_gen.h"
#include "oracle.h"
#include "xml/writer.h"

namespace perfbench {
namespace {

constexpr WorkloadSpec kWorkloads[] = {
    // name          xmark  records readers hot    churn  pool_divisor
    {"dblp_query", false, 20000, 2, false, false, 0},
    {"dblp_hot", false, 20000, 2, true, false, 0},
    {"xmark_churn", true, 20000, 1, false, true, 4},
};

/// Hot set: this many strings, drawn with Zipf(kHotTheta) by rank.
constexpr int kHotStrings = 64;
constexpr double kHotTheta = 1.1;
/// Ranks r with r % 8 == 3 hold these large-answer strings, so the traffic
/// share of large answers does not depend on the seed.
constexpr const char* kHotLarge[] = {
    "/inproceedings/title",     "/article/journal",
    "/book/publisher",          "/phdthesis/school",
    "/inproceedings/booktitle", "/article/volume",
    "/*/author[text()='David']", "//author[text()='David']",
};

// Distinct streams of randomness per purpose, all derived from the seed.
constexpr uint64_t kStreamSalt = 0x5eedf00dULL;
constexpr uint64_t kQuerySalt = 0x9e3779b97f4a7c15ULL;

using Vocabulary = std::map<std::string, std::vector<std::string>>;

Doc MakeDoc(uint64_t id, vist::xml::Document tree) {
  Doc doc;
  doc.id = id;
  doc.xml = vist::xml::Write(tree);
  doc.tree = std::move(tree);
  return doc;
}

void CollectTexts(const vist::xml::Node& node,
                  std::map<std::string, std::set<std::string>>* texts) {
  for (const auto& child : node.children()) {
    if (!child->is_element()) continue;
    std::string text = child->Text();
    if (!text.empty()) (*texts)[child->name()].insert(std::move(text));
    CollectTexts(*child, texts);
  }
}

/// Element text values by element name, plus two DBLP specials: the keys
/// of book records ("book_key") and the titles of inproceedings
/// ("inproceedings_title").
Vocabulary CollectVocabulary(const std::vector<Doc>& corpus) {
  std::map<std::string, std::set<std::string>> texts;
  for (const Doc& doc : corpus) {
    const vist::xml::Node& root = *doc.tree.root();
    CollectTexts(root, &texts);
    if (root.name() == "book") {
      texts["book_key"].insert(std::string(root.Attribute("key")));
    }
    if (root.name() == "inproceedings") {
      if (const vist::xml::Node* title = root.FindChildElement("title")) {
        texts["inproceedings_title"].insert(title->Text());
      }
    }
  }
  Vocabulary vocabulary;
  for (auto& [name, values] : texts) {
    vocabulary[name].assign(values.begin(), values.end());
  }
  return vocabulary;
}

const std::string& Pick(const Vocabulary& vocabulary, const std::string& name,
                        vist::Random* rng) {
  const std::vector<std::string>& values = vocabulary.at(name);
  return values[rng->Uniform(values.size())];
}

/// Table 3 Q1-Q5 shapes (`shape` 1-5) with values drawn from the corpus
/// vocabulary, so a query string rarely repeats.
std::string DblpQuery(const Vocabulary& v, int shape, vist::Random* rng) {
  switch (shape) {
    case 1:
      return "/inproceedings/title[text()='" +
             Pick(v, "inproceedings_title", rng) + "']";
    case 2:
      return "/book/author[text()='" + Pick(v, "author", rng) + "']";
    case 3:
      return "/*/author[text()='" + Pick(v, "author", rng) + "']";
    case 4:
      return "//author[text()='" + Pick(v, "author", rng) + "']";
    default:
      return "/book[key='" + Pick(v, "book_key", rng) + "']/author";
  }
}

/// Table 3 Q6-Q8 shapes (`shape` 6-8). Locations and cities are taken in
/// turn (`turn` counts the shape's earlier uses); dates and persons are
/// drawn.
std::string XmarkQuery(const Vocabulary& v, int shape, uint64_t turn,
                       vist::Random* rng) {
  auto nth = [&](const char* name) -> const std::string& {
    const std::vector<std::string>& values = v.at(name);
    return values[turn % values.size()];
  };
  switch (shape) {
    case 6:
      return "/site//item[location='" + nth("location") +
             "']/mailbox/mail/date[text()='" + Pick(v, "date", rng) + "']";
    case 7:
      return "/site//person/*/city[text()='" + nth("city") + "']";
    default:
      return "//closed_auction[*[person='" + Pick(v, "person", rng) +
             "']]/date[text()='" + Pick(v, "date", rng) + "']";
  }
}

/// Readers send the shapes in these fixed cycles, so every run has the same
/// mix. The cheap shapes (Q2 3.6 ms, Q5 13 ms, Q7 6 ms alone on this
/// corpus, against ~30 ms for Q1, Q3, Q4 and Q6) are repeated so a run
/// collects enough samples for a p99, and so the median falls inside one
/// shape's band rather than on the edge between two.
constexpr int kDblpCycle[] = {2, 3, 5, 2, 4, 5, 2, 1};
constexpr int kXmarkCycle[] = {7, 6, 7, 7, 8, 7, 7, 7};

std::vector<double> ZipfCdf(int n, double theta) {
  std::vector<double> cdf(static_cast<size_t>(n));
  double total = 0;
  for (int r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), theta);
    cdf[static_cast<size_t>(r)] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

/// The corpus (ids 1..records) and, from a second generator, the write
/// stream (ids records+1..).
template <typename Generator, typename Options>
void Generate(uint64_t seed, uint64_t records, size_t stream_docs,
              Inputs* out) {
  Options options;
  options.seed = seed;
  Generator gen(options);
  options.seed = seed ^ kStreamSalt;
  Generator stream_gen(options);
  for (uint64_t i = 0; i < records; ++i) {
    out->corpus.push_back(MakeDoc(i + 1, gen.NextRecord(i)));
  }
  for (uint64_t j = 0; j < stream_docs; ++j) {
    out->stream.push_back(
        MakeDoc(records + 1 + j, stream_gen.NextRecord(records + j)));
  }
}

/// Fills every case's expected answers, splitting corpus and stream ids.
vist::Status ComputeAnswers(const Oracle& oracle, uint64_t corpus_size,
                            std::vector<QueryCase>* cases) {
  const size_t threads = std::clamp<size_t>(
      std::thread::hardware_concurrency(), 1, 4);
  std::vector<vist::Status> errors(threads);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t i = t; i < cases->size(); i += threads) {
        QueryCase& c = (*cases)[i];
        auto answer = oracle.Answer(c.path);
        if (!answer.ok()) {
          errors[t] = answer.status();
          return;
        }
        for (uint64_t id : *answer) {
          (id <= corpus_size ? c.corpus_ids : c.stream_ids).push_back(id);
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
  for (const vist::Status& s : errors) {
    if (!s.ok()) return s;
  }
  return vist::Status::OK();
}

}  // namespace

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

uint32_t Inputs::NextCase(int reader, uint64_t* position,
                          vist::Random* rng) const {
  if (!hot_cdf.empty()) {
    const double u = rng->NextDouble();
    const auto it = std::upper_bound(hot_cdf.begin(), hot_cdf.end(), u);
    return static_cast<uint32_t>(
        std::min<size_t>(static_cast<size_t>(it - hot_cdf.begin()),
                         hot_cdf.size() - 1));
  }
  const std::vector<uint32_t>& order =
      request_order[static_cast<size_t>(reader)];
  return order[(*position)++ % order.size()];
}

vist::Status MakeInputs(const WorkloadSpec& spec, uint64_t seed, double scale,
                        size_t requests_per_reader, size_t stream_docs,
                        Inputs* out) {
  const auto records = static_cast<uint64_t>(
      std::max(100.0, std::round(spec.records * scale)));
  if (spec.xmark) {
    Generate<vist::XmarkGenerator, vist::XmarkOptions>(seed, records,
                                                       stream_docs, out);
  } else {
    Generate<vist::DblpGenerator, vist::DblpOptions>(seed, records,
                                                     stream_docs, out);
  }

  const Vocabulary vocabulary = CollectVocabulary(out->corpus);
  vist::Random rng(seed ^ kQuerySalt);
  std::map<int, uint64_t> turns;  // per shape, for XmarkQuery
  auto draw = [&](int shape) {
    return spec.xmark ? XmarkQuery(vocabulary, shape, turns[shape]++, &rng)
                      : DblpQuery(vocabulary, shape, &rng);
  };
  std::unordered_map<std::string, uint32_t> case_of;
  auto case_index = [&](const std::string& path) {
    auto [it, fresh] =
        case_of.emplace(path, static_cast<uint32_t>(out->cases.size()));
    if (fresh) out->cases.push_back(QueryCase{path, {}, {}});
    return it->second;
  };
  if (spec.hot) {
    std::set<std::string> taken(std::begin(kHotLarge), std::end(kHotLarge));
    for (int rank = 0; rank < kHotStrings; ++rank) {
      if (rank % 8 == 3) {
        case_index(kHotLarge[rank / 8]);
        continue;
      }
      // Hot strings take the dblp_query shapes in cycle order.
      const int shape = kDblpCycle[rank % std::size(kDblpCycle)];
      std::string path = draw(shape);
      while (!taken.insert(path).second) path = draw(shape);
      case_index(path);
    }
    out->hot_cdf = ZipfCdf(kHotStrings, kHotTheta);
  } else {
    for (int reader = 0; reader < spec.readers; ++reader) {
      const int* cycle = spec.xmark ? kXmarkCycle : kDblpCycle;
      const size_t cycle_size =
          spec.xmark ? std::size(kXmarkCycle) : std::size(kDblpCycle);
      std::vector<uint32_t> order;
      for (size_t i = 0; i < requests_per_reader; ++i) {
        // Readers start at different points of the cycle.
        const size_t slot = (i + 3 * static_cast<size_t>(reader)) % cycle_size;
        order.push_back(case_index(draw(cycle[slot])));
      }
      out->request_order.push_back(std::move(order));
    }
  }

  Oracle oracle;
  for (const std::vector<Doc>* docs : {&out->corpus, &out->stream}) {
    for (const Doc& doc : *docs) {
      vist::Status s = oracle.Add(doc.id, doc.xml);
      if (!s.ok()) return s;
    }
  }
  return ComputeAnswers(oracle, records, &out->cases);
}

}  // namespace perfbench
