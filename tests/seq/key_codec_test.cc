#include "seq/key_codec.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"

namespace vist {
namespace {

TEST(KeyCodecTest, DKeyRoundTrip) {
  std::vector<Symbol> prefix = {1, 2, SymbolTable::ValueSymbol("x")};
  std::string key = EncodeDKey(42, prefix);
  Symbol symbol = 0;
  std::vector<Symbol> decoded;
  ASSERT_TRUE(DecodeDKey(key, &symbol, &decoded));
  EXPECT_EQ(symbol, 42u);
  EXPECT_EQ(decoded, prefix);
}

TEST(KeyCodecTest, EmptyPrefixSupported) {
  std::string key = EncodeDKey(7, {});
  EXPECT_EQ(key.size(), 10u);
  Symbol symbol;
  std::vector<Symbol> prefix;
  ASSERT_TRUE(DecodeDKey(key, &symbol, &prefix));
  EXPECT_EQ(symbol, 7u);
  EXPECT_TRUE(prefix.empty());
}

TEST(KeyCodecTest, DecodeRejectsMalformed) {
  Symbol s;
  std::vector<Symbol> p;
  EXPECT_FALSE(DecodeDKey(Slice("short"), &s, &p));
  std::string key = EncodeDKey(1, {2, 3});
  EXPECT_FALSE(DecodeDKey(Slice(key.data(), key.size() - 1), &s, &p));
  key.push_back('x');
  EXPECT_FALSE(DecodeDKey(key, &s, &p));
}

// The paper's required order: first by Symbol, then by prefix length, then
// by prefix content (§3.3). The encoding must realize it under memcmp.
TEST(KeyCodecTest, MemcmpOrderMatchesPaperOrder) {
  Random rng(99);
  struct Item {
    Symbol symbol;
    std::vector<Symbol> prefix;
    std::string encoded;
  };
  std::vector<Item> items;
  for (int i = 0; i < 500; ++i) {
    Item item;
    item.symbol = 1 + rng.Uniform(5);
    const size_t len = rng.Uniform(5);
    for (size_t j = 0; j < len; ++j) item.prefix.push_back(1 + rng.Uniform(4));
    item.encoded = EncodeDKey(item.symbol, item.prefix);
    items.push_back(std::move(item));
  }
  auto paper_less = [](const Item& a, const Item& b) {
    if (a.symbol != b.symbol) return a.symbol < b.symbol;
    if (a.prefix.size() != b.prefix.size()) {
      return a.prefix.size() < b.prefix.size();
    }
    return a.prefix < b.prefix;
  };
  for (size_t i = 0; i < items.size(); ++i) {
    for (size_t j = 0; j < items.size(); ++j) {
      const int cmp = Slice(items[i].encoded).Compare(items[j].encoded);
      if (paper_less(items[i], items[j])) {
        EXPECT_LT(cmp, 0);
      } else if (paper_less(items[j], items[i])) {
        EXPECT_GT(cmp, 0);
      }
    }
  }
}

TEST(KeyCodecTest, EntryKeyRoundTripAndGrouping) {
  std::string dkey = EncodeDKey(9, {1, 2});
  std::string e1 = EncodeEntryKey(dkey, 50, 100);
  std::string e2 = EncodeEntryKey(dkey, 50, 120);
  std::string e3 = EncodeEntryKey(dkey, 60, 70);
  Slice decoded_dkey;
  uint64_t parent_n = 0, n = 0;
  ASSERT_TRUE(DecodeEntryKey(e1, &decoded_dkey, &parent_n, &n));
  EXPECT_EQ(decoded_dkey.ToString(), dkey);
  EXPECT_EQ(parent_n, 50u);
  EXPECT_EQ(n, 100u);
  // Same D-key: ordered by (parent_n, n) — immediate children of a node
  // are one contiguous prefix range. Different D-key: grouped apart.
  EXPECT_LT(Slice(e1).Compare(e2), 0);
  EXPECT_LT(Slice(e2).Compare(e3), 0);
  std::string other = EncodeEntryKey(EncodeDKey(10, {1, 2}), 0, 0);
  EXPECT_LT(Slice(e3).Compare(other), 0);
  EXPECT_TRUE(Slice(e1).StartsWith(dkey));
  // Malformed inputs rejected.
  EXPECT_FALSE(DecodeEntryKey(Slice(e1.data(), e1.size() - 1), &decoded_dkey,
                              &parent_n, &n));
  EXPECT_FALSE(DecodeEntryKey(dkey, &decoded_dkey, &parent_n, &n));
}

TEST(KeyCodecTest, DocIdKeyRoundTripAndOrder) {
  std::string k1 = EncodeDocIdKey(5, 1);
  std::string k2 = EncodeDocIdKey(5, 2);
  std::string k3 = EncodeDocIdKey(6, 0);
  uint64_t n, doc;
  ASSERT_TRUE(DecodeDocIdKey(k1, &n, &doc));
  EXPECT_EQ(n, 5u);
  EXPECT_EQ(doc, 1u);
  EXPECT_LT(Slice(k1).Compare(k2), 0);
  EXPECT_LT(Slice(k2).Compare(k3), 0);
  EXPECT_FALSE(DecodeDocIdKey(Slice("tooshort"), &n, &doc));

  // The buffer-writing form encodes the same bytes.
  char buf[kDocIdKeySize];
  EXPECT_EQ(EncodeDocIdKey(5, 2, buf).ToString(), k2);
  EXPECT_EQ(EncodeDocIdKey(6, 0, buf).ToString(), k3);
}

TEST(KeyCodecTest, PrefixRangeEndCoversAllExtensions) {
  std::string key = "abc";
  std::string end = PrefixRangeEnd(key);
  EXPECT_EQ(end, "abd");
  EXPECT_LT(Slice(key).Compare(end), 0);
  EXPECT_LT(Slice("abc\xff\xff").Compare(end), 0);
  EXPECT_GT(Slice("abd").Compare(Slice("abc\xff")), 0);

  std::string carry("a\xff", 2);
  EXPECT_EQ(PrefixRangeEnd(carry), "b");
  std::string all_ff("\xff\xff", 2);
  EXPECT_TRUE(PrefixRangeEnd(all_ff).empty());
}

}  // namespace
}  // namespace vist
