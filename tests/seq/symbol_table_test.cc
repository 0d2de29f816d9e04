#include "seq/symbol_table.h"

#include <gtest/gtest.h>


namespace vist {
namespace {

TEST(SymbolTableTest, InternIsIdempotent) {
  SymbolTable table;
  Symbol p = table.Intern("purchase");
  Symbol s = table.Intern("seller");
  EXPECT_NE(p, s);
  EXPECT_EQ(table.Intern("purchase"), p);
  EXPECT_EQ(table.size(), 2u);
}

TEST(SymbolTableTest, SymbolsAreDenseNameSymbols) {
  SymbolTable table;
  Symbol a = table.Intern("a");
  Symbol b = table.Intern("b");
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  EXPECT_TRUE(IsNameSymbol(a));
  EXPECT_FALSE(IsValueSymbol(a));
  EXPECT_FALSE(IsWildcardSymbol(a));
}

TEST(SymbolTableTest, LookupDoesNotCreate) {
  SymbolTable table;
  table.Intern("known");
  auto found = table.Lookup("known");
  ASSERT_TRUE(found.ok());
  auto missing = table.Lookup("unknown");
  EXPECT_TRUE(missing.status().IsNotFound());
  EXPECT_EQ(table.size(), 1u);
}

TEST(SymbolTableTest, NameRoundTrip) {
  SymbolTable table;
  Symbol s = table.Intern("manufacturer");
  auto name = table.Name(s);
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(*name, "manufacturer");
  EXPECT_FALSE(table.Name(kInvalidSymbol).ok());
  EXPECT_FALSE(table.Name(999).ok());
  EXPECT_FALSE(table.Name(SymbolTable::ValueSymbol("x")).ok());
}

TEST(SymbolTableTest, ValueSymbolsAreTaggedAndStable) {
  Symbol v1 = SymbolTable::ValueSymbol("dell");
  Symbol v2 = SymbolTable::ValueSymbol("dell");
  Symbol v3 = SymbolTable::ValueSymbol("ibm");
  EXPECT_EQ(v1, v2);
  EXPECT_NE(v1, v3);
  EXPECT_TRUE(IsValueSymbol(v1));
  EXPECT_FALSE(IsNameSymbol(v1));
}

TEST(SymbolTableTest, WildcardClassification) {
  EXPECT_TRUE(IsWildcardSymbol(kStarSymbol));
  EXPECT_TRUE(IsWildcardSymbol(kDescendantSymbol));
  EXPECT_FALSE(IsNameSymbol(kStarSymbol));
  EXPECT_FALSE(IsValueSymbol(kDescendantSymbol));
}

TEST(SymbolTableTest, EncodeDecodeRoundTrip) {
  SymbolTable table;
  const Symbol p = table.Intern("purchase");
  const Symbol s = table.Intern("seller");
  const Symbol z = table.Intern("zzz");
  // A table encodes as one (symbol, name) record per name, and decodes by
  // restoring the records in symbol order.
  SymbolTable loaded;
  for (Symbol symbol = 1; symbol <= table.size(); ++symbol) {
    auto name = table.Name(symbol);
    ASSERT_TRUE(name.ok());
    ASSERT_TRUE(loaded.Restore(symbol, *name).ok());
  }
  EXPECT_EQ(loaded.size(), 3u);
  EXPECT_EQ(loaded.Lookup("purchase").value(), p);
  EXPECT_EQ(loaded.Lookup("seller").value(), s);
  EXPECT_EQ(loaded.Lookup("zzz").value(), z);
  EXPECT_EQ(loaded.Name(p).value(), "purchase");
  // Interning continues after the restored symbols.
  EXPECT_EQ(loaded.Intern("new"), z + 1);
}

TEST(SymbolTableTest, RestoreRejectsMalformedRecords) {
  SymbolTable table;
  EXPECT_TRUE(table.Restore(2, "gap").IsCorruption());  // symbol 1 missing
  EXPECT_TRUE(table.Restore(0, "zero").IsCorruption());
  ASSERT_TRUE(table.Restore(1, "a").ok());
  EXPECT_TRUE(table.Restore(1, "again").IsCorruption());  // replayed symbol
  EXPECT_TRUE(table.Restore(2, "a").IsCorruption());      // duplicate name
  EXPECT_EQ(table.size(), 1u);
}

}  // namespace
}  // namespace vist
