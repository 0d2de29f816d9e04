#include "seq/symbol_table.h"

#include "common/hash.h"

namespace vist {

Symbol SymbolTable::Intern(std::string_view name) {
  WriterLock lock(mu_);
  auto it = by_name_.find(std::string(name));
  if (it != by_name_.end()) return it->second;
  names_.emplace_back(name);
  const Symbol symbol = static_cast<Symbol>(names_.size());
  by_name_.emplace(names_.back(), symbol);
  return symbol;
}

Result<Symbol> SymbolTable::Lookup(std::string_view name) const {
  ReaderLock lock(mu_);
  auto it = by_name_.find(std::string(name));
  if (it == by_name_.end()) {
    return Status::NotFound("unknown name '" + std::string(name) + "'");
  }
  return it->second;
}

Result<std::string> SymbolTable::Name(Symbol symbol) const {
  ReaderLock lock(mu_);
  if (!IsNameSymbol(symbol) || symbol > names_.size()) {
    return Status::InvalidArgument("not an interned name symbol");
  }
  return names_[symbol - 1];
}

Symbol SymbolTable::ValueSymbol(const Slice& value) {
  return Hash64(value) | kValueSymbolBit;
}

size_t SymbolTable::size() const {
  ReaderLock lock(mu_);
  return names_.size();
}

Status SymbolTable::Restore(Symbol symbol, std::string_view name) {
  WriterLock lock(mu_);
  if (symbol != names_.size() + 1 ||
      !by_name_.emplace(std::string(name), symbol).second) {
    return Status::Corruption("name record " + std::to_string(symbol) +
                              " out of sequence");
  }
  names_.emplace_back(name);
  return Status::OK();
}

}  // namespace vist
