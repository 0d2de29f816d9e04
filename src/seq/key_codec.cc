#include "seq/key_codec.h"

#include "common/coding.h"
#include "common/logging.h"

namespace vist {

std::string EncodeDKey(Symbol symbol, const std::vector<Symbol>& prefix) {
  VIST_CHECK(prefix.size() <= kMaxPrefixDepth);
  std::string key;
  key.reserve(10 + 8 * prefix.size());
  PutFixed64BE(&key, symbol);
  char len[2];
  len[0] = static_cast<char>(prefix.size() >> 8);
  len[1] = static_cast<char>(prefix.size());
  key.append(len, 2);
  for (Symbol p : prefix) PutFixed64BE(&key, p);
  return key;
}

std::string EncodeDKeyPartial(Symbol symbol, size_t declared_len,
                              const std::vector<Symbol>& known_prefix) {
  VIST_CHECK(known_prefix.size() <= declared_len);
  VIST_CHECK(declared_len <= kMaxPrefixDepth);
  std::string key;
  key.reserve(10 + 8 * known_prefix.size());
  PutFixed64BE(&key, symbol);
  char len[2];
  len[0] = static_cast<char>(declared_len >> 8);
  len[1] = static_cast<char>(declared_len);
  key.append(len, 2);
  for (Symbol p : known_prefix) PutFixed64BE(&key, p);
  return key;
}

bool DecodeDKey(Slice input, Symbol* symbol, std::vector<Symbol>* prefix) {
  if (input.size() < 10) return false;
  *symbol = DecodeFixed64BE(input.data());
  const size_t len = (static_cast<unsigned char>(input[8]) << 8) |
                     static_cast<unsigned char>(input[9]);
  if (input.size() != 10 + 8 * len) return false;
  prefix->clear();
  prefix->reserve(len);
  for (size_t i = 0; i < len; ++i) {
    prefix->push_back(DecodeFixed64BE(input.data() + 10 + 8 * i));
  }
  return true;
}

std::string EncodeEntryKey(const std::string& dkey, uint64_t parent_n,
                           uint64_t n) {
  std::string key = dkey;
  PutFixed64BE(&key, parent_n);
  PutFixed64BE(&key, n);
  return key;
}

bool DecodeEntryKey(Slice input, Slice* dkey, uint64_t* parent_n,
                    uint64_t* n) {
  if (input.size() < 26) return false;
  const size_t len = (static_cast<unsigned char>(input[8]) << 8) |
                     static_cast<unsigned char>(input[9]);
  if (input.size() != 10 + 8 * len + 16) return false;
  *dkey = Slice(input.data(), input.size() - 16);
  *parent_n = DecodeFixed64BE(input.data() + input.size() - 16);
  *n = DecodeFixed64BE(input.data() + input.size() - 8);
  return true;
}

Slice EncodeDocIdKey(uint64_t n, uint64_t doc_id,
                     char (&buf)[kDocIdKeySize]) {
  EncodeFixed64BE(buf, n);
  EncodeFixed64BE(buf + 8, doc_id);
  return Slice(buf, kDocIdKeySize);
}

std::string EncodeDocIdKey(uint64_t n, uint64_t doc_id) {
  char buf[kDocIdKeySize];
  return EncodeDocIdKey(n, doc_id, buf).ToString();
}

bool DecodeDocIdKey(Slice input, uint64_t* n, uint64_t* doc_id) {
  if (input.size() != kDocIdKeySize) return false;
  *n = DecodeFixed64BE(input.data());
  *doc_id = DecodeFixed64BE(input.data() + 8);
  return true;
}

std::string PrefixRangeEnd(const std::string& key) {
  std::string end = key;
  while (!end.empty()) {
    const unsigned char last = static_cast<unsigned char>(end.back());
    if (last != 0xFF) {
      end.back() = static_cast<char>(last + 1);
      return end;
    }
    end.pop_back();
  }
  return end;  // empty: unbounded
}

}  // namespace vist
