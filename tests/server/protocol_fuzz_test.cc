// Protocol robustness sweep: seeded, deterministic randomized mutations of
// valid frames (opcode, length, payload, truncation, garbage) must never
// crash the decoder — every input decodes, or fails cleanly with a parse
// error. A live server fed the same hostile bytes must answer kMalformed /
// kFrameTooLarge or close the connection, and keep serving fresh clients.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/random.h"
#include "common/socket.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "vist/vist_index.h"

namespace vist {
namespace server {
namespace {

constexpr uint64_t kSeed = 0xF0221;

/// A pool of valid request frames covering every opcode, used as mutation
/// seeds.
std::vector<std::string> SeedFrames() {
  std::vector<std::string> frames;
  Request query;
  query.op = Opcode::kQuery;
  query.id = 7;
  query.verify = true;
  query.path = "/doc/a/b";
  query.deadline_ms = 250;
  Request insert;
  insert.op = Opcode::kInsert;
  insert.id = 8;
  insert.doc_id = 42;
  insert.xml = "<doc><a/></doc>";
  Request flush;
  flush.op = Opcode::kFlush;
  flush.id = 9;
  Request stats;
  stats.op = Opcode::kStats;
  stats.id = 10;
  for (const Request& req : {query, insert, flush, stats}) {
    std::string frame;
    EncodeRequest(req, &frame);
    frames.push_back(frame);
  }
  return frames;
}

/// Applies one random mutation to a copy of `frame`.
std::string Mutate(const std::string& frame, Random* rng) {
  std::string out = frame;
  switch (rng->Uniform(5)) {
    case 0:  // flip a byte anywhere (length prefix included)
      out[rng->Uniform(out.size())] ^= static_cast<char>(1 + rng->Uniform(255));
      break;
    case 1:  // truncate
      out.resize(rng->Uniform(out.size()));
      break;
    case 2:  // extend with garbage
      for (uint64_t i = 0, n = 1 + rng->Uniform(16); i < n; ++i) {
        out.push_back(static_cast<char>(rng->Uniform(256)));
      }
      break;
    case 3:  // scribble on the body header (version/opcode/id)
      if (out.size() > kLengthPrefixBytes) {
        const size_t pos =
            kLengthPrefixBytes +
            rng->Uniform(std::min<size_t>(out.size() - kLengthPrefixBytes,
                                          kBodyHeaderBytes));
        out[pos] ^= static_cast<char>(1 + rng->Uniform(255));
      }
      break;
    case 4:  // pure garbage of random length
      out.assign(1 + rng->Uniform(64), '\0');
      for (char& c : out) c = static_cast<char>(rng->Uniform(256));
      break;
  }
  return out;
}

TEST(ProtocolFuzzTest, DecoderNeverCrashesOnMutatedRequests) {
  const std::vector<std::string> seeds = SeedFrames();
  Random rng(kSeed);
  for (int round = 0; round < 20000; ++round) {
    const std::string mutated =
        Mutate(seeds[rng.Uniform(seeds.size())], &rng);
    // Decode the body the way the server does: strip the length prefix,
    // take whatever bytes are actually there.
    if (mutated.size() < kLengthPrefixBytes) continue;
    const Slice body(mutated.data() + kLengthPrefixBytes,
                     mutated.size() - kLengthPrefixBytes);
    Request req;
    const Status status = DecodeRequest(body, &req);  // must not crash
    if (!status.ok()) {
      EXPECT_TRUE(status.IsParseError()) << status.ToString();
    }
    RequestIdOrZero(body);  // must not crash either
  }
}

TEST(ProtocolFuzzTest, DecoderNeverCrashesOnMutatedResponses) {
  std::vector<std::string> seeds;
  Response ok_query;
  ok_query.op = Opcode::kQuery;
  ok_query.id = 3;
  ok_query.doc_ids = {1, 2, 3};
  Response stats;
  stats.op = Opcode::kStats;
  stats.id = 4;
  stats.stats.num_documents = 12;
  Response error;
  error.op = Opcode::kInsert;
  error.id = 5;
  error.status = WireStatus::kParseError;
  error.message = "bad xml";
  for (const Response& resp : {ok_query, stats, error}) {
    std::string frame;
    EncodeResponse(resp, &frame);
    seeds.push_back(frame);
  }
  Random rng(kSeed + 1);
  for (int round = 0; round < 20000; ++round) {
    const std::string mutated =
        Mutate(seeds[rng.Uniform(seeds.size())], &rng);
    if (mutated.size() < kLengthPrefixBytes) continue;
    const Slice body(mutated.data() + kLengthPrefixBytes,
                     mutated.size() - kLengthPrefixBytes);
    Response resp;
    const Status status = DecodeResponse(body, &resp);
    if (!status.ok()) {
      EXPECT_TRUE(status.IsParseError()) << status.ToString();
    }
  }
}

TEST(ProtocolFuzzTest, RoundTripAndOtherVersionsRejected) {
  Request req;
  req.op = Opcode::kQuery;
  req.id = 99;
  req.verify = true;
  req.path = "//item";
  req.deadline_ms = 1234;
  std::string frame;
  EncodeRequest(req, &frame);
  std::string body = frame.substr(kLengthPrefixBytes);
  Request decoded;
  ASSERT_TRUE(DecodeRequest(body, &decoded).ok());
  EXPECT_EQ(decoded.id, req.id);
  EXPECT_EQ(decoded.path, req.path);
  EXPECT_EQ(decoded.verify, req.verify);
  EXPECT_EQ(decoded.deadline_ms, req.deadline_ms);
  // Any other version byte, the retired v1 layout included, is a parse
  // error, which the server answers kMalformed.
  for (const uint8_t version : {0, 1, kProtocolVersion + 1}) {
    body[0] = static_cast<char>(version);
    const Status status = DecodeRequest(body, &decoded);
    EXPECT_TRUE(status.IsParseError()) << status.ToString();
  }
}

TEST(ProtocolFuzzTest, LiveServerSurvivesHostileBytes) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("vist_fuzz_" + std::to_string(getpid())))
          .string();
  std::filesystem::remove_all(dir);
  auto created = VistIndex::Create(dir, VistOptions());
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto index = std::move(created).value();
  ServerOptions options;
  options.max_frame_bytes = 4096;
  VistServer server(index.get(), nullptr, options);
  ASSERT_TRUE(server.Start().ok());

  const std::vector<std::string> seeds = SeedFrames();
  Random rng(kSeed + 2);
  for (int conn = 0; conn < 40; ++conn) {
    auto fd = ConnectTcp("127.0.0.1", server.port(), /*timeout_ms=*/2000);
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();
    // A burst of mutated frames per connection; the server may answer with
    // error responses or reset the connection, but must never die.
    for (int i = 0; i < 25; ++i) {
      const std::string mutated =
          Mutate(seeds[rng.Uniform(seeds.size())], &rng);
      if (!WriteFull(fd->get(), mutated.data(), mutated.size()).ok()) break;
    }
    fd->reset();
  }

  // The server is still alive and correct for a well-behaved client.
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto ids = (*client)->Query("/doc/a");
  EXPECT_TRUE(ids.ok()) << ids.status().ToString();
  server.Stop();
  index.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace server
}  // namespace vist
