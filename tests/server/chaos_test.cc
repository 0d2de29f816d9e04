// Chaos suite: the whole serving path — retrying clients, fault-injecting
// proxy, deadline-shedding server, cancellable engine — run together under
// a fault storm (latency, stalls, torn frames, resets) with a concurrent
// writer, then Stop() lands mid-traffic. The acceptance criteria:
//
//   1. Zero hangs — the test completing at all is the assertion; every
//      thread joins, Stop() returns.
//   2. Every request the server admitted is answered (possibly with an
//      error); no client blocks forever, because every wait is bounded by
//      a deadline and every failure surfaces as a Status.
//   3. The index is structurally intact afterwards (CheckIntegrity), and
//      a fresh direct connection still gets correct answers.
//
// All randomness is seeded (client jitter, proxy fault streams), so a
// failure replays.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/caching_index.h"
#include "server/client.h"
#include "server/fault_injection_transport.h"
#include "server/server.h"
#include "vist/vist_index.h"
#include "xml/parser.h"

namespace vist {
namespace server {
namespace {

std::string ChaosDoc(uint64_t i) {
  const std::string tag = "c" + std::to_string(i);
  return "<doc><" + tag + "><leaf>v" + std::to_string(i) + "</leaf></" + tag +
         "></doc>";
}

// A fresh ViST index per test, served through a VistIndexWriter.
class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("vist_chaos_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()) +
             "_" + std::to_string(getpid())))
               .string();
    std::filesystem::remove_all(dir_);
    auto created = VistIndex::Create(dir_, VistOptions());
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    index_ = std::move(created).value();
    writer_ = std::make_unique<VistIndexWriter>(index_.get());
  }

  void TearDown() override {
    writer_.reset();
    index_.reset();
    std::filesystem::remove_all(dir_);
  }

  std::string dir_;
  std::unique_ptr<VistIndex> index_;
  std::unique_ptr<VistIndexWriter> writer_;
};

TEST_F(ChaosTest, ServingPathSurvivesAFaultStorm) {
  ASSERT_TRUE(
      index_->InsertDocument(*xml::Parse(ChaosDoc(0)).value().root(), 1000)
          .ok());
  exec::CachingIndex caching(index_.get());

  ServerOptions server_options;
  server_options.num_workers = 4;
  VistServer server(&caching, writer_.get(), server_options);
  ASSERT_TRUE(server.Start().ok());

  FaultInjectionOptions faults;
  faults.seed = 7;
  faults.latency_ms = 1;
  faults.stall_probability = 0.05;
  faults.stall_ms = 50;
  faults.reset_probability = 0.02;
  faults.torn_probability = 0.02;
  FaultInjectionTransport proxy("127.0.0.1", server.port(), faults);
  ASSERT_TRUE(proxy.Start().ok());

  constexpr int kReaders = 3;
  constexpr int kQueriesPerReader = 60;
  constexpr uint64_t kWriterDocs = 40;
  std::atomic<uint64_t> answered{0};  // ok responses observed by readers
  std::atomic<uint64_t> failed{0};    // surfaced errors (never hangs)

  // Readers hammer the proxy with budgeted, retrying, deadline-bounded
  // queries. Any individual call may fail — resets and timeouts are the
  // point — but every call must RETURN.
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      ClientOptions copts;
      copts.call_timeout_ms = 500;
      copts.max_attempts = 5;
      copts.retry_budget = 100.0;
      copts.backoff_initial_ms = 1;
      copts.backoff_max_ms = 20;
      copts.connect_timeout_ms = 2000;
      copts.jitter_seed = 100 + static_cast<uint64_t>(r);
      auto client = Client::Connect("127.0.0.1", proxy.port(), copts);
      if (!client.ok()) {
        failed.fetch_add(kQueriesPerReader);
        return;
      }
      for (int q = 0; q < kQueriesPerReader; ++q) {
        auto ids = (*client)->Query("/doc/c0");
        if (ids.ok()) {
          EXPECT_EQ(*ids, std::vector<uint64_t>{1000});
          answered.fetch_add(1);
        } else {
          failed.fetch_add(1);
        }
      }
    });
  }

  // One writer inserts through a DIRECT connection (mutations are not
  // idempotent, so the retrying path refuses them after transport faults;
  // the chaos belongs on the read side).
  std::thread writer_thread([&] {
    auto client = Client::Connect("127.0.0.1", server.port());
    if (!client.ok()) return;
    for (uint64_t i = 1; i <= kWriterDocs; ++i) {
      IgnoreError((*client)->Insert(ChaosDoc(i), i),
                  "faults may kill individual inserts; integrity, not "
                  "count, is what the end-state checks assert");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  // Mid-storm: snap every live link shut at once, then keep going.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  proxy.ResetAllConnections();

  // Stop the server while readers are still in flight: admitted work
  // drains, late frames get kShuttingDown, nobody hangs.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  server.Stop();

  for (auto& t : readers) t.join();
  writer_thread.join();
  proxy.Stop();

  // Every query was answered one way or the other.
  EXPECT_EQ(answered.load() + failed.load(),
            static_cast<uint64_t>(kReaders) * kQueriesPerReader);
  // The storm actually stormed: at least some traffic got through, and
  // the proxy injected real faults.
  EXPECT_GT(answered.load(), 0u);
  EXPECT_GT(proxy.connections(), 0u);

  // The index survived: structurally sound and still queryable.
  auto fsck = index_->CheckIntegrity();
  EXPECT_TRUE(fsck.ok()) << fsck.status().ToString();
  auto ids = index_->Query("/doc/c0");
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  EXPECT_EQ(*ids, std::vector<uint64_t>{1000});
}

TEST_F(ChaosTest, BlackholeFreezesTrafficUntilLifted) {
  ASSERT_TRUE(
      index_->InsertDocument(*xml::Parse(ChaosDoc(0)).value().root(), 1)
          .ok());
  VistServer server(index_.get(), nullptr);
  ASSERT_TRUE(server.Start().ok());
  FaultInjectionTransport proxy("127.0.0.1", server.port());
  ASSERT_TRUE(proxy.Start().ok());

  ClientOptions copts;
  copts.call_timeout_ms = 200;
  copts.call_slack_ms = 50;
  copts.max_attempts = 1;
  auto client = Client::Connect("127.0.0.1", proxy.port(), copts);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Query("/doc/c0").ok());

  // With the network blackholed the call times out locally instead of
  // hanging — the whole reason the client enforces its own deadline.
  proxy.set_blackhole(true);
  auto frozen = (*client)->Query("/doc/c0");
  ASSERT_FALSE(frozen.ok());
  EXPECT_TRUE(frozen.status().IsDeadlineExceeded())
      << frozen.status().ToString();

  // Lift it; the client reconnects through the proxy and recovers.
  proxy.set_blackhole(false);
  auto ids = (*client)->Query("/doc/c0");
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  EXPECT_EQ(*ids, std::vector<uint64_t>{1});
  EXPECT_GE((*client)->reconnects(), 1u);

  server.Stop();
  proxy.Stop();
}

}  // namespace
}  // namespace server
}  // namespace vist
