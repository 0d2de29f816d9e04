// Client fault-tolerance suite: connect timeouts, per-call deadlines,
// reconnect-with-backoff, the retry budget, server-side deadline shedding,
// and the write-error-mid-drain regression — all driven through real
// sockets, with FaultInjectionTransport standing in for the bad network.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/socket.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/fault_injection_transport.h"
#include "server/server.h"
#include "vist/vist_index.h"
#include "xml/parser.h"

namespace vist {
namespace server {
namespace {

std::string UniqueDoc(uint64_t i) {
  const std::string tag = "u" + std::to_string(i);
  return "<doc><" + tag + "><leaf>text" + std::to_string(i) + "</leaf></" +
         tag + "></doc>";
}

/// A latch the pre_dispatch_hook parks on, so tests hold requests in
/// flight deterministically.
class Gate {
 public:
  void Park() {
    MutexLock lock(mu_);
    ++parked_;
    cv_.notify_all();
    mu_.Await(cv_, [this]() VIST_REQUIRES(mu_) { return open_; });
  }
  void AwaitParked(int n) {
    MutexLock lock(mu_);
    mu_.Await(cv_, [&]() VIST_REQUIRES(mu_) { return parked_ >= n; });
  }
  void Open() {
    MutexLock lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  Mutex mu_{LockRank::kTestHarness};
  std::condition_variable_any cv_;
  int parked_ VIST_GUARDED_BY(mu_) = 0;
  bool open_ VIST_GUARDED_BY(mu_) = false;
};

class FaultTransportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("vist_fault_" + std::to_string(getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::remove_all(dir_);
    auto created = VistIndex::Create(dir_, VistOptions());
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    index_ = std::move(created).value();
    writer_ = std::make_unique<VistIndexWriter>(index_.get());
    ASSERT_TRUE(
        index_->InsertDocument(*xml::Parse(UniqueDoc(1)).value().root(), 1)
            .ok());
  }

  void TearDown() override {
    proxy_.reset();
    server_.reset();
    writer_.reset();
    index_.reset();
    std::filesystem::remove_all(dir_);
  }

  void StartServer(ServerOptions options = {}) {
    server_ = std::make_unique<VistServer>(index_.get(), writer_.get(),
                                           options);
    ASSERT_TRUE(server_->Start().ok());
  }

  /// Starts a fault proxy in front of the running server.
  void StartProxy(FaultInjectionOptions options = {}) {
    proxy_ = std::make_unique<FaultInjectionTransport>(
        "127.0.0.1", server_->port(), options);
    ASSERT_TRUE(proxy_->Start().ok());
  }

  std::string dir_;
  std::unique_ptr<VistIndex> index_;
  std::unique_ptr<VistIndexWriter> writer_;
  std::unique_ptr<VistServer> server_;
  std::unique_ptr<FaultInjectionTransport> proxy_;
};

TEST_F(FaultTransportTest, ConnectTimesOutInsteadOfHanging) {
  // A listener whose accept queue is full drops further SYNs, so the next
  // connect sits in SYN-SENT until it times out — the exact hang the
  // poll-based connect exists to bound.
  auto listener = ListenTcp(/*port=*/0, /*backlog=*/1);
  ASSERT_TRUE(listener.ok());
  auto port = LocalPort(listener->get());
  ASSERT_TRUE(port.ok());
  std::vector<UniqueFd> fillers;
  for (int i = 0; i < 8; ++i) {
    auto fd = ConnectTcp("127.0.0.1", *port, /*timeout_ms=*/200);
    if (!fd.ok()) break;  // queue full — exactly what we want
    fillers.push_back(std::move(fd).value());
  }
  const auto start = std::chrono::steady_clock::now();
  auto timed_out = ConnectTcp("127.0.0.1", *port, /*timeout_ms=*/300);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(timed_out.ok());
  EXPECT_TRUE(timed_out.status().IsDeadlineExceeded())
      << timed_out.status().ToString();
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

TEST_F(FaultTransportTest, CallTimeoutPoisonsConnectionAndReconnects) {
  Gate gate;
  ServerOptions options;
  options.num_workers = 1;
  std::atomic<bool> park_once{true};
  options.pre_dispatch_hook = [&](const Request&) {
    if (park_once.exchange(false)) gate.Park();
  };
  StartServer(options);

  ClientOptions copts;
  copts.call_timeout_ms = 100;
  copts.call_slack_ms = 50;
  copts.max_attempts = 1;  // isolate the timeout itself
  auto client = Client::Connect("127.0.0.1", server_->port(), copts);
  ASSERT_TRUE(client.ok());

  // The worker parks, so the call times out locally.
  auto timed_out = (*client)->Query("/doc/u1");
  ASSERT_FALSE(timed_out.ok());
  EXPECT_TRUE(timed_out.status().IsDeadlineExceeded())
      << timed_out.status().ToString();
  EXPECT_FALSE((*client)->connected());
  gate.Open();

  // The next blocking call transparently reconnects and succeeds.
  auto ids = (*client)->Query("/doc/u1");
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  EXPECT_EQ(*ids, std::vector<uint64_t>{1});
  EXPECT_EQ((*client)->reconnects(), 1u);
}

TEST_F(FaultTransportTest, ServerShedsQueuedWorkPastItsDeadline) {
  Gate gate;
  ServerOptions options;
  options.num_workers = 1;
  std::atomic<bool> park_once{true};
  options.pre_dispatch_hook = [&](const Request&) {
    if (park_once.exchange(false)) gate.Park();
  };
  StartServer(options);
  auto client = Client::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok());

  const uint64_t shed_before = obs::GetCounter("server.shed").value();

  // First query parks the only worker; the second, carrying a 50 ms
  // budget, rots in the queue meanwhile.
  Request blocker;
  blocker.op = Opcode::kQuery;
  blocker.id = (*client)->NextId();
  blocker.path = "/doc/u1";
  ASSERT_TRUE((*client)->Send(blocker).ok());
  gate.AwaitParked(1);

  Request doomed;
  doomed.op = Opcode::kQuery;
  doomed.id = (*client)->NextId();
  doomed.path = "/doc/u1";
  doomed.deadline_ms = 50;
  ASSERT_TRUE((*client)->Send(doomed).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  gate.Open();

  // Both responses arrive: the blocker's ok, the doomed one shed.
  for (int i = 0; i < 2; ++i) {
    auto resp = (*client)->Receive(Deadline::AfterMillis(5000));
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    if (resp->id == blocker.id) {
      EXPECT_EQ(resp->status, WireStatus::kOk);
    } else {
      EXPECT_EQ(resp->id, doomed.id);
      EXPECT_EQ(resp->status, WireStatus::kDeadlineExceeded);
    }
  }
  EXPECT_EQ(obs::GetCounter("server.shed").value(), shed_before + 1);
}

TEST_F(FaultTransportTest, RetryBudgetBoundsAttemptsAgainstADeadServer) {
  StartServer();
  ClientOptions copts;
  copts.max_attempts = 10;
  copts.retry_budget = 2.0;  // far below max_attempts
  copts.backoff_initial_ms = 1;
  copts.backoff_max_ms = 5;
  copts.connect_timeout_ms = 200;
  auto client = Client::Connect("127.0.0.1", server_->port(), copts);
  ASSERT_TRUE(client.ok());

  server_->Stop();  // every future attempt fails

  auto failed = (*client)->Query("/doc/u1");
  ASSERT_FALSE(failed.ok());
  // Two retry tokens -> at most two retries despite max_attempts = 10.
  EXPECT_LE((*client)->retries(), 2u);

  // The budget stays exhausted on the next call: it fails fast.
  auto failed2 = (*client)->Query("/doc/u1");
  ASSERT_FALSE(failed2.ok());
  EXPECT_LE((*client)->retries(), 2u);
}

TEST_F(FaultTransportTest, BusyResponsesAreRetriedUntilCapacityFrees) {
  Gate gate;
  ServerOptions options;
  options.num_workers = 1;
  options.max_inflight = 1;
  std::atomic<bool> park_once{true};
  options.pre_dispatch_hook = [&](const Request&) {
    if (park_once.exchange(false)) gate.Park();
  };
  StartServer(options);

  // Fill the server's single in-flight slot via a raw pipelined client.
  auto pipeliner = Client::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(pipeliner.ok());
  Request blocker;
  blocker.op = Opcode::kQuery;
  blocker.id = (*pipeliner)->NextId();
  blocker.path = "/doc/u1";
  ASSERT_TRUE((*pipeliner)->Send(blocker).ok());
  gate.AwaitParked(1);

  // A retrying client sees kBusy, backs off, and succeeds once the
  // blocker is released.
  ClientOptions copts;
  copts.max_attempts = 50;
  copts.retry_budget = 50.0;
  copts.backoff_initial_ms = 5;
  copts.backoff_max_ms = 20;
  auto client = Client::Connect("127.0.0.1", server_->port(), copts);
  ASSERT_TRUE(client.ok());
  std::thread opener([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    gate.Open();
  });
  auto ids = (*client)->Query("/doc/u1");
  opener.join();
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  EXPECT_EQ(*ids, std::vector<uint64_t>{1});
  EXPECT_GE((*client)->retries(), 1u);

  auto final_resp = (*pipeliner)->Receive(Deadline::AfterMillis(5000));
  ASSERT_TRUE(final_resp.ok());
}

TEST_F(FaultTransportTest, WriteErrorMidDrainStillCountsAsDrained) {
  // Regression: a response write that fails during the shutdown drain
  // (peer already reset) must bump server.write_errors AND still count
  // the request as drained — the drain loop may not wedge or miscount.
  Gate gate;
  ServerOptions options;
  options.num_workers = 1;
  std::atomic<bool> park_once{true};
  options.pre_dispatch_hook = [&](const Request&) {
    if (park_once.exchange(false)) gate.Park();
  };
  StartServer(options);
  StartProxy();

  const uint64_t write_errors_before =
      obs::GetCounter("server.write_errors").value();
  const uint64_t drained_before = obs::GetCounter("server.drained").value();

  auto client = Client::Connect("127.0.0.1", proxy_->port());
  ASSERT_TRUE(client.ok());
  Request query;
  query.op = Opcode::kQuery;
  query.id = (*client)->NextId();
  query.path = "/doc/u1";
  ASSERT_TRUE((*client)->Send(query).ok());
  gate.AwaitParked(1);

  // Snap the network while the request executes; the server's response
  // write will hit a dead socket.
  proxy_->ResetAllConnections();
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  std::thread stopper([&] { server_->Stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gate.Open();
  stopper.join();  // zero hangs: Stop() completes despite the dead peer

  EXPECT_EQ(obs::GetCounter("server.write_errors").value(),
            write_errors_before + 1);
  EXPECT_EQ(obs::GetCounter("server.drained").value(), drained_before + 1);
}

TEST_F(FaultTransportTest, ClientRidesOutInjectedResets) {
  StartServer();
  FaultInjectionOptions faults;
  faults.reset_probability = 0.0;  // flipped below, deterministically
  StartProxy(faults);

  ClientOptions copts;
  copts.max_attempts = 5;
  copts.retry_budget = 20.0;
  copts.backoff_initial_ms = 1;
  copts.backoff_max_ms = 10;
  copts.connect_timeout_ms = 2000;
  auto client = Client::Connect("127.0.0.1", proxy_->port(), copts);
  ASSERT_TRUE(client.ok());

  ASSERT_TRUE((*client)->Query("/doc/u1").ok());
  // Kill the link under the client's feet; the next idempotent call
  // reconnects through the proxy and succeeds.
  proxy_->ResetAllConnections();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  auto ids = (*client)->Query("/doc/u1");
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  EXPECT_EQ(*ids, std::vector<uint64_t>{1});
  EXPECT_GE((*client)->reconnects(), 1u);
  EXPECT_GE(proxy_->resets(), 1u);
}

}  // namespace
}  // namespace server
}  // namespace vist
