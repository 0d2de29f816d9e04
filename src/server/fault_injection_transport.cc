#include "server/fault_injection_transport.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <thread>

#include "common/random.h"

namespace vist {
namespace server {

namespace {

/// Poll interval for the accept and pump loops: an upper bound on how long
/// Stop(), a reset request, or a blackhole toggle waits to be noticed.
constexpr int kPollMs = 20;

constexpr size_t kChunkBytes = 4096;

/// Closes `fd` so the peer sees a TCP RST instead of an orderly FIN:
/// SO_LINGER with a zero timeout discards the send queue and aborts.
void CloseWithReset(UniqueFd* fd) {
  if (!fd->valid()) return;
  struct linger hard = {};
  hard.l_onoff = 1;
  hard.l_linger = 0;
  ::setsockopt(fd->get(), SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
  fd->reset();
}

}  // namespace

FaultInjectionTransport::FaultInjectionTransport(
    std::string upstream_host, uint16_t upstream_port,
    const FaultInjectionOptions& options)
    : upstream_host_(std::move(upstream_host)),
      upstream_port_(upstream_port),
      options_(options) {}

FaultInjectionTransport::~FaultInjectionTransport() { Stop(); }

Status FaultInjectionTransport::Start() {
  if (started_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("transport already started");
  }
  VIST_ASSIGN_OR_RETURN(listener_, ListenTcp(/*port=*/0));
  VIST_ASSIGN_OR_RETURN(port_, LocalPort(listener_.get()));
  started_.store(true, std::memory_order_release);
  accept_thread_ = std::thread(&FaultInjectionTransport::AcceptLoop, this);
  return Status::OK();
}

void FaultInjectionTransport::Stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  if (stop_.exchange(true)) return;
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> pumps;
  {
    MutexLock lock(mu_);
    pumps.swap(pumps_);
  }
  for (auto& pump : pumps) pump.join();
  {
    MutexLock lock(mu_);
    links_.clear();
  }
  listener_.reset();
}

void FaultInjectionTransport::ResetAllConnections() {
  MutexLock lock(mu_);
  for (const auto& link : links_) {
    link->reset_requested.store(true, std::memory_order_release);
  }
}

void FaultInjectionTransport::SleepInterruptible(int ms) const {
  while (ms > 0 && !stop_.load(std::memory_order_acquire)) {
    const int slice = ms < kPollMs ? ms : kPollMs;
    std::this_thread::sleep_for(std::chrono::milliseconds(slice));
    ms -= slice;
  }
}

void FaultInjectionTransport::AcceptLoop() {
  uint64_t next_link = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    bool readable = false;
    if (!WaitReadable(listener_.get(), kPollMs, &readable).ok()) break;
    if (!readable) continue;
    auto accepted = AcceptConn(listener_.get());
    if (!accepted.ok()) continue;
    auto upstream = ConnectTcp(upstream_host_, upstream_port_,
                               /*timeout_ms=*/1000);
    if (!upstream.ok()) continue;  // server gone; drop the client too
    connections_.fetch_add(1, std::memory_order_relaxed);
    auto link = std::make_shared<Link>();
    link->client = std::move(accepted).value();
    link->upstream = std::move(upstream).value();
    MutexLock lock(mu_);
    links_.push_back(link);
    pumps_.emplace_back(&FaultInjectionTransport::PumpLoop, this, link,
                        options_.seed + next_link++);
  }
}

void FaultInjectionTransport::PumpLoop(std::shared_ptr<Link> link,
                                       uint64_t link_seed) {
  Random rng(link_seed);
  char chunk[kChunkBytes];

  // Forwards one readable chunk from `from` to `to`, injecting faults.
  // Returns false when the link must die (EOF, error, or injected reset).
  auto forward = [&](UniqueFd* from, UniqueFd* to) -> bool {
    auto got = ReadSome(from->get(), chunk, sizeof(chunk));
    if (!got.ok() || *got == 0) return false;  // error or clean EOF
    if (options_.latency_ms > 0) SleepInterruptible(options_.latency_ms);
    if (options_.reset_probability > 0 &&
        rng.Bernoulli(options_.reset_probability)) {
      resets_.fetch_add(1, std::memory_order_relaxed);
      CloseWithReset(&link->client);
      CloseWithReset(&link->upstream);
      return false;
    }
    if (options_.torn_probability > 0 &&
        rng.Bernoulli(options_.torn_probability)) {
      // Deliver a prefix, then snap the connection: the receiver holds a
      // frame torn mid-flight.
      IgnoreError(WriteFull(to->get(), chunk, *got / 2),
                  "the link is reset next, whether the prefix arrived or not");
      torn_.fetch_add(1, std::memory_order_relaxed);
      resets_.fetch_add(1, std::memory_order_relaxed);
      CloseWithReset(&link->client);
      CloseWithReset(&link->upstream);
      return false;
    }
    if (options_.stall_probability > 0 &&
        rng.Bernoulli(options_.stall_probability)) {
      SleepInterruptible(options_.stall_ms);
    }
    return WriteFull(to->get(), chunk, *got).ok();
  };

  while (!stop_.load(std::memory_order_acquire)) {
    if (link->reset_requested.load(std::memory_order_acquire)) {
      resets_.fetch_add(1, std::memory_order_relaxed);
      CloseWithReset(&link->client);
      CloseWithReset(&link->upstream);
      return;
    }
    if (blackhole_.load(std::memory_order_acquire)) {
      // Data keeps queuing in the kernel; nothing crosses the proxy.
      std::this_thread::sleep_for(std::chrono::milliseconds(kPollMs));
      continue;
    }
    struct pollfd fds[2];
    fds[0].fd = link->client.get();
    fds[0].events = POLLIN;
    fds[0].revents = 0;
    fds[1].fd = link->upstream.get();
    fds[1].events = POLLIN;
    fds[1].revents = 0;
    int rc = ::poll(fds, 2, kPollMs);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (rc == 0) continue;
    if ((fds[0].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      if (!forward(&link->client, &link->upstream)) break;
    }
    if ((fds[1].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      if (!forward(&link->upstream, &link->client)) break;
    }
  }
  // Orderly teardown (already-reset descriptors are no-ops).
  link->client.reset();
  link->upstream.reset();
}

}  // namespace server
}  // namespace vist
