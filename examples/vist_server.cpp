// vist_server — a standalone serving binary over a ViST index.
//
//   vist_server <index-dir> [port]
//
// Opens the index in the directory, or creates one when it holds none,
// wraps it in the serving cache, and serves the binary wire protocol
// (docs/SERVING.md) on 127.0.0.1:<port> until SIGINT/SIGTERM, then drains
// in-flight requests, flushes and exits. Any argument that starts with
// '-' is refused with the usage line (exit 2), so a mistyped flag is
// never taken for the index directory.
//
// Port 0 (the default) picks an ephemeral port and prints it — handy for
// scripted smoke tests:
//
//   ./vist_server /tmp/idx &        # prints "serving on 127.0.0.1:PORT"
//   ... drive it with server::Client or the mixed-workload bench ...
//   kill -TERM %1                   # graceful drain

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <memory>
#include <string>

#include "exec/caching_index.h"
#include "server/server.h"
#include "vist/vist_index.h"

namespace {

// Signal flag, polled by the main loop; sig_atomic_t is the only type
// async-signal-safe to write from a handler.
volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

int ServeUntilSignalled(vist::VistIndex* index, uint16_t port,
                        const std::string& dir) {
  // The production shape: queries go through the epoch-invalidated cache,
  // writes go straight to the index (whose epoch bump invalidates).
  vist::exec::CachingIndex cache(index);
  vist::server::VistIndexWriter writer(index);
  vist::server::ServerOptions options;
  options.port = port;
  vist::server::VistServer server(&cache, &writer, options);
  if (auto status = server.Start(); !status.ok()) {
    fprintf(stderr, "start: %s\n", status.ToString().c_str());
    return 1;
  }
  printf("serving on 127.0.0.1:%u (index: %s)\n", server.port(),
         dir.c_str());
  fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (g_stop == 0) {
    struct timespec ts {0, 50 * 1000 * 1000};
    nanosleep(&ts, nullptr);
  }

  printf("draining...\n");
  server.Stop();
  if (auto status = index->Flush(); !status.ok()) {
    fprintf(stderr, "flush: %s\n", status.ToString().c_str());
    return 1;
  }
  printf("stopped.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool usage = argc < 2 || argc > 3;
  for (int i = 1; i < argc; ++i) usage = usage || argv[i][0] == '-';
  if (usage) {
    fprintf(stderr, "usage: %s <index-dir> [port]\n", argv[0]);
    return 2;
  }
  const std::string dir = argv[1];
  const auto port = static_cast<uint16_t>(argc > 2 ? atoi(argv[2]) : 0);

  // NotFound: the directory holds no committed index (absent, or left by
  // a Create that crashed), so make one.
  auto index = vist::VistIndex::Open(dir, vist::VistOptions());
  if (index.status().IsNotFound()) {
    index = vist::VistIndex::Create(dir, vist::VistOptions());
  }
  if (!index.ok()) {
    fprintf(stderr, "open %s: %s\n", dir.c_str(),
            index.status().ToString().c_str());
    return 1;
  }
  return ServeUntilSignalled(index->get(), port, dir);
}
