// vist_server — a standalone serving binary over a ViST index.
//
//   vist_server [--engine=vist|router] <index-dir> [port]
//
// Default engine (vist): opens the index in the directory, or creates one
// when it holds none, wraps it in the serving cache, and serves the
// binary wire protocol (docs/SERVING.md) on 127.0.0.1:<port> until
// SIGINT/SIGTERM, then drains in-flight requests and exits.
//
// --engine=router serves the cost-based multi-engine router instead
// (exec/router.h): a ViST index, a path baseline, and a node baseline all
// loaded under <index-dir>/{vist,paths,nodes}, every mutation fanned out
// to all three, every query dispatched to the predicted-cheapest engine —
// still behind the same serving cache, whose epoch protocol the router
// honors. The baselines have no Open() yet, so router mode requires a
// fresh directory (it refuses an existing one rather than serve engines
// that silently disagree).
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
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>

#include "baseline/node_index.h"
#include "baseline/path_index.h"
#include "exec/caching_index.h"
#include "exec/router.h"
#include "server/server.h"
#include "vist/vist_index.h"

namespace {

// Signal flag, polled by the main loop; sig_atomic_t is the only type
// async-signal-safe to write from a handler.
volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

int ServeUntilSignalled(vist::QueryableIndex* engine,
                        vist::server::DocumentWriter* writer,
                        vist::QueryableIndex* flush_target, uint16_t port,
                        const std::string& dir, const char* engine_name) {
  vist::exec::CachingIndex cache(engine);
  vist::server::ServerOptions options;
  options.port = port;
  vist::server::VistServer server(&cache, writer, options);
  if (auto status = server.Start(); !status.ok()) {
    fprintf(stderr, "start: %s\n", status.ToString().c_str());
    return 1;
  }
  printf("serving on 127.0.0.1:%u (engine: %s, index: %s)\n", server.port(),
         engine_name, dir.c_str());
  fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (g_stop == 0) {
    struct timespec ts {0, 50 * 1000 * 1000};
    nanosleep(&ts, nullptr);
  }

  printf("draining...\n");
  server.Stop();
  if (auto status = flush_target->Flush(); !status.ok()) {
    fprintf(stderr, "flush: %s\n", status.ToString().c_str());
    return 1;
  }
  printf("stopped.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string engine = "vist";
  int arg = 1;
  if (arg < argc && strncmp(argv[arg], "--engine=", 9) == 0) {
    engine = argv[arg] + 9;
    ++arg;
  }
  if (arg >= argc || (engine != "vist" && engine != "router")) {
    fprintf(stderr, "usage: %s [--engine=vist|router] <index-dir> [port]\n",
            argv[0]);
    return 2;
  }
  const std::string dir = argv[arg];
  const auto port =
      static_cast<uint16_t>(arg + 1 < argc ? atoi(argv[arg + 1]) : 0);

  if (engine == "router") {
    if (std::filesystem::exists(dir)) {
      fprintf(stderr,
              "--engine=router needs a fresh directory (the baseline "
              "engines cannot reopen one): %s exists\n",
              dir.c_str());
      return 1;
    }
    auto vist_index =
        vist::VistIndex::Create(dir + "/vist", vist::VistOptions());
    if (!vist_index.ok()) {
      fprintf(stderr, "create %s/vist: %s\n", dir.c_str(),
              vist_index.status().ToString().c_str());
      return 1;
    }
    auto path_index =
        vist::PathIndex::Create(dir + "/paths", (*vist_index)->symbols());
    if (!path_index.ok()) {
      fprintf(stderr, "create %s/paths: %s\n", dir.c_str(),
              path_index.status().ToString().c_str());
      return 1;
    }
    auto node_index =
        vist::NodeIndex::Create(dir + "/nodes", (*vist_index)->symbols());
    if (!node_index.ok()) {
      fprintf(stderr, "create %s/nodes: %s\n", dir.c_str(),
              node_index.status().ToString().c_str());
      return 1;
    }
    vist::exec::Router router(vist_index->get(), path_index->get(),
                              node_index->get());
    vist::server::RouterWriter writer(&router);
    return ServeUntilSignalled(&router, &writer, &router, port, dir,
                               "router");
  }

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
  // The production shape: queries go through the epoch-invalidated cache,
  // writes go straight to the index (whose epoch bump invalidates).
  vist::server::VistIndexWriter writer(index->get());
  return ServeUntilSignalled(index->get(), &writer, index->get(), port, dir,
                             "vist");
}
