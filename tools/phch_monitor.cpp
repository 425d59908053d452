// phch_monitor: run a phase-concurrent workload in a loop while serving the
// metric registry as Prometheus text exposition on a loopback socket.
//
//   ./phch_monitor [-port P] [-seconds S] [-n N] [-threads T] [-out FILE]
//
//   -port P     listen on 127.0.0.1:P; 0 (default) picks an ephemeral port.
//               The actual port is printed as "serving http://..." so CI can
//               scrape without guessing.
//   -seconds S  run the workload loop for ~S seconds (default 5).
//   -n N        keys per mixed cycle (default 100000).
//   -out FILE   also write each exposition snapshot to FILE (atomic
//               rename), for environments where even a loopback socket is
//               unavailable.
//
// Exit status: 0 on success, 1 if the final probe-depth ledger check fails,
// 2 if the binary was built without -DPHCH_TELEMETRY=ON.
//
// Scrape consistency: the exposition page is not rendered per request — it
// is rebuilt once per workload iteration, at the quiescent point between
// mixed cycles, where striped counter and histogram sums are exact. A
// scrape therefore always observes a ledger-consistent snapshot
// (probe-depth histogram count == find_ops + insert_ops + erase_ops), which
// is what tools/check_prom.py asserts in CI. The server thread only copies
// the cached string under a mutex; it never touches the tables.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "phch/core/deterministic_table.h"
#include "phch/core/table_common.h"
#include "phch/obs/histogram.h"
#include "phch/obs/prom.h"
#include "phch/obs/registry.h"
#include "phch/obs/telemetry.h"
#include "phch/obs/trace.h"
#include "phch/parallel/scheduler.h"
#include "phch/utils/cmdline.h"
#include "trace_workloads.h"

using namespace phch;

namespace {

// The exposition cache: the workload loop publishes, the server thread and
// the -out writer consume.
std::mutex page_mutex;
std::string page = "# phch_monitor: no snapshot published yet\n";
std::atomic<bool> stop_serving{false};

std::string current_page() {
  std::lock_guard<std::mutex> lock(page_mutex);
  return page;
}

void publish_page() {
  std::string fresh = obs::render_prometheus();
  std::lock_guard<std::mutex> lock(page_mutex);
  page = std::move(fresh);
}

// Minimal single-threaded HTTP responder: every request, whatever its path,
// gets the current exposition page. Prometheus scrapers send "GET /metrics
// HTTP/1.1" and tolerate Connection: close, which is all we implement.
void serve(int listen_fd) {
  while (!stop_serving.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd, POLLIN, 0};
    const int r = poll(&pfd, 1, 200 /* ms, so stop_serving is noticed */);
    if (r <= 0) continue;
    const int fd = accept(listen_fd, nullptr, nullptr);
    if (fd < 0) continue;
    char req[1024];
    (void)read(fd, req, sizeof(req));  // drain the request line + headers
    const std::string body = current_page();
    char header[256];
    const int header_len = std::snprintf(
        header, sizeof(header),
        "HTTP/1.0 200 OK\r\n"
        "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
        "Content-Length: %zu\r\n"
        "Connection: close\r\n\r\n",
        body.size());
    (void)write(fd, header, static_cast<std::size_t>(header_len));
    std::size_t off = 0;
    while (off < body.size()) {
      const ssize_t w = write(fd, body.data() + off, body.size() - off);
      if (w <= 0) break;
      off += static_cast<std::size_t>(w);
    }
    close(fd);
  }
  close(listen_fd);
}

// Bind 127.0.0.1:want_port (0 = ephemeral); returns the fd and stores the
// actual port, or returns -1.
int bind_loopback(int want_port, int* actual_port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(want_port));
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(fd, 16) != 0) {
    close(fd);
    return -1;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    close(fd);
    return -1;
  }
  *actual_port = ntohs(bound.sin_port);
  return fd;
}

bool write_page_file(const std::string& path) {
  const std::string tmp = path + ".tmp";
  FILE* f = std::fopen(tmp.c_str(), "w");
  if (!f) return false;
  const std::string body = current_page();
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  std::fclose(f);
  return ok && std::rename(tmp.c_str(), path.c_str()) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  cmdline cl(argc, argv);
  const int want_port = static_cast<int>(cl.get_long("-port", 0));
  const double seconds = cl.get_double("-seconds", 5.0);
  const std::size_t n = static_cast<std::size_t>(cl.get_long("-n", 100000));
  const std::string out_path = cl.get_string("-out", "");

  if (!obs::compiled) {
    std::fprintf(stderr,
                 "phch_monitor: telemetry is compiled out; reconfigure with "
                 "-DPHCH_TELEMETRY=ON\n");
    return 2;
  }

  const long threads = cl.get_long("-threads", 0);
  if (threads > 0) scheduler::get().set_num_workers(static_cast<int>(threads));

  int port = 0;
  const int listen_fd = bind_loopback(want_port, &port);
  if (listen_fd < 0 && out_path.empty()) {
    std::fprintf(stderr, "phch_monitor: cannot bind 127.0.0.1:%d and no -out "
                         "fallback given\n", want_port);
    return 1;
  }
  std::thread server;
  if (listen_fd >= 0) {
    server = std::thread(serve, listen_fd);
    std::printf("phch_monitor: serving http://127.0.0.1:%d/metrics\n", port);
  } else {
    std::fprintf(stderr, "phch_monitor: cannot bind 127.0.0.1:%d; writing %s "
                         "only\n", want_port, out_path.c_str());
  }
  std::printf("phch_monitor: n=%zu threads=%d seconds=%.1f\n", n, num_workers(),
              seconds);
  std::fflush(stdout);  // CI reads the port line through a pipe

  obs::reset();

  // One persistent registered table; every cycle inserts all n keys, finds
  // them, and erases them all, so the table returns to (near-)empty and the
  // loop can run indefinitely at a stable load factor.
  deterministic_table<int_entry<>> table(round_up_pow2(4 * n));
  const obs::scoped_registration reg("monitor", table);
  const std::vector<std::uint64_t> keys = tools::distinct_keys(n);

  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t iterations = 0;
  for (;;) {
    (void)tools::mixed_cycle(table, keys, keys.size());
    ++iterations;
    publish_page();  // quiescent point: sums are exact, scrapes are coherent
    if (!out_path.empty() && !write_page_file(out_path)) {
      std::fprintf(stderr, "phch_monitor: cannot write %s\n", out_path.c_str());
    }
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - t0;
    if (elapsed.count() >= seconds) break;
  }

  stop_serving.store(true, std::memory_order_release);
  if (server.joinable()) server.join();

  // Final self-check: the same probe-depth ledger CI asserts on scrapes.
  const obs::metrics_snapshot s = obs::snapshot();
  const obs::hist_snapshot& depth = s[obs::hist::probe_depth];
  const std::uint64_t ops = s[obs::counter::find_ops] +
                            s[obs::counter::insert_ops] +
                            s[obs::counter::erase_ops];
  std::printf("phch_monitor: %" PRIu64 " iterations, probe-depth samples %" PRIu64
              " vs ops %" PRIu64 " (p50=%.1f p99=%.1f max=%" PRIu64 ")\n",
              iterations, depth.count, ops, depth.quantile(0.50),
              depth.quantile(0.99), depth.max);
  if (depth.count != ops) {
    std::fprintf(stderr, "phch_monitor: FAIL probe-depth ledger\n");
    return 1;
  }
  return 0;
}
