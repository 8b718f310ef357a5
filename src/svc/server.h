// ctaverd: the long-running verification service (ROADMAP item 1, landed).
//
// A Server listens on an AF_UNIX socket and speaks line-delimited JSON:
// every request is one JSON object on one line, every reply line is one
// JSON event. `ctaver serve` wraps it for the CLI; tests drive it
// in-process over a temp socket.
//
//   requests                         reply events
//   {"op":"ping"}                    {"event":"pong"}
//   {"op":"stats"}                   {"event":"stats", ...}
//   {"op":"shutdown"}                {"event":"bye"}, then the daemon drains
//   {"op":"submit","spec":NAME}      a stream of {"event":"obligation",...}
//   {"op":"submit","text":CTA,       in canonical report order, then one
//    "name":FILE}                    {"event":"done","exit":E,"row":ROW}
//
// Submission semantics: the spec's obligations are fanned out as
// per-obligation pipeline runs sharing ONE SharedBudget (so a submission's
// budget behaves like a single `ctaver verify`) and one shared ThreadPool
// across all connections; verdict events stream back progressively —
// obligation k's event goes out as soon as runs 1..k have finished, while
// later obligations are still proving. Each event's "line" is the exact
// `ctaver verify` obligation line (verify::obligation_line), "row" is the
// Table-II row without its time columns (the last line of
// verify::report_text), and "exit" follows the CLI taxonomy (0 verified /
// 1 shortfall / 3 contained error). Neither carries wall-clock, so a
// cache-warm resubmission streams the same bytes as the cold one.
// Contained ERROR verdicts stream like any other — one crashing proof
// never takes down the daemon. All submissions share the server's
// content-addressed ProofCache; events carry "cached":true when the
// verdict was replayed from it.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "frontend/registry.h"
#include "svc/journal.h"
#include "svc/proof_cache.h"
#include "util/thread_pool.h"
#include "verify/pipeline.h"

namespace ctaver::svc {

struct ServeOptions {
  /// AF_UNIX socket path (required; unlinked and re-bound on start).
  std::string socket_path;
  /// Register every .cta in this directory at startup (optional).
  std::string specs_dir;
  /// On-disk cache directory ("" = in-memory cache only).
  std::string cache_dir;
  /// Base pipeline options for every submission (budgets, sweeps, workers,
  /// replay). `cache` and `schema.budget` are overwritten per submission;
  /// `jobs` sizes the shared pool (0 = hardware concurrency).
  verify::Options verify;
  /// External shutdown flag (the CLI's SIGTERM handler sets it; polled by
  /// the accept loop every 200 ms). Optional.
  const std::atomic<bool>* stop_flag = nullptr;
  /// Hard cap on one request line. A frame that exceeds it is dropped with
  /// a structured error event and the connection keeps serving — the read
  /// buffer never grows past the cap, so a hostile or broken client cannot
  /// OOM the daemon.
  std::size_t max_frame_bytes = 4u << 20;
  /// Per-connection read deadline in seconds (0 = wait forever): a
  /// connection idle longer than this between requests is closed with an
  /// error event. Off by default — an idle client is legitimate.
  double read_timeout_s = 0;
  /// Per-connection write deadline in seconds (0 = block forever): a
  /// client that stops reading its event stream for this long is treated
  /// as gone, which cancels its submission's budget. Defaults on — a stuck
  /// reader must never be able to wedge the daemon's drain.
  double write_timeout_s = 30;
};

class Server {
 public:
  explicit Server(ServeOptions opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and listens. Returns false (with *err set) on socket failure, a
  /// bad specs dir, or a live daemon already holding the pidfile lock; no
  /// thread is started.
  ///
  /// Single-daemon discipline: start() first takes an exclusive flock on
  /// `socket_path + ".pid"`. Holding it proves no live daemon owns this
  /// socket, so removing a stale socket file (a SIGKILLed daemon leaves
  /// one) is safe; failing to take it means a daemon is alive and start()
  /// refuses cleanly instead of yanking its socket out from under it.
  bool start(std::string* err);

  /// Accept loop; blocks until stop()/stop_flag/SIGINT, then drains: the
  /// listener closes, idle connections are woken (read side shut down),
  /// in-flight submissions run to completion and their events still go
  /// out, and every connection thread is joined.
  void run();

  /// Requests shutdown (thread-safe; callable from another thread).
  void stop();

  [[nodiscard]] ProofCache& cache() { return cache_; }
  /// Restart-recovery journal (null without a cache dir). Opened by
  /// start(): the scan truncates any torn tail and replays the records, so
  /// journal()->unfinished_runs() right after start() is the number of
  /// submissions a previous daemon's death cut short — their completed
  /// obligations replay from the cache on resubmission.
  [[nodiscard]] const Journal* journal() const { return journal_.get(); }
  [[nodiscard]] std::uint64_t submissions() const {
    return submissions_.load(std::memory_order_relaxed);
  }

 private:
  void serve_connection(int fd);
  /// Handles one request line; returns false when the connection should
  /// close (shutdown request or unwritable socket).
  bool handle_line(int fd, const std::string& line);
  bool handle_submit(int fd, const protocols::ProtocolModel& pm);
  bool send_stats(int fd);
  /// Full write of line + '\n' under the write deadline; false means the
  /// client is gone (hung up, or stopped reading past the deadline).
  bool send_line(int fd, const std::string& line);
  bool send_error(int fd, const std::string& message);
  bool acquire_pidfile(std::string* err);
  void release_pidfile();
  [[nodiscard]] bool should_stop() const;

  ServeOptions opts_;
  ProofCache cache_;
  frontend::ProtocolRegistry registry_;
  util::ThreadPool pool_;
  std::unique_ptr<Journal> journal_;
  int listen_fd_ = -1;
  int pid_fd_ = -1;  // flock'd while this daemon owns the socket
  std::string pid_path_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> submissions_{0};
  std::mutex conn_mu_;
  std::vector<std::thread> conn_threads_;
  std::vector<int> conn_fds_;  // open connection fds, for drain wakeup
};

}  // namespace ctaver::svc
