#include "svc/server.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/file.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <utility>

#include "frontend/lower.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "svc/json.h"
#include "util/cancel.h"

namespace ctaver::svc {

namespace {

const char* verdict_word(const verify::Obligation& o) {
  if (o.error) return "error";
  if (o.holds) return "verified";
  if (!o.ce.empty()) return "refuted";
  return "inconclusive";
}

}  // namespace

Server::Server(ServeOptions opts)
    : opts_(std::move(opts)),
      cache_(opts_.cache_dir),
      registry_(frontend::ProtocolRegistry::with_builtins()),
      pool_(opts_.verify.jobs) {}

Server::~Server() {
  stop();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(opts_.socket_path.c_str());
  }
  release_pidfile();
  std::lock_guard<std::mutex> lock(conn_mu_);
  for (std::thread& t : conn_threads_) {
    if (t.joinable()) t.join();
  }
}

bool Server::acquire_pidfile(std::string* err) {
  pid_path_ = opts_.socket_path + ".pid";
  pid_fd_ = ::open(pid_path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (pid_fd_ < 0) {
    if (err != nullptr) {
      *err = "pidfile " + pid_path_ + ": " + std::strerror(errno);
    }
    return false;
  }
  if (::flock(pid_fd_, LOCK_EX | LOCK_NB) != 0) {
    // A live daemon holds the lock (flock dies with its holder, so a
    // SIGKILLed daemon never wedges this). Report who and refuse.
    char buf[32] = {0};
    ssize_t n = ::read(pid_fd_, buf, sizeof buf - 1);
    std::string pid(buf, n > 0 ? static_cast<std::size_t>(n) : 0);
    while (!pid.empty() && (pid.back() == '\n' || pid.back() == ' ')) {
      pid.pop_back();
    }
    if (err != nullptr) {
      *err = "another daemon" + (pid.empty() ? "" : " (pid " + pid + ")") +
             " holds " + pid_path_ + "; refusing to start";
    }
    ::close(pid_fd_);
    pid_fd_ = -1;
    pid_path_.clear();
    return false;
  }
  char buf[32];
  int len = std::snprintf(buf, sizeof buf, "%ld\n",
                          static_cast<long>(::getpid()));
  bool ok = ::ftruncate(pid_fd_, 0) == 0 && ::lseek(pid_fd_, 0, SEEK_SET) >= 0;
  for (int off = 0; ok && off < len;) {
    ssize_t n = ::write(pid_fd_, buf + off, static_cast<std::size_t>(len - off));
    if (n < 0) {
      if (errno == EINTR) continue;
      ok = false;
      break;
    }
    off += static_cast<int>(n);
  }
  ::fsync(pid_fd_);  // lock held regardless; the pid is advisory diagnostics
  return true;
}

void Server::release_pidfile() {
  if (pid_fd_ < 0) return;
  ::unlink(pid_path_.c_str());
  ::close(pid_fd_);  // releases the flock
  pid_fd_ = -1;
}

bool Server::start(std::string* err) {
  if (!opts_.specs_dir.empty()) {
    try {
      registry_.add_directory(opts_.specs_dir);
    } catch (const std::exception& e) {
      if (err != nullptr) *err = e.what();
      return false;
    }
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (opts_.socket_path.empty() ||
      opts_.socket_path.size() >= sizeof(addr.sun_path)) {
    if (err != nullptr) {
      *err = "socket path empty or too long: '" + opts_.socket_path + "'";
    }
    return false;
  }
  // Pidfile lock first: only its holder may clean up a stale socket.
  if (!acquire_pidfile(err)) return false;
  std::memcpy(addr.sun_path, opts_.socket_path.c_str(),
              opts_.socket_path.size() + 1);
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    if (err != nullptr) *err = std::string("socket: ") + std::strerror(errno);
    release_pidfile();
    return false;
  }
  // Safe now: we hold the pidfile lock, so no live daemon owns this path —
  // the socket file, if present, is a dead daemon's leftovers.
  ::unlink(opts_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    if (err != nullptr) {
      *err = "bind/listen " + opts_.socket_path + ": " + std::strerror(errno);
    }
    ::close(listen_fd_);
    listen_fd_ = -1;
    release_pidfile();
    return false;
  }
  // Restart recovery: replay the journal (its open truncates any torn
  // tail). The proofs of journaled completions are already in the cache —
  // resubmission replays them byte-identically without re-proving.
  if (!opts_.cache_dir.empty()) {
    journal_ = std::make_unique<Journal>(opts_.cache_dir);
  }
  return true;
}

bool Server::should_stop() const {
  return stopping_.load(std::memory_order_relaxed) ||
         (opts_.stop_flag != nullptr &&
          opts_.stop_flag->load(std::memory_order_relaxed)) ||
         util::interrupted();
}

void Server::run() {
  while (!should_stop()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    int rc = ::poll(&pfd, 1, 200);  // 200 ms: stop latency bound
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (rc == 0 || (pfd.revents & POLLIN) == 0) continue;
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    std::lock_guard<std::mutex> lock(conn_mu_);
    conn_fds_.push_back(fd);
    conn_threads_.emplace_back(&Server::serve_connection, this, fd);
  }
  stopping_.store(true, std::memory_order_relaxed);
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::unlink(opts_.socket_path.c_str());
  release_pidfile();
  // Drain: wake idle readers (EOF on their next recv) without cutting the
  // write side — in-flight submissions keep streaming until done.
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (int fd : conn_fds_) ::shutdown(fd, SHUT_RD);
  }
  // Joining under conn_mu_ would deadlock with a connection thread trying
  // to deregister its fd; the accept loop is the only appender and it has
  // stopped, so the vector is stable from here.
  for (std::thread& t : conn_threads_) {
    if (t.joinable()) t.join();
  }
}

void Server::stop() { stopping_.store(true, std::memory_order_relaxed); }

/// Full write of `line` + '\n'. MSG_NOSIGNAL: a client that hung up turns
/// into an error return, never a SIGPIPE. With a write deadline configured
/// the send is non-blocking behind a poll, so a client that stops reading
/// its event stream stalls this connection for at most write_timeout_s
/// before it is treated as gone — a stuck reader can never wedge the drain.
bool Server::send_line(int fd, const std::string& line) {
  std::string out = line + "\n";
  std::size_t off = 0;
  const bool deadline = opts_.write_timeout_s > 0;
  while (off < out.size()) {
    if (deadline) {
      pollfd pfd{fd, POLLOUT, 0};
      int rc = ::poll(&pfd, 1,
                      static_cast<int>(opts_.write_timeout_s * 1000));
      if (rc == 0) return false;  // client stopped reading
      if (rc < 0) {
        if (errno == EINTR) continue;
        return false;
      }
    }
    ssize_t n = ::send(fd, out.data() + off, out.size() - off,
                       MSG_NOSIGNAL | (deadline ? MSG_DONTWAIT : 0));
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool Server::send_error(int fd, const std::string& message) {
  return send_line(fd, "{\"event\":\"error\",\"message\":\"" +
                           obs::json_escape(message) + "\"}");
}

void Server::serve_connection(int fd) {
  std::string buf;
  char chunk[4096];
  bool open = true;
  bool discarding = false;  // inside an oversized frame: drop until newline
  while (open) {
    std::size_t nl;
    while (open && (nl = buf.find('\n')) != std::string::npos) {
      std::string line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      if (discarding) {
        discarding = false;  // the oversized frame's tail — already reported
        continue;
      }
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      open = handle_line(fd, line);
    }
    if (!open) break;
    if (!discarding && buf.size() > opts_.max_frame_bytes) {
      // No newline within the cap: this can never become a valid request.
      // Report once, drop what we have, and keep discarding until the
      // frame ends — the buffer stays bounded and the connection lives on.
      open = send_error(fd, "frame exceeds " +
                                std::to_string(opts_.max_frame_bytes) +
                                " bytes; dropped");
      buf.clear();
      discarding = true;
      if (!open) break;
    }
    if (discarding) buf.clear();  // still inside the oversized frame
    if (opts_.read_timeout_s > 0) {
      pollfd pfd{fd, POLLIN, 0};
      int rc = ::poll(&pfd, 1, static_cast<int>(opts_.read_timeout_s * 1000));
      if (rc == 0) {
        send_error(fd, "read timeout; closing connection");
        break;
      }
      if (rc < 0) {
        if (errno == EINTR) continue;
        break;
      }
    }
    ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;  // EOF (incl. drain wakeup) or error
    buf.append(chunk, static_cast<std::size_t>(n));
  }
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    conn_fds_.erase(std::find(conn_fds_.begin(), conn_fds_.end(), fd));
  }
  ::close(fd);
}

bool Server::handle_line(int fd, const std::string& line) {
  Json req;
  try {
    req = Json::parse(line);
  } catch (const std::exception& e) {
    return send_error(fd, std::string("bad request: ") + e.what());
  }
  const std::string op = req.get("op");
  if (op == "ping") return send_line(fd, "{\"event\":\"pong\"}");
  if (op == "stats") return send_stats(fd);
  if (op == "shutdown") {
    send_line(fd, "{\"event\":\"bye\"}");
    stop();
    return false;
  }
  if (op != "submit") return send_error(fd, "unknown op '" + op + "'");

  protocols::ProtocolModel pm;
  try {
    const Json& text = req["text"];
    if (text.is_string()) {
      // Inline text: the client ships the file's bytes, so an edited spec
      // is always fresh — no daemon-side path staleness.
      pm = frontend::load_spec_string(text.as_string(),
                                      req.get("name", "<inline>"));
    } else {
      const Json& spec = req["spec"];
      if (!spec.is_string()) {
        return send_error(fd, "submit needs \"spec\" or \"text\"");
      }
      pm = registry_.resolve(spec.as_string());
    }
  } catch (const std::exception& e) {
    // Usage-class failure (unknown name, parse error): exit 2, like the CLI.
    if (!send_error(fd, e.what())) return false;
    return send_line(fd, "{\"event\":\"done\",\"exit\":2,\"row\":\"\"}");
  }
  return handle_submit(fd, pm);
}

bool Server::handle_submit(int fd, const protocols::ProtocolModel& pm) {
  submissions_.fetch_add(1, std::memory_order_relaxed);
  obs::add(obs::Counter::kSvcSubmissions);
  obs::Span span("svc.submission");
  if (span.active()) {
    span.args("\"protocol\":\"" + obs::json_escape(pm.name) + "\"");
  }

  verify::Options base = opts_.verify;
  base.cache = &cache_;
  // One budget per submission, shared by its per-obligation runs — the
  // submission's budget semantics match a single `ctaver verify`.
  schema::SharedBudget budget(base.schema.max_schemas,
                              base.schema.time_budget_s,
                              base.schema.max_rss_mb);
  base.schema.budget = &budget;

  std::vector<verify::ObligationKey> keys;
  try {
    keys = verify::obligation_cache_keys(pm, base);
  } catch (const std::exception& e) {
    if (!send_error(fd, e.what())) return false;
    return send_line(fd, "{\"event\":\"done\",\"exit\":2,\"row\":\"\"}");
  }

  // Journal the submission: run-start now, one record per durable
  // obligation at merge time (inside the per-obligation runs), run-end
  // when the done event is about to go out. A daemon killed mid-submission
  // leaves an unfinished run the restarted daemon reports; the completed
  // obligations replay from the cache.
  std::string run_id;
  if (journal_ != nullptr && journal_->ok()) {
    run_id = journal_run_id(keys);
    journal_->run_start(run_id, "submit", pm.name, keys.size());
    base.journal = journal_.get();
    base.journal_run = run_id;
  }

  // Fan out one pipeline run per obligation on the shared pool, then
  // finish() them in canonical order: obligation k's verdict streams out as
  // soon as runs 1..k land while later obligations are still proving. The
  // runs vector's destructor abandons the tail if the client goes away.
  std::vector<verify::ProtocolRun> runs;
  runs.reserve(keys.size());
  for (const verify::ObligationKey& k : keys) {
    verify::Options o = base;
    o.only_obligations = {k.name};
    runs.push_back(verify::verify_protocol_async(pm, o, pool_));
  }

  verify::ProtocolReport agg;
  bool first = true;
  for (verify::ProtocolRun& run : runs) {
    verify::ProtocolReport r = run.finish();
    if (first) {
      agg.protocol = r.protocol;
      agg.category = r.category;
      agg.n_locations = r.n_locations;
      agg.n_rules = r.n_rules;
      first = false;
    }
    struct PropSlot {
      const char* name;
      verify::PropertyResult verify::ProtocolReport::* member;
    };
    static constexpr PropSlot kProps[] = {
        {"agreement", &verify::ProtocolReport::agreement},
        {"validity", &verify::ProtocolReport::validity},
        {"termination", &verify::ProtocolReport::termination},
    };
    for (const PropSlot& p : kProps) {
      for (verify::Obligation& o : (r.*p.member).obligations) {
        std::ostringstream ev;
        ev << "{\"event\":\"obligation\",\"protocol\":\""
           << obs::json_escape(pm.name) << "\",\"property\":\"" << p.name
           << "\",\"obligation\":\"" << obs::json_escape(o.name)
           << "\",\"verdict\":\"" << verdict_word(o) << "\"";
        if (!o.cut_reason.empty()) {
          ev << ",\"reason\":\"" << obs::json_escape(o.cut_reason) << "\"";
        }
        ev << ",\"cached\":" << (o.cached ? "true" : "false")
           << ",\"nschemas\":" << o.nschemas << ",\"line\":\""
           << obs::json_escape(verify::obligation_line(o)) << "\"}";
        if (!send_line(fd, ev.str())) {
          // Client gone: cancel the submission's budget so the remaining
          // runs cut down fast, then let ~ProtocolRun abandon them.
          budget.cancel.cancel();
          return false;
        }
        (agg.*p.member).obligations.push_back(std::move(o));
      }
    }
  }

  bool err = agg.agreement.has_error() || agg.validity.has_error() ||
             agg.termination.has_error();
  bool fail = !(agg.agreement.holds() && agg.validity.holds() &&
                agg.termination.holds());
  int exit_code = err ? 3 : fail ? 1 : 0;
  // run-end lands before the done event: once the client has seen done,
  // the journal must already agree the run finished.
  if (!run_id.empty()) journal_->run_end(run_id, exit_code);
  std::ostringstream done;
  done << "{\"event\":\"done\",\"protocol\":\"" << obs::json_escape(pm.name)
       << "\",\"exit\":" << exit_code << ",\"row\":\""
       << obs::json_escape(verify::table2_row(agg)) << "\"}";
  return send_line(fd, done.str());
}

bool Server::send_stats(int fd) {
  CacheStats cs = cache_.stats();
  std::ostringstream os;
  os << "{\"event\":\"stats\",\"submissions\":"
     << submissions_.load(std::memory_order_relaxed)
     << ",\"cache\":{\"hits\":" << cs.hits << ",\"misses\":" << cs.misses
     << ",\"stores\":" << cs.stores << ",\"corrupt\":" << cs.corrupt << "}";
  if (journal_ != nullptr && journal_->ok()) {
    const JournalStats& js = journal_->stats();
    os << ",\"journal\":{\"replayed\":" << js.replayed
       << ",\"truncated_bytes\":" << js.truncated_bytes
       << ",\"appended\":" << js.appended
       << ",\"unfinished\":" << journal_->unfinished_runs() << "}";
  }
  os << ",\"metrics\":\""
     << obs::json_escape(obs::Registry::global().snapshot().to_json())
     << "\"}";
  return send_line(fd, os.str());
}

}  // namespace ctaver::svc
