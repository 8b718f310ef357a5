#include "svc/client.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <ostream>
#include <random>
#include <sstream>
#include <thread>

#include "obs/metrics.h"
#include "svc/json.h"
#include "util/stopwatch.h"

namespace ctaver::svc {

namespace {

/// Polls fd for `events` under a deadline. >0 ready, 0 timed out, <0 error.
int poll_fd(int fd, short events, double timeout_s) {
  pollfd pfd{fd, events, 0};
  const int timeout_ms =
      timeout_s > 0 ? util::saturating_duration<util::PollMillis>(timeout_s)
                          .count()
                    : -1;
  for (;;) {
    int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc < 0 && errno == EINTR) continue;
    return rc;
  }
}

/// Line-oriented connection with non-blocking connect and per-operation
/// read/write deadlines. Every failure path fills *err with a one-line
/// reason (no stream writes here — the retry loop decides what to print).
class Conn {
 public:
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connect(const std::string& socket_path, const ClientOptions& opts,
               std::string* err) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.empty() || socket_path.size() >= sizeof(addr.sun_path)) {
      *err = "socket path empty or too long: '" + socket_path + "'";
      return false;
    }
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
    if (fd_ < 0) {
      *err = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    opts_ = opts;
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return true;
    }
    if (errno != EINPROGRESS && errno != EAGAIN) {
      *err = "cannot connect to " + socket_path + ": " +
             std::strerror(errno) + " (is `ctaver serve` running?)";
      return false;
    }
    int rc = poll_fd(fd_, POLLOUT, opts_.connect_timeout_s);
    if (rc == 0) {
      *err = "connect to " + socket_path + " timed out";
      return false;
    }
    int so_err = 0;
    socklen_t len = sizeof so_err;
    if (rc < 0 ||
        ::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &so_err, &len) != 0 ||
        so_err != 0) {
      *err = "cannot connect to " + socket_path + ": " +
             std::strerror(so_err != 0 ? so_err : errno) +
             " (is `ctaver serve` running?)";
      return false;
    }
    return true;
  }

  bool send_line(const std::string& line, std::string* err) {
    std::string out = line + "\n";
    std::size_t off = 0;
    while (off < out.size()) {
      int rc = poll_fd(fd_, POLLOUT, opts_.io_timeout_s);
      if (rc == 0) {
        *err = "write to daemon timed out";
        return false;
      }
      if (rc < 0) {
        *err = std::string("poll: ") + std::strerror(errno);
        return false;
      }
      ssize_t n = ::send(fd_, out.data() + off, out.size() - off,
                         MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
          continue;
        }
        *err = std::string("send: ") + std::strerror(errno);
        return false;
      }
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Next '\n'-terminated line (without the terminator); false on EOF,
  /// error, or a read that idles past the deadline.
  bool read_line(std::string* line, std::string* err) {
    std::size_t nl;
    while ((nl = buf_.find('\n')) == std::string::npos) {
      int rc = poll_fd(fd_, POLLIN, opts_.io_timeout_s);
      if (rc == 0) {
        *err = "read from daemon timed out";
        return false;
      }
      if (rc < 0) {
        *err = std::string("poll: ") + std::strerror(errno);
        return false;
      }
      char chunk[4096];
      ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n == 0) {
        *err = "connection lost";
        return false;
      }
      if (n < 0) {
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
          continue;
        }
        *err = std::string("recv: ") + std::strerror(errno);
        return false;
      }
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
    line->assign(buf_, 0, nl);
    buf_.erase(0, nl + 1);
    return true;
  }

 private:
  int fd_ = -1;
  std::string buf_;
  ClientOptions opts_;
};

/// Capped exponential backoff with jitter before retry number `attempt`
/// (0-based). Jitter spreads a client herd re-dogpiling a restarted daemon.
void backoff_sleep(int attempt, const ClientOptions& opts) {
  obs::add(obs::Counter::kSvcRetries);
  double d = opts.backoff_base_s * std::pow(2.0, attempt);
  if (d > opts.backoff_cap_s) d = opts.backoff_cap_s;
  thread_local std::mt19937 rng(std::random_device{}());
  d *= std::uniform_real_distribution<double>(0.5, 1.5)(rng);
  std::this_thread::sleep_for(std::chrono::duration<double>(d));
}

bool looks_like_path(const std::string& arg) {
  return arg.find('/') != std::string::npos ||
         (arg.size() > 4 && arg.compare(arg.size() - 4, 4, ".cta") == 0);
}

std::string submit_request(const std::string& arg, std::ostream& err,
                           bool* ok) {
  *ok = true;
  if (!looks_like_path(arg)) {
    return "{\"op\":\"submit\",\"spec\":\"" + obs::json_escape(arg) + "\"}";
  }
  std::ifstream in(arg, std::ios::binary);
  if (!in) {
    err << "ctaver: cannot read " << arg << "\n";
    *ok = false;
    return "";
  }
  std::ostringstream text;
  text << in.rdbuf();
  return "{\"op\":\"submit\",\"text\":\"" + obs::json_escape(text.str()) +
         "\",\"name\":\"" + obs::json_escape(arg) + "\"}";
}

/// One submission attempt over a fresh connection. Returns the submission's
/// exit code (0/1/2/3) once the daemon terminated it with a done event, or
/// -1 on a transport failure (*terr set) — the retry loop's signal. Events
/// stream to `out` as they arrive; a failed attempt's partial output is
/// superseded by the retry, which restarts from its header.
int try_submit(const std::string& socket_path, const std::string& req,
               std::ostream& out, std::ostream& err,
               const ClientOptions& copts, std::string* terr) {
  Conn conn;
  if (!conn.connect(socket_path, copts, terr)) return -1;
  if (!conn.send_line(req, terr)) return -1;
  bool any_error = false;
  bool header = false;
  for (;;) {
    std::string line;
    if (!conn.read_line(&line, terr)) return -1;
    Json ev;
    try {
      ev = Json::parse(line);
    } catch (const std::exception& e) {
      // A torn frame (daemon died mid-write) is a transport failure too.
      *terr = std::string("bad event from daemon: ") + e.what();
      return -1;
    }
    const std::string kind = ev.get("event");
    if (kind == "error") {
      err << "ctaver: " << ev.get("message") << "\n";
      any_error = true;
      continue;  // the daemon still terminates the submission with done
    }
    if (kind == "obligation") {
      if (!header) {
        out << "== " << ev.get("protocol") << "\n";
        header = true;
      }
      out << "    " << ev.get("line") << "\n";
      continue;
    }
    if (kind == "done") {
      long long code = ev["exit"].as_int(2);
      const std::string row = ev.get("row");
      if (!row.empty()) out << row << "\n";
      // An error event makes the submission usage-class (2) unless a
      // contained obligation ERROR (3) outranks it — same precedence the
      // CLI's exit taxonomy uses.
      if (any_error && code != 3) code = 2;
      return static_cast<int>(code);
    }
    // Unknown event kinds are skipped: a newer daemon may stream more.
  }
}

}  // namespace

int submit_specs(const std::string& socket_path,
                 const std::vector<std::string>& specs, std::ostream& out,
                 std::ostream& err, const ClientOptions& copts) {
  bool any_error = false;  // exit-2 class: usage / parse / transport
  bool any_exit3 = false;  // contained obligation ERROR
  bool any_exit1 = false;  // refuted or inconclusive
  for (const std::string& arg : specs) {
    bool ok = false;
    std::string req = submit_request(arg, err, &ok);
    if (!ok) {
      any_error = true;
      continue;
    }
    int code = -1;
    for (int attempt = 0;; ++attempt) {
      std::string terr;
      code = try_submit(socket_path, req, out, err, copts, &terr);
      if (code >= 0) break;  // the daemon answered; no transport retry
      if (attempt >= copts.retries) {
        err << "ctaver: " << terr << "\n";
        break;
      }
      // Submit is idempotent (content-addressed proofs): resubmitting
      // replays everything already proved and re-proves only the rest.
      err << "ctaver: " << terr << "; retrying (" << (attempt + 2) << "/"
          << (copts.retries + 1) << ")\n";
      backoff_sleep(attempt, copts);
    }
    if (code < 0 || code == 2) any_error = true;
    if (code == 3) any_exit3 = true;
    if (code == 1) any_exit1 = true;
  }
  if (any_exit3) return 3;
  if (any_error) return 2;
  return any_exit1 ? 1 : 0;
}

int request_stats(const std::string& socket_path, std::ostream& out,
                  std::ostream& err, const ClientOptions& copts) {
  for (int attempt = 0;; ++attempt) {
    std::string terr;
    Conn conn;
    std::string line;
    if (conn.connect(socket_path, copts, &terr) &&
        conn.send_line("{\"op\":\"stats\"}", &terr) &&
        conn.read_line(&line, &terr)) {
      out << line << "\n";
      return 0;
    }
    if (attempt >= copts.retries) {
      err << "ctaver: " << terr << "\n";
      return 2;
    }
    err << "ctaver: " << terr << "; retrying (" << (attempt + 2) << "/"
        << (copts.retries + 1) << ")\n";
    backoff_sleep(attempt, copts);
  }
}

int request_shutdown(const std::string& socket_path, std::ostream& err,
                     const ClientOptions& copts) {
  for (int attempt = 0;; ++attempt) {
    std::string terr;
    Conn conn;
    std::string line;
    if (conn.connect(socket_path, copts, &terr) &&
        conn.send_line("{\"op\":\"shutdown\"}", &terr) &&
        conn.read_line(&line, &terr)) {
      return 0;
    }
    if (attempt >= copts.retries) {
      err << "ctaver: " << terr << "\n";
      return 2;
    }
    err << "ctaver: " << terr << "; retrying (" << (attempt + 2) << "/"
        << (copts.retries + 1) << ")\n";
    backoff_sleep(attempt, copts);
  }
}

}  // namespace ctaver::svc
