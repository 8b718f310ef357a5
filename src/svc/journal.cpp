#include "svc/journal.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <unordered_map>

#include "obs/metrics.h"
#include "util/hash.h"
#include "verify/pipeline.h"

namespace ctaver::svc {

namespace fs = std::filesystem;

namespace {

constexpr const char* kMagic = "ctaver-journal v1";

/// Full write at the current offset; EINTR-safe. False on any failure
/// (including short writes the retry loop cannot finish) — the bytes
/// already out are a torn tail the next open truncates.
bool write_all(int fd, const char* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    ssize_t n = ::write(fd, data + off, len - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

void fsync_dir(const std::string& dir) {
  int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

}  // namespace

Journal::Journal(const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);  // open below reports any real failure
  path_ = (fs::path(dir) / file_name()).string();
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    error_ = path_ + ": " + std::strerror(errno);
    return;
  }
  // Make the file's existence durable, not just its bytes: a crash between
  // create and the parent directory's metadata landing would lose the whole
  // journal.
  fsync_dir(dir);
  // The lock serializes the scan-and-truncate against a concurrent writer
  // (another ctaver process journaling into this cache dir).
  while (::flock(fd_, LOCK_EX) != 0 && errno == EINTR) {
  }
  recover();
  ::flock(fd_, LOCK_UN);
}

Journal::~Journal() {
  if (fd_ >= 0) ::close(fd_);
}

void Journal::recover() {
  std::string all;
  char chunk[4096];
  for (;;) {
    ssize_t n = ::read(fd_, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      error_ = path_ + ": read: " + std::strerror(errno);
      ::close(fd_);
      fd_ = -1;
      return;
    }
    if (n == 0) break;
    all.append(chunk, static_cast<std::size_t>(n));
  }

  auto reset_file = [&]() {
    // Alien or pre-v1 content: the journal is bookkeeping, the proofs it
    // references live in the cache — resetting loses nothing durable.
    stats_.truncated_bytes += all.size();
    if (::ftruncate(fd_, 0) != 0 || ::lseek(fd_, 0, SEEK_SET) < 0) return;
    std::string header = std::string(kMagic) + "\n";
    write_all(fd_, header.data(), header.size());
    ::fsync(fd_);
  };

  if (all.empty()) {
    std::string header = std::string(kMagic) + "\n";
    if (!write_all(fd_, header.data(), header.size())) {
      error_ = path_ + ": write: " + std::strerror(errno);
      ::close(fd_);
      fd_ = -1;
      return;
    }
    ::fsync(fd_);
    return;
  }

  std::string want = std::string(kMagic) + "\n";
  if (all.size() < want.size() || all.compare(0, want.size(), want) != 0) {
    reset_file();
    if (stats_.truncated_bytes > 0) {
      obs::add(obs::Counter::kJournalTruncatedBytes, stats_.truncated_bytes);
    }
    return;
  }

  // Scan records; `good_end` advances past every intact line. The first
  // torn line (no '\n'), checksum mismatch, or unparseable payload stops
  // the scan — everything from there is a tail we cannot vouch for.
  std::size_t pos = want.size();
  std::size_t good_end = pos;
  while (pos < all.size()) {
    std::size_t nl = all.find('\n', pos);
    if (nl == std::string::npos) break;  // torn tail: writer died mid-line
    // "<64 hex> <payload>"
    if (nl - pos < 66 || all[pos + 64] != ' ') break;
    std::string sum(all, pos, 64);
    std::string payload(all, pos + 65, nl - pos - 65);
    if (util::sha256_hex(payload) != sum) break;
    Json rec;
    try {
      rec = Json::parse(payload);
    } catch (const std::exception&) {
      break;
    }
    replayed_.push_back(std::move(rec));
    ++stats_.replayed;
    pos = nl + 1;
    good_end = pos;
  }
  obs::add(obs::Counter::kJournalReplayed, stats_.replayed);
  const std::size_t torn = all.size() - good_end;
  if (torn > 0) {
    stats_.truncated_bytes += torn;
    obs::add(obs::Counter::kJournalTruncatedBytes, torn);
  }
  // When every run on file has ended, none is left to resume: the file is
  // cut back to its header, so the next open replays nothing (this handle
  // keeps what it read). That cut needs no fsync: lost, it only leaves
  // finished records, and the next append's fsync makes it durable.
  // Dropping a torn tail does need one.
  const std::size_t keep = unfinished_runs() == 0 ? want.size() : good_end;
  if (keep < all.size() && ::ftruncate(fd_, static_cast<off_t>(keep)) == 0 &&
      torn > 0) {
    ::fsync(fd_);
  }
}

bool Journal::append(const std::string& payload) {
  if (fd_ < 0) return false;
  std::string line = util::sha256_hex(payload) + " " + payload + "\n";
  std::lock_guard<std::mutex> lock(mu_);
  while (::flock(fd_, LOCK_EX) != 0) {
    if (errno != EINTR) return false;
  }
  bool ok = ::lseek(fd_, 0, SEEK_END) >= 0 &&
            write_all(fd_, line.data(), line.size()) && ::fsync(fd_) == 0;
  ::flock(fd_, LOCK_UN);
  if (ok) {
    ++stats_.appended;
    obs::add(obs::Counter::kJournalRecords);
  }
  return ok;
}

void Journal::run_start(const std::string& run_id, const std::string& kind,
                        const std::string& name, std::size_t total) {
  std::ostringstream os;
  os << "{\"rec\":\"run-start\",\"run\":\"" << obs::json_escape(run_id)
     << "\",\"kind\":\"" << obs::json_escape(kind) << "\",\"name\":\""
     << obs::json_escape(name) << "\",\"total\":" << total << "}";
  append(os.str());
}

void Journal::obligation_done(const std::string& run_id,
                              const std::string& name, const std::string& key,
                              bool cached) {
  std::ostringstream os;
  os << "{\"rec\":\"obligation\",\"run\":\"" << obs::json_escape(run_id)
     << "\",\"name\":\"" << obs::json_escape(name) << "\",\"key\":\""
     << obs::json_escape(key) << "\",\"cached\":" << (cached ? "true" : "false")
     << "}";
  append(os.str());
}

void Journal::run_end(const std::string& run_id, int exit_code) {
  std::ostringstream os;
  os << "{\"rec\":\"run-end\",\"run\":\"" << obs::json_escape(run_id)
     << "\",\"exit\":" << exit_code << "}";
  append(os.str());
}

std::size_t Journal::last_start(const std::string& run_id) const {
  for (std::size_t i = replayed_.size(); i-- > 0;) {
    const Json& r = replayed_[i];
    if (r.get("rec") == "run-start" && r.get("run") == run_id) return i;
  }
  return 0;
}

bool Journal::scan_kind_run(const char* kind,
                            const std::string& run_id) const {
  for (std::size_t i = last_start(run_id); i < replayed_.size(); ++i) {
    const Json& r = replayed_[i];
    if (r.get("rec") == kind && r.get("run") == run_id) return true;
  }
  return false;
}

bool Journal::run_started(const std::string& run_id) const {
  return scan_kind_run("run-start", run_id);
}

bool Journal::run_finished(const std::string& run_id) const {
  return scan_kind_run("run-end", run_id);
}

std::size_t Journal::unfinished_runs() const {
  // One pass, since every open asks: per run id, whether its latest
  // run-start or run-end record is a run-start.
  std::unordered_map<std::string, bool> open;
  for (const Json& r : replayed_) {
    const std::string rec = r.get("rec");
    if (rec == "run-start" || rec == "run-end") {
      open[r.get("run")] = rec == "run-start";
    }
  }
  return static_cast<std::size_t>(std::count_if(
      open.begin(), open.end(), [](const auto& run) { return run.second; }));
}

std::vector<std::string> Journal::run_obligations(
    const std::string& run_id) const {
  std::vector<std::string> keys;
  for (std::size_t i = last_start(run_id); i < replayed_.size(); ++i) {
    const Json& r = replayed_[i];
    if (r.get("rec") != "obligation" || r.get("run") != run_id) continue;
    const std::string key = r.get("key");
    if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
      keys.push_back(key);
    }
  }
  return keys;
}

std::string journal_run_id(const std::vector<verify::ObligationKey>& keys) {
  std::string acc;
  for (const verify::ObligationKey& k : keys) {
    acc += k.name;
    acc += k.parametric ? "\x1fp\x1f" : "\x1fs\x1f";
    acc += k.key;
    acc += '\n';
  }
  return util::sha256_hex(acc);
}

}  // namespace ctaver::svc
