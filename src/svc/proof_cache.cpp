#include "svc/proof_cache.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "obs/metrics.h"
#include "util/hash.h"

namespace ctaver::svc {

namespace fs = std::filesystem;

namespace {

constexpr const char* kDiskMagic = "ctaver-proof-cache v1";

bool valid_key(const std::string& key) {
  if (key.size() != 64) return false;
  for (char c : key) {
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  }
  return true;
}

}  // namespace

ProofCache::ProofCache(std::string disk_dir) : disk_dir_(std::move(disk_dir)) {}

std::optional<std::string> ProofCache::lookup(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = mem_.find(key);
  if (it != mem_.end()) {
    ++stats_.hits;
    obs::add(obs::Counter::kCacheHits);
    return it->second;
  }
  if (!disk_dir_.empty()) {
    if (std::optional<std::string> payload = disk_lookup(key)) {
      mem_[key] = *payload;
      ++stats_.hits;
      obs::add(obs::Counter::kCacheHits);
      return payload;
    }
  }
  ++stats_.misses;
  obs::add(obs::Counter::kCacheMisses);
  return std::nullopt;
}

void ProofCache::store(const std::string& key, const std::string& payload) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!mem_.emplace(key, payload).second) return;  // already cached
  ++stats_.stores;
  obs::add(obs::Counter::kCacheStores);
  if (!disk_dir_.empty()) disk_store(key, payload);
}

void ProofCache::invalidate(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  mem_.erase(key);
  ++stats_.corrupt;
  obs::add(obs::Counter::kCacheCorrupt);
  if (!disk_dir_.empty() && valid_key(key)) {
    std::error_code ec;
    fs::remove(fs::path(disk_dir_) / key, ec);
  }
}

CacheStats ProofCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::optional<std::string> ProofCache::disk_lookup(const std::string& key) {
  if (!valid_key(key)) return std::nullopt;
  std::ifstream in(fs::path(disk_dir_) / key, std::ios::binary);
  if (!in) return std::nullopt;  // plain absence, not corruption
  auto corrupt = [&]() -> std::optional<std::string> {
    ++stats_.corrupt;
    obs::add(obs::Counter::kCacheCorrupt);
    return std::nullopt;
  };
  std::string line;
  if (!std::getline(in, line) || line != kDiskMagic) return corrupt();
  if (!std::getline(in, line) || line != "key " + key) return corrupt();
  if (!std::getline(in, line) || line.rfind("len ", 0) != 0) return corrupt();
  char* end = nullptr;
  long long len = std::strtoll(line.c_str() + 4, &end, 10);
  if (end == nullptr || *end != '\0' || len < 0) return corrupt();
  if (!std::getline(in, line) || line.rfind("sha256 ", 0) != 0) {
    return corrupt();
  }
  std::string want_sha = line.substr(7);
  std::string payload(static_cast<std::size_t>(len), '\0');
  if (!in.read(payload.data(), len)) return corrupt();  // truncated
  if (util::sha256_hex(payload) != want_sha) return corrupt();
  return payload;
}

void ProofCache::disk_store(const std::string& key,
                            const std::string& payload) {
  if (!valid_key(key)) return;
  std::error_code ec;
  fs::create_directories(disk_dir_, ec);
  std::ostringstream entry;
  entry << kDiskMagic << "\n"
        << "key " << key << "\n"
        << "len " << payload.size() << "\n"
        << "sha256 " << util::sha256_hex(payload) << "\n"
        << payload;
  // An unwritable cache dir degrades to memory-only.
  write_durable((fs::path(disk_dir_) / key).string(), entry.str());
}

void sync_dir(const std::string& dir) {
  int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

bool write_durable(const std::string& path, const std::string& bytes) {
  // tmp + fsync + rename + parent-dir fsync: without the fsyncs a crash can
  // expose the rename before the data blocks land, a named-but-empty file.
  // disk_lookup would degrade such a cache entry to a corrupt miss, but the
  // proof a resume counts on would be silently lost.
  const fs::path final_path(path);
  fs::path tmp_path = final_path;
  tmp_path += ".tmp";
  int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  if (fd < 0) return false;
  bool ok = true;
  for (std::size_t off = 0; ok && off < bytes.size();) {
    ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n >= 0) {
      off += static_cast<std::size_t>(n);
    } else if (errno != EINTR) {
      ok = false;
    }
  }
  ok = ok && ::fsync(fd) == 0;
  ::close(fd);
  std::error_code ec;
  if (ok) fs::rename(tmp_path, final_path, ec);
  if (!ok || ec) {
    fs::remove(tmp_path, ec);
    return false;
  }
  sync_dir(final_path.parent_path().string());
  return true;
}

// --- codecs -------------------------------------------------------------
//
// Record grammar (all line-terminated):   scalars as "name value"; strings
// as "name <bytelen>" followed by exactly that many raw bytes and a '\n'.
// Doubles are hexfloat (%a) so they roundtrip bit-exactly.

namespace {

void put_str(std::ostringstream& os, const char* name, const std::string& s) {
  os << name << " " << s.size() << "\n" << s << "\n";
}

void put_double(std::ostringstream& os, const char* name, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  os << name << " " << buf << "\n";
}

/// Line-by-line reader over a payload; every getter returns false on any
/// shape mismatch so decoders can bail to nullopt.
class Reader {
 public:
  explicit Reader(const std::string& text) : text_(text) {}

  bool line(std::string* out) {
    if (pos_ >= text_.size()) return false;
    std::size_t nl = text_.find('\n', pos_);
    if (nl == std::string::npos) return false;
    out->assign(text_, pos_, nl - pos_);
    pos_ = nl + 1;
    return true;
  }

  bool word(const char* name, std::string* value) {
    std::string l;
    if (!line(&l)) return false;
    std::string prefix = std::string(name) + " ";
    if (l.rfind(prefix, 0) != 0) return false;
    value->assign(l, prefix.size(), std::string::npos);
    return true;
  }

  bool num(const char* name, long long* value) {
    std::string v;
    if (!word(name, &v)) return false;
    char* end = nullptr;
    *value = std::strtoll(v.c_str(), &end, 10);
    return end != nullptr && *end == '\0' && !v.empty();
  }

  bool dbl(const char* name, double* value) {
    std::string v;
    if (!word(name, &v)) return false;
    char* end = nullptr;
    *value = std::strtod(v.c_str(), &end);
    return end != nullptr && *end == '\0' && !v.empty();
  }

  bool flag(const char* name, bool* value) {
    long long v = 0;
    if (!num(name, &v) || (v != 0 && v != 1)) return false;
    *value = v == 1;
    return true;
  }

  bool str(const char* name, std::string* value) {
    long long len = 0;
    if (!num(name, &len) || len < 0) return false;
    std::size_t n = static_cast<std::size_t>(len);
    if (text_.size() - pos_ < n + 1) return false;  // bytes + '\n'
    value->assign(text_, pos_, n);
    pos_ += n;
    if (text_[pos_] != '\n') return false;
    ++pos_;
    return true;
  }

  [[nodiscard]] bool done() const { return pos_ == text_.size(); }

 private:
  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string encode_check(const schema::CheckResult& r) {
  std::ostringstream os;
  os << "check v1\n";
  os << "holds " << (r.holds ? 1 : 0) << "\n";
  os << "complete " << (r.complete ? 1 : 0) << "\n";
  os << "nschemas " << r.nschemas << "\n";
  os << "nqueries " << r.nqueries << "\n";
  os << "npivots " << r.npivots << "\n";
  put_double(os, "seconds", r.seconds);
  os << "has_ce " << (r.ce ? 1 : 0) << "\n";
  if (r.ce) {
    const schema::Counterexample& ce = *r.ce;
    os << "params " << ce.params.size();
    for (long long p : ce.params) os << " " << p;
    os << "\nmilestones " << ce.milestones.size() << "\n";
    for (const std::string& m : ce.milestones) put_str(os, "m", m);
    put_str(os, "text", ce.text);
    os << "init " << ce.init.size() << "\n";
    for (const schema::Counterexample::Init& i : ce.init) {
      os << "i " << (i.coin ? 1 : 0) << " " << i.loc << " " << i.count << "\n";
    }
    os << "batches " << ce.batches.size() << "\n";
    for (const schema::Counterexample::Batch& b : ce.batches) {
      os << "b " << (b.coin ? 1 : 0) << " " << b.rule << " " << b.count << " "
         << b.segment << "\n";
    }
    put_str(os, "spec_name", ce.spec_name);
  }
  return os.str();
}

std::optional<schema::CheckResult> decode_check(const std::string& payload) {
  Reader rd(payload);
  std::string head;
  if (!rd.line(&head) || head != "check v1") return std::nullopt;
  schema::CheckResult r;
  bool has_ce = false;
  if (!rd.flag("holds", &r.holds) || !rd.flag("complete", &r.complete) ||
      !rd.num("nschemas", &r.nschemas) || !rd.num("nqueries", &r.nqueries) ||
      !rd.num("npivots", &r.npivots) || !rd.dbl("seconds", &r.seconds) ||
      !rd.flag("has_ce", &has_ce)) {
    return std::nullopt;
  }
  if (has_ce) {
    schema::Counterexample ce;
    std::string params_line;
    if (!rd.word("params", &params_line)) return std::nullopt;
    {
      std::istringstream is(params_line);
      long long n = 0;
      if (!(is >> n) || n < 0) return std::nullopt;
      for (long long i = 0; i < n; ++i) {
        long long v = 0;
        if (!(is >> v)) return std::nullopt;
        ce.params.push_back(v);
      }
    }
    long long n = 0;
    if (!rd.num("milestones", &n) || n < 0) return std::nullopt;
    for (long long i = 0; i < n; ++i) {
      std::string m;
      if (!rd.str("m", &m)) return std::nullopt;
      ce.milestones.push_back(std::move(m));
    }
    if (!rd.str("text", &ce.text)) return std::nullopt;
    if (!rd.num("init", &n) || n < 0) return std::nullopt;
    for (long long k = 0; k < n; ++k) {
      std::string l;
      if (!rd.word("i", &l)) return std::nullopt;
      std::istringstream is(l);
      int coin = 0;
      schema::Counterexample::Init init;
      if (!(is >> coin >> init.loc >> init.count) || (coin != 0 && coin != 1)) {
        return std::nullopt;
      }
      init.coin = coin == 1;
      ce.init.push_back(init);
    }
    if (!rd.num("batches", &n) || n < 0) return std::nullopt;
    for (long long k = 0; k < n; ++k) {
      std::string l;
      if (!rd.word("b", &l)) return std::nullopt;
      std::istringstream is(l);
      int coin = 0;
      schema::Counterexample::Batch b;
      if (!(is >> coin >> b.rule >> b.count >> b.segment) ||
          (coin != 0 && coin != 1)) {
        return std::nullopt;
      }
      b.coin = coin == 1;
      ce.batches.push_back(b);
    }
    if (!rd.str("spec_name", &ce.spec_name)) return std::nullopt;
    r.ce = std::move(ce);
  }
  if (!rd.done()) return std::nullopt;
  return r;
}

std::string encode_sweep(const SweepVerdict& v) {
  std::ostringstream os;
  os << "sweep v1\n";
  os << "holds " << (v.holds ? 1 : 0) << "\n";
  os << "complete " << (v.complete ? 1 : 0) << "\n";
  put_str(os, "ce", v.ce);
  put_str(os, "detail", v.detail);
  return os.str();
}

std::optional<SweepVerdict> decode_sweep(const std::string& payload) {
  Reader rd(payload);
  std::string head;
  if (!rd.line(&head) || head != "sweep v1") return std::nullopt;
  SweepVerdict v;
  if (!rd.flag("holds", &v.holds) || !rd.flag("complete", &v.complete) ||
      !rd.str("ce", &v.ce) || !rd.str("detail", &v.detail) || !rd.done()) {
    return std::nullopt;
  }
  return v;
}

}  // namespace ctaver::svc
