#include "svc/journal.h"

#include <unistd.h>

#include <cerrno>
#include <filesystem>
#include <system_error>

#include "svc/proof_cache.h"
#include "util/hash.h"
#include "verify/pipeline.h"

namespace ctaver::svc {

namespace fs = std::filesystem;

Journal::Journal(const std::string& dir) {
  const fs::path runs = fs::path(dir) / "runs";
  std::error_code ec;
  // A new runs/ is an entry in `dir`: fsync that too, or a power cut could
  // take the directory, and the markers in it, away.
  if (fs::create_directories(runs, ec)) sync_dir(dir);
  if (!ec && ::access(runs.c_str(), W_OK) != 0) {
    ec.assign(errno, std::generic_category());
  }
  if (ec) {
    error_ = runs.string() + ": " + ec.message();
    return;
  }
  runs_ = runs.string();
}

void Journal::run_start(const std::string& run_id, const std::string& /*kind*/,
                        const std::string& name, std::size_t total) {
  if (!ok()) return;
  write_durable((fs::path(runs_) / run_id).string(),
                name + ": " + std::to_string(total) + " obligation(s)\n");
}

void Journal::run_end(const std::string& run_id, int /*exit_code*/) {
  std::error_code ec;
  if (ok() && fs::remove(fs::path(runs_) / run_id, ec)) sync_dir(runs_);
}

bool Journal::unfinished(const std::string& run_id) const {
  std::error_code ec;
  return ok() && fs::exists(fs::path(runs_) / run_id, ec);
}

std::size_t Journal::unfinished_runs() const {
  if (!ok()) return 0;
  std::size_t n = 0;
  std::error_code ec;
  for (fs::directory_iterator it(runs_, ec), end; !ec && it != end;
       it.increment(ec)) {
    // A .tmp file is a marker whose write was cut short: that run never
    // got as far as starting.
    if (it->path().extension() != ".tmp") ++n;
  }
  return n;
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
