// The durable run journal (src/svc/journal) and svc::Json, the reader it
// parses its records back with: append/replay round-trips,
// torn-tail and checksum-corruption truncation, wholesale reset of alien
// files, run-identity determinism, the degradation contract (an unusable
// journal never fails a run), and the pipeline integration — every durable
// obligation verdict lands a journal record at its durability point, so a
// partially-journaled run resumes with only the missing obligations
// re-proved and report bytes identical to a cold run. Runs under TSan in CI
// (the "svc" leg): appends from pipeline workers must be race-free.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "frontend/registry.h"
#include "svc/journal.h"
#include "svc/json.h"
#include "svc/proof_cache.h"
#include "util/hash.h"
#include "verify/pipeline.h"

namespace ctaver::svc {
namespace {

namespace fs = std::filesystem;

protocols::ProtocolModel builtin(const std::string& name) {
  return frontend::ProtocolRegistry::with_builtins().make(name);
}

class TempDir {
 public:
  TempDir() {
    path_ = fs::temp_directory_path() /
            ("ctaver_journal_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] std::string str() const { return path_.string(); }
  [[nodiscard]] fs::path log() const { return path_ / Journal::file_name(); }

 private:
  static int counter_;
  fs::path path_;
};
int TempDir::counter_ = 0;

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void append_raw(const fs::path& p, const std::string& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::app);
  out << bytes;
}

std::vector<verify::ObligationKey> naive_keys() {
  return verify::obligation_cache_keys(builtin("NaiveVoting"));
}

TEST(SvcJson, ParsesTheWireShapes) {
  Json v = Json::parse(
      R"({"event":"obligation","nschemas":42,"cached":true,)"
      R"("line":"Inv1(v=0): FAIL [parametric] 4 schemas",)"
      R"("nested":{"a":[1,2.5,-3],"b":null},"esc":"a\"b\\c\nA"})");
  EXPECT_TRUE(v.is_object());
  EXPECT_EQ(v.get("event"), "obligation");
  EXPECT_EQ(v["nschemas"].as_int(), 42);
  EXPECT_TRUE(v["cached"].as_bool());
  EXPECT_EQ(v["nested"]["a"].size(), 3u);
  EXPECT_EQ(v["nested"]["a"].at(1).as_number(), 2.5);
  EXPECT_TRUE(v["nested"]["b"].is_null());
  EXPECT_EQ(v["esc"].as_string(), "a\"b\\c\nA");
  EXPECT_THROW(Json::parse("{\"a\":}"), std::runtime_error);
  EXPECT_THROW(Json::parse("[1,2] trailing"), std::runtime_error);
  EXPECT_THROW(Json::parse(""), std::runtime_error);
}

TEST(Journal, CreatesHeaderAndAppendsSurviveReopen) {
  TempDir dir;
  std::string run;
  {
    Journal j(dir.str());
    ASSERT_TRUE(j.ok()) << j.error();
    EXPECT_TRUE(j.replayed().empty());
    run = journal_run_id(naive_keys());
    j.run_start(run, "verify", "NaiveVoting", 6);
    j.obligation_done(run, "Inv1(v=0)", std::string(64, 'a'), false);
    j.obligation_done(run, "C1", std::string(64, 'b'), true);
    EXPECT_EQ(j.stats().appended, 3u);
  }
  // Fresh handle: the header line plus three checksummed records replay.
  Journal j2(dir.str());
  ASSERT_TRUE(j2.ok()) << j2.error();
  EXPECT_EQ(j2.stats().replayed, 3u);
  EXPECT_EQ(j2.stats().truncated_bytes, 0u);
  EXPECT_TRUE(j2.run_started(run));
  EXPECT_FALSE(j2.run_finished(run));
  EXPECT_EQ(j2.unfinished_runs(), 1u);
  std::vector<std::string> obls = j2.run_obligations(run);
  ASSERT_EQ(obls.size(), 2u);
  EXPECT_NE(std::find(obls.begin(), obls.end(), std::string(64, 'a')),
            obls.end());
  // Closing the run flips the queries on the NEXT open.
  j2.run_end(run, 1);
  Journal j3(dir.str());
  EXPECT_TRUE(j3.run_finished(run));
  EXPECT_EQ(j3.unfinished_runs(), 0u);
}

TEST(Journal, KilledRerunOfAFinishedRunIsUnfinished) {
  // The run id does not cover --time-budget: a budget-cut run finishes,
  // then the same command line re-run is killed mid-flight. The queries
  // read only the records since the id's last run-start.
  TempDir dir;
  {
    Journal j(dir.str());
    ASSERT_TRUE(j.ok()) << j.error();
    j.run_start("r1", "verify", "P", 2);
    j.obligation_done("r1", "A", std::string(64, '1'), false);
    j.run_end("r1", 1);
    j.run_start("r1", "verify", "P", 2);
    j.obligation_done("r1", "B", std::string(64, '2'), false);
  }
  Journal j(dir.str());
  EXPECT_TRUE(j.run_started("r1"));
  EXPECT_FALSE(j.run_finished("r1"));
  EXPECT_EQ(j.unfinished_runs(), 1u);
  EXPECT_EQ(j.run_obligations("r1"),
            std::vector<std::string>{std::string(64, '2')});
}

TEST(Journal, FinishedRunsAreForgottenAtOpen) {
  // The open that finds every run on file ended cuts the file back to its
  // header; that handle still answers from the records it read, and the
  // next one replays nothing. One unfinished run keeps every record.
  TempDir dir;
  {
    Journal j(dir.str());
    j.run_start("r1", "verify", "P", 1);
    j.obligation_done("r1", "A", std::string(64, 'a'), false);
    j.run_end("r1", 0);
  }
  {
    Journal j(dir.str());
    EXPECT_EQ(j.stats().replayed, 3u);
    EXPECT_TRUE(j.run_finished("r1"));
    EXPECT_EQ(j.run_obligations("r1").size(), 1u);
  }
  Journal third(dir.str());
  ASSERT_TRUE(third.ok()) << third.error();
  EXPECT_EQ(third.stats().replayed, 0u);
  EXPECT_EQ(read_file(dir.log()), "ctaver-journal v1\n");

  third.run_start("r1", "verify", "P", 1);
  third.run_end("r1", 0);
  third.run_start("r2", "verify", "Q", 1);
  const std::string unfinished = read_file(dir.log());
  for (int open = 0; open < 2; ++open) {
    Journal j(dir.str());
    EXPECT_EQ(j.stats().replayed, 3u);
    EXPECT_EQ(j.unfinished_runs(), 1u);
  }
  EXPECT_EQ(read_file(dir.log()), unfinished);
}

TEST(Journal, RecordFormatIsChecksummedOneLineJson) {
  TempDir dir;
  Journal j(dir.str());
  j.run_start("deadbeef", "verify", "P", 2);
  std::string bytes = read_file(dir.log());
  std::istringstream is(bytes);
  std::string header, record;
  ASSERT_TRUE(std::getline(is, header));
  EXPECT_EQ(header, "ctaver-journal v1");
  ASSERT_TRUE(std::getline(is, record));
  // <64-hex sha256> <payload>; the checksum vouches for the payload bytes.
  ASSERT_GT(record.size(), 65u);
  EXPECT_EQ(record[64], ' ');
  std::string payload = record.substr(65);
  EXPECT_EQ(record.substr(0, 64), util::sha256_hex(payload));
  Json p = Json::parse(payload);
  EXPECT_EQ(p.get("rec"), "run-start");
  EXPECT_EQ(p.get("run"), "deadbeef");
  EXPECT_EQ(p["total"].as_int(), 2);
}

TEST(Journal, TornTailIsTruncatedAndAppendsContinue) {
  TempDir dir;
  {
    Journal j(dir.str());
    j.run_start("r1", "verify", "P", 1);
    j.obligation_done("r1", "O", std::string(64, 'c'), false);
  }
  const std::string intact = read_file(dir.log());
  // A killed writer leaves a partial record: checksum prefix, no newline.
  append_raw(dir.log(), std::string(40, 'f') + " {\"rec\":\"obl");
  {
    Journal j(dir.str());
    ASSERT_TRUE(j.ok()) << j.error();
    EXPECT_EQ(j.stats().replayed, 2u);
    EXPECT_GT(j.stats().truncated_bytes, 0u);
    EXPECT_EQ(read_file(dir.log()), intact);  // byte-exact rollback
    j.run_end("r1", 0);  // the truncated tail never blocks new appends
  }
  Journal j2(dir.str());
  EXPECT_EQ(j2.stats().replayed, 3u);
  EXPECT_TRUE(j2.run_finished("r1"));
}

TEST(Journal, ChecksumMismatchTruncatesFromTheCorruptRecord) {
  TempDir dir;
  {
    Journal j(dir.str());
    j.run_start("r1", "verify", "P", 2);
    j.obligation_done("r1", "A", std::string(64, 'a'), false);
    j.obligation_done("r1", "B", std::string(64, 'b'), false);
  }
  // Flip one payload byte of the SECOND record; the third is intact but
  // unreachable — recovery must not trust anything past the first bad
  // checksum (the write order is the truth of what happened).
  std::string bytes = read_file(dir.log());
  std::size_t second = bytes.find("\"name\":\"A\"");
  ASSERT_NE(second, std::string::npos);
  bytes[second + 9] = 'Z';  // "A" -> "Z" under the stale checksum
  {
    std::ofstream out(dir.log(), std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  Journal j(dir.str());
  ASSERT_TRUE(j.ok()) << j.error();
  EXPECT_EQ(j.stats().replayed, 1u);  // only run-start survives
  EXPECT_GT(j.stats().truncated_bytes, 0u);
  EXPECT_TRUE(j.run_started("r1"));
  EXPECT_TRUE(j.run_obligations("r1").empty());
}

TEST(Journal, AlienOrFutureVersionFileIsResetWholesale) {
  TempDir dir;
  {
    std::ofstream out(dir.log(), std::ios::binary);
    out << "ctaver-journal v999\nsome future record format\n";
  }
  Journal j(dir.str());
  ASSERT_TRUE(j.ok()) << j.error();
  EXPECT_EQ(j.stats().replayed, 0u);
  EXPECT_GT(j.stats().truncated_bytes, 0u);
  j.run_start("r1", "verify", "P", 1);
  Journal j2(dir.str());
  EXPECT_EQ(j2.stats().replayed, 1u);
  EXPECT_EQ(read_file(dir.log()).rfind("ctaver-journal v1\n", 0), 0u);
}

TEST(Journal, UnusableDirectoryDegradesToNoop) {
  // A regular file where the cache dir should be: open fails, ok() is
  // false, and every append is a no-op returning false — the degradation
  // contract (a run proceeds, just without crash-safety).
  TempDir dir;
  std::string file = dir.str() + "/notadir";
  {
    std::ofstream out(file);
    out << "x";
  }
  Journal j(file);
  EXPECT_FALSE(j.ok());
  EXPECT_FALSE(j.error().empty());
  EXPECT_FALSE(j.append("{\"rec\":\"run-start\"}"));
  j.run_start("r", "verify", "P", 1);  // must not crash
  EXPECT_EQ(j.stats().appended, 0u);
}

TEST(Journal, RunIdIsDeterministicAndKeySensitive) {
  std::vector<verify::ObligationKey> keys = naive_keys();
  EXPECT_EQ(journal_run_id(keys), journal_run_id(keys));
  EXPECT_EQ(journal_run_id(keys).size(), 64u);
  // Any change to the obligation set — name, kind, key bytes, order —
  // names a different run: --resume refuses a mismatched command line.
  std::vector<verify::ObligationKey> renamed = keys;
  renamed[0].name += "x";
  EXPECT_NE(journal_run_id(renamed), journal_run_id(keys));
  std::vector<verify::ObligationKey> rekind = keys;
  rekind[0].parametric = !rekind[0].parametric;
  EXPECT_NE(journal_run_id(rekind), journal_run_id(keys));
  std::vector<verify::ObligationKey> reordered = keys;
  std::swap(reordered[0], reordered[1]);
  EXPECT_NE(journal_run_id(reordered), journal_run_id(keys));
  std::vector<verify::ObligationKey> shorter(keys.begin(), keys.end() - 1);
  EXPECT_NE(journal_run_id(shorter), journal_run_id(keys));
}

// --- pipeline integration ----------------------------------------------

TEST(JournalPipeline, EveryDurableVerdictLandsARecord) {
  protocols::ProtocolModel pm = builtin("NaiveVoting");
  TempDir dir;
  ProofCache cache(dir.str());
  Journal journal(dir.str());
  ASSERT_TRUE(journal.ok()) << journal.error();
  std::string run = journal_run_id(naive_keys());

  verify::Options opts;
  opts.cache = &cache;
  opts.journal = &journal;
  opts.journal_run = run;
  opts.jobs = 4;  // TSan leg: concurrent durability-point appends
  journal.run_start(run, "verify", pm.name, 6);
  verify::verify_protocol(pm, opts);
  journal.run_end(run, 1);

  Journal replay(dir.str());
  EXPECT_EQ(replay.stats().replayed, 8u);  // start + 6 obligations + end
  EXPECT_TRUE(replay.run_finished(run));
  std::vector<std::string> obls = replay.run_obligations(run);
  EXPECT_EQ(obls.size(), 6u);
  // The journaled keys ARE the proof-cache keys — each one resolves.
  for (const std::string& key : obls) {
    EXPECT_TRUE(cache.lookup(key).has_value()) << key;
  }
  // Warm re-run: hits journal at probe time, with cached=true provenance.
  Journal journal2(dir.str());
  verify::Options warm;
  warm.cache = &cache;
  warm.journal = &journal2;
  warm.journal_run = run;
  journal2.run_start(run, "verify", pm.name, 6);
  verify::verify_protocol(pm, warm);
  journal2.run_end(run, 1);
  Journal replay2(dir.str());
  std::size_t cached_records = 0;
  for (const Json& rec : replay2.replayed()) {
    if (rec.get("rec") == "obligation" && rec["cached"].as_bool()) {
      ++cached_records;
    }
  }
  EXPECT_EQ(cached_records, 6u);
}

TEST(JournalPipeline, PartialDurabilityResumesByteIdentical) {
  // Simulate a crash that left SOME obligations durable: seed the cache
  // with a full run, then surgically delete half the proof entries and
  // journal only the survivors. The "resume" run must re-prove exactly
  // the missing ones and render byte-identically to a cold run.
  protocols::ProtocolModel pm = builtin("NaiveVoting");
  std::string cold = verify::report_text(verify::verify_protocol(pm, {}));

  TempDir dir;
  std::vector<verify::ObligationKey> keys = naive_keys();
  std::string run = journal_run_id(keys);
  {
    ProofCache seed(dir.str());
    verify::Options opts;
    opts.cache = &seed;
    verify::verify_protocol(pm, opts);
    // Keep the first three proofs; a crash lost the rest.
    for (std::size_t i = 3; i < keys.size(); ++i) {
      seed.invalidate(keys[i].key);
    }
    Journal j(dir.str());
    j.run_start(run, "verify", pm.name, keys.size());
    for (std::size_t i = 0; i < 3; ++i) {
      j.obligation_done(run, keys[i].name, keys[i].key, false);
    }
    // No run_end: the run is unfinished, exactly like a kill.
  }

  Journal recovered(dir.str());
  EXPECT_EQ(recovered.unfinished_runs(), 1u);
  EXPECT_TRUE(recovered.run_started(run));
  EXPECT_FALSE(recovered.run_finished(run));
  EXPECT_EQ(recovered.run_obligations(run).size(), 3u);

  ProofCache cache(dir.str());
  verify::Options resume;
  resume.cache = &cache;
  resume.journal = &recovered;
  resume.journal_run = run;
  recovered.run_start(run, "verify", pm.name, keys.size());
  verify::ProtocolReport r = verify::verify_protocol(pm, resume);
  recovered.run_end(run, 1);
  EXPECT_EQ(verify::report_text(r), cold);
  EXPECT_EQ(cache.stats().hits, 3u);    // the durable survivors replayed
  EXPECT_EQ(cache.stats().misses, 3u);  // the lost ones re-proved
  Journal after(dir.str());
  EXPECT_TRUE(after.run_finished(run));
  EXPECT_EQ(after.run_obligations(run).size(), 6u);
  EXPECT_EQ(after.unfinished_runs(), 0u);
}

}  // namespace
}  // namespace ctaver::svc
