// The run markers (src/svc/journal) and svc::Json, the reader tests
// hold JSON dumps against: a run is unfinished exactly while its marker
// `<dir>/runs/<run-id>` exists, finished runs leave nothing behind however
// many there are, run identity is deterministic, an unusable directory
// never fails a run, and a run resumed from a partially filled cache
// re-proves only the missing obligations with report bytes identical to a
// cold run.
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
  [[nodiscard]] fs::path runs() const { return path_ / "runs"; }

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

/// File names in `dir`, sorted.
std::vector<std::string> listing(const fs::path& dir) {
  std::vector<std::string> names;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    names.push_back(e.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

/// How many of `keys` a fresh cache handle on `dir` finds.
std::size_t cached_keys(const std::string& dir,
                        const std::vector<verify::ObligationKey>& keys) {
  ProofCache probe(dir);
  return static_cast<std::size_t>(
      std::count_if(keys.begin(), keys.end(), [&](const auto& k) {
        return probe.lookup(k.key).has_value();
      }));
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
  // Numbers follow RFC 8259's grammar, not whatever prefix strtod reads.
  for (const char* bad : {"[1-2]", "[1.2.3]", "[1e]", "[1+]", "[--1]"}) {
    EXPECT_THROW(Json::parse(bad), std::runtime_error) << bad;
  }
  EXPECT_EQ(Json::parse("[-0.5e+2]").at(0).as_number(), -50);
}

TEST(Journal, StartedRunIsUnfinishedWithItsMarkerOnDisk) {
  TempDir dir;
  const std::string run = journal_run_id(naive_keys());
  {
    Journal j(dir.str());
    ASSERT_TRUE(j.ok()) << j.error();
    EXPECT_FALSE(j.unfinished(run));
    EXPECT_EQ(j.unfinished_runs(), 0u);
    j.run_start(run, "verify", "NaiveVoting", 6);
    EXPECT_TRUE(j.unfinished(run));
  }
  // The marker is a file named by the run id that outlives the handle; it
  // names the specs and the obligation count for a reader of the directory.
  EXPECT_EQ(listing(dir.runs()), std::vector<std::string>{run});
  EXPECT_EQ(read_file(dir.runs() / run), "NaiveVoting: 6 obligation(s)\n");
  Journal j(dir.str());
  EXPECT_TRUE(j.unfinished(run));
  EXPECT_FALSE(j.unfinished("other"));
  EXPECT_EQ(j.unfinished_runs(), 1u);
}

TEST(Journal, EndedRunLeavesRunsEmpty) {
  TempDir dir;
  Journal j(dir.str());
  ASSERT_TRUE(j.ok()) << j.error();
  j.run_start("r1", "verify", "P", 1);
  j.run_end("r1", 0);
  EXPECT_FALSE(j.unfinished("r1"));
  EXPECT_EQ(j.unfinished_runs(), 0u);
  EXPECT_TRUE(listing(dir.runs()).empty());
}

TEST(Journal, KilledRerunOfAFinishedRunIsUnfinished) {
  // The run id does not cover --time-budget: a budget-cut run finishes,
  // then the same command line re-run is killed mid-flight. Its marker is
  // back, so the run is unfinished again.
  TempDir dir;
  {
    Journal j(dir.str());
    ASSERT_TRUE(j.ok()) << j.error();
    j.run_start("r1", "verify", "P", 2);
    j.run_end("r1", 1);
    j.run_start("r1", "verify", "P", 2);
  }
  Journal j(dir.str());
  EXPECT_TRUE(j.unfinished("r1"));
  EXPECT_EQ(j.unfinished_runs(), 1u);
  EXPECT_EQ(listing(dir.runs()), std::vector<std::string>{"r1"});
}

TEST(Journal, FinishedRunsAfterAKilledOneLeaveOnlyItsMarker) {
  // A run killed and never re-run leaves its one marker; the runs that
  // finish after it leave nothing, however many there are.
  TempDir dir;
  Journal j(dir.str());
  ASSERT_TRUE(j.ok()) << j.error();
  j.run_start("killed", "verify", "P", 1);
  for (int i = 0; i < 200; ++i) {
    const std::string run = "finished" + std::to_string(i);
    j.run_start(run, "verify", "Q", 1);
    j.run_end(run, 0);
  }
  EXPECT_EQ(listing(dir.runs()), std::vector<std::string>{"killed"});
  EXPECT_EQ(j.unfinished_runs(), 1u);
  EXPECT_TRUE(j.unfinished("killed"));
}

TEST(Journal, EndingAnUnknownRunIsHarmless) {
  TempDir dir;
  Journal j(dir.str());
  ASSERT_TRUE(j.ok()) << j.error();
  j.run_end("never-started", 0);
  EXPECT_TRUE(listing(dir.runs()).empty());
  j.run_start("r1", "verify", "P", 1);
  j.run_end("never-started", 0);
  EXPECT_EQ(listing(dir.runs()), std::vector<std::string>{"r1"});
  EXPECT_TRUE(j.unfinished("r1"));
}

TEST(Journal, MarkerWriteCutShortStartsNoRun) {
  // A kill between the temp file and the rename leaves `<id>.tmp`: that
  // run never started, so it blocks no --resume.
  TempDir dir;
  Journal j(dir.str());
  ASSERT_TRUE(j.ok()) << j.error();
  std::ofstream(dir.runs() / "r1.tmp") << "P: 1 obligation(s)\n";
  EXPECT_FALSE(j.unfinished("r1"));
  EXPECT_EQ(j.unfinished_runs(), 0u);
}

TEST(Journal, UnusableDirectoryDegradesToNoop) {
  // A regular file where the cache dir should be: ok() is false, and
  // run_start/run_end are no-ops — the degradation contract (a run
  // proceeds, just without crash-safety).
  TempDir dir;
  std::string file = dir.str() + "/notadir";
  {
    std::ofstream out(file);
    out << "x";
  }
  Journal j(file);
  EXPECT_FALSE(j.ok());
  EXPECT_FALSE(j.error().empty());
  j.run_start("r", "verify", "P", 1);  // must not crash
  EXPECT_FALSE(j.unfinished("r"));
  EXPECT_EQ(j.unfinished_runs(), 0u);
  j.run_end("r", 0);
  EXPECT_EQ(read_file(file), "x");
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

TEST(JournalPipeline, PartialDurabilityResumesByteIdentical) {
  // Simulate a crash that left SOME obligations durable: seed the cache
  // with a full run, surgically delete half the proof entries, and leave
  // the run's marker behind. The "resume" run must re-prove exactly the
  // missing ones and render byte-identically to a cold run.
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
    // No run_end: the run is unfinished, exactly like a kill.
  }

  Journal recovered(dir.str());
  EXPECT_EQ(recovered.unfinished_runs(), 1u);
  EXPECT_TRUE(recovered.unfinished(run));
  EXPECT_EQ(cached_keys(dir.str(), keys), 3u);

  ProofCache cache(dir.str());
  verify::Options resume;
  resume.cache = &cache;
  recovered.run_start(run, "verify", pm.name, keys.size());
  verify::ProtocolReport r = verify::verify_protocol(pm, resume);
  recovered.run_end(run, 1);
  EXPECT_EQ(verify::report_text(r), cold);
  EXPECT_EQ(cache.stats().hits, 3u);    // the durable survivors replayed
  EXPECT_EQ(cache.stats().misses, 3u);  // the lost ones re-proved
  std::size_t cached = 0;
  for (const verify::PropertyResult* prop :
       {&r.agreement, &r.validity, &r.termination}) {
    for (const verify::Obligation& o : prop->obligations) cached += o.cached;
  }
  EXPECT_EQ(cached, 3u);
  EXPECT_EQ(cached_keys(dir.str(), keys), keys.size());
  EXPECT_FALSE(recovered.unfinished(run));
  EXPECT_TRUE(listing(dir.runs()).empty());
}

}  // namespace
}  // namespace ctaver::svc
