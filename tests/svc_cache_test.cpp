// The content-addressed proof cache (src/svc/proof_cache + the key
// derivation in src/verify/cache_key): golden key stability, edit
// sensitivity (what invalidates what), payload codec round-trips, corrupt
// disk entries degrading to misses, and the tentpole guarantee — a warm
// resubmission of an edited spec re-proves only the obligations whose
// lowered automaton changed, with report bytes identical to a cold run for
// every (jobs x workers) combination.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "frontend/lower.h"
#include "frontend/registry.h"
#include "svc/proof_cache.h"
#include "util/hash.h"
#include "verify/pipeline.h"

namespace ctaver {
namespace {

namespace fs = std::filesystem;

protocols::ProtocolModel builtin(const std::string& name) {
  return frontend::ProtocolRegistry::with_builtins().make(name);
}

// A self-contained category-(B) spec (the paper's naive-voting warm-up).
// The variants below edit exactly one aspect each, so the tests can pin
// which obligations' cache keys move under which edits.
const char* kBaseSpec = R"(protocol CacheProbe {
  category B;
  parameters n, f;
  resilience n > 2*f;
  resilience f >= 0;
  counts processes = n - f, coins = 0;
  shared v0, v1;
  process {
    border   J0 : 0;
    border   J1 : 1;
    initial  I0 : 0;
    initial  I1 : 1;
    internal S;
    final    D0 : 0 decides;
    final    D1 : 1 decides;
    entry J0 -> I0;
    entry J1 -> I1;
    rule r1: I0 -> S do v0 += 1;
    rule r2: I1 -> S do v1 += 1;
    rule r3: S -> D0 when 2*v0 >= n - 2*f + 1;
    rule r4: S -> D1 when 2*v1 >= n - 2*f + 1;
    switch D0 -> J0;
    switch D1 -> J1;
  }
  sweep (3, 0), (4, 1);
}
)";

std::string edited(const std::string& text, const std::string& from,
                   const std::string& to) {
  std::string out = text;
  std::size_t pos = out.find(from);
  EXPECT_NE(pos, std::string::npos) << from;
  out.replace(pos, from.size(), to);
  return out;
}

protocols::ProtocolModel load(const std::string& text) {
  return frontend::load_spec_string(text, "cache_probe.cta");
}

std::vector<verify::ObligationKey> keys_of(const protocols::ProtocolModel& pm) {
  return verify::obligation_cache_keys(pm);
}

/// Canonical report rendering for byte-identity checks (same shape as the
/// parallel-pipeline harness): everything deterministic, seconds excluded.
std::string render(const verify::ProtocolReport& r) {
  std::ostringstream os;
  os << r.protocol << " cat=" << static_cast<int>(r.category)
     << " L=" << r.n_locations << " R=" << r.n_rules << "\n";
  auto prop = [&os](const char* title, const verify::PropertyResult& p) {
    os << title << ": holds=" << p.holds() << " ce=" << p.has_counterexample()
       << " inconclusive=" << p.inconclusive() << "\n";
    for (const verify::Obligation& o : p.obligations) {
      os << "  " << verify::obligation_line(o) << " ce=[" << o.ce
         << "] detail=[" << o.detail << "] replay=[" << o.replay << "]\n";
    }
  };
  prop("agreement", r.agreement);
  prop("validity", r.validity);
  prop("termination", r.termination);
  return os.str();
}

TEST(Sha256, KnownVectors) {
  EXPECT_EQ(
      util::sha256_hex(""),
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(
      util::sha256_hex("abc"),
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  // Spans one block boundary (56 bytes + padding needs a second block).
  EXPECT_EQ(
      util::sha256_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnop"
                       "nopq"),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

// Pins the exact key values for the NaiveVoting built-in under default
// options. These move ONLY when the key contract itself changes (canonical
// serializer, hashed option set, key prefix version) — bump ctaver-okey-v1
// and re-pin when that is intentional; any accidental drift silently
// invalidates every user's proof cache.
TEST(CacheKey, GoldenValuesNaiveVoting) {
  std::vector<verify::ObligationKey> keys = keys_of(builtin("NaiveVoting"));
  ASSERT_EQ(keys.size(), 6u);
  const char* expected[][3] = {
      {"Inv1(v=0)", "parametric",
       "fb01f8607f39822c85efeb48abaef298fcead0c35f8e4f799bf0fbf09c761fed"},
      {"Inv2(v=0)", "parametric",
       "38be434fb6ca0fb8f847915aea5b082d8399c197c90dbfdd06bb5cc4a03f7c73"},
      {"Inv1(v=1)", "parametric",
       "a15d7e746510f3ca5eeea34c6eea8ee777e4ea0755349f4f4a37e18f134aea65"},
      {"Inv2(v=1)", "parametric",
       "5bda8e610c88d94fb8b7c9bbfb5ad82e1c78ce7d06e50dde91ef2d4446381763"},
      {"C1", "sweep",
       "4a4a588b844a9eb2ebcbcb17790e4bb92777de4862d81aae38a7cb3080384973"},
      {"C2'", "sweep",
       "22dcf0b443a3c875cbd584791d65ae5e0b753d3af2948db2eedf2e33970e5366"},
  };
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(keys[i].name, expected[i][0]);
    EXPECT_EQ(keys[i].parametric ? "parametric" : "sweep",
              std::string(expected[i][1]));
    EXPECT_EQ(keys[i].key, expected[i][2]) << keys[i].name;
  }
}

TEST(CacheKey, GuardEditInvalidatesEveryObligation) {
  std::vector<verify::ObligationKey> base = keys_of(load(kBaseSpec));
  std::vector<verify::ObligationKey> guard = keys_of(load(
      edited(kBaseSpec, "2*v0 >= n - 2*f + 1", "2*v0 >= n - 2*f + 3")));
  ASSERT_EQ(base.size(), guard.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(base[i].name, guard[i].name);
    // The lowered automaton changed, and the system fingerprint feeds both
    // parametric and sweep keys.
    EXPECT_NE(base[i].key, guard[i].key) << base[i].name;
  }
}

TEST(CacheKey, SweepEditInvalidatesOnlySweepObligations) {
  std::vector<verify::ObligationKey> base = keys_of(load(kBaseSpec));
  std::vector<verify::ObligationKey> swept = keys_of(
      load(edited(kBaseSpec, "sweep (3, 0), (4, 1);", "sweep (3, 0);")));
  ASSERT_EQ(base.size(), swept.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(base[i].name, swept[i].name);
    if (base[i].parametric) {
      EXPECT_EQ(base[i].key, swept[i].key) << base[i].name;
    } else {
      EXPECT_NE(base[i].key, swept[i].key) << base[i].name;
    }
  }
}

TEST(CacheKey, CommentEditChangesNothing) {
  std::vector<verify::ObligationKey> base = keys_of(load(kBaseSpec));
  std::vector<verify::ObligationKey> commented = keys_of(load(
      edited(kBaseSpec, "  shared v0, v1;",
             "  // vote counters\n  shared v0, v1;")));
  ASSERT_EQ(base.size(), commented.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(base[i].key, commented[i].key) << base[i].name;
  }
}

TEST(CacheKey, BudgetClassAndOptionsAreKeyed) {
  protocols::ProtocolModel pm = load(kBaseSpec);
  verify::Options a;
  verify::Options b;
  b.schema.max_schemas = 1234;
  b.max_states = 999;
  verify::Options c;
  c.schema.prune = !c.schema.prune;
  std::vector<verify::ObligationKey> ka = verify::obligation_cache_keys(pm, a);
  std::vector<verify::ObligationKey> kb = verify::obligation_cache_keys(pm, b);
  std::vector<verify::ObligationKey> kc = verify::obligation_cache_keys(pm, c);
  for (std::size_t i = 0; i < ka.size(); ++i) {
    EXPECT_NE(ka[i].key, kb[i].key) << ka[i].name;  // budget class moved
    if (ka[i].parametric) {
      EXPECT_NE(ka[i].key, kc[i].key);  // prune is a parametric-key input
    } else {
      EXPECT_EQ(ka[i].key, kc[i].key);  // ...but not a sweep-key input
    }
  }
  // Byte-neutral knobs (jobs, workers) must NOT move keys: reports are
  // identical across them, so their verdicts are interchangeable.
  verify::Options d;
  d.jobs = 8;
  d.schema.workers = 8;
  std::vector<verify::ObligationKey> kd = verify::obligation_cache_keys(pm, d);
  for (std::size_t i = 0; i < ka.size(); ++i) {
    EXPECT_EQ(ka[i].key, kd[i].key) << ka[i].name;
  }
}

TEST(CachePayload, CheckResultRoundtrip) {
  schema::CheckResult r;
  r.holds = false;
  r.complete = true;
  r.nschemas = 42;
  r.nqueries = 40;
  r.npivots = 1234;
  r.seconds = 0.125;
  schema::Counterexample ce;
  ce.params = {5, 1};
  ce.milestones = {"g1 on", "g2 on"};
  ce.text = "multi\nline ce\ntext";
  ce.init.push_back({false, 2, 3});
  ce.init.push_back({true, 0, 1});
  ce.batches.push_back({false, 1, 2, 0});
  ce.batches.push_back({true, 3, 1, 2});
  ce.spec_name = "Inv1(v=0)";
  r.ce = ce;

  std::optional<schema::CheckResult> back =
      svc::decode_check(svc::encode_check(r));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->holds, r.holds);
  EXPECT_EQ(back->complete, r.complete);
  EXPECT_EQ(back->nschemas, r.nschemas);
  EXPECT_EQ(back->nqueries, r.nqueries);
  EXPECT_EQ(back->npivots, r.npivots);
  EXPECT_EQ(back->seconds, r.seconds);  // hexfloat: bit-exact
  ASSERT_TRUE(back->ce.has_value());
  EXPECT_EQ(back->ce->params, ce.params);
  EXPECT_EQ(back->ce->milestones, ce.milestones);
  EXPECT_EQ(back->ce->text, ce.text);
  ASSERT_EQ(back->ce->init.size(), 2u);
  EXPECT_EQ(back->ce->init[1].coin, true);
  EXPECT_EQ(back->ce->init[1].loc, 0);
  ASSERT_EQ(back->ce->batches.size(), 2u);
  EXPECT_EQ(back->ce->batches[1].segment, 2);
  EXPECT_EQ(back->ce->spec_name, ce.spec_name);

  schema::CheckResult holds;
  holds.holds = true;
  holds.complete = true;
  holds.nschemas = 7;
  std::optional<schema::CheckResult> back2 =
      svc::decode_check(svc::encode_check(holds));
  ASSERT_TRUE(back2.has_value());
  EXPECT_TRUE(back2->holds);
  EXPECT_FALSE(back2->ce.has_value());
}

TEST(CachePayload, SweepVerdictRoundtrip) {
  svc::SweepVerdict v{false, true, "instances (5,2)=FAIL",
                      "instances (3,0)=ok (4,1)=ok (5,2)=FAIL"};
  std::optional<svc::SweepVerdict> back =
      svc::decode_sweep(svc::encode_sweep(v));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->holds, v.holds);
  EXPECT_EQ(back->complete, v.complete);
  EXPECT_EQ(back->ce, v.ce);
  EXPECT_EQ(back->detail, v.detail);
}

TEST(CachePayload, MalformedPayloadsDecodeToNullopt) {
  schema::CheckResult r;
  r.holds = true;
  r.complete = true;
  std::string good = svc::encode_check(r);
  EXPECT_TRUE(svc::decode_check(good).has_value());
  // Truncations at every prefix length must fail cleanly, never crash.
  for (std::size_t n = 0; n < good.size(); ++n) {
    EXPECT_FALSE(svc::decode_check(good.substr(0, n)).has_value()) << n;
  }
  EXPECT_FALSE(svc::decode_check(good + "trailing\n").has_value());
  EXPECT_FALSE(svc::decode_check("sweep v1\n").has_value());
  EXPECT_FALSE(svc::decode_sweep("check v1\n").has_value());
  std::string sweep = svc::encode_sweep({true, true, "", "d"});
  for (std::size_t n = 0; n < sweep.size(); ++n) {
    EXPECT_FALSE(svc::decode_sweep(sweep.substr(0, n)).has_value()) << n;
  }
}

class TempDir {
 public:
  TempDir() {
    path_ = fs::temp_directory_path() /
            ("ctaver_cache_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] const fs::path& path() const { return path_; }

 private:
  static int counter_;
  fs::path path_;
};
int TempDir::counter_ = 0;

TEST(ProofCache, DiskPersistsAcrossInstances) {
  TempDir dir;
  std::string key(64, 'a');
  {
    svc::ProofCache cache(dir.path().string());
    cache.store(key, "payload-bytes");
    EXPECT_EQ(cache.stats().stores, 1u);
  }
  svc::ProofCache fresh(dir.path().string());
  std::optional<std::string> hit = fresh.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "payload-bytes");
  EXPECT_EQ(fresh.stats().hits, 1u);
  EXPECT_EQ(fresh.stats().corrupt, 0u);
}

TEST(ProofCache, CorruptAndTruncatedEntriesDegradeToMisses) {
  TempDir dir;
  std::string key(64, 'b');
  {
    svc::ProofCache cache(dir.path().string());
    cache.store(key, "the payload");
  }
  fs::path entry = dir.path() / key;
  ASSERT_TRUE(fs::exists(entry));

  // Truncate mid-payload: short read -> corrupt -> miss.
  {
    std::string bytes;
    {
      std::ifstream in(entry, std::ios::binary);
      std::ostringstream os;
      os << in.rdbuf();
      bytes = os.str();
    }
    std::ofstream out(entry, std::ios::binary | std::ios::trunc);
    out << bytes.substr(0, bytes.size() - 4);
  }
  {
    svc::ProofCache cache(dir.path().string());
    EXPECT_FALSE(cache.lookup(key).has_value());
    EXPECT_EQ(cache.stats().corrupt, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
  }

  // Flip payload bytes under a stale checksum -> corrupt -> miss.
  {
    std::ofstream out(entry, std::ios::binary | std::ios::trunc);
    out << "ctaver-proof-cache v1\nkey " << key
        << "\nlen 11\nsha256 0000000000000000000000000000000000000000000000"
           "000000000000000000\nthe payload";
  }
  {
    svc::ProofCache cache(dir.path().string());
    EXPECT_FALSE(cache.lookup(key).has_value());
    EXPECT_EQ(cache.stats().corrupt, 1u);
  }

  // Wrong magic (e.g. a future format version) -> corrupt -> miss.
  {
    std::ofstream out(entry, std::ios::binary | std::ios::trunc);
    out << "ctaver-proof-cache v999\ngarbage\n";
  }
  {
    svc::ProofCache cache(dir.path().string());
    EXPECT_FALSE(cache.lookup(key).has_value());
    EXPECT_EQ(cache.stats().corrupt, 1u);
  }

  // Plain absence is a miss but NOT corruption.
  {
    svc::ProofCache cache(dir.path().string());
    EXPECT_FALSE(cache.lookup(std::string(64, 'c')).has_value());
    EXPECT_EQ(cache.stats().corrupt, 0u);
    EXPECT_EQ(cache.stats().misses, 1u);
  }
}

// Regression for the crash-left-empty-entry shape: before stores fsync'd
// through tmp+rename, a kill could leave a named-but-empty (or truncated)
// entry file. Such a file must read as a corrupt miss — and a re-store
// over it must fully heal the entry.
TEST(ProofCache, ZeroByteEntryIsACorruptMissAndRestoreHeals) {
  TempDir dir;
  std::string key(64, 'e');
  {
    svc::ProofCache cache(dir.path().string());
    cache.store(key, "real payload");
  }
  fs::path entry = dir.path() / key;
  { std::ofstream out(entry, std::ios::binary | std::ios::trunc); }
  ASSERT_EQ(fs::file_size(entry), 0u);
  {
    svc::ProofCache cache(dir.path().string());
    EXPECT_FALSE(cache.lookup(key).has_value());
    EXPECT_EQ(cache.stats().corrupt, 1u);
    cache.store(key, "real payload");
  }
  svc::ProofCache fresh(dir.path().string());
  std::optional<std::string> hit = fresh.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "real payload");
  // No stray temp files from the atomic-rename discipline.
  std::size_t files = 0;
  for (const auto& e : fs::directory_iterator(dir.path())) {
    (void)e;
    ++files;
  }
  EXPECT_EQ(files, 1u);
}

TEST(ProofCache, InvalidateDropsMemoryAndDisk) {
  TempDir dir;
  std::string key(64, 'd');
  svc::ProofCache cache(dir.path().string());
  cache.store(key, "x");
  ASSERT_TRUE(fs::exists(dir.path() / key));
  cache.invalidate(key);
  EXPECT_FALSE(fs::exists(dir.path() / key));
  EXPECT_FALSE(cache.lookup(key).has_value());
  EXPECT_EQ(cache.stats().corrupt, 1u);
}

// --- pipeline integration ----------------------------------------------

TEST(PipelineCache, WarmResubmissionReprovesOnlyChangedObligations) {
  svc::ProofCache cache;
  verify::Options opts;
  opts.cache = &cache;

  // Cold: everything misses and every complete verdict is stored.
  verify::ProtocolReport cold = verify::verify_protocol(load(kBaseSpec), opts);
  svc::CacheStats s0 = cache.stats();
  EXPECT_EQ(s0.hits, 0u);
  EXPECT_EQ(s0.misses, 6u);
  EXPECT_EQ(s0.stores, 6u);
  for (const verify::PropertyResult* p :
       {&cold.agreement, &cold.validity, &cold.termination}) {
    for (const verify::Obligation& o : p->obligations) {
      EXPECT_FALSE(o.cached) << o.name;
      EXPECT_TRUE(o.complete) << o.name;
    }
  }

  // Edited sweep tuples: the lowered automaton is unchanged, so the four
  // parametric obligations replay from the cache; only the two sweep
  // obligations (whose instance list is part of their key) re-prove.
  protocols::ProtocolModel pm2 =
      load(edited(kBaseSpec, "sweep (3, 0), (4, 1);", "sweep (3, 0);"));
  verify::ProtocolReport warm = verify::verify_protocol(pm2, opts);
  svc::CacheStats s1 = cache.stats();
  EXPECT_EQ(s1.hits - s0.hits, 4u);
  EXPECT_EQ(s1.misses - s0.misses, 2u);
  EXPECT_EQ(s1.stores - s0.stores, 2u);
  for (const verify::PropertyResult* p : {&warm.agreement, &warm.validity}) {
    for (const verify::Obligation& o : p->obligations) {
      EXPECT_TRUE(o.cached) << o.name;
    }
  }
  for (const verify::Obligation& o : warm.termination.obligations) {
    EXPECT_FALSE(o.cached) << o.name;
  }

  // Cross-spec isolation: the edited spec's stores did not evict the
  // original's entries — resubmitting the base spec is all hits.
  verify::ProtocolReport warm0 = verify::verify_protocol(load(kBaseSpec), opts);
  svc::CacheStats s2 = cache.stats();
  EXPECT_EQ(s2.hits - s1.hits, 6u);
  EXPECT_EQ(s2.misses - s1.misses, 0u);
  EXPECT_EQ(render(warm0), render(cold));
}

TEST(PipelineCache, HitPathBytesMatchColdRunAcrossJobsAndWorkers) {
  protocols::ProtocolModel pm = builtin("NaiveVoting");
  verify::Options plain;
  std::string cold = render(verify::verify_protocol(pm, plain));

  svc::ProofCache cache;
  verify::Options seed = plain;
  seed.cache = &cache;
  verify::verify_protocol(pm, seed);  // populate
  ASSERT_EQ(cache.stats().stores, 6u);

  for (int jobs : {1, 2, 8}) {
    for (int workers : {1, 2, 8}) {
      verify::Options opts = plain;
      opts.cache = &cache;
      opts.jobs = jobs;
      opts.schema.workers = workers;
      verify::ProtocolReport warm = verify::verify_protocol(pm, opts);
      EXPECT_EQ(render(warm), cold) << "jobs=" << jobs << " workers=" << workers;
      for (const verify::PropertyResult* p :
           {&warm.agreement, &warm.validity, &warm.termination}) {
        for (const verify::Obligation& o : p->obligations) {
          EXPECT_TRUE(o.cached) << o.name;
        }
      }
    }
  }
  // Nine warm runs, six obligations each: pure replay, nothing re-proved.
  EXPECT_EQ(cache.stats().stores, 6u);
  EXPECT_EQ(cache.stats().misses, 6u);
}

TEST(PipelineCache, ReplayedCounterexampleReplaysByteIdentically) {
  // replay_ce recomputes the concretization on every run — a cache hit
  // must re-run it deterministically, not store it.
  protocols::ProtocolModel pm = builtin("NaiveVoting");
  verify::Options opts;
  opts.replay_ce = true;
  verify::ProtocolReport cold = verify::verify_protocol(pm, opts);
  svc::ProofCache cache;
  opts.cache = &cache;
  verify::verify_protocol(pm, opts);
  verify::ProtocolReport warm = verify::verify_protocol(pm, opts);
  EXPECT_EQ(render(warm), render(cold));
  // Agreement is refuted with a structured CE; its replay summary must be
  // present (recomputed, not cached) and identical to the cold run's.
  ASSERT_FALSE(warm.agreement.obligations.empty());
  const verify::Obligation& o = warm.agreement.obligations.front();
  EXPECT_TRUE(o.cached);
  EXPECT_FALSE(o.replay.empty());
  EXPECT_EQ(o.replay, cold.agreement.obligations.front().replay);
  EXPECT_EQ(o.replay_ok, cold.agreement.obligations.front().replay_ok);
}

TEST(Pipeline, UnknownOnlyObligationNameThrows) {
  verify::Options opts;
  opts.only_obligations = {"NoSuchObligation"};
  EXPECT_THROW(verify::verify_protocol(builtin("NaiveVoting"), opts),
               std::invalid_argument);
  // Sweep names stay valid vocabulary even when sweeps are disabled: the
  // plan is silently empty for them, but the name is not an error.
  verify::Options ok;
  ok.only_obligations = {"C1"};
  ok.run_sweeps = false;
  verify::ProtocolReport r =
      verify::verify_protocol(builtin("NaiveVoting"), ok);
  EXPECT_TRUE(r.termination.obligations.empty());
}

}  // namespace
}  // namespace ctaver
