// The campaign result store (src/exp/store): record-line byte round
// trips, index round trips, duplicate-cell rejection, resume-only
// reopening, multi-process-style shard merges, torn-tail crash recovery
// (including a real fork()+SIGKILL mid-campaign), query filter parity
// against a full-parse oracle, and byte-for-bit parity of the exported
// document against the legacy in-memory path.

#include <gtest/gtest.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <limits>
#include <regex>
#include <sstream>

#include <sys/wait.h>
#include <unistd.h>

#include "core/instance_hash.hpp"
#include "exp/campaign.hpp"
#include "exp/campaign_runner.hpp"
#include "exp/record_json.hpp"
#include "exp/store.hpp"
#include "support/campaign_json_string.hpp"
#include "util/require.hpp"

namespace cawo {
namespace {

namespace fs = std::filesystem;

/// A fast 8-instance × 2-solver grid (2 scenarios × 2 factors × 2 seeds).
CampaignSpec smallSpec() {
  CampaignSpec spec;
  setCampaignKey(spec, "name", "store-test");
  setCampaignKey(spec, "families", "atacseq");
  setCampaignKey(spec, "tasks", "20");
  setCampaignKey(spec, "scenarios", "S1,S2");
  setCampaignKey(spec, "deadline-factors", "1.5,2.0");
  setCampaignKey(spec, "seeds", "1,2");
  setCampaignKey(spec, "intervals", "6");
  setCampaignKey(spec, "algos", "ASAP,slack");
  setCampaignKey(spec, "threads", "1");
  return spec;
}

std::string freshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/cawo_store_" + name;
  fs::remove_all(dir);
  return dir;
}

/// Wall times are the only nondeterministic record bytes; scrub exactly
/// like the golden capture (tests/test_golden_outputs.cpp), plus the
/// online records' re-solve wall time.
std::string scrubWallTimes(std::string json) {
  json = std::regex_replace(json, std::regex("\"wall_ms\": [-+0-9.eE]+"),
                            "\"wall_ms\": 0");
  json = std::regex_replace(json,
                            std::regex("\"total_wall_ms\": [-+0-9.eE]+"),
                            "\"total_wall_ms\": 0");
  json = std::regex_replace(json, std::regex("\"greedy_ms\": [-+0-9.eE]+"),
                            "\"greedy_ms\": 0");
  json = std::regex_replace(json, std::regex("\"ls_ms\": [-+0-9.eE]+"),
                            "\"ls_ms\": 0");
  json = std::regex_replace(json,
                            std::regex("\"resolve_wall_ms\": [-+0-9.eE]+"),
                            "\"resolve_wall_ms\": 0");
  return json;
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string storeDocument(const std::string& dir) {
  CampaignStoreReader reader(dir);
  std::ostringstream out;
  writeCampaignJsonFromStore(out, reader);
  return out.str();
}

// ---------------------------------------------------------------------------
// Record line byte contract
// ---------------------------------------------------------------------------

TEST(RecordJson, LineRoundTripsByteForByte) {
  const CampaignOutcome outcome = runCampaign(smallSpec());
  ASSERT_FALSE(outcome.records.empty());
  for (const CampaignRecord& r : outcome.records) {
    const std::string line = campaignRecordJsonLine(r);
    EXPECT_EQ(line.find('\n'), std::string::npos);
    const CampaignRecord parsed = parseCampaignRecordLine(line);
    // Re-serializing the parsed record must reproduce the exact bytes —
    // the store's segments depend on this inverse being lossless.
    EXPECT_EQ(campaignRecordJsonLine(parsed), line);
  }
}

TEST(RecordJson, OnlineLineRoundTripsByteForByte) {
  CampaignSpec spec = smallSpec();
  setCampaignKey(spec, "tasks", "12");
  setCampaignKey(spec, "scenarios", "S1");
  setCampaignKey(spec, "seeds", "1");
  setCampaignKey(spec, "online", "1");
  setCampaignKey(spec, "policies", "static,reactive:threshold=0.05");
  const CampaignOutcome outcome = runCampaign(spec);
  ASSERT_FALSE(outcome.records.empty());
  for (const CampaignRecord& r : outcome.records) {
    const std::string line = campaignRecordJsonLine(r);
    EXPECT_EQ(campaignRecordJsonLine(parseCampaignRecordLine(line)), line);
    EXPECT_TRUE(parseCampaignRecordLine(line).hasOnline);
  }
}

// ---------------------------------------------------------------------------
// Store round trip + document parity
// ---------------------------------------------------------------------------

TEST(Store, WriteReadRoundTripAndIndex) {
  const CampaignSpec spec = smallSpec();
  const std::string dir = freshDir("roundtrip");
  CampaignStoreWriter store(dir, spec);
  const CampaignRunStats stats = runCampaignToStore({}, store);
  EXPECT_EQ(stats.totalCells, 16u);
  EXPECT_EQ(stats.cellsSolved, 16u);
  EXPECT_EQ(stats.presentBefore, 0u);

  CampaignStoreReader reader(dir);
  EXPECT_TRUE(reader.complete());
  EXPECT_EQ(reader.totalCells(), 16u);
  EXPECT_EQ(reader.stride(), 2u);
  for (std::size_t i = 0; i < reader.numInstances(); ++i)
    for (std::size_t c = 0; c < reader.stride(); ++c) {
      ASSERT_TRUE(reader.cellPresent(i, c));
      const std::string line = reader.readCellLine(i, c);
      const CampaignRecord r = parseCampaignRecordLine(line);
      // Index round trip: the sidecar's hash is the built-instance hash
      // embedded in the record itself.
      EXPECT_EQ(reader.cellHash(i, c), r.instanceHash);
      EXPECT_EQ(r.solver, reader.cellLabels()[c]);
      EXPECT_EQ(r.spec.cellKey(), reader.instances()[i].cellKey());
    }
}

TEST(Store, DocumentMatchesLegacyPathByteForByte) {
  // Offline and online campaigns fill their cell groups through different
  // cell runners; both must export the same bytes as the in-memory path.
  CampaignSpec online = smallSpec();
  setCampaignKey(online, "tasks", "12");
  setCampaignKey(online, "seeds", "1");
  setCampaignKey(online, "online", "1");
  setCampaignKey(online, "policies", "static,reactive:threshold=0.05");
  for (const CampaignSpec& spec : {smallSpec(), online}) {
    const std::string dir =
        freshDir(spec.online ? "parity_online" : "parity");
    CampaignStoreWriter store(dir, spec);
    (void)runCampaignToStore({}, store);

    const CampaignOutcome inMemory = runCampaign(spec);
    const std::string legacy = toCampaignJsonString(inMemory);
    EXPECT_EQ(scrubWallTimes(storeDocument(dir)), scrubWallTimes(legacy))
        << "online=" << spec.online;

    // The streaming summary must agree with the document's, field for
    // field.
    CampaignStoreReader reader(dir);
    const CampaignOutcome summarised = summariseStore(reader);
    ASSERT_EQ(summarised.summaries.size(), inMemory.summaries.size());
    for (std::size_t s = 0; s < summarised.summaries.size(); ++s) {
      EXPECT_EQ(summarised.summaries[s].solver, inMemory.summaries[s].solver);
      EXPECT_EQ(summarised.summaries[s].wins, inMemory.summaries[s].wins);
      EXPECT_EQ(summarised.summaries[s].medianRatio,
                inMemory.summaries[s].medianRatio);
      EXPECT_EQ(summarised.summaries[s].meanRatio,
                inMemory.summaries[s].meanRatio);
    }
  }
}

TEST(Store, DocumentMatchesGoldenCapture) {
  // The pre-store golden capture (tests/golden/README.md), reproduced
  // through the store path: stream into a 2-shard store, export, compare.
  CampaignSpec spec;
  setCampaignKey(spec, "name", "golden-smoke");
  setCampaignKey(spec, "families", "atacseq");
  setCampaignKey(spec, "tasks", "30");
  setCampaignKey(spec, "scenarios", "all");
  setCampaignKey(spec, "deadline-factors", "1.5,2.0");
  setCampaignKey(spec, "seeds", "1");
  setCampaignKey(spec, "intervals", "8");
  setCampaignKey(spec, "algos", "ASAP,slack,pressWR-LS");
  SolverOptions options;
  options.setInt("block-size", 3);
  options.setInt("ls-radius", 10);

  const std::string dir = freshDir("golden");
  for (std::size_t shard = 0; shard < 2; ++shard) {
    StoreOptions storeOptions;
    storeOptions.shardIndex = shard;
    storeOptions.shardCount = 2;
    CampaignStoreWriter store(dir, spec, storeOptions);
    (void)runCampaignToStore(options, store);
  }
  const std::string expected = readFile(
      std::string(CAWO_SOURCE_DIR) + "/tests/golden/smoke_campaign_all.json");
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(scrubWallTimes(storeDocument(dir)), expected)
      << "the store-path campaign JSON diverged from the pre-store golden";
}

// ---------------------------------------------------------------------------
// Guard rails
// ---------------------------------------------------------------------------

TEST(Store, DuplicateCellAppendIsRejected) {
  const CampaignSpec spec = smallSpec();
  const std::string dir = freshDir("duplicate");
  CampaignStoreWriter store(dir, spec);
  (void)runCampaignToStore({}, store, {}, 2); // first instance only
  CampaignRecord record =
      parseCampaignRecordLine(CampaignStoreReader(dir).readCellLine(0, 0));
  EXPECT_THROW(store.append(0, 0, record), PreconditionError);
  // appendInstance is the idempotent surface: same cells, no throw.
  CampaignRecord group[2] = {
      record, parseCampaignRecordLine(
                  CampaignStoreReader(dir).readCellLine(0, 1))};
  store.appendInstance(0, group, 2);
  store.flush();
  EXPECT_EQ(CampaignStoreReader(dir).presentCells(), 2u);
}

TEST(Store, ReopeningWithDataRequiresResume) {
  const CampaignSpec spec = smallSpec();
  const std::string dir = freshDir("reopen");
  {
    CampaignStoreWriter store(dir, spec);
    (void)runCampaignToStore({}, store, {}, 2);
  }
  EXPECT_THROW(CampaignStoreWriter(dir, spec), PreconditionError);
  StoreOptions resume;
  resume.resume = true;
  CampaignStoreWriter store(dir, spec, resume);
  EXPECT_EQ(store.presentCells(), 2u);
}

TEST(Store, ResumeUnderDifferentSpecIsRejected) {
  const CampaignSpec spec = smallSpec();
  const std::string dir = freshDir("specmismatch");
  { CampaignStoreWriter store(dir, spec); }
  CampaignSpec other = spec;
  setCampaignKey(other, "deadline-factors", "1.5");
  EXPECT_THROW(CampaignStoreWriter(dir, other), PreconditionError);
  // Threads are excluded from the canonical spec: resuming with a
  // different worker count is legal and changes nothing.
  CampaignSpec rethreaded = spec;
  setCampaignKey(rethreaded, "threads", "4");
  StoreOptions resume;
  resume.resume = true;
  EXPECT_NO_THROW(CampaignStoreWriter(dir, rethreaded, resume));
}

TEST(Store, ShardCountBeyondManifestRangeIsRejectedBeforeAnyFile) {
  // The manifest stores the count as an int64: 2^64-1 would be written as
  // -1 and leave a store no reader can open.
  const std::string dir = freshDir("shardwrap");
  StoreOptions options;
  options.shardCount = std::numeric_limits<std::size_t>::max();
  EXPECT_THROW(CampaignStoreWriter(dir, smallSpec(), options),
               PreconditionError);
  EXPECT_FALSE(fs::exists(dir));
  options.shardCount =
      static_cast<std::size_t>(std::numeric_limits<std::int64_t>::max()) + 1;
  EXPECT_THROW(CampaignStoreWriter(dir, smallSpec(), options),
               PreconditionError);
  EXPECT_FALSE(fs::exists(dir));
}

TEST(Store, ManifestWithNonPositiveShardCountIsRejected) {
  const std::string dir = freshDir("badmanifest");
  { CampaignStoreWriter store(dir, smallSpec()); }
  const std::string manifest = dir + "/manifest.json";
  const std::string text = readFile(manifest);
  const std::string field = "\"shards\": 1,";
  ASSERT_NE(text.find(field), std::string::npos) << text;
  for (const char* shards : {"-1", "0", "-9223372036854775808"}) {
    std::string edited = text;
    edited.replace(edited.find(field), field.size(),
                   "\"shards\": " + std::string(shards) + ",");
    std::ofstream(manifest, std::ios::binary | std::ios::trunc) << edited;
    try {
      CampaignStoreReader reader(dir);
      ADD_FAILURE() << "shards " << shards << " was accepted";
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("shards must be >= 1"),
                std::string::npos)
          << e.what();
    }
  }
}

// ---------------------------------------------------------------------------
// Sharding
// ---------------------------------------------------------------------------

TEST(Store, ShardedRunsMergeDeterministically) {
  const CampaignSpec spec = smallSpec();
  const std::string dir = freshDir("sharded");
  std::size_t solved = 0;
  for (std::size_t shard = 0; shard < 3; ++shard) {
    StoreOptions storeOptions;
    storeOptions.shardIndex = shard;
    storeOptions.shardCount = 3;
    CampaignStoreWriter store(dir, spec, storeOptions);
    const CampaignRunStats stats = runCampaignToStore({}, store);
    EXPECT_EQ(stats.cellsSolved, store.shardCells());
    solved += stats.cellsSolved;
  }
  EXPECT_EQ(solved, 16u); // disjoint shards cover the grid exactly once

  const std::string single = freshDir("sharded_single");
  CampaignStoreWriter store(single, spec);
  (void)runCampaignToStore({}, store);
  EXPECT_EQ(scrubWallTimes(storeDocument(dir)),
            scrubWallTimes(storeDocument(single)));
}

// ---------------------------------------------------------------------------
// Crash recovery
// ---------------------------------------------------------------------------

TEST(Store, TornFinalSegmentLineIsTruncatedAndReRun) {
  const CampaignSpec spec = smallSpec();
  const std::string dir = freshDir("torn");
  {
    CampaignStoreWriter store(dir, spec);
    (void)runCampaignToStore({}, store);
  }
  const std::string reference = scrubWallTimes(storeDocument(dir));

  // Tear the final record line mid-write: drop its last 3 bytes.
  const std::string segment = dir + "/segment-0.jsonl";
  fs::resize_file(segment, fs::file_size(segment) - 3);

  StoreOptions resume;
  resume.resume = true;
  CampaignStoreWriter store(dir, spec, resume);
  EXPECT_GT(store.recovery().truncatedBytes, 0u);
  EXPECT_EQ(store.presentCells(), 15u);
  const CampaignRunStats stats = runCampaignToStore({}, store);
  EXPECT_EQ(stats.cellsSolved, 1u); // only the torn cell is re-solved
  EXPECT_EQ(scrubWallTimes(storeDocument(dir)), reference);
}

TEST(Store, UnindexedSegmentTailIsRecoveredWithoutReSolving) {
  const CampaignSpec spec = smallSpec();
  const std::string dir = freshDir("unindexed");
  {
    CampaignStoreWriter store(dir, spec);
    (void)runCampaignToStore({}, store);
  }
  // Crash window: segment bytes durable, index lines not yet written.
  const std::string index = dir + "/segment-0.idx";
  const std::string lines = readFile(index);
  const std::size_t cut = lines.rfind('\n', lines.size() - 2);
  ASSERT_NE(cut, std::string::npos);
  fs::resize_file(index, cut + 1);

  StoreOptions resume;
  resume.resume = true;
  CampaignStoreWriter store(dir, spec, resume);
  EXPECT_EQ(store.recovery().recoveredCells, 1u);
  EXPECT_EQ(store.presentCells(), 16u);
  const CampaignRunStats stats = runCampaignToStore({}, store);
  EXPECT_EQ(stats.cellsSolved, 0u); // nothing re-solved, only re-indexed
}

TEST(Store, SigkilledShardResumesToIdenticalDocument) {
  const CampaignSpec spec = smallSpec();
  const std::string reference =
      scrubWallTimes(toCampaignJsonString(runCampaign(spec)));
  const std::string dir = freshDir("sigkill");

  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // In the child: stream with per-record durability and pull the plug
    // after exactly two instances — a deterministic kill point.
    StoreOptions storeOptions;
    storeOptions.groupCommit = 1;
    CampaignStoreWriter store(dir, spec, storeOptions);
    (void)runCampaignToStore({}, store, [](std::size_t done, std::size_t) {
      if (done >= 4) ::kill(::getpid(), SIGKILL);
    });
    ::_exit(0); // not reached — the progress callback kills us first
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  StoreOptions resume;
  resume.resume = true;
  CampaignStoreWriter store(dir, spec, resume);
  ASSERT_EQ(store.presentCells(), 4u); // the two durable instances survived
  const CampaignRunStats stats = runCampaignToStore({}, store);
  EXPECT_EQ(stats.presentBefore, 4u);
  EXPECT_EQ(stats.cellsSolved, 12u); // only the missing work re-ran
  EXPECT_EQ(scrubWallTimes(storeDocument(dir)), reference);
}

TEST(Store, MaxCellsCapsDeterministicallyAndResumeFinishes) {
  const CampaignSpec spec = smallSpec();
  const std::string dir = freshDir("maxcells");
  {
    CampaignStoreWriter store(dir, spec);
    const CampaignRunStats stats = runCampaignToStore({}, store, {}, 6);
    EXPECT_TRUE(stats.cappedByMaxCells);
    EXPECT_EQ(stats.cellsSolved, 6u); // ceil(6/2)=3 instances
  }
  {
    CampaignStoreReader reader(dir);
    EXPECT_FALSE(reader.complete());
    EXPECT_EQ(reader.presentCells(), 6u);
    std::ostringstream out;
    EXPECT_THROW(writeCampaignJsonFromStore(out, reader), PreconditionError);
  }
  StoreOptions resume;
  resume.resume = true;
  CampaignStoreWriter store(dir, spec, resume);
  const CampaignRunStats stats = runCampaignToStore({}, store);
  EXPECT_FALSE(stats.cappedByMaxCells);
  EXPECT_EQ(stats.presentBefore, 6u);
  EXPECT_EQ(stats.cellsSolved, 10u);
  EXPECT_EQ(scrubWallTimes(storeDocument(dir)),
            scrubWallTimes(toCampaignJsonString(runCampaign(spec))));
}

// ---------------------------------------------------------------------------
// Query
// ---------------------------------------------------------------------------

TEST(StoreQueryTest, FiltersMatchFullParseOracle) {
  const CampaignSpec spec = smallSpec();
  const std::string dir = freshDir("query");
  CampaignStoreWriter store(dir, spec);
  (void)runCampaignToStore({}, store);
  CampaignStoreReader reader(dir);

  StoreQuery query;
  query.solvers = {"sl*"};
  query.scenarios = {"S2"};
  query.deadlineFactors = {2.0};
  query.feasibleOnly = true;

  std::vector<std::string> got;
  const std::size_t matched =
      queryStore(reader, query,
                 [&](std::size_t, std::size_t, const CampaignRecord&,
                     const std::string& line) { got.push_back(line); });

  // Oracle: parse every present cell and apply the predicate directly.
  std::vector<std::string> expected;
  reader.forEachPresentCell([&](std::size_t, std::size_t,
                                const std::string& line) {
    const CampaignRecord r = parseCampaignRecordLine(line);
    if (r.solver == "slack" && r.spec.scenario == "S2" &&
        r.spec.deadlineFactor == 2.0 && r.feasible && !r.skipped)
      expected.push_back(line);
  });
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(matched, expected.size());
  EXPECT_EQ(got, expected);
}

TEST(StoreQueryTest, InstanceAxisFiltersNeedNoRecordParsing) {
  const CampaignSpec spec = smallSpec();
  const std::string dir = freshDir("query_axis");
  CampaignStoreWriter store(dir, spec);
  (void)runCampaignToStore({}, store);
  CampaignStoreReader reader(dir);

  StoreQuery query;
  query.seeds = {2};
  // 4 of 8 instances carry seed 2 → half the cells, counted via the
  // index alone (no consumer, no feasibleOnly → no parsing).
  EXPECT_EQ(queryStore(reader, query), 8u);

  StoreQuery byHash;
  byHash.instanceHash = instanceHashHex(reader.cellHash(3, 0));
  EXPECT_EQ(queryStore(reader, byHash), 2u); // both cells of instance 3
}

} // namespace
} // namespace cawo
