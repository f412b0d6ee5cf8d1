// Byte-exact golden checks for experiment outputs (see
// tests/golden/README.md). The JSON golden pins every deterministic byte
// of the scenarios=all smoke campaign; the only nondeterministic bytes —
// wall-time fields (wall_ms/total_wall_ms and the greedy_ms/ls_ms phase
// split) — are scrubbed to 0 on both sides, exactly as the capture was.
// Everything else (key order, number formatting, record order, costs,
// local-search round/move counts) must match bit for bit.

#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <sstream>

#include "exp/campaign.hpp"
#include "exp/campaign_runner.hpp"
#include "support/campaign_json_string.hpp"

namespace cawo {
namespace {

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

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
  return json;
}

TEST(GoldenOutputs, SmokeCampaignAllScenariosJsonIsByteStable) {
  CampaignSpec spec;
  setCampaignKey(spec, "name", "golden-smoke");
  setCampaignKey(spec, "families", "atacseq");
  setCampaignKey(spec, "tasks", "30");
  setCampaignKey(spec, "scenarios", "all");
  setCampaignKey(spec, "deadline-factors", "1.5,2.0");
  setCampaignKey(spec, "seeds", "1");
  setCampaignKey(spec, "intervals", "8");
  setCampaignKey(spec, "algos", "ASAP,slack,pressWR-LS");

  // The capture ran through the CLI, which always forwards these two
  // solver options; mirror it exactly.
  SolverOptions options;
  options.setInt("block-size", 3);
  options.setInt("ls-radius", 10);

  const CampaignOutcome outcome = runCampaign(spec, options);
  const std::string actual = scrubWallTimes(toCampaignJsonString(outcome));
  const std::string expected = readFile(
      std::string(CAWO_SOURCE_DIR) + "/tests/golden/smoke_campaign_all.json");
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(actual, expected)
      << "the scenarios=all campaign JSON diverged from the pre-refactor "
         "golden (tests/golden/README.md)";
}

} // namespace
} // namespace cawo
