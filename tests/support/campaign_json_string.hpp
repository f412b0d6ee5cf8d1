#pragma once

// The campaign result document (exp/campaign_runner.hpp) as one string, so
// tests can parse it or compare it byte for byte. Test-only; not part of
// the library.

#include <sstream>
#include <string>

#include "exp/campaign_runner.hpp"

namespace cawo {

inline std::string toCampaignJsonString(const CampaignOutcome& outcome) {
  std::ostringstream out;
  writeCampaignJson(out, outcome);
  return out.str();
}

} // namespace cawo
