#pragma once

#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

/// \file metrics_contract.hpp
/// The STATS key contract, as committed in bench/baselines/bench_metrics.json
/// (the test targets get its path as GCR_METRICS_BASELINE).  Tests compare
/// a rendered STATS body against it, so a refactor that drops, renames or
/// reorders a key fails tier-1, not only the CI baseline diff.

namespace gcr::test {

/// The string list named \p field in the baseline JSON at \p path, in
/// order; empty when the file or the field is missing.
inline std::vector<std::string> baseline_keys(const char* path,
                                              const std::string& field) {
  std::ifstream in(path);
  const std::string json((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::vector<std::string> keys;
  std::size_t at = json.find("\"" + field + "\": [");
  if (at == std::string::npos) return keys;
  const std::size_t end = json.find(']', at);
  at = json.find('[', at);
  while ((at = json.find('"', at + 1)) < end) {
    const std::size_t close = json.find('"', at + 1);
    keys.push_back(json.substr(at + 1, close - at - 1));
    at = close;
  }
  return keys;
}

/// The keys of a STATS body (`key value` lines), in order.
inline std::vector<std::string> stats_keys(const std::string& body) {
  std::vector<std::string> keys;
  std::istringstream is(body);
  std::string line;
  while (std::getline(is, line)) keys.push_back(line.substr(0, line.find(' ')));
  return keys;
}

}  // namespace gcr::test
