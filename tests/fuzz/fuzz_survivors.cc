// Fuzzes the survivor-list byte format (jobs::ParseSurvivorBytes).
//
// Contract under test: ANY byte sequence either parses into a fully
// validated SurvivorData or returns a typed Status — never a crash, never
// an allocation sized from an attacker-controlled count (the historical
// crasher in corpus/survivors/regression_huge_pair_count was exactly
// that: a forged pair count whose byte-size computation wrapped past
// 2^64). A successful parse must also round-trip: re-saving through the
// real writer and re-parsing yields the identical survivor universe.

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/status.h"
#include "jobs/checkpoint.h"

#include "fuzz_driver.h"

namespace {

using tycos::Result;
using tycos::Status;
using tycos::jobs::ParseSurvivorBytes;
using tycos::jobs::SaveSurvivorList;
using tycos::jobs::SurvivorData;

void Require(bool cond, const char* what) {
  if (!cond) {
    std::fprintf(stderr, "fuzz_survivors: invariant violated: %s\n", what);
    std::abort();
  }
}

std::string ScratchPath() {
  return "/tmp/tycos_fuzz_survivors_" + std::to_string(::getpid()) +
         ".survivors";
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const Result<SurvivorData> parsed =
      ParseSurvivorBytes(data, size, "fuzz input");
  if (!parsed.ok()) {
    // Rejection must be typed, never a silent empty success.
    Require(parsed.status().code() != tycos::StatusCode::kOk,
            "error Status carries kOk");
    return 0;
  }

  // A parse that succeeded promised full validation: every pair in range
  // and strictly (a, b)-sorted.
  const SurvivorData& sd = parsed.value();
  for (size_t i = 0; i < sd.pairs.size(); ++i) {
    const auto& [a, b] = sd.pairs[i];
    Require(a >= 0 && b >= 0 && a < b, "pair not canonical a < b");
    Require(static_cast<uint32_t>(b) < sd.identity.num_channels,
            "pair index out of channel range");
    if (i > 0) Require(sd.pairs[i - 1] < sd.pairs[i], "pairs not sorted");
  }

  // Round-trip through the real writer.
  const std::string path = ScratchPath();
  Require(SaveSurvivorList(path, sd, /*sync=*/false).ok(),
          "re-save of a valid parse failed");
  const Result<SurvivorData> again = tycos::jobs::LoadSurvivorList(path);
  Require(std::remove(path.c_str()) == 0, "scratch cleanup failed");
  Require(again.ok(), "round-trip reload failed");
  Require(again.value().pairs == sd.pairs &&
              again.value().identity == sd.identity,
          "round-trip changed the survivor data");
  return 0;
}
