// Golden search outputs. Every other search test checks self-consistency
// (across threads, cache on/off, resume); these pin what the search returns
// across commits. The literals were recorded at one thread from the engine
// as it stood before Tycos::Run was rebuilt around search units. A change
// that moves a result on purpose (another restart scheme, a recalibrated
// noise test) re-records them and says so.

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "datagen/energy_sim.h"
#include "datagen/relations.h"
#include "search/pairwise.h"
#include "search/tycos.h"

namespace tycos {
namespace {

using datagen::ComposeDataset;
using datagen::RelationType;
using datagen::SegmentSpec;
using datagen::SyntheticDataset;

// One search's observable output: the stop, every TycosStats counter and
// every window with its score as a hexfloat.
std::string Describe(const SearchOutcome& out, const TycosStats& s) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "partial=%d stop=%s climbs=%" PRId64 " acc=%" PRId64
                " rej=%" PRId64 " nb=%" PRId64 " ev=%" PRId64 " hits=%" PRId64
                " found=%" PRId64 " nf=%" PRId64 " deg=%" PRId64 " sr=%s",
                out.partial ? 1 : 0, StopReasonName(out.stop_reason), s.climbs,
                s.accepted_moves, s.rejected_moves, s.noise_blocked,
                s.mi_evaluations, s.cache_hits, s.windows_found,
                s.non_finite_scores, s.degenerate_windows,
                StopReasonName(s.stop_reason));
  std::string d = buf;
  for (const Window& w : out.windows.windows()) {
    std::snprintf(buf, sizeof(buf), " [%" PRId64 ",%" PRId64 ",%" PRId64 ",%a]",
                  w.start, w.end, w.delay, w.mi);
    d += buf;
  }
  return d;
}

struct EngineCase {
  TycosVariant variant;
  int num_restarts;
  int top_k;
  int64_t budget;  // 0: none
};

std::string Label(const EngineCase& c) {
  return std::string(TycosVariantName(c.variant)) +
         " restarts=" + std::to_string(c.num_restarts) +
         " top_k=" + std::to_string(c.top_k) +
         " budget=" + std::to_string(c.budget);
}

std::vector<EngineCase> EngineCases() {
  std::vector<EngineCase> cases;
  for (TycosVariant v : {TycosVariant::kL, TycosVariant::kLN,
                         TycosVariant::kLM, TycosVariant::kLMN}) {
    for (int restarts : {0, 1, 4}) {
      for (int top_k : {0, 3}) {
        for (int64_t budget : {int64_t{0}, int64_t{60}}) {
          cases.push_back({v, restarts, top_k, budget});
        }
      }
    }
  }
  return cases;
}

// In EngineCases() order.
const char* const kEngineGolden[] = {
    "partial=0 stop=completed climbs=26 acc=89 rej=274 nb=0 ev=1946 hits=2457 "
    "found=1 nf=0 deg=0 sr=completed [536,623,0,0x1.f50f45664281ap-1]",
    "partial=1 stop=budget_exhausted climbs=2 acc=0 rej=13 nb=0 ev=60 hits=11 "
    "found=0 nf=0 deg=0 sr=budget_exhausted",
    "partial=0 stop=completed climbs=26 acc=89 rej=274 nb=0 ev=1946 hits=2457 "
    "found=3 nf=0 deg=0 sr=completed [536,623,0,0x1.f50f45664281ap-1] "
    "[0,23,0,0x0p+0] [24,47,0,0x0p+0]",
    "partial=1 stop=budget_exhausted climbs=2 acc=0 rej=13 nb=0 ev=60 hits=11 "
    "found=2 nf=0 deg=0 sr=budget_exhausted [0,23,0,0x0p+0] [24,47,0,0x0p+0]",
    "partial=0 stop=completed climbs=1 acc=0 rej=10 nb=0 ev=25 hits=4 found=0 "
    "nf=0 deg=0 sr=completed",
    "partial=0 stop=completed climbs=1 acc=0 rej=10 nb=0 ev=25 hits=4 found=0 "
    "nf=0 deg=0 sr=completed",
    "partial=0 stop=completed climbs=1 acc=0 rej=10 nb=0 ev=25 hits=4 found=1 "
    "nf=0 deg=0 sr=completed [0,23,0,0x0p+0]",
    "partial=0 stop=completed climbs=1 acc=0 rej=10 nb=0 ev=25 hits=4 found=1 "
    "nf=0 deg=0 sr=completed [0,23,0,0x0p+0]",
    "partial=0 stop=completed climbs=4 acc=23 rej=41 nb=0 ev=419 hits=477 "
    "found=1 nf=0 deg=0 sr=completed [530,629,0,0x1.f59d03dbdb415p-1]",
    "partial=1 stop=budget_exhausted climbs=4 acc=5 rej=24 nb=0 ev=205 hits=71 "
    "found=1 nf=0 deg=0 sr=budget_exhausted [530,569,0,0x1.d29a5ce92d7f3p-1]",
    "partial=0 stop=completed climbs=4 acc=23 rej=41 nb=0 ev=419 hits=477 "
    "found=3 nf=0 deg=0 sr=completed [530,629,0,0x1.f59d03dbdb415p-1] "
    "[0,23,0,0x0p+0] [175,198,0,0x0p+0]",
    "partial=1 stop=budget_exhausted climbs=4 acc=5 rej=24 nb=0 ev=205 hits=71 "
    "found=3 nf=0 deg=0 sr=budget_exhausted [530,569,0,0x1.d29a5ce92d7f3p-1] "
    "[0,23,0,0x0p+0] [175,198,0,0x0p+0]",
    "partial=0 stop=completed climbs=3 acc=69 rej=43 nb=79 ev=929 hits=873 "
    "found=3 nf=0 deg=0 sr=completed [96,203,3,0x1.fd33cfeb05b33p-1] "
    "[304,427,5,0x1.e1b9f6dff95bcp-1] [536,619,0,0x1.f43eea009549bp-1]",
    "partial=1 stop=budget_exhausted climbs=1 acc=0 rej=0 nb=0 ev=80 hits=0 "
    "found=1 nf=0 deg=0 sr=budget_exhausted [96,119,3,0x1.e6d01fc94022cp-1]",
    "partial=0 stop=completed climbs=3 acc=69 rej=43 nb=79 ev=929 hits=873 "
    "found=3 nf=0 deg=0 sr=completed [96,203,3,0x1.fd33cfeb05b33p-1] "
    "[536,619,0,0x1.f43eea009549bp-1] [304,427,5,0x1.e1b9f6dff95bcp-1]",
    "partial=1 stop=budget_exhausted climbs=1 acc=0 rej=0 nb=0 ev=80 hits=0 "
    "found=1 nf=0 deg=0 sr=budget_exhausted [96,119,3,0x1.e6d01fc94022cp-1]",
    "partial=0 stop=completed climbs=1 acc=25 rej=12 nb=29 ev=272 hits=351 "
    "found=1 nf=0 deg=0 sr=completed [96,203,3,0x1.fd33cfeb05b33p-1]",
    "partial=1 stop=budget_exhausted climbs=1 acc=0 rej=0 nb=0 ev=80 hits=0 "
    "found=1 nf=0 deg=0 sr=budget_exhausted [96,119,3,0x1.e6d01fc94022cp-1]",
    "partial=0 stop=completed climbs=1 acc=25 rej=12 nb=29 ev=272 hits=351 "
    "found=1 nf=0 deg=0 sr=completed [96,203,3,0x1.fd33cfeb05b33p-1]",
    "partial=1 stop=budget_exhausted climbs=1 acc=0 rej=0 nb=0 ev=80 hits=0 "
    "found=1 nf=0 deg=0 sr=budget_exhausted [96,119,3,0x1.e6d01fc94022cp-1]",
    "partial=0 stop=completed climbs=4 acc=101 rej=52 nb=105 ev=921 hits=1390 "
    "found=3 nf=0 deg=0 sr=completed [95,206,3,0x1.fd5eda11fb30bp-1] "
    "[315,418,5,0x1.dca3a2badf0b5p-1] [530,617,0,0x1.f35a0abd8372bp-1]",
    "partial=1 stop=budget_exhausted climbs=4 acc=11 rej=0 nb=7 ev=261 "
    "hits=100 found=4 nf=0 deg=0 sr=budget_exhausted "
    "[96,119,3,0x1.e6d01fc94022cp-1] [167,206,3,0x1.f6235be98b038p-1] "
    "[335,374,5,0x1.931fdc6306961p-1] [530,569,0,0x1.d29a5ce92d7f3p-1]",
    "partial=0 stop=completed climbs=4 acc=101 rej=52 nb=105 ev=921 hits=1390 "
    "found=3 nf=0 deg=0 sr=completed [95,206,3,0x1.fd5eda11fb30bp-1] "
    "[530,617,0,0x1.f35a0abd8372bp-1] [315,418,5,0x1.dca3a2badf0b5p-1]",
    "partial=1 stop=budget_exhausted climbs=4 acc=11 rej=0 nb=7 ev=261 "
    "hits=100 found=3 nf=0 deg=0 sr=budget_exhausted "
    "[167,206,3,0x1.f6235be98b038p-1] [96,119,3,0x1.e6d01fc94022cp-1] "
    "[530,569,0,0x1.d29a5ce92d7f3p-1]",
    "partial=0 stop=completed climbs=26 acc=89 rej=274 nb=0 ev=1946 hits=2457 "
    "found=1 nf=0 deg=0 sr=completed [536,623,0,0x1.f50f45664281ap-1]",
    "partial=1 stop=budget_exhausted climbs=2 acc=0 rej=13 nb=0 ev=60 hits=11 "
    "found=0 nf=0 deg=0 sr=budget_exhausted",
    "partial=0 stop=completed climbs=26 acc=89 rej=274 nb=0 ev=1946 hits=2457 "
    "found=3 nf=0 deg=0 sr=completed [536,623,0,0x1.f50f45664281ap-1] "
    "[0,23,0,0x0p+0] [24,47,0,0x0p+0]",
    "partial=1 stop=budget_exhausted climbs=2 acc=0 rej=13 nb=0 ev=60 hits=11 "
    "found=2 nf=0 deg=0 sr=budget_exhausted [0,23,0,0x0p+0] [24,47,0,0x0p+0]",
    "partial=0 stop=completed climbs=1 acc=0 rej=10 nb=0 ev=25 hits=4 found=0 "
    "nf=0 deg=0 sr=completed",
    "partial=0 stop=completed climbs=1 acc=0 rej=10 nb=0 ev=25 hits=4 found=0 "
    "nf=0 deg=0 sr=completed",
    "partial=0 stop=completed climbs=1 acc=0 rej=10 nb=0 ev=25 hits=4 found=1 "
    "nf=0 deg=0 sr=completed [0,23,0,0x0p+0]",
    "partial=0 stop=completed climbs=1 acc=0 rej=10 nb=0 ev=25 hits=4 found=1 "
    "nf=0 deg=0 sr=completed [0,23,0,0x0p+0]",
    "partial=0 stop=completed climbs=4 acc=23 rej=41 nb=0 ev=419 hits=477 "
    "found=1 nf=0 deg=0 sr=completed [530,629,0,0x1.f59d03dbdb415p-1]",
    "partial=1 stop=budget_exhausted climbs=4 acc=5 rej=24 nb=0 ev=205 hits=71 "
    "found=1 nf=0 deg=0 sr=budget_exhausted [530,569,0,0x1.d29a5ce92d7f3p-1]",
    "partial=0 stop=completed climbs=4 acc=23 rej=41 nb=0 ev=419 hits=477 "
    "found=3 nf=0 deg=0 sr=completed [530,629,0,0x1.f59d03dbdb415p-1] "
    "[0,23,0,0x0p+0] [175,198,0,0x0p+0]",
    "partial=1 stop=budget_exhausted climbs=4 acc=5 rej=24 nb=0 ev=205 hits=71 "
    "found=3 nf=0 deg=0 sr=budget_exhausted [530,569,0,0x1.d29a5ce92d7f3p-1] "
    "[0,23,0,0x0p+0] [175,198,0,0x0p+0]",
    "partial=0 stop=completed climbs=3 acc=69 rej=43 nb=79 ev=929 hits=873 "
    "found=3 nf=0 deg=0 sr=completed [96,203,3,0x1.fd33cfeb05b33p-1] "
    "[304,427,5,0x1.e1b9f6dff95bcp-1] [536,619,0,0x1.f43eea009549bp-1]",
    "partial=1 stop=budget_exhausted climbs=1 acc=0 rej=0 nb=0 ev=80 hits=0 "
    "found=1 nf=0 deg=0 sr=budget_exhausted [96,119,3,0x1.e6d01fc94022cp-1]",
    "partial=0 stop=completed climbs=3 acc=69 rej=43 nb=79 ev=929 hits=873 "
    "found=3 nf=0 deg=0 sr=completed [96,203,3,0x1.fd33cfeb05b33p-1] "
    "[536,619,0,0x1.f43eea009549bp-1] [304,427,5,0x1.e1b9f6dff95bcp-1]",
    "partial=1 stop=budget_exhausted climbs=1 acc=0 rej=0 nb=0 ev=80 hits=0 "
    "found=1 nf=0 deg=0 sr=budget_exhausted [96,119,3,0x1.e6d01fc94022cp-1]",
    "partial=0 stop=completed climbs=1 acc=25 rej=12 nb=29 ev=272 hits=351 "
    "found=1 nf=0 deg=0 sr=completed [96,203,3,0x1.fd33cfeb05b33p-1]",
    "partial=1 stop=budget_exhausted climbs=1 acc=0 rej=0 nb=0 ev=80 hits=0 "
    "found=1 nf=0 deg=0 sr=budget_exhausted [96,119,3,0x1.e6d01fc94022cp-1]",
    "partial=0 stop=completed climbs=1 acc=25 rej=12 nb=29 ev=272 hits=351 "
    "found=1 nf=0 deg=0 sr=completed [96,203,3,0x1.fd33cfeb05b33p-1]",
    "partial=1 stop=budget_exhausted climbs=1 acc=0 rej=0 nb=0 ev=80 hits=0 "
    "found=1 nf=0 deg=0 sr=budget_exhausted [96,119,3,0x1.e6d01fc94022cp-1]",
    "partial=0 stop=completed climbs=4 acc=101 rej=52 nb=105 ev=921 hits=1390 "
    "found=3 nf=0 deg=0 sr=completed [95,206,3,0x1.fd5eda11fb30bp-1] "
    "[315,418,5,0x1.dca3a2badf0b5p-1] [530,617,0,0x1.f35a0abd8372bp-1]",
    "partial=1 stop=budget_exhausted climbs=4 acc=11 rej=0 nb=7 ev=261 "
    "hits=100 found=4 nf=0 deg=0 sr=budget_exhausted "
    "[96,119,3,0x1.e6d01fc94022cp-1] [167,206,3,0x1.f6235be98b038p-1] "
    "[335,374,5,0x1.931fdc6306961p-1] [530,569,0,0x1.d29a5ce92d7f3p-1]",
    "partial=0 stop=completed climbs=4 acc=101 rej=52 nb=105 ev=921 hits=1390 "
    "found=3 nf=0 deg=0 sr=completed [95,206,3,0x1.fd5eda11fb30bp-1] "
    "[530,617,0,0x1.f35a0abd8372bp-1] [315,418,5,0x1.dca3a2badf0b5p-1]",
    "partial=1 stop=budget_exhausted climbs=4 acc=11 rej=0 nb=7 ev=261 "
    "hits=100 found=3 nf=0 deg=0 sr=budget_exhausted "
    "[167,206,3,0x1.f6235be98b038p-1] [96,119,3,0x1.e6d01fc94022cp-1] "
    "[530,569,0,0x1.d29a5ce92d7f3p-1]",
};

TEST(SearchGoldenTest, TycosRunMatchesRecordedOutputs) {
  const SyntheticDataset ds =
      ComposeDataset({SegmentSpec{RelationType::kLinear, 120, 3},
                      SegmentSpec{RelationType::kSine, 140, 5},
                      SegmentSpec{RelationType::kQuadratic, 100, 0}},
                     /*gap=*/90, /*seed=*/23);
  TycosParams p;
  p.sigma = 0.45;
  p.s_min = 24;
  p.s_max = 160;
  p.td_max = 8;
  p.delta = 4;
  p.num_threads = 1;
  const std::vector<EngineCase> cases = EngineCases();
  ASSERT_EQ(cases.size(), std::size(kEngineGolden));
  for (size_t i = 0; i < cases.size(); ++i) {
    const EngineCase& c = cases[i];
    TycosParams params = p;
    params.num_restarts = c.num_restarts;
    params.top_k = c.top_k;
    Result<std::unique_ptr<Tycos>> engine =
        Tycos::Create(ds.pair, params, c.variant, /*seed=*/5);
    ASSERT_TRUE(engine.ok());
    RunContext ctx;
    if (c.budget > 0) ctx.SetEvaluationBudget(c.budget);
    Result<SearchOutcome> out = engine.value()->Run(ctx);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(Describe(out.value(), engine.value()->stats()), kEngineGolden[i])
        << Label(c);
  }
}

// A sweep's digest in the layout of perfbench's DigestResult: FNV-1a over
// the entry count, then per entry (a, b, partial, window count, and each
// window's start, end, delay and MI bits). Each value is hashed as its 8
// in-memory bytes, which on a little-endian host is perfbench's byte order.
uint64_t Mix(uint64_t h, uint64_t v) { return Fnv1a(&v, sizeof(v), h); }

uint64_t Digest(const PairwiseResult& r) {
  uint64_t h = Mix(kFnv1aBasis, r.entries.size());
  for (const PairwiseEntry& e : r.entries) {
    h = Mix(h, static_cast<uint64_t>(e.a));
    h = Mix(h, static_cast<uint64_t>(e.b));
    h = Mix(h, e.partial ? 1 : 0);
    h = Mix(h, e.windows.size());
    for (const Window& w : e.windows.windows()) {
      uint64_t bits = 0;
      std::memcpy(&bits, &w.mi, sizeof(bits));
      h = Mix(h, static_cast<uint64_t>(w.start));
      h = Mix(h, static_cast<uint64_t>(w.end));
      h = Mix(h, static_cast<uint64_t>(w.delay));
      h = Mix(h, bits);
    }
  }
  return h;
}

TEST(SearchGoldenTest, PairwiseSweepsMatchRecordedDigests) {
  // Two days of every simulated energy channel at the parameters of the
  // pairwise_short and pairwise_long benchmark workloads.
  datagen::EnergySimOptions o;
  o.days = 2;
  o.seed = 7;
  const datagen::EnergySimulator sim(o);
  std::vector<TimeSeries> channels;
  for (int ch = 0; ch < datagen::kNumEnergyChannels; ++ch) {
    channels.push_back(sim.Channel(static_cast<datagen::EnergyChannel>(ch)));
  }
  struct SweepCase {
    const char* name;
    int64_t s_min;
    int64_t s_max;
    int num_restarts;
    uint64_t digest;
  };
  const SweepCase sweeps[] = {
      {"short", 16, 96, 0, 0x27883c2c186a91b4ull},
      {"short", 16, 96, 4, 0xc729810e03979310ull},
      {"long", 64, 512, 0, 0x5486c75c75ae81a7ull},
      {"long", 64, 512, 4, 0x5486c75c75ae81a7ull},
  };
  for (const SweepCase& s : sweeps) {
    TycosParams p;
    p.sigma = 0.55;
    p.td_max = 6;
    p.delta = 2;
    p.s_min = s.s_min;
    p.s_max = s.s_max;
    p.num_restarts = s.num_restarts;
    p.num_threads = 1;
    const PairwiseResult r = PairwiseSearch(channels, p, TycosVariant::kLMN);
    ASSERT_EQ(r.entries.size(), 36u);
    EXPECT_EQ(Digest(r), s.digest)
        << s.name << " restarts=" << s.num_restarts;
  }
}

}  // namespace
}  // namespace tycos
