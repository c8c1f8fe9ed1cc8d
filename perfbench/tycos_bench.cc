// tycos_bench — the end-to-end benchmark behind BENCHMARK.json.
//
// One process runs one workload (see README.md for why each exists):
//
//   allpairs_sparse  durable all-pairs discovery: prefilter cascade, then
//                    TYCOS over the survivors (jobs::ResumeAllPairsSearch)
//   pairwise_short   PairwiseSearch on the energy channels, short windows
//   pairwise_long    the same channels with long windows (incremental KSG)
//   service_mixed    an open-loop request stream into one service::Server,
//                    then a closed-loop capacity phase
//
// Every workload sets up several times (the median is setup_s), runs an
// untimed warm-up, measures for --seconds, and then verifies its outputs;
// verification is never inside a timed interval. An untraced run reports
// the end-to-end metrics: CPU time per operation, latency, peak memory,
// set-up time. Latency is steal-free: on a shared virtual machine the
// hypervisor gives the CPUs to other guests for a share of wall time that
// moves from minute to minute, so it leaves that time out (see
// StealSeconds and ClientNow). Plain wall-clock latency and rate are
// reported beside them without a bound. A traced run (--trace 1) reports
// the per-layer metrics instead: it replays the searches pair by pair at
// one thread with a timing wrapper around the window evaluator, replays
// the recorded window sequence through every MI backend, and writes the
// bench-side spans to <out-dir>/spans-<workload>.json.
//
// Output: `metric <name> <value> <unit> [note]` lines, `host` lines, and a
// final `result correct=<0|1> attempted=<n> failed=<n>` line. The exit
// code is 0 only when every check passed and no operation failed.
//
// Usage: tycos_bench --workload <name> --seed <n> [--seconds <s>]
//                    [--trace 0|1] [--smoke] [--out-dir <dir>]

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "datagen/clusters.h"
#include "datagen/energy_sim.h"
#include "host.h"
#include "jobs/checkpoint.h"
#include "jobs/durable_pairwise.h"
#include "mi/incremental_ksg.h"
#include "mi/ksg.h"
#include "obs/metrics.h"
#include "search/allpairs.h"
#include "search/evaluator.h"
#include "search/pairwise.h"
#include "search/prefilter.h"
#include "search/tycos.h"
#include "service/server.h"
#include "stats.h"

namespace {

using namespace tycos;
using perfbench::Median;
using perfbench::TailValue;
using Clock = std::chrono::steady_clock;

// Every thread count is fixed for a 4-CPU host: batch sweeps use 4
// executors; the service runs 3 workers beside the one client thread.
constexpr int kBusyCpus = 4;
constexpr int kBatchThreads = kBusyCpus;
constexpr int kServiceWorkers = kBusyCpus - 1;
constexpr TycosVariant kVariant = TycosVariant::kLMN;

double Seconds(Clock::time_point from, Clock::time_point to = Clock::now()) {
  return std::chrono::duration<double>(to - from).count();
}

// ---------------------------------------------------------------------------
// Command line

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = ".bench_build/out";
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "tycos_bench: %s\nusage: tycos_bench --workload "
               "<allpairs_sparse|pairwise_short|pairwise_long|service_mixed> "
               "--seed <n> [--seconds <s>] [--trace 0|1] [--smoke] "
               "[--out-dir <dir>]\n",
               why.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') Usage("bad --seed " + v);
      have_seed = true;
    } else if (flag == "--seconds") {
      have_seconds = true;
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(a.seconds > 0) || a.seconds > 600) {
        Usage("bad --seconds " + v);
      }
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") Usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--out-dir") {
      a.out_dir = v;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (a.workload != "allpairs_sparse" && a.workload != "pairwise_short" &&
      a.workload != "pairwise_long" && a.workload != "service_mixed") {
    Usage("unknown --workload '" + a.workload + "'");
  }
  if (!have_seed) Usage("--seed is required");
  if (a.smoke && !have_seconds) a.seconds = 1.0;
  return a;
}

// ---------------------------------------------------------------------------
// Output, checks and failure accounting

class Report {
 public:
  void Metric(const std::string& name, double value, const char* unit,
              const std::string& note = "") {
    std::printf("metric %s %.17g %s%s%s\n", name.c_str(), value, unit,
                note.empty() ? "" : " ", note.c_str());
  }

  // A tail value, annotated with the rung it fell on and its sample count.
  void Tail(const std::string& name, const TailValue& t, const char* unit) {
    char note[96];
    std::snprintf(note, sizeof(note), "p%g n=%lld beyond=%lld", t.percentile,
                  static_cast<long long>(t.samples),
                  static_cast<long long>(t.beyond));
    Metric(name, t.value, unit, note);
  }

  // An operation the workload attempted (a job, a request, an append).
  void Op(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "FAILED: %s\n", what.c_str());
    }
  }

  // An output check. Counts as attempted, and as failed when it does not
  // hold: a wrong answer is a failure even if every call succeeded.
  void Check(bool ok, const std::string& what) { Op(ok, "check: " + what); }

  int Finish() const {
    std::printf("result correct=%d attempted=%lld failed=%lld\n",
                failed_ == 0 ? 1 : 0, static_cast<long long>(attempted_),
                static_cast<long long>(failed_));
    return failed_ == 0 ? 0 : 1;
  }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

// Peak resident set of this process image, in MiB. VmHWM is reset by exec;
// getrusage's ru_maxrss is not (Linux carries the parent's peak across
// fork + exec), so it is only the fallback where /proc is missing.
double PeakRssMb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// Lowers the peak resident set to the current one (Linux 4.0 and later),
// so that PeakRssMb() then reads the peak since this call. Where the
// kernel refuses, PeakRssMb() keeps reading the peak since exec.
void ResetPeakRss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

// CPU time of the whole process, or of the calling thread, in seconds.
// On a virtual machine CPU time excludes the intervals the hypervisor
// gives the CPU to other guests, which wall time includes.
double CpuSeconds(clockid_t clock = CLOCK_PROCESS_CPUTIME_ID) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Time the hypervisor has given this machine's CPUs to other guests so
// far, summed over the CPUs (the steal column of /proc/stat), in seconds;
// 0 where /proc/stat is missing.
double StealSeconds() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  unsigned long long t[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &t[0], &t[1], &t[2], &t[3], &t[4], &t[5], &t[6],
                            &t[7]);
  std::fclose(f);
  if (n != 8) return 0.0;
  return static_cast<double>(t[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

// Steal-free time, in seconds since the first call: wall time less the
// steal since then, spread evenly over the kBusyCpus CPUs the workloads are
// sized for. (Steal is reported on idle CPUs too: weighting it by busy time
// over-corrected the service's latency.) On a shared virtual machine the
// hypervisor took 10-55% of the CPUs' time, a share that moved from minute
// to minute, and the quartile spread of wall-clock latency over ten runs
// was 6-26%; on this clock it was 2-8%. Steal advances in 10 ms ticks per
// CPU, so the counter is read at most once a millisecond. Called from one
// thread only.
double StealFreeNow() {
  static const Clock::time_point origin = Clock::now();
  static const double steal0 = StealSeconds();
  static Clock::time_point read_at = origin;
  static double steal = steal0;
  const Clock::time_point now = Clock::now();
  if (Seconds(read_at, now) >= 1e-3) {
    steal = StealSeconds();
    read_at = now;
  }
  return Seconds(origin, now) - (steal - steal0) / kBusyCpus;
}

// ---------------------------------------------------------------------------
// Spans: bench-side intervals around each call into a layer, kept in
// memory and written at exit. Recorded from the main thread only.
// Evaluator calls are too many to keep one by one (hundreds of thousands
// per job), so each span carries the evaluator time and calls made inside
// it, and the summary reports them as the child layer "evaluator.score".

class SpanLog {
 public:
  struct Span {
    const char* name;
    int64_t id;    // pair index, request sequence number, or job index
    int parent;    // index into the log, -1 for a root
    double start;  // seconds since the log's origin
    double end;
    double evaluator_s = 0.0;
    int64_t evaluator_calls = 0;
  };

  explicit SpanLog(bool on) : on_(on), origin_(Clock::now()) {}

  bool on() const { return on_; }

  int Open(const char* name, int64_t id) {
    if (!on_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, id, parent, Seconds(origin_), -1.0});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void Close(int index) {
    if (index < 0) return;
    spans_[static_cast<size_t>(index)].end = Seconds(origin_);
    stack_.pop_back();
  }

  // A span measured elsewhere (a request phase seen by polling).
  int AddUnder(const char* name, int64_t id, int parent,
               Clock::time_point start, Clock::time_point end) {
    if (!on_) return -1;
    spans_.push_back(
        {name, id, parent, Seconds(origin_, start), Seconds(origin_, end)});
    return static_cast<int>(spans_.size()) - 1;
  }

  // Moves the end of a span added with AddUnder.
  void End(int index, Clock::time_point end) {
    if (index >= 0) {
      spans_[static_cast<size_t>(index)].end = Seconds(origin_, end);
    }
  }

  // One evaluator call of `seconds` inside the innermost open span.
  void AddEvaluatorCall(double seconds) {
    if (!on_ || stack_.empty()) return;
    Span& s = spans_[static_cast<size_t>(stack_.back())];
    s.evaluator_s += seconds;
    ++s.evaluator_calls;
  }

  // Per span name: count, total and self time (total minus the time its
  // direct children cover).
  struct Totals {
    int64_t count = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::string, Totals> Summary() const {
    std::vector<double> child_time(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_time[static_cast<size_t>(s.parent)] += s.end - s.start;
      }
    }
    std::map<std::string, Totals> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      Totals& t = out[s.name];
      const double d = s.end - s.start;
      ++t.count;
      t.total += d;
      t.self += d - child_time[i] - s.evaluator_s;
      if (s.evaluator_calls > 0) {
        Totals& e = out["evaluator.score"];
        e.count += s.evaluator_calls;
        e.total += s.evaluator_s;
        e.self += s.evaluator_s;
      }
    }
    return out;
  }

  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\n  \"self_time_s\": {");
    const char* sep = "\n";
    for (const auto& [name, t] : Summary()) {
      std::fprintf(f,
                   "%s    \"%s\": {\"count\": %lld, \"total\": %.9f, "
                   "\"self\": %.9f}",
                   sep, name.c_str(), static_cast<long long>(t.count),
                   t.total, t.self);
      sep = ",\n";
    }
    std::fprintf(f, "\n  },\n  \"spans\": [");
    sep = "\n";
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "%s    {\"name\": \"%s\", \"id\": %lld, \"parent\": %d, "
                   "\"start\": %.9f, \"end\": %.9f, \"evaluator_s\": %.9f, "
                   "\"evaluator_calls\": %lld}",
                   sep, s.name, static_cast<long long>(s.id), s.parent,
                   s.start, s.end, s.evaluator_s,
                   static_cast<long long>(s.evaluator_calls));
      sep = ",\n";
    }
    std::fprintf(f, "\n  ]\n}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int64_t id)
      : log_(log), index_(log->Open(name, id)) {}
  ~ScopedSpan() { log_->Close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

// ---------------------------------------------------------------------------
// Output fingerprints and comparisons

uint64_t Mix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;  // FNV-1a
  }
  return h;
}

uint64_t Bits(double d) {
  uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

uint64_t DigestWindows(uint64_t h, const WindowSet& ws) {
  h = Mix(h, ws.size());
  for (const Window& w : ws.windows()) {
    h = Mix(h, static_cast<uint64_t>(w.start));
    h = Mix(h, static_cast<uint64_t>(w.end));
    h = Mix(h, static_cast<uint64_t>(w.delay));
    h = Mix(h, Bits(w.mi));
  }
  return h;
}

uint64_t DigestResult(const PairwiseResult& r) {
  uint64_t h = 14695981039346656037ull;
  h = Mix(h, r.entries.size());
  for (const PairwiseEntry& e : r.entries) {
    h = Mix(h, static_cast<uint64_t>(e.a));
    h = Mix(h, static_cast<uint64_t>(e.b));
    h = Mix(h, e.partial ? 1 : 0);
    h = DigestWindows(h, e.windows);
  }
  return h;
}

bool SameWindows(const WindowSet& x, const WindowSet& y) {
  return DigestWindows(0, x) == DigestWindows(0, y);
}

const PairwiseEntry* FindEntry(const PairwiseResult& r, int a, int b) {
  for (const PairwiseEntry& e : r.entries) {
    if (e.a == a && e.b == b) return &e;
  }
  return nullptr;
}

std::string PairName(int a, int b) {
  return "(" + std::to_string(a) + "," + std::to_string(b) + ")";
}

// ---------------------------------------------------------------------------
// Evaluator-layer tracing: a timing wrapper spliced around each climb's
// evaluator stack through Tycos::WrapEvaluatorForTest. It sits above the
// memo cache, so it sees every Score call; a call that leaves the inner
// evaluation count unchanged was a memo hit.

struct EvalTrace {
  SpanLog* spans = nullptr;
  int pair = 0;
  int64_t calls = 0;
  int64_t memo_hits = 0;
  double score_s = 0.0;
  std::vector<double> eval_us;     // evaluated (non-memo) calls only
  std::vector<double> window_len;  // of evaluated calls
  // The evaluated windows in call order, for the MI backend replay.
  std::vector<std::pair<int, Window>> sequence;
  size_t sequence_cap = 0;
};

class TimingEvaluator : public WindowEvaluator {
 public:
  TimingEvaluator(std::unique_ptr<WindowEvaluator> inner, EvalTrace* trace)
      : inner_(std::move(inner)), trace_(trace) {}

  double Score(const Window& w) override {
    const int64_t before = inner_->evaluations();
    const Clock::time_point t0 = Clock::now();
    const double score = inner_->Score(w);
    const Clock::time_point t1 = Clock::now();
    const double s = Seconds(t0, t1);
    ++trace_->calls;
    trace_->score_s += s;
    if (inner_->evaluations() == before) {
      ++trace_->memo_hits;
    } else {
      trace_->eval_us.push_back(s * 1e6);
      trace_->window_len.push_back(static_cast<double>(w.size()));
      if (trace_->sequence.size() < trace_->sequence_cap) {
        trace_->sequence.emplace_back(trace_->pair, w);
      }
    }
    trace_->spans->AddEvaluatorCall(s);
    return score;
  }
  int64_t evaluations() const override { return inner_->evaluations(); }
  int64_t degenerate_windows() const override {
    return inner_->degenerate_windows();
  }
  void FlushObsCounters() override { inner_->FlushObsCounters(); }

 private:
  std::unique_ptr<WindowEvaluator> inner_;
  EvalTrace* trace_;
};

struct PairTiming {
  double create_s = 0.0;  // wall time of Tycos::Create
  double run_s = 0.0;     // wall time of Tycos::Run
  double cpu_s = 0.0;     // thread CPU time of both
};

// One pair's search exactly as SearchPair runs it (same engine, seed and
// params), at one thread, optionally with the timing wrapper installed.
Result<SearchOutcome> ReplayPair(const SeriesPair& pair,
                                 const TycosParams& params, uint64_t seed,
                                 int64_t id, EvalTrace* trace, SpanLog* spans,
                                 PairTiming* timing) {
  TycosParams one = params;
  one.num_threads = 1;
  ScopedSpan pair_span(spans, "pair", id);
  const double cpu0 = CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
  Clock::time_point t0 = Clock::now();
  Result<std::unique_ptr<Tycos>> engine = [&] {
    ScopedSpan s(spans, "tycos.create", id);
    return Tycos::Create(pair, one, kVariant, seed);
  }();
  timing->create_s = Seconds(t0);
  if (!engine.ok()) return engine.status();
  if (trace != nullptr) {
    trace->pair = static_cast<int>(id);
    engine.value()->WrapEvaluatorForTest(
        [trace](std::unique_ptr<WindowEvaluator> inner)
            -> std::unique_ptr<WindowEvaluator> {
          return std::make_unique<TimingEvaluator>(std::move(inner), trace);
        });
  }
  t0 = Clock::now();
  Result<SearchOutcome> out = [&] {
    ScopedSpan s(spans, "tycos.run", id);
    return engine.value()->Run(RunContext::None());
  }();
  timing->run_s = Seconds(t0);
  timing->cpu_s = CpuSeconds(CLOCK_THREAD_CPUTIME_ID) - cpu0;
  return out;
}

// ---------------------------------------------------------------------------
// Per-layer reporting shared by every workload

// Registry delta between two snapshots.
struct Delta {
  obs::MetricsSnapshot before;
  obs::MetricsSnapshot after;
  double operator()(const char* name) const {
    return static_cast<double>(after.CounterValue(name) -
                               before.CounterValue(name));
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Engine-layer counters (tycos, noise, mi, incremental, knn) over `d`.
void ReportEngineCounters(Report* rep, const Delta& d) {
  const double accepted = d("tycos.accepted_moves");
  const double rejected = d("tycos.rejected_moves");
  const double evals = d("mi.evaluations");
  const double moves = d("incremental.incremental_moves");
  const double rebuilds = d("incremental.full_rebuilds");
  const double brute = d("knn.brute.queries");
  const double kd = d("knn.kd_tree.queries");
  const double grid = d("knn.grid.queries");
  rep->Metric("tycos.climbs", d("tycos.climbs"), "count");
  rep->Metric("tycos.accept_ratio", Ratio(accepted, accepted + rejected),
              "ratio");
  rep->Metric("tycos.noise_blocked", d("tycos.noise_blocked"), "count");
  rep->Metric("noise.subsequent_tests", d("noise.subsequent_tests"), "count");
  rep->Metric("mi.evaluations", evals, "count");
  rep->Metric("incremental.move_ratio", Ratio(moves, moves + rebuilds),
              "ratio");
  rep->Metric("incremental.knn_recomputes_per_move",
              Ratio(d("incremental.knn_recomputes"), moves), "per_move");
  rep->Metric("incremental.marginal_updates_per_move",
              Ratio(d("incremental.marginal_updates"), moves), "per_move");
  rep->Metric("knn.brute.queries", brute, "count");
  rep->Metric("knn.kd_tree.queries", kd, "count");
  rep->Metric("knn.grid.queries", grid, "count");
  rep->Metric("knn.queries_per_eval", Ratio(brute + kd + grid, evals),
              "per_eval");
}

// The pair-by-pair replay of a workload's searches at one thread, each
// pair with the timing wrapper installed. The first `overhead_pairs` are
// then run once more with and once without it, giving
// trace.overhead_ratio.
struct ReplayItem {
  SeriesPair pair;
  uint64_t seed;
  const WindowSet* expected;  // the parallel run's answer for this pair
  std::string name;
};

struct ReplayResult {
  EvalTrace trace;
  std::vector<double> pair_ms;
  std::vector<double> setup_ms;
  double run_s = 0.0;
  double pair_s = 0.0;
};

ReplayResult ReplayPairs(const std::vector<ReplayItem>& items,
                         const TycosParams& params, size_t overhead_pairs,
                         size_t sequence_cap, SpanLog* spans, Report* rep) {
  ReplayResult r;
  r.trace.spans = spans;
  r.trace.sequence_cap = sequence_cap;
  for (size_t i = 0; i < items.size(); ++i) {
    PairTiming t;
    const Result<SearchOutcome> out =
        ReplayPair(items[i].pair, params, items[i].seed,
                   static_cast<int64_t>(i), &r.trace, spans, &t);
    rep->Check(out.ok() && !out.value().partial &&
                   SameWindows(out.value().windows, *items[i].expected),
               "1-thread replay of " + items[i].name +
                   " equals the parallel result");
    r.pair_ms.push_back((t.create_s + t.run_s) * 1e3);
    r.setup_ms.push_back(t.create_s * 1e3);
    r.run_s += t.run_s;
    r.pair_s += t.create_s + t.run_s;
  }
  // The wrapper's cost, by thread CPU time so that time the host gives
  // other guests does not count, with the two sides alternating first.
  // These runs record into a scratch trace, not the reported one.
  const size_t n = std::min(overhead_pairs, items.size());
  double with = 0.0;
  double without = 0.0;
  for (size_t i = 0; i < n; ++i) {
    for (const bool traced : {i % 2 == 0, i % 2 != 0}) {
      SpanLog scratch_spans(traced);
      EvalTrace scratch;
      scratch.spans = &scratch_spans;
      PairTiming t;
      const Result<SearchOutcome> out =
          ReplayPair(items[i].pair, params, items[i].seed, 0,
                     traced ? &scratch : nullptr, &scratch_spans, &t);
      rep->Check(out.ok() &&
                     SameWindows(out.value().windows, *items[i].expected),
                 "replay of " + items[i].name +
                     (traced ? " with" : " without") +
                     " the wrapper equals the parallel result");
      (traced ? with : without) += t.cpu_s;
    }
  }
  rep->Metric("trace.overhead_ratio", Ratio(with, without), "ratio",
              "pairs=" + std::to_string(n));
  return r;
}

void ReportReplay(Report* rep, const ReplayResult& r) {
  rep->Metric("pair.ms_p50", Median(r.pair_ms), "ms",
              "n=" + std::to_string(r.pair_ms.size()));
  rep->Tail("pair.ms_tail", perfbench::Tail(r.pair_ms), "ms");
  rep->Metric("pair.setup_ms_p50", Median(r.setup_ms), "ms");
  rep->Metric("tycos.climb_self_s", r.run_s - r.trace.score_s, "s");
  rep->Metric("evaluator.score_calls", static_cast<double>(r.trace.calls),
              "count");
  rep->Metric("evaluator.score_s", r.trace.score_s, "s");
  rep->Metric("evaluator.score_us_p50", Median(r.trace.eval_us), "us",
              "n=" + std::to_string(r.trace.eval_us.size()));
  rep->Tail("evaluator.score_us_tail", perfbench::Tail(r.trace.eval_us), "us");
  rep->Metric("evaluator.memo_hit_ratio",
              Ratio(static_cast<double>(r.trace.memo_hits),
                    static_cast<double>(r.trace.calls)),
              "ratio");
  rep->Metric("evaluator.window_len_p50", Median(r.trace.window_len),
              "samples");
  rep->Tail("evaluator.window_len_tail", perfbench::Tail(r.trace.window_len),
            "samples");
}

// Replays the recorded evaluator window sequence through the incremental
// estimator (in order, one estimator per pair) and through the batch
// estimator with each kNN backend. All four must agree.
void ReplayMiBackends(Report* rep, const std::vector<ReplayItem>& items,
                      const std::vector<std::pair<int, Window>>& sequence,
                      int k, SpanLog* spans) {
  std::vector<double> inc_us, brute_us, kd_us, grid_us;
  int64_t mismatches = 0;
  std::unique_ptr<IncrementalKsg> inc;
  int inc_pair = -1;
  ScopedSpan span(spans, "mi.replay", 0);
  for (const auto& [p, w] : sequence) {
    const SeriesPair& pair = items[static_cast<size_t>(p)].pair;
    if (p != inc_pair) {
      inc = std::make_unique<IncrementalKsg>(pair, k);
      inc_pair = p;
    }
    Clock::time_point t0 = Clock::now();
    const double mi_inc = inc->SetWindow(w);
    inc_us.push_back(Seconds(t0) * 1e6);
    double mi[3];
    std::vector<double>* sink[3] = {&brute_us, &kd_us, &grid_us};
    const KnnBackend backends[3] = {KnnBackend::kBrute, KnnBackend::kKdTree,
                                    KnnBackend::kGrid};
    for (int b = 0; b < 3; ++b) {
      KsgOptions o;
      o.k = k;
      o.backend = backends[b];
      t0 = Clock::now();
      mi[b] = KsgMi(pair, w, o);
      sink[b]->push_back(Seconds(t0) * 1e6);
    }
    const double tol = 1e-9 * std::max(1.0, std::fabs(mi[0]));
    if (std::fabs(mi[1] - mi[0]) > tol || std::fabs(mi[2] - mi[0]) > tol ||
        std::fabs(mi_inc - mi[0]) > tol) {
      ++mismatches;
    }
  }
  rep->Check(mismatches == 0,
             "incremental, brute, k-d tree and grid KSG agree on " +
                 std::to_string(sequence.size()) + " replayed windows (" +
                 std::to_string(mismatches) + " mismatches)");
  const std::string n = "n=" + std::to_string(sequence.size());
  rep->Metric("mi.incremental_us_p50", Median(inc_us), "us", n);
  rep->Metric("mi.batch_brute_us_p50", Median(brute_us), "us", n);
  rep->Metric("mi.batch_kd_tree_us_p50", Median(kd_us), "us", n);
  rep->Metric("mi.batch_grid_us_p50", Median(grid_us), "us", n);
}

// The layers a workload does not exercise report zero, so every run emits
// the same metric set.
void ReportIdlePrefilterAndJobs(Report* rep) {
  for (const char* name : {"prefilter.stage1_s", "prefilter.stage2_s",
                           "jobs.search_s"}) {
    rep->Metric(name, 0.0, "s", "idle");
  }
  for (const char* name :
       {"prefilter.stage1_pass_ratio", "prefilter.stage2_pass_ratio",
        "prefilter.share", "jobs.durable_over_plain"}) {
    rep->Metric(name, 0.0, "ratio", "idle");
  }
  rep->Metric("jobs.checkpoint_bytes", 0.0, "bytes", "idle");
}

void ReportIdleService(Report* rep) {
  for (const char* name : {"service.submit_us_p50", "service.submit_us_p99",
                           "service.append_us_p50", "service.append_us_p99"}) {
    rep->Metric(name, 0.0, "us", "idle");
  }
  for (const char* name :
       {"service.queue_wait_ms_p50", "service.queue_wait_ms_p99",
        "service.run_ms_p50", "service.run_ms_p99", "loadgen.lag_ms_p99"}) {
    rep->Metric(name, 0.0, "ms", "idle");
  }
  rep->Metric("service.cache_hit_ratio", 0.0, "ratio", "idle");
  for (const char* name :
       {"service.refused", "service.degraded", "service.queue_depth_max"}) {
    rep->Metric(name, 0.0, "count", "idle");
  }
}

// Wall-clock latency and rate of the operations. They are what a user
// waits for, but on a shared host they move with the CPU time other
// guests take, so they are per-layer metrics without a bound.
void ReportWall(Report* rep, const std::vector<double>& wall_ms,
                double ops_per_s) {
  rep->Metric("op.wall_ms_p50", Median(wall_ms), "ms",
              "n=" + std::to_string(wall_ms.size()));
  rep->Tail("op.wall_ms_tail", perfbench::Tail(wall_ms), "ms");
  rep->Metric("op.throughput_per_s", ops_per_s, "1/s");
}

// How often a run sets up: set-up takes tens of milliseconds, so one
// measurement would be noise.
int SetupRepeats(const Args& args) { return args.smoke ? 1 : 9; }

// Median of `repeats` set-ups, as CPU time (setup_s) and wall time; the
// last set-up's product is kept.
template <typename T, typename Fn>
T TimedSetup(Report* rep, int repeats, Fn make) {
  std::vector<double> cpu;
  std::vector<double> wall;
  std::optional<T> kept;
  for (int i = 0; i < repeats; ++i) {
    kept.reset();
    const double c0 = CpuSeconds();
    const Clock::time_point t0 = Clock::now();
    kept.emplace(make());
    wall.push_back(Seconds(t0));
    cpu.push_back(CpuSeconds() - c0);
  }
  const std::string note = "repeats=" + std::to_string(repeats);
  rep->Metric("setup_s", Median(cpu), "s", note + " cpu");
  rep->Metric("setup_wall_s", Median(wall), "s", note);
  return std::move(*kept);
}

// ---------------------------------------------------------------------------
// Inputs. --seed varies every input that leaves the work of a job alone:
// the order of the channels (hence every pair's index and search seed)
// and the request seeds. The sample values come from fixed generator
// seeds: TYCOS's cost depends on the data, and tying the simulator seed to
// --seed moved CPU time per job by up to 15% between seeds, which would
// swamp the bounds.

constexpr uint64_t kEnergySeed = 7;
constexpr uint64_t kClusterSeed = 42;

// Channel orders a batch run cycles through, and the seed of each. A
// timed phase runs whole cycles, so every run averages over the same mix.
constexpr int kOrders = 4;
uint64_t OrderSeed(uint64_t seed, int order) {
  return DeriveStreamSeed(seed, static_cast<uint64_t>(order));
}

// A permutation of 0..n-1 drawn from `seed`.
std::vector<int> SeededOrder(int n, uint64_t seed) {
  std::vector<int> order(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<size_t>(i)] = i;
  Rng rng(seed);
  for (int i = n - 1; i > 0; --i) {
    std::swap(order[static_cast<size_t>(i)],
              order[static_cast<size_t>(rng.UniformInt(0, i))]);
  }
  return order;
}

// ---------------------------------------------------------------------------
// Batch workloads: allpairs_sparse, pairwise_short, pairwise_long

struct BatchConfig {
  bool allpairs = false;
  TycosParams params;
  datagen::ClusterGenOptions clusters;  // allpairs
  jobs::AllPairsJobOptions allpairs_options;
  int energy_days = 7;                  // pairwise
  size_t reference_pairs = 4;           // 1-thread spot checks, untraced
  size_t replay_stride = 1;             // traced replay: every k-th pair
  size_t overhead_pairs = 4;
  size_t mi_windows = 1500;
};

BatchConfig MakeBatchConfig(const std::string& workload, bool smoke) {
  BatchConfig c;
  TycosParams& p = c.params;
  p.num_threads = kBatchThreads;
  p.delta = 2;
  if (workload == "allpairs_sparse") {
    c.allpairs = true;
    p.sigma = 0.5;
    p.s_min = 16;
    p.s_max = 96;
    p.td_max = 8;
    c.clusters.num_channels = smoke ? 32 : 256;
    c.clusters.num_clusters = 4;
    c.clusters.channels_per_cluster = 4;
    c.clusters.length = smoke ? 512 : 1024;
    c.clusters.max_delay = 8;
    c.clusters.member_noise = 0.25;
    c.clusters.seed = kClusterSeed;
    PrefilterParams& f = c.allpairs_options.prefilter;
    f.window = 128;
    f.hop = 128;
    f.paa_segments = 16;
    f.svd_dims = 3;
    f.mi_conservativeness = 1.0;
    f.num_threads = kBatchThreads;
    c.replay_stride = 3;
  } else {
    p.sigma = 0.55;
    p.td_max = 6;
    p.num_restarts = 4;
    p.s_min = workload == "pairwise_long" ? 64 : 16;
    p.s_max = workload == "pairwise_long" ? 512 : 96;
    c.energy_days = smoke ? (workload == "pairwise_long" ? 2 : 1) : 7;
    c.replay_stride = workload == "pairwise_long" ? 2 : 1;
  }
  if (smoke) {
    c.reference_pairs = 2;
    c.overhead_pairs = 2;
    c.mi_windows = 100;
  }
  return c;
}

struct BatchData {
  std::vector<TimeSeries> channels;
  std::vector<datagen::PlantedClusterPair> planted;
};

// The workload's channels in each of the kOrders channel orders; the
// sample values are generated once and copied into every order.
std::vector<BatchData> MakeBatchOrders(const BatchConfig& c, uint64_t seed) {
  std::vector<TimeSeries> base;
  std::vector<datagen::PlantedClusterPair> planted;
  if (c.allpairs) {
    Result<datagen::ClusteredDataset> ds =
        datagen::MakeCorrelatedClusters(c.clusters);
    TYCOS_CHECK(ds.ok());
    base = std::move(ds.value().channels);
    planted = std::move(ds.value().pairs);
  } else {
    datagen::EnergySimOptions o;
    o.days = c.energy_days;
    o.seed = kEnergySeed;
    const datagen::EnergySimulator sim(o);
    for (int ch = 0; ch < datagen::kNumEnergyChannels; ++ch) {
      base.push_back(sim.Channel(static_cast<datagen::EnergyChannel>(ch)));
    }
  }
  std::vector<BatchData> orders(kOrders);
  for (int k = 0; k < kOrders; ++k) {
    BatchData& d = orders[static_cast<size_t>(k)];
    const std::vector<int> order =
        SeededOrder(static_cast<int>(base.size()), OrderSeed(seed, k));
    std::vector<int> position(base.size());
    for (size_t j = 0; j < order.size(); ++j) {
      d.channels.push_back(base[static_cast<size_t>(order[j])]);
      position[static_cast<size_t>(order[j])] = static_cast<int>(j);
    }
    for (const datagen::PlantedClusterPair& p : planted) {
      const int a = position[static_cast<size_t>(p.a)];
      const int b = position[static_cast<size_t>(p.b)];
      d.planted.push_back({std::min(a, b), std::max(a, b), p.delay});
    }
  }
  return orders;
}

// Set-up beyond data generation: input validation and engine
// construction for the pairs the workload is known to search.
void ConstructEngines(const BatchConfig& c, const BatchData& d,
                      uint64_t seed) {
  TYCOS_CHECK(ValidatePairwiseChannels(d.channels).ok());
  std::vector<std::pair<int, int>> pairs;
  if (c.allpairs) {
    for (const auto& p : d.planted) pairs.emplace_back(p.a, p.b);
  } else {
    const int n = static_cast<int>(d.channels.size());
    for (int a = 0; a < n; ++a) {
      for (int b = a + 1; b < n; ++b) pairs.emplace_back(a, b);
    }
  }
  for (const auto& [a, b] : pairs) {
    const SeriesPair sp(d.channels[static_cast<size_t>(a)],
                        d.channels[static_cast<size_t>(b)]);
    TYCOS_CHECK(
        Tycos::Create(sp, c.params, kVariant, PairwiseSeed(seed, a, b)).ok());
  }
}

struct JobOutput {
  Status status = Status::Ok();
  PairwiseResult result;
  std::vector<std::pair<int, int>> universe;  // the pairs TYCOS searched
  PrefilterStats prefilter;
  double seconds = 0.0;      // wall time
  double cpu_seconds = 0.0;  // CPU time, all threads
  double steal_free_seconds = 0.0;
};

// Times `run` into `out` by wall, CPU and steal-free time.
template <typename Fn>
auto TimeJob(JobOutput* out, Fn run) {
  const double s0 = StealFreeNow();
  const double c0 = CpuSeconds();
  const Clock::time_point t0 = Clock::now();
  auto r = run();
  out->seconds = Seconds(t0);
  out->cpu_seconds = CpuSeconds() - c0;
  out->steal_free_seconds = StealFreeNow() - s0;
  return r;
}

JobOutput RunBatchJob(const BatchConfig& c, const BatchData& d, uint64_t seed,
                      const std::string& checkpoint) {
  JobOutput out;
  if (c.allpairs) {
    std::filesystem::remove(checkpoint);
    std::filesystem::remove(jobs::SurvivorPathFor(checkpoint));
    jobs::AllPairsJobOptions o = c.allpairs_options;
    o.durable.checkpoint_path = checkpoint;
    Result<jobs::AllPairsJobOutcome> r = TimeJob(&out, [&] {
      return jobs::ResumeAllPairsSearch(d.channels, c.params, kVariant, seed,
                                        RunContext::None(), o);
    });
    if (!r.ok()) {
      out.status = r.status();
      return out;
    }
    jobs::AllPairsJobOutcome& v = r.value();
    if (!v.durable.stats.failures.empty() || v.survivors_resumed ||
        v.durable.stats.pairs_refused > 0) {
      out.status = Status::Internal("durable job isolated, refused or "
                                    "resumed pairs");
    }
    out.result = std::move(v.durable.result);
    out.universe = std::move(v.survivors);
    out.prefilter = v.prefilter;
  } else {
    Result<PairwiseResult> r = TimeJob(&out, [&] {
      return PairwiseSearch(d.channels, c.params, kVariant, seed,
                            RunContext());
    });
    if (!r.ok()) {
      out.status = r.status();
      return out;
    }
    out.result = std::move(r.value());
    const int n = static_cast<int>(d.channels.size());
    for (int a = 0; a < n; ++a) {
      for (int b = a + 1; b < n; ++b) out.universe.emplace_back(a, b);
    }
  }
  if (out.status.ok() && out.result.partial) {
    out.status = Status::Internal("job finished partial");
  }
  return out;
}

uint64_t DigestJob(const JobOutput& j) {
  uint64_t h = DigestResult(j.result);
  for (const auto& [a, b] : j.universe) {
    h = Mix(h, static_cast<uint64_t>(a));
    h = Mix(h, static_cast<uint64_t>(b));
  }
  return h;
}

void RunBatch(const Args& args, Report* rep) {
  const BatchConfig c = MakeBatchConfig(args.workload, args.smoke);
  const std::string ckpt = args.out_dir + "/" + args.workload + ".ckpt";
  SpanLog spans(args.trace);

  const std::vector<BatchData> orders = TimedSetup<std::vector<BatchData>>(
      rep, SetupRepeats(args), [&] {
        std::vector<BatchData> d = MakeBatchOrders(c, args.seed);
        ConstructEngines(c, d[0], args.seed);
        return d;
      });
  const BatchData& data = orders[0];

  // Warm-up: fills caches, settles lazy set-up, and is the reference answer
  // every later job on channel order 0 must reproduce bit for bit.
  const JobOutput ref = RunBatchJob(c, data, args.seed, ckpt);
  rep->Op(ref.status.ok(), "warm-up job: " + ref.status.ToString());
  rep->Metric("job.pairs_searched", static_cast<double>(ref.universe.size()),
              "count");

  // (channel order, status, digest) of every job after the warm-up.
  struct Done {
    int order = 0;
    Status status = Status::Ok();
    uint64_t digest = 0;
  };
  std::vector<Done> done;
  if (!args.trace) {
    // Timed phase: whole cycles of kOrders jobs, job k of a cycle on
    // channel order k, ending at the cycle boundary nearest --seconds (at
    // least one cycle). Every run thus averages over the same pair-seed
    // assignments, whatever the host's speed.
    const Clock::time_point start = Clock::now();
    std::vector<double> cpu_ms;
    std::vector<double> wall_ms;
    std::vector<double> latency_ms;
    std::vector<double> rss_mb;  // peak resident set during each job
    double cycle_s = 0.0;
    do {
      const Clock::time_point cycle_start = Clock::now();
      for (int order = 0; order < kOrders; ++order) {
        ResetPeakRss();
        const JobOutput out = RunBatchJob(
            c, orders[static_cast<size_t>(order)], args.seed, ckpt);
        rss_mb.push_back(PeakRssMb());
        cpu_ms.push_back(out.cpu_seconds * 1e3);
        wall_ms.push_back(out.seconds * 1e3);
        latency_ms.push_back(out.steal_free_seconds * 1e3);
        done.push_back({order, out.status, DigestJob(out)});
      }
      cycle_s = Seconds(cycle_start);
    } while (Seconds(start) + cycle_s / 2 <= args.seconds);
    const double wall = Seconds(start);
    const std::string jobs = "jobs=" + std::to_string(cpu_ms.size());
    double cpu_total = 0.0;
    for (const double x : cpu_ms) cpu_total += x;
    rep->Metric("cpu_ms_per_op",
                cpu_total / static_cast<double>(cpu_ms.size()), "ms", jobs);
    rep->Metric("latency_p50_ms", Median(latency_ms), "ms",
                jobs + " steal-free");
    rep->Metric("peak_rss_mb", Median(rss_mb), "MB", jobs + " median");
    ReportWall(rep, wall_ms, static_cast<double>(cpu_ms.size()) / wall);
  } else {
    // Traced jobs: layer timings from the prefilter's own stage clocks and
    // bench-side spans, counts from the obs registry.
    Delta counters;
    std::vector<double> job_s, stage1_s, stage2_s, search_s;
    for (int i = 0; i < 2; ++i) {
      const obs::MetricsSnapshot before = obs::Snapshot();
      JobOutput j;
      {
        ScopedSpan s(&spans, "job", i);
        j = RunBatchJob(c, data, args.seed, ckpt);
      }
      if (i == 0) counters = {before, obs::Snapshot()};
      done.push_back({0, j.status, DigestJob(j)});
      job_s.push_back(j.seconds);
      stage1_s.push_back(j.prefilter.stage1_seconds);
      stage2_s.push_back(j.prefilter.stage2_seconds);
      search_s.push_back(j.seconds - j.prefilter.stage1_seconds -
                         j.prefilter.stage2_seconds);
    }
    ReportEngineCounters(rep, counters);
    std::vector<double> wall_ms;
    for (const double x : job_s) wall_ms.push_back(x * 1e3);
    ReportWall(rep, wall_ms, Ratio(1.0, Median(job_s)));
    const double sweep_s = Median(search_s);
    if (c.allpairs) {
      const PrefilterStats& ps = ref.prefilter;
      rep->Metric("prefilter.stage1_s", Median(stage1_s), "s");
      rep->Metric("prefilter.stage2_s", Median(stage2_s), "s");
      rep->Metric("prefilter.stage1_pass_ratio",
                  Ratio(static_cast<double>(ps.stage1_candidates),
                        static_cast<double>(ps.pairs_total)),
                  "ratio");
      rep->Metric("prefilter.stage2_pass_ratio",
                  Ratio(static_cast<double>(ps.stage2_survivors),
                        static_cast<double>(ps.stage1_candidates)),
                  "ratio");
      rep->Metric("prefilter.share",
                  Ratio(Median(stage1_s) + Median(stage2_s), Median(job_s)),
                  "ratio");
      rep->Metric("jobs.search_s", sweep_s, "s");
      rep->Metric("jobs.checkpoint_bytes", counters("jobs.checkpoint_bytes"),
                  "bytes");
      // The same survivors through the plain (non-durable) sweep.
      Result<PairwiseResult> plain = Status::Internal("unrun");
      const Clock::time_point t0 = Clock::now();
      {
        ScopedSpan s(&spans, "search_pair_list", 0);
        plain = SearchPairList(data.channels, ref.universe, c.params, kVariant,
                               args.seed, RunContext::None());
      }
      const double plain_s = Seconds(t0);
      rep->Check(plain.ok() && DigestResult(plain.value()) ==
                                   DigestResult(ref.result),
                 "durable all-pairs result equals SearchPairList over the "
                 "same survivors");
      rep->Metric("jobs.durable_over_plain", Ratio(sweep_s, plain_s), "ratio");
      // The cascade alone must reproduce the persisted survivor list.
      PrefilterParams f = ResolveAllPairsPrefilter(
          c.allpairs_options.prefilter, c.params, data.channels[0].size());
      Result<PrefilterOutcome> pf = Status::Internal("unrun");
      {
        ScopedSpan s(&spans, "prefilter", 0);
        pf = RunPrefilter(data.channels, f,
                          ResolvePearsonThreshold(f, c.params.sigma),
                          RunContext::None());
      }
      rep->Check(pf.ok() && pf.value().PairList() == ref.universe,
                 "RunPrefilter survivors equal the durable job's");
    } else {
      ReportIdlePrefilterAndJobs(rep);
    }
    ReportIdleService(rep);

    // Pair-by-pair replay at one thread.
    std::vector<ReplayItem> items;
    for (size_t i = 0; i < ref.universe.size(); i += c.replay_stride) {
      const auto [a, b] = ref.universe[i];
      const PairwiseEntry* e = FindEntry(ref.result, a, b);
      if (e == nullptr) continue;
      items.push_back({SeriesPair(data.channels[static_cast<size_t>(a)],
                                  data.channels[static_cast<size_t>(b)]),
                       PairwiseSeed(args.seed, a, b), &e->windows,
                       "pair " + PairName(a, b)});
    }
    const ReplayResult r = ReplayPairs(
        items, c.params, c.overhead_pairs, c.mi_windows, &spans, rep);
    ReportReplay(rep, r);
    // Σ pair time over the sweep's wall time × executors; a strided replay
    // is scaled up to the whole universe.
    const double pair_s_all =
        r.pair_s * Ratio(static_cast<double>(ref.universe.size()),
                         static_cast<double>(items.size()));
    rep->Metric("pairwise.parallel_efficiency",
                Ratio(pair_s_all, sweep_s * kBatchThreads), "ratio",
                "replayed=" + std::to_string(items.size()) + "/" +
                    std::to_string(ref.universe.size()));
    ReplayMiBackends(rep, items, r.trace.sequence, c.params.k, &spans);
  }

  // ---- Verification (outside every timed interval) ----
  // Jobs on one channel order agree bit for bit; order 0 with the warm-up.
  std::map<int, uint64_t> digest_of{{0, DigestJob(ref)}};
  for (size_t i = 0; i < done.size(); ++i) {
    const Done& d = done[i];
    rep->Op(d.status.ok(),
            "job " + std::to_string(i) + ": " + d.status.ToString());
    const auto [it, first] = digest_of.emplace(d.order, d.digest);
    if (!first) {
      rep->Check(d.digest == it->second,
                 "job " + std::to_string(i) + " reproduces the result of " +
                     "channel order " + std::to_string(d.order));
    }
  }
  rep->Check(ref.result.pairs_searched ==
                 static_cast<int64_t>(ref.universe.size()),
             "every pair of the universe was searched");
  if (!args.trace) {
    // 1-thread reference: SearchPair on a seed-dependent sample of pairs.
    const size_t n = ref.universe.size();
    TycosParams one = c.params;
    one.num_threads = 1;
    for (size_t k = 0; k < std::min(c.reference_pairs, n); ++k) {
      const auto [a, b] =
          ref.universe[(args.seed * 7919 + k * n / c.reference_pairs) % n];
      const Result<PairOutcome> o = SearchPair(data.channels, a, b, one,
                                               kVariant, args.seed,
                                               RunContext::None());
      const PairwiseEntry* e = FindEntry(ref.result, a, b);
      rep->Check(o.ok() && e != nullptr &&
                     SameWindows(o.value().entry.windows, e->windows),
                 "SearchPair at 1 thread equals the parallel result for " +
                     PairName(a, b));
    }
    if (c.allpairs) {
      Result<PairwiseResult> plain =
          SearchPairList(data.channels, ref.universe, c.params, kVariant,
                         args.seed, RunContext::None());
      rep->Check(plain.ok() && DigestResult(plain.value()) ==
                                   DigestResult(ref.result),
                 "durable all-pairs result equals SearchPairList over the "
                 "same survivors");
    }
  }
  if (c.allpairs) {
    int64_t found = 0;
    for (const auto& p : data.planted) {
      const PairwiseEntry* e = FindEntry(ref.result, p.a, p.b);
      if (e != nullptr && !e->windows.empty()) ++found;
    }
    const double recall = Ratio(static_cast<double>(found),
                                static_cast<double>(data.planted.size()));
    rep->Metric("planted_recall", recall, "ratio",
                std::to_string(found) + "/" +
                    std::to_string(data.planted.size()));
    rep->Check(found == static_cast<int64_t>(data.planted.size()),
               "every planted pair has a window in the final result");
  }
  std::filesystem::remove(ckpt);
  std::filesystem::remove(jobs::SurvivorPathFor(ckpt));
  if (spans.on()) {
    const std::string path =
        args.out_dir + "/spans-" + args.workload + ".json";
    rep->Check(spans.Write(path), "spans written to " + path);
  }
}

// ---------------------------------------------------------------------------
// service_mixed

// The open-loop rate, in requests per steal-free second, committed. At the
// commit that defined the benchmark the mix cost about 6.8 ms of server
// CPU per request, so 200/s keeps the 3 workers about 45% busy. A faster
// server lowers latency at this rate; a slower one queues.
constexpr double kOpenLoopRps = 200.0;
constexpr int kClosedLoopOutstanding = 6;
constexpr int kServicePairs = 8;   // 4 tenants × 2 channel pairs
constexpr int kAppendEvery = 10;   // one pair append per 10 requests
constexpr int64_t kAppendChunk = 2;

struct ServiceConfig {
  TycosParams params;
  int energy_days = 4;
  // The rest of each channel (96 samples, 9%) feeds the appends; once it
  // is used up, appends are empty and only bump the epoch.
  int64_t base_length = 1056;
};

ServiceConfig MakeServiceConfig(bool smoke) {
  ServiceConfig c;
  TycosParams& p = c.params;
  p.sigma = 0.55;
  p.s_min = 16;
  p.s_max = 64;
  p.td_max = 4;
  p.delta = 2;
  p.num_threads = 1;
  if (smoke) {
    c.energy_days = 1;
    c.base_length = 256;
  }
  return c;
}

// Channel pair p is channels (2p, 2p + 1) and belongs to tenant p / 2.
// The 8 pairs are the (kitchen, dishwasher) and (clothes washer, dryer)
// pairs of 4 simulated households, in an order drawn from --seed.
struct ServiceData {
  std::vector<std::vector<double>> channels;  // full length, appends included
  std::string Name(int ch) const {
    return "h" + std::to_string(ch / 4) + ".c" + std::to_string(ch % 4);
  }
};

ServiceData MakeServiceData(const ServiceConfig& c, uint64_t seed) {
  std::vector<std::vector<double>> base;
  for (int h = 0; h < kServicePairs / 2; ++h) {
    datagen::EnergySimOptions o;
    o.days = c.energy_days;
    o.seed = kEnergySeed + static_cast<uint64_t>(h);
    const datagen::EnergySimulator sim(o);
    for (const datagen::EnergyChannel ch :
         {datagen::EnergyChannel::kKitchen, datagen::EnergyChannel::kDishWasher,
          datagen::EnergyChannel::kClothesWasher,
          datagen::EnergyChannel::kDryer}) {
      base.push_back(sim.Channel(ch).values());
    }
  }
  ServiceData d;
  for (const int p : SeededOrder(kServicePairs, seed)) {
    d.channels.push_back(std::move(base[static_cast<size_t>(2 * p)]));
    d.channels.push_back(std::move(base[static_cast<size_t>(2 * p + 1)]));
  }
  return d;
}

struct ServiceState {
  std::unique_ptr<service::Server> server;
  // Per channel: the sample count each epoch describes.
  std::vector<std::map<uint64_t, int64_t>> length_at_epoch;
  std::vector<int64_t> length;
};

// A completed request as the client saw it. Times are steal-free (see
// StealFreeNow) unless named wall: the arrival schedule runs on that clock
// too, so time other guests take neither stretches a latency nor squeezes
// the schedule.
struct Completed {
  int64_t seq = 0;
  int pair = 0;
  uint64_t seed = 0;
  bool open_loop = false;
  double latency_ms = 0.0;       // due → seen terminal
  double wall_latency_ms = 0.0;  // sent → seen terminal, wall clock
  double queue_wait_ms = -1.0;   // submitted → seen running (-1: not seen)
  double run_ms = -1.0;          // seen running → seen terminal
  double done = 0.0;             // when seen terminal
  service::RequestStatus status;
};

struct Pending {
  int64_t id = 0;
  int64_t seq = 0;
  int pair = 0;
  uint64_t seed = 0;
  bool open_loop = false;
  double due = 0.0;
  double submitted = 0.0;
  std::optional<double> running;
  // Wall-clock instants, for the spans and the wall latency.
  Clock::time_point submitted_wall;
  Clock::time_point running_wall;
  int span = -1;
};

class ServiceClient {
 public:
  ServiceClient(const ServiceConfig& c, const ServiceData& d,
                ServiceState* st, uint64_t seed, SpanLog* spans, Report* rep)
      : c_(c), d_(d), st_(st), seed_(seed), spans_(spans), rep_(rep),
        depth_(obs::GetGauge("service.queue_depth")) {}

  // Open loop: request i is due at start + i / rate, whatever the server
  // is doing; the client polls outstanding requests until it is due.
  void OpenLoop(double seconds) {
    const double start = StealFreeNow();
    for (int64_t i = 0;; ++i) {
      const double due = start + static_cast<double>(i) / kOpenLoopRps;
      if (due - start >= seconds) break;
      while (StealFreeNow() < due) PollOnce();
      lag_ms_.push_back((StealFreeNow() - due) * 1e3);
      Send(due, /*open_loop=*/true);
    }
    Drain();
  }

  // Closed loop: keep kClosedLoopOutstanding requests in flight; the
  // completion rate (per wall second) is the server's capacity on this mix.
  double ClosedLoop(double seconds) {
    const double end = StealFreeNow() + seconds;
    const Clock::time_point wall0 = Clock::now();
    const size_t before = done_.size();
    while (StealFreeNow() < end) {
      while (pending_.size() < kClosedLoopOutstanding) {
        Send(StealFreeNow(), /*open_loop=*/false);
      }
      PollOnce();
    }
    const double wall_s = Seconds(wall0);
    Drain();
    int64_t in_window = 0;
    for (size_t i = before; i < done_.size(); ++i) {
      if (done_[i].done <= end) ++in_window;
    }
    return static_cast<double>(in_window) / wall_s;
  }

  // Submits one request per pair at the current data and waits for all.
  // Warm-up requests are numbered -1 to -8.
  void WarmUp() {
    for (int p = 0; p < kServicePairs; ++p) {
      SubmitRequest(p, CacheableSeed(p), StealFreeNow(), false, -1 - p);
    }
    Drain();
  }

  const std::vector<Completed>& done() const { return done_; }
  const std::vector<double>& lag_ms() const { return lag_ms_; }
  const std::vector<double>& submit_us() const { return submit_us_; }
  const std::vector<double>& append_us() const { return append_us_; }
  int64_t queue_depth_max() const { return queue_depth_max_; }
  // Client-thread CPU spent inside Submit and Append calls.
  double server_call_cpu_s() const { return server_call_cpu_s_; }
  uint64_t CacheableSeed(int pair) const {
    return seed_ * 100 + static_cast<uint64_t>(pair);
  }

 private:
  // Request i: pair i mod 8; every other round of pairs repeats that
  // pair's cacheable seed, the others draw a fresh one. Every
  // kAppendEvery-th request first appends a chunk to one pair.
  void Send(double due, bool open_loop) {
    const int64_t i = next_seq_++;
    if (i % kAppendEvery == kAppendEvery - 1) Append();
    const int pair = static_cast<int>(i % kServicePairs);
    const bool repeat = (i / kServicePairs) % 2 == 0;
    const uint64_t seed = repeat ? CacheableSeed(pair)
                                 : seed_ * 1000003 + static_cast<uint64_t>(i);
    SubmitRequest(pair, seed, due, open_loop, i);
  }

  void SubmitRequest(int pair, uint64_t seed, double due, bool open_loop,
                     int64_t seq) {
    service::SearchRequest req;
    req.tenant = "tenant-" + std::to_string(pair / 2);
    req.channel_a = d_.Name(2 * pair);
    req.channel_b = d_.Name(2 * pair + 1);
    req.params = c_.params;
    req.variant = kVariant;
    req.seed = seed;
    const double submitted = StealFreeNow();
    const double c0 = CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
    const Clock::time_point t0 = Clock::now();
    const Result<int64_t> id = st_->server->Submit(req);
    const Clock::time_point t1 = Clock::now();
    server_call_cpu_s_ += CpuSeconds(CLOCK_THREAD_CPUTIME_ID) - c0;
    submit_us_.push_back(Seconds(t0, t1) * 1e6);
    queue_depth_max_ = std::max(queue_depth_max_, depth_->Value());
    rep_->Op(id.ok(), "submit: " + id.status().ToString());
    if (!id.ok()) return;
    Pending p;
    p.id = id.value();
    p.seq = seq;
    p.pair = pair;
    p.seed = seed;
    p.open_loop = open_loop;
    p.due = due;
    p.submitted = submitted;
    p.submitted_wall = t0;
    if (spans_->on()) {
      p.span = spans_->AddUnder("request", seq, -1, t0, t1);
      spans_->AddUnder("service.submit", seq, p.span, t0, t1);
    }
    pending_.push_back(p);
  }

  void Append() {
    const int pair = static_cast<int>(appends_++ % kServicePairs);
    for (int ch : {2 * pair, 2 * pair + 1}) {
      const std::vector<double>& all = d_.channels[static_cast<size_t>(ch)];
      const auto from =
          static_cast<size_t>(st_->length[static_cast<size_t>(ch)]);
      const size_t to = std::min(all.size(), from + kAppendChunk);
      const std::vector<double> chunk(all.begin() + static_cast<int64_t>(from),
                                      all.begin() + static_cast<int64_t>(to));
      const double c0 = CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
      const Clock::time_point t0 = Clock::now();
      const Status s = st_->server->Append(d_.Name(ch), chunk);
      const Clock::time_point t1 = Clock::now();
      server_call_cpu_s_ += CpuSeconds(CLOCK_THREAD_CPUTIME_ID) - c0;
      append_us_.push_back(Seconds(t0, t1) * 1e6);
      spans_->AddUnder("service.append", ch, -1, t0, t1);
      rep_->Op(s.ok(), "append: " + s.ToString());
      st_->length[static_cast<size_t>(ch)] = static_cast<int64_t>(to);
      const Result<uint64_t> e = st_->server->ChannelEpoch(d_.Name(ch));
      if (e.ok()) {
        st_->length_at_epoch[static_cast<size_t>(ch)][e.value()] =
            static_cast<int64_t>(to);
      }
    }
  }

  void PollOnce() {
    const double now = StealFreeNow();
    const Clock::time_point now_wall = Clock::now();
    for (size_t i = 0; i < pending_.size();) {
      Pending& p = pending_[i];
      Result<service::RequestStatus> st = st_->server->Poll(p.id);
      if (!st.ok()) {
        rep_->Op(false, "poll: " + st.status().ToString());
        pending_.erase(pending_.begin() + static_cast<int64_t>(i));
        continue;
      }
      const service::RequestState s = st.value().state;
      if (s == service::RequestState::kQueued) {
        ++i;
        continue;
      }
      if (!p.running.has_value()) {
        p.running = now;
        p.running_wall = now_wall;
      }
      if (s == service::RequestState::kRunning) {
        ++i;
        continue;
      }
      Completed c;
      c.seq = p.seq;
      c.pair = p.pair;
      c.seed = p.seed;
      c.open_loop = p.open_loop;
      c.latency_ms = (now - p.due) * 1e3;
      c.wall_latency_ms = Seconds(p.submitted_wall, now_wall) * 1e3;
      c.done = now;
      c.status = std::move(st.value());
      // Only a transition seen mid-way splits queue wait from run time.
      if (*p.running < now) {
        c.queue_wait_ms = (*p.running - p.submitted) * 1e3;
        c.run_ms = (now - *p.running) * 1e3;
        if (spans_->on()) {
          spans_->AddUnder("service.queue_wait", p.seq, p.span,
                           p.submitted_wall, p.running_wall);
          spans_->AddUnder("service.run", p.seq, p.span, p.running_wall,
                           now_wall);
        }
      }
      spans_->End(p.span, now_wall);
      done_.push_back(std::move(c));
      pending_.erase(pending_.begin() + static_cast<int64_t>(i));
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }

  void Drain() {
    while (!pending_.empty()) PollOnce();
  }

  const ServiceConfig& c_;
  const ServiceData& d_;
  ServiceState* st_;
  uint64_t seed_;
  SpanLog* spans_;
  Report* rep_;
  obs::Gauge* depth_;
  std::vector<Pending> pending_;
  std::vector<Completed> done_;
  std::vector<double> lag_ms_, submit_us_, append_us_;
  int64_t next_seq_ = 0;
  int64_t appends_ = 0;
  int64_t queue_depth_max_ = 0;
  double server_call_cpu_s_ = 0.0;
};

struct ServiceSetup {
  ServiceData data;
  ServiceState state;
};

ServiceSetup SetUpService(const ServiceConfig& c, uint64_t seed) {
  ServiceSetup s;
  s.data = MakeServiceData(c, seed);
  service::ServiceOptions o;
  o.num_workers = kServiceWorkers;
  Result<std::unique_ptr<service::Server>> server = service::Server::Create(o);
  TYCOS_CHECK(server.ok());
  s.state.server = std::move(server.value());
  const size_t n = s.data.channels.size();
  s.state.length.assign(n, c.base_length);
  s.state.length_at_epoch.resize(n);
  for (size_t ch = 0; ch < n; ++ch) {
    const std::vector<double>& all = s.data.channels[ch];
    TYCOS_CHECK(static_cast<int64_t>(all.size()) >= c.base_length);
    const std::string name = s.data.Name(static_cast<int>(ch));
    const std::vector<double> head(all.begin(), all.begin() + c.base_length);
    TYCOS_CHECK(s.state.server->Append(name, head).ok());
    s.state.length_at_epoch[ch][s.state.server->ChannelEpoch(name).value()] =
        c.base_length;
  }
  return s;
}

void RunService(const Args& args, Report* rep) {
  const ServiceConfig c = MakeServiceConfig(args.smoke);
  SpanLog spans(args.trace);
  ServiceSetup setup = TimedSetup<ServiceSetup>(
      rep, SetupRepeats(args), [&] { return SetUpService(c, args.seed); });
  ServiceState& st = setup.state;
  const ServiceData& data = setup.data;
  ServiceClient client(c, data, &st, args.seed, &spans, rep);
  client.WarmUp();
  const std::vector<Completed> warm = client.done();

  // Both loops run on the steal-free clock.
  const double open_s = args.seconds * 0.6;
  const double closed_s = args.seconds * 0.4;
  const obs::MetricsSnapshot before = obs::Snapshot();
  // Server CPU over the open loop: the process's CPU time minus the client
  // thread's, plus the client-thread time spent inside Submit and Append,
  // which is server code. Polling is the client's own cost.
  const double cpu0 = CpuSeconds();
  const double client0 = CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
  const double calls0 = client.server_call_cpu_s();
  ResetPeakRss();
  client.OpenLoop(open_s);
  const double server_cpu_s = (CpuSeconds() - cpu0) -
                              (CpuSeconds(CLOCK_THREAD_CPUTIME_ID) - client0) +
                              (client.server_call_cpu_s() - calls0);
  const size_t open_ops = client.done().size() - warm.size();
  // The peak over the open loop alone: the server keeps every request's
  // record, so memory grows with the request count, which in the closed
  // loop depends on the host's speed.
  const double rss = PeakRssMb();
  // Registry counts over the open loop too, whose request count is fixed.
  const Delta counters{before, obs::Snapshot()};
  const double capacity = client.ClosedLoop(closed_s);
  std::vector<double> latency_ms;
  std::vector<double> wall_latency_ms;
  std::vector<double> queue_ms;
  std::vector<double> run_ms;
  for (const Completed& d : client.done()) {
    if (d.open_loop) {
      latency_ms.push_back(d.latency_ms);
      wall_latency_ms.push_back(d.wall_latency_ms);
    }
    if (d.queue_wait_ms >= 0) {
      queue_ms.push_back(d.queue_wait_ms);
      run_ms.push_back(d.run_ms);
    }
  }

  ReportWall(rep, wall_latency_ms, capacity);
  if (!args.trace) {
    const std::string requests = "requests=" + std::to_string(open_ops);
    rep->Metric("cpu_ms_per_op",
                Ratio(server_cpu_s * 1e3, static_cast<double>(open_ops)), "ms",
                requests);
    rep->Metric("latency_p50_ms", Median(latency_ms), "ms",
                requests + " steal-free");
    rep->Metric("peak_rss_mb", rss, "MB", "after the open loop");
  } else {
    ReportEngineCounters(rep, counters);
    ReportIdlePrefilterAndJobs(rep);
    rep->Metric("service.submit_us_p50", Median(client.submit_us()), "us");
    rep->Tail("service.submit_us_p99", perfbench::Tail(client.submit_us(), 99),
              "us");
    rep->Metric("service.append_us_p50", Median(client.append_us()), "us");
    rep->Tail("service.append_us_p99", perfbench::Tail(client.append_us(), 99),
              "us");
    rep->Metric("service.queue_wait_ms_p50", Median(queue_ms), "ms");
    rep->Tail("service.queue_wait_ms_p99", perfbench::Tail(queue_ms, 99), "ms");
    rep->Metric("service.run_ms_p50", Median(run_ms), "ms");
    rep->Tail("service.run_ms_p99", perfbench::Tail(run_ms, 99), "ms");
    const double hits = counters("service.cache.hits");
    rep->Metric("service.cache_hit_ratio",
                Ratio(hits, hits + counters("service.cache.misses")), "ratio");
    rep->Metric("service.refused", counters("service.refused"), "count");
    rep->Metric("service.degraded", counters("service.degraded"), "count");
    rep->Metric("service.queue_depth_max",
                static_cast<double>(client.queue_depth_max()), "count");
    rep->Tail("loadgen.lag_ms_p99", perfbench::Tail(client.lag_ms(), 99), "ms");
    rep->Metric("pairwise.parallel_efficiency", 0.0, "ratio", "idle");

    // The engine under the service: each pair's cacheable request at the
    // base data, replayed at one thread against its warm-up answer.
    std::vector<ReplayItem> items;
    for (int p = 0; p < kServicePairs; ++p) {
      for (const Completed& w : warm) {
        if (w.pair != p) continue;
        auto prefix = [&](int ch) {
          const std::vector<double>& all =
              data.channels[static_cast<size_t>(ch)];
          return TimeSeries(std::vector<double>(all.begin(),
                                                all.begin() + c.base_length));
        };
        items.push_back({SeriesPair(prefix(2 * p), prefix(2 * p + 1)),
                         client.CacheableSeed(p), &w.status.outcome.windows,
                         "service pair " + std::to_string(p)});
      }
    }
    const ReplayResult r = ReplayPairs(items, c.params, args.smoke ? 2 : 4,
                                       args.smoke ? 100 : 1500, &spans, rep);
    ReportReplay(rep, r);
    ReplayMiBackends(rep, items, r.trace.sequence, c.params.k, &spans);
  }

  // ---- Verification (outside every timed interval) ----
  // Every request completes in full; requests with one (pair, seed,
  // epochs) key agree; a sample of keys matches a sequential search over
  // the data those epochs name.
  using Key = std::tuple<int, uint64_t, uint64_t, uint64_t>;
  std::map<Key, const Completed*> first;
  for (const Completed& d : client.done()) {
    const service::RequestStatus& s = d.status;
    rep->Op(s.state == service::RequestState::kDone && !s.outcome.partial,
            "request " + std::to_string(d.seq) + " ended " +
                service::RequestStateName(s.state) +
                (s.outcome.partial ? " (partial)" : ""));
    const Key key{d.pair, d.seed, s.epoch_a, s.epoch_b};
    const auto [it, fresh] = first.emplace(key, &d);
    if (!fresh) {
      rep->Check(SameWindows(it->second->status.outcome.windows,
                             s.outcome.windows),
                 "request " + std::to_string(d.seq) +
                     " agrees with earlier answers at the same epochs");
    }
  }
  const size_t samples = std::min<size_t>(first.size(), args.smoke ? 3 : 12);
  size_t k = 0;
  for (const auto& [key, d] : first) {
    if (k++ % std::max<size_t>(1, first.size() / samples) != 0) continue;
    const auto& [pair, seed, ea, eb] = key;
    const auto len_at = [&](int ch, uint64_t epoch) -> int64_t {
      const auto& m = st.length_at_epoch[static_cast<size_t>(ch)];
      const auto it = m.find(epoch);
      return it == m.end() ? -1 : it->second;
    };
    const int64_t len =
        std::min(len_at(2 * pair, ea), len_at(2 * pair + 1, eb));
    bool ok = len > 0;
    if (ok) {
      auto prefix = [&](int ch) {
        const std::vector<double>& all = data.channels[static_cast<size_t>(ch)];
        return TimeSeries(std::vector<double>(all.begin(), all.begin() + len));
      };
      Result<std::unique_ptr<Tycos>> engine =
          Tycos::Create(SeriesPair(prefix(2 * pair), prefix(2 * pair + 1)),
                        c.params, kVariant, seed);
      ok = engine.ok();
      if (ok) {
        const Result<SearchOutcome> ref =
            engine.value()->Run(RunContext::None());
        ok = ref.ok() &&
             SameWindows(ref.value().windows, d->status.outcome.windows);
      }
    }
    rep->Check(ok, "request " + std::to_string(d->seq) +
                       " equals a sequential search at epochs (" +
                       std::to_string(ea) + "," + std::to_string(eb) + ")");
  }
  st.server->Shutdown();
  if (spans.on()) {
    const std::string path =
        args.out_dir + "/spans-" + args.workload + ".json";
    rep->Check(spans.Write(path), "spans written to " + path);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  if (!perfbench::kOptimizedBuild && !args.smoke) {
    std::fprintf(stderr,
                 "tycos_bench: refusing to time a build without NDEBUG; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n");
    return 3;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  if (ec) Usage("cannot create --out-dir " + args.out_dir);
  perfbench::PrintHost();
  Report rep;
  if (args.workload == "service_mixed") {
    RunService(args, &rep);
  } else {
    RunBatch(args, &rep);
  }
  return rep.Finish();
}
