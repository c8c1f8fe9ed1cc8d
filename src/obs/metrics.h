// Observability metrics registry: process-wide named counters, gauges, and
// fixed-bucket histograms.
//
// Counters are written from concurrent climbs, so each one keeps a small
// array of cache-line-aligned per-thread shard cells: a write is one relaxed
// fetch_add on the calling thread's shard, a read sums the shards. Totals
// are therefore exact and — because integer addition is commutative —
// independent of how work was split across threads, which is what keeps
// parallel_determinism_test bit-identical at every thread count.
// Histograms, observed once per climb, keep one atomic count per bucket.
// Like counters they store only integers (never a floating-point sum): FP
// addition is not associative, so a running sum would differ with thread
// interleaving.
//
// The registry is the library's one instrumentation path and is always
// on: the reports' metrics section, the service's Metrics() and the bench
// sidecars read it, and TycosStats counts the same work per engine. Hot
// paths keep the cost negligible by accumulating into plain local structs
// and flushing deltas at coarse boundaries (per climb, per evaluator
// stack, per kNN batch) instead of touching an atomic per point — see
// DESIGN.md "Observability" for the overhead policy.
//
// Handles returned by GetCounter/GetGauge/GetHistogram are stable for the
// process lifetime; look one up once per call site (function-local static)
// and reuse it. ResetAllForTest() zeroes values but never invalidates a
// handle.

#ifndef TYCOS_OBS_METRICS_H_
#define TYCOS_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/annotations.h"

namespace tycos {
namespace obs {

// Number of per-thread shard cells per counter. Threads hash onto
// shards round-robin; more threads than shards just share cells (still
// correct, marginally more contended).
inline constexpr size_t kShards = 16;

// The calling thread's shard index (assigned round-robin at first use).
size_t ThisThreadShard();

// Monotonic event count. Add() is wait-free: one relaxed fetch_add on the
// caller's shard cell.
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}

  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(int64_t n) {
    cells_[ThisThreadShard()].v.fetch_add(n, std::memory_order_relaxed);
  }

  // Sum over all shards. Exact once writers have synchronized with the
  // reader (e.g. after a ParallelFor join).
  int64_t Value() const;

  const std::string& name() const { return name_; }

 private:
  friend class Registry;
  void Reset();

  struct alignas(64) Cell {
    std::atomic<int64_t> v{0};
  };

  const std::string name_;
  std::array<Cell, kShards> cells_;
};

// Last-write-wins instantaneous value (unsharded: gauges record
// thread-count-independent facts like "windows found by the last run").
class Gauge {
 public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}

  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

  const std::string& name() const { return name_; }

 private:
  friend class Registry;
  void Reset() { value_.store(0, std::memory_order_relaxed); }

  const std::string name_;
  std::atomic<int64_t> value_{0};
};

// A histogram's aggregated state as captured by Registry::Snapshot().
struct HistogramSnapshot {
  std::string name;
  // Ascending upper bounds; counts[i] tallies observations v <= bounds[i]
  // (first matching bucket), counts.back() the overflow above bounds.back().
  std::vector<double> bounds;
  std::vector<int64_t> counts;  // size bounds.size() + 1

  int64_t total() const;
};

// Fixed-bucket distribution of integer-ish observations (acceptance
// percentage per climb). Buckets are chosen at creation and never change;
// observations land in the first bucket whose upper bound is >= the value.
// One atomic count per bucket keeps Observe() wait-free, and the
// integer-only state keeps snapshots bit-deterministic.
class Histogram {
 public:
  Histogram(std::string name, std::vector<double> bounds);

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(double v);

  HistogramSnapshot Snapshot() const;

  const std::string& name() const { return name_; }
  const std::vector<double>& bounds() const { return bounds_; }

 private:
  friend class Registry;
  void Reset();

  size_t BucketIndex(double v) const;

  const std::string name_;
  const std::vector<double> bounds_;
  // One count per bucket, the overflow last. C++20 value-initializes the
  // atomics.
  std::vector<std::atomic<int64_t>> counts_;
};

struct CounterSnapshot {
  std::string name;
  int64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  int64_t value = 0;
};

// Point-in-time copy of every registered metric, sorted by name so two
// snapshots of identical state compare (and render) identically.
struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  // Value of the named counter, 0 when it was never registered.
  int64_t CounterValue(const std::string& name) const;
  // The named histogram, nullptr when it was never registered.
  const HistogramSnapshot* FindHistogram(const std::string& name) const;

  // Multi-line human-readable rendering (counters, gauges, histograms).
  std::string ToString() const;
};

// Process-wide metric registry: node-based storage so handles survive later
// registrations, a leaked singleton so metrics outlive static destruction
// order.
class Registry {
 public:
  static Registry& Instance();

  // Find-or-create by name. For histograms the bounds of the first caller
  // win; later callers with different bounds get the existing instance.
  Counter* GetCounter(const std::string& name) TYCOS_EXCLUDES(mu_);
  Gauge* GetGauge(const std::string& name) TYCOS_EXCLUDES(mu_);
  Histogram* GetHistogram(const std::string& name,
                          const std::vector<double>& bounds)
      TYCOS_EXCLUDES(mu_);

  MetricsSnapshot Snapshot() const TYCOS_EXCLUDES(mu_);

  // Zeroes every metric (test isolation). Handles stay valid.
  void ResetAllForTest() TYCOS_EXCLUDES(mu_);

 private:
  Registry() = default;

  mutable Mutex mu_;
  std::vector<std::unique_ptr<Counter>> counters_ TYCOS_GUARDED_BY(mu_);
  std::vector<std::unique_ptr<Gauge>> gauges_ TYCOS_GUARDED_BY(mu_);
  std::vector<std::unique_ptr<Histogram>> histograms_ TYCOS_GUARDED_BY(mu_);
};

// Process self-observation: the current resident set size in bytes, read
// from /proc/self/statm (Linux). Returns 0 when the platform offers no
// cheap probe — callers must treat 0 as "unknown", never "no memory".
// Feeds the jobs-layer admission gate and the process.rss_bytes gauge.
int64_t ProcessRssBytes();

// Convenience wrappers for call sites.
inline Counter* GetCounter(const std::string& name) {
  return Registry::Instance().GetCounter(name);
}
inline Gauge* GetGauge(const std::string& name) {
  return Registry::Instance().GetGauge(name);
}
inline Histogram* GetHistogram(const std::string& name,
                               const std::vector<double>& bounds) {
  return Registry::Instance().GetHistogram(name, bounds);
}
inline MetricsSnapshot Snapshot() { return Registry::Instance().Snapshot(); }

}  // namespace obs
}  // namespace tycos

#endif  // TYCOS_OBS_METRICS_H_
