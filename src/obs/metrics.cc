#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#if defined(__linux__)
#include <unistd.h>
#endif

namespace tycos {
namespace obs {

size_t ThisThreadShard() {
  static std::atomic<uint64_t> next_shard{0};
  thread_local const size_t shard = static_cast<size_t>(
      next_shard.fetch_add(1, std::memory_order_relaxed) % kShards);
  return shard;
}

int64_t Counter::Value() const {
  int64_t total = 0;
  for (const Cell& c : cells_) total += c.v.load(std::memory_order_relaxed);
  return total;
}

void Counter::Reset() {
  for (Cell& c : cells_) c.v.store(0, std::memory_order_relaxed);
}

int64_t HistogramSnapshot::total() const {
  int64_t t = 0;
  for (int64_t c : counts) t += c;
  return t;
}

Histogram::Histogram(std::string name, std::vector<double> bounds)
    : name_(std::move(name)),
      bounds_(std::move(bounds)),
      counts_(bounds_.size() + 1) {}

size_t Histogram::BucketIndex(double v) const {
  // First bucket whose upper bound covers v; everything above the last
  // bound — and NaN, routed explicitly — lands in the overflow bucket.
  if (std::isnan(v)) return bounds_.size();
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  return static_cast<size_t>(it - bounds_.begin());
}

void Histogram::Observe(double v) {
  counts_[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.name = name_;
  snap.bounds = bounds_;
  snap.counts.reserve(counts_.size());
  for (const std::atomic<int64_t>& c : counts_) {
    snap.counts.push_back(c.load(std::memory_order_relaxed));
  }
  return snap;
}

void Histogram::Reset() {
  for (std::atomic<int64_t>& c : counts_) {
    c.store(0, std::memory_order_relaxed);
  }
}

int64_t MetricsSnapshot::CounterValue(const std::string& name) const {
  for (const CounterSnapshot& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

const HistogramSnapshot* MetricsSnapshot::FindHistogram(
    const std::string& name) const {
  for (const HistogramSnapshot& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

std::string MetricsSnapshot::ToString() const {
  std::ostringstream out;
  for (const CounterSnapshot& c : counters) {
    out << c.name << ": " << c.value << "\n";
  }
  for (const GaugeSnapshot& g : gauges) {
    out << g.name << ": " << g.value << " (gauge)\n";
  }
  for (const HistogramSnapshot& h : histograms) {
    out << h.name << ": total " << h.total() << " [";
    for (size_t b = 0; b < h.counts.size(); ++b) {
      if (b > 0) out << " ";
      if (b < h.bounds.size()) {
        out << "<=" << h.bounds[b] << ":" << h.counts[b];
      } else {
        out << "inf:" << h.counts[b];
      }
    }
    out << "]\n";
  }
  return out.str();
}

Registry& Registry::Instance() {
  static Registry* instance = new Registry();  // leaked: process lifetime
  return *instance;
}

Counter* Registry::GetCounter(const std::string& name) {
  MutexLock lock(&mu_);
  for (const std::unique_ptr<Counter>& c : counters_) {
    if (c->name() == name) return c.get();
  }
  counters_.push_back(std::make_unique<Counter>(name));
  return counters_.back().get();
}

Gauge* Registry::GetGauge(const std::string& name) {
  MutexLock lock(&mu_);
  for (const std::unique_ptr<Gauge>& g : gauges_) {
    if (g->name() == name) return g.get();
  }
  gauges_.push_back(std::make_unique<Gauge>(name));
  return gauges_.back().get();
}

Histogram* Registry::GetHistogram(const std::string& name,
                                  const std::vector<double>& bounds) {
  MutexLock lock(&mu_);
  for (const std::unique_ptr<Histogram>& h : histograms_) {
    if (h->name() == name) return h.get();
  }
  histograms_.push_back(std::make_unique<Histogram>(name, bounds));
  return histograms_.back().get();
}

MetricsSnapshot Registry::Snapshot() const {
  MutexLock lock(&mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const std::unique_ptr<Counter>& c : counters_) {
    snap.counters.push_back({c->name(), c->Value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const std::unique_ptr<Gauge>& g : gauges_) {
    snap.gauges.push_back({g->name(), g->Value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const std::unique_ptr<Histogram>& h : histograms_) {
    snap.histograms.push_back(h->Snapshot());
  }
  const auto by_name = [](const auto& a, const auto& b) {
    return a.name < b.name;
  };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
}

void Registry::ResetAllForTest() {
  MutexLock lock(&mu_);
  for (const std::unique_ptr<Counter>& c : counters_) c->Reset();
  for (const std::unique_ptr<Gauge>& g : gauges_) g->Reset();
  for (const std::unique_ptr<Histogram>& h : histograms_) h->Reset();
}

int64_t ProcessRssBytes() {
#if defined(__linux__)
  // /proc/self/statm: "size resident shared ..." in pages. fscanf of two
  // integers is cheap enough to call per admission decision.
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long long size_pages = 0;
  long long resident_pages = 0;
  const int fields = std::fscanf(f, "%lld %lld", &size_pages, &resident_pages);
  if (std::fclose(f) != 0 || fields != 2) return 0;
  const long page = sysconf(_SC_PAGESIZE);
  return static_cast<int64_t>(resident_pages) *
         static_cast<int64_t>(page > 0 ? page : 4096);
#else
  return 0;
#endif
}

}  // namespace obs
}  // namespace tycos
