// audit_selftest: end-to-end exercise of the runtime invariant audit layer.
//
// Scenario 1 drives a real multi-restart TYCOS search with every auditor
// live and requires a clean report with non-zero coverage — proving the
// auditors run on the hot paths and the shipped invariants hold.
//
// Scenario 2 deliberately breaks the incremental KSG estimator through its
// test-only drift hook and requires the incremental-vs-batch differential
// auditor to catch the corruption with a populated failure context —
// proving a real estimator bug cannot slide through silently.
//
// Exit code 0 on success, 1 on any expectation failure. Built in every
// configuration; without TYCOS_AUDIT the binary reports that auditing is
// compiled out and succeeds trivially (the ctest registration is gated on
// the audit preset, so CI never mistakes that for coverage).

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "audit/audit.h"
#include "common/rng.h"
#include "core/time_series.h"
#include "mi/incremental_ksg.h"
#include "search/tycos.h"

namespace tycos {
namespace {

int g_errors = 0;

void Expect(bool ok, const std::string& what) {
  if (ok) {
    std::printf("  [ok] %s\n", what.c_str());
  } else {
    std::printf("  [FAIL] %s\n", what.c_str());
    ++g_errors;
  }
}

SeriesPair CoupledPair(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(static_cast<size_t>(n));
  std::vector<double> y(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const double base = std::sin(static_cast<double>(i) * 0.07);
    x[static_cast<size_t>(i)] = base + 0.4 * rng.Normal();
    // Coupled to x in the middle third only, so the search has structure
    // to find and plenty of incremental slides to audit.
    const bool coupled = i > n / 3 && i < 2 * n / 3;
    y[static_cast<size_t>(i)] =
        (coupled ? base : 0.0) + 0.4 * rng.Normal();
  }
  return SeriesPair(TimeSeries(std::move(x), "x"),
                    TimeSeries(std::move(y), "y"));
}

// Scenario 1: a clean multi-restart search must produce non-zero audit
// coverage across the wired subsystems and zero violations.
void RunCleanSearchScenario() {
  std::printf("scenario 1: clean multi-restart search under audit\n");
  audit::Registry::Instance().ResetAllForTest();

  const SeriesPair pair = CoupledPair(900, 7);
  TycosParams params;
  params.s_min = 40;
  params.s_max = 200;
  params.td_max = 10;
  params.sigma = 0.15;
  params.num_restarts = 4;
  params.num_threads = 2;

  Result<std::unique_ptr<Tycos>> search =
      Tycos::Create(pair, params, TycosVariant::kLMN, /*seed=*/11);
  Expect(search.ok(), "search constructs");
  if (!search.ok()) return;

  Result<SearchOutcome> outcome = (*search)->Run(RunContext::None());
  Expect(outcome.ok(), "search completes");

  const TycosStats& stats = (*search)->stats();
  const audit::AuditReport report = audit::Snapshot();
  std::printf("%s", report.ToString().c_str());

  Expect(stats.audit_checks > 0, "stats().audit_checks > 0");
  Expect(stats.audit_failures == 0, "stats().audit_failures == 0");
  Expect(report.checks > 0, "registry saw checks");
  Expect(report.ok(), "registry reports no violations");

  auto ran = [&report](const std::string& name) {
    for (const audit::AuditorStats& a : report.auditors) {
      if (a.name == name && a.checks > 0) return true;
    }
    return false;
  };
  Expect(ran("incremental_vs_batch"), "differential KSG auditor ran");
  Expect(ran("knn_backend_agreement"), "kNN backend agreement auditor ran");
  Expect(ran("thread_pool_prefix_claim"), "thread-pool prefix auditor ran");
  Expect(ran("rng_stream_derivation"), "RNG stream auditor ran");
  // The WindowSet auditor only fires when the search accepts windows; with
  // the coupled middle third it always should.
  Expect(ran("window_set_non_nesting"), "WindowSet non-nesting auditor ran");
}

// Scenario 2: corrupt the incremental estimator's internal state and
// require the differential auditor to flag it.
void RunBrokenEstimatorScenario() {
  std::printf("scenario 2: deliberately broken incremental estimator\n");
  audit::Registry::Instance().ResetAllForTest();

  const SeriesPair pair = CoupledPair(600, 21);
  IncrementalKsg inc(pair, /*k=*/4);
  inc.SetWindow(Window(100, 220, 0));

  // Healthy slides first: the auditor samples some of them and must stay
  // clean.
  for (int64_t s = 101; s <= 180; ++s) {
    inc.SetWindow(Window(s, s + 120, 0));
  }
  audit::Auditor* diff = audit::Get("incremental_vs_batch");
  Expect(diff->checks() > 0, "differential auditor sampled healthy slides");
  Expect(diff->failures() == 0, "healthy estimator audits clean");

  // Break the estimator the way a bookkeeping bug would (a dropped IMR
  // update), then keep sliding; sampled differentials must now fail.
  inc.InjectStateDriftForTest();
  for (int64_t s = 181; s <= 320; ++s) {
    inc.SetWindow(Window(s, s + 120, 0));
  }
  Expect(diff->failures() > 0, "drifted estimator is caught");
  Expect(!diff->first_failure().empty(), "failure context is populated");

  const audit::AuditReport report = audit::Snapshot();
  Expect(!report.ok(), "AuditReport is non-empty and failing");
  std::printf("%s", report.ToString().c_str());

  audit::Registry::Instance().ResetAllForTest();
}

}  // namespace
}  // namespace tycos

int main() {
  if (TYCOS_AUDIT_ENABLED == 0) {
    std::printf(
        "audit_selftest: TYCOS_AUDIT is OFF — auditors are compiled out; "
        "nothing to verify.\nConfigure with `cmake --preset audit` to run "
        "the selftest meaningfully.\n");
    return 0;
  }
  tycos::RunCleanSearchScenario();
  tycos::RunBrokenEstimatorScenario();
  if (tycos::g_errors > 0) {
    std::printf("audit_selftest: %d FAILURES\n", tycos::g_errors);
    return 1;
  }
  std::printf("audit_selftest: all expectations met\n");
  return 0;
}
