// Acceptance suite over the checked-in scenario files: the smoke and
// fault-storm scenarios must meet their SLOs end to end, the warm-restart
// scenario must prove persistence across a service rebuild, and the
// flagship Zipf scenario must replay bit-identically under its fixed
// seed. `ctest -R scenario` is the CI gate; these tests ARE the contract
// the scenarios/ directory ships with.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "scenario/generator.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"

namespace gpawfd::scenario {
namespace {

std::string scenario_path(const std::string& file) {
  return std::string(GPAWFD_SCENARIO_DIR) + "/" + file;
}

ScenarioReport run_file(const std::string& file) {
  const Scenario s = load_scenario(scenario_path(file));
  return Runner(s).run();
}

TEST(scenario_acceptance, SmokeMeetsItsSlos) {
  const ScenarioReport report = run_file("smoke.json");
  EXPECT_TRUE(report.passed) << report.assertion_summary();
  EXPECT_EQ(report.overall.ok, 64);
  EXPECT_EQ(report.overall.failed, 0);
}

TEST(scenario_acceptance, FaultStormAbsorbedByRetries) {
  const ScenarioReport report = run_file("fault_storm.json");
  EXPECT_TRUE(report.passed) << report.assertion_summary();
  // The storm finishes with zero give-ups and a nonzero retry count:
  // the injected failures were absorbed, not dropped.
  EXPECT_EQ(report.service_counters.at("svc.gave_up"), 0);
  EXPECT_GE(report.service_counters.at("svc.retries"), 1);
  EXPECT_EQ(report.overall.ok, 48);
}

TEST(scenario_acceptance, WarmRestartServesFromTheStore) {
  const ScenarioReport report = run_file("warm_restart.json");
  EXPECT_TRUE(report.passed) << report.assertion_summary();
  // The restarted service warm-loaded the store and re-executed nothing.
  ASSERT_EQ(report.phases.size(), 2u);
  EXPECT_EQ(report.phases[1].service_delta.at("svc.executed"), 0);
  EXPECT_GE(report.service_counters.at("svc.warm_loaded"), 1);
}

TEST(scenario_acceptance, NodeKillLosesZeroJobs) {
  const ScenarioReport report = run_file("node_kill.json");
  EXPECT_TRUE(report.passed) << report.assertion_summary();
  // A backend died mid-phase: the router noticed, failed the in-flight
  // jobs over to replicas, and the client-visible ledger still balances
  // to the last request.
  EXPECT_EQ(report.overall.issued, report.overall.ok);
  EXPECT_GE(report.service_counters.at("cluster.retried"), 1);
  EXPECT_GE(report.service_counters.at("cluster.marked_down"), 1);
  EXPECT_EQ(report.service_counters.at("cluster.gave_up"), 0);
}

TEST(scenario_acceptance, FlagshipPlanReplaysBitIdentically) {
  const Scenario s = load_scenario(scenario_path("zipf_flagship.json"));
  Generator first(s), second(s);
  // Two independent generators over the same JSON + seed: identical job
  // sequence, priorities, arrival times, fault points, fingerprint.
  EXPECT_EQ(first.plan(), second.plan());
  EXPECT_EQ(first.fault_points(), second.fault_points());
  EXPECT_EQ(first.fingerprint(), second.fingerprint());
  // And the catalog is the documented 64-key Zipf universe.
  EXPECT_EQ(first.catalog().size(), 64u);
  EXPECT_EQ(s.mix.kind, KeyMixParams::Kind::kZipf);
}

TEST(scenario_acceptance, SloGradingSurfacesObservedValueAndMargin) {
  const ScenarioReport report = run_file("smoke.json");
  ASSERT_FALSE(report.assertions.empty());
  for (const AssertionResult& a : report.assertions) {
    // Every graded assertion carries the measured value and its signed
    // headroom; a passing assertion never has negative margin.
    EXPECT_TRUE(a.detail.empty()) << a.slo.metric << ": " << a.detail;
    if (a.passed) {
      EXPECT_GE(a.margin, 0.0) << a.slo.metric;
    }
    // margin semantics: headroom to the bound, per the operator.
    switch (a.slo.op) {
      case SloParams::Op::kLe:
      case SloParams::Op::kLt:
        EXPECT_DOUBLE_EQ(a.margin, a.slo.value - a.observed);
        break;
      case SloParams::Op::kGe:
      case SloParams::Op::kGt:
        EXPECT_DOUBLE_EQ(a.margin, a.observed - a.slo.value);
        break;
      default:
        break;  // kEq/kNe: |distance| with sign by op, covered below
    }
  }
  // The hit-ratio SLO (>= 0.3) passes with real headroom on this
  // workload; its margin must be the distance above the bound.
  bool saw_hit_ratio = false;
  for (const AssertionResult& a : report.assertions) {
    if (a.slo.metric != "hit_ratio") continue;
    saw_hit_ratio = true;
    EXPECT_GT(a.margin, 0.0);
    EXPECT_DOUBLE_EQ(a.margin, a.observed - a.slo.value);
  }
  EXPECT_TRUE(saw_hit_ratio);

  // The machine-readable report carries both new fields per assertion.
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"margin\":"), std::string::npos);
  EXPECT_NE(json.find("\"observed\":"), std::string::npos);
  // And the human summary prints the margin next to each verdict.
  EXPECT_NE(report.assertion_summary().find("margin"), std::string::npos);
}

TEST(scenario_acceptance, EveryCheckedInScenarioParses) {
  for (const char* file : {"smoke.json", "fault_storm.json",
                           "warm_restart.json", "zipf_flagship.json",
                           "node_kill.json", "long_soak.json"}) {
    const Scenario s = load_scenario(scenario_path(file));
    EXPECT_FALSE(s.name.empty()) << file;
    EXPECT_FALSE(s.phases.empty()) << file;
    EXPECT_FALSE(s.slos.empty()) << file;
    // The generator accepts it too (catalog non-empty, plan well formed).
    EXPECT_FALSE(Generator(s).plan().empty()) << file;
  }
}

}  // namespace
}  // namespace gpawfd::scenario
