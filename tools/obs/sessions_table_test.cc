// PickSessionColumns against a real SessionManager::SessionsText() body:
// every column tasfar_top displays must hold the session's own value.

#include "sessions_table.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "serve/demo.h"
#include "serve/session_manager.h"

namespace tasfar {
namespace {

std::string Format(const char* format, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

TEST(SessionsTableTest, PicksEachDisplayedColumnByName) {
  const bool metrics_were_on = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);  // The predict latencies are recorded.
  const serve::DemoBundle bundle =
      serve::BuildDemoBundle(/*source_samples=*/200, /*target_samples=*/50,
                             /*epochs=*/2);
  serve::SessionManager manager(bundle.model.get(), &bundle.calibration,
                                bundle.options, serve::ManagerConfig{});
  manager.RegisterBackendCalibration(UncertaintyBackend::kDeepEnsemble,
                                     &bundle.ensemble_calibration);
  serve::SessionConfig config;
  config.input_dim = bundle.target_rows.dim(1);
  config.backend = UncertaintyBackend::kDeepEnsemble;
  ASSERT_TRUE(manager.Create("alice", config).ok());
  std::shared_ptr<serve::Session> session = manager.Find("alice");
  ASSERT_NE(session, nullptr);
  const Tensor& rows = bundle.target_rows;
  ASSERT_TRUE(session->SubmitRows(7, rows.dim(1), rows.data()).ok());
  ASSERT_TRUE(session->Predict(rows).ok());

  const std::vector<std::string> names = {
      "user", "state", "backend", "rows", "budget_pct", "adapt_runs",
      "last_adapt", "predict_p50_ms", "predict_p99_ms", "degraded_reason"};
  std::vector<std::vector<std::string>> table;
  ASSERT_TRUE(PickSessionColumns(manager.SessionsText(), names, &table));
  ASSERT_EQ(table.size(), 1u);
  const std::vector<std::string>& cells = table[0];
  ASSERT_EQ(cells.size(), names.size());

  const serve::SessionInfo info = session->Info();
  const serve::TelemetrySnapshot telemetry = session->Telemetry();
  EXPECT_EQ(cells[0], "alice");
  EXPECT_EQ(cells[1], serve::SessionStateName(info.state));
  EXPECT_EQ(cells[2], "ensemble");
  EXPECT_EQ(cells[3], "7");
  EXPECT_EQ(cells[4],
            Format("%.1f", 100.0 * static_cast<double>(info.used_bytes) /
                               static_cast<double>(info.budget_bytes)));
  EXPECT_EQ(cells[5], "0");
  EXPECT_EQ(cells[6], "none");
  EXPECT_EQ(cells[7], Format("%.3f", telemetry.predict_p50_ms));
  EXPECT_EQ(cells[8], Format("%.3f", telemetry.predict_p99_ms));
  EXPECT_EQ(cells[9], "-");
  obs::SetMetricsEnabled(metrics_were_on);
}

TEST(SessionsTableTest, MissingColumnFailsTheParse) {
  std::vector<std::vector<std::string>> table;
  EXPECT_FALSE(PickSessionColumns("user state degraded_reason\na b -\n",
                                  {"user", "backend"}, &table));
  EXPECT_FALSE(PickSessionColumns("", {"user"}, &table));
  // A row short of the header's columns.
  EXPECT_FALSE(PickSessionColumns("user state degraded_reason\na\n",
                                  {"user"}, &table));
}

TEST(SessionsTableTest, ReasonKeepsItsSpaces) {
  std::vector<std::vector<std::string>> table;
  ASSERT_TRUE(PickSessionColumns(
      "user state degraded_reason\nbob degraded adapt diverged twice\n",
      {"degraded_reason", "user"}, &table));
  ASSERT_EQ(table.size(), 1u);
  EXPECT_EQ(table[0][0], "adapt diverged twice");
  EXPECT_EQ(table[0][1], "bob");
}

}  // namespace
}  // namespace tasfar
