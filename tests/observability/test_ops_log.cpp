// The structured ops log (src/core/obs/log.hpp): dpnet.log.v1 JSONL
// with a schema header, severity filtering, per-kind rate limiting that
// degrades by summarizing (a "suppressed" count on the next emitted
// line, never blocking), and detaching the sink as the off switch.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/errors.hpp"
#include "core/json.hpp"
#include "core/obs/log.hpp"

namespace dpnet::core {
namespace {

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

TEST(OpsLog, FileSinkWritesSchemaHeaderAndEntries) {
  const char* path = "test_ops_log_header_tmp.jsonl";
  obs::OpsLog log;
  log.open_file(path);
  log.log(obs::LogLevel::kInfo, "serve.started", "", 0.0, "stdin");
  log.log(obs::LogLevel::kWarn, "serve.shed", "alice", 0.5, "overloaded");
  log.close();
  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(parse_json(lines[0]).at("schema").string, "dpnet.log.v1");
  const JsonValue first = parse_json(lines[1]);
  EXPECT_DOUBLE_EQ(first.at("seq").number, 0.0);
  EXPECT_EQ(first.at("level").string, "info");
  EXPECT_EQ(first.at("kind").string, "serve.started");
  const JsonValue second = parse_json(lines[2]);
  EXPECT_DOUBLE_EQ(second.at("seq").number, 1.0);
  EXPECT_EQ(second.at("label").string, "alice");
  EXPECT_DOUBLE_EQ(second.at("eps").number, 0.5);
  EXPECT_EQ(second.at("detail").string, "overloaded");
  std::remove(path);
}

TEST(OpsLog, MinLevelFiltersBelowThreshold) {
  const char* path = "test_ops_log_level_tmp.jsonl";
  obs::OpsLog log;
  log.open_file(path);
  log.set_min_level(obs::LogLevel::kWarn);
  log.log(obs::LogLevel::kDebug, "serve.admit", "a", 0.0, "");
  log.log(obs::LogLevel::kInfo, "serve.started", "", 0.0, "");
  log.log(obs::LogLevel::kError, "serve.error", "", 0.0, "journal-flush");
  log.close();
  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 2u);  // header + the error line
  EXPECT_EQ(parse_json(lines[1]).at("level").string, "error");
  EXPECT_EQ(log.emitted(), 1u);
  std::remove(path);
}

// Rate limiting is per kind and degrades by summarizing: over-limit
// lines of one kind are dropped and counted, and the next emitted line
// of that kind carries the count.  Other kinds are unaffected.
TEST(OpsLog, RateLimitSuppressesAndSummarizesPerKind) {
  const char* path = "test_ops_log_rate_tmp.jsonl";
  obs::OpsLog log;
  log.open_file(path);
  log.set_min_level(obs::LogLevel::kDebug);
  log.set_rate_limit(2);
  for (int i = 0; i < 5; ++i) {
    log.log(obs::LogLevel::kDebug, "rl.flood", "", 0.0, "");
  }
  log.log(obs::LogLevel::kDebug, "rl.other", "", 0.0, "");
  EXPECT_EQ(log.emitted(), 3u);  // 2 flood + 1 other
  EXPECT_EQ(log.suppressed(), 3u);
  // Raising the limit lets the next flood line through, carrying the
  // summary of what was dropped.
  log.set_rate_limit(0);
  log.log(obs::LogLevel::kDebug, "rl.flood", "", 0.0, "");
  log.close();
  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 5u);  // header + 2 flood + other + final flood
  bool found_summary = false;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const JsonValue rec = parse_json(lines[i]);
    if (const JsonValue* s = rec.find("suppressed"); s != nullptr) {
      EXPECT_EQ(rec.at("kind").string, "rl.flood");
      EXPECT_DOUBLE_EQ(s->number, 3.0);
      found_summary = true;
    }
  }
  EXPECT_TRUE(found_summary);
  std::remove(path);
}

// Rate limit 0 disables limiting entirely.
TEST(OpsLog, ZeroRateLimitIsUnlimited) {
  const char* path = "test_ops_log_unlimited_tmp.jsonl";
  obs::OpsLog log;
  log.open_file(path);
  log.set_min_level(obs::LogLevel::kDebug);
  log.set_rate_limit(0);
  for (int i = 0; i < 600; ++i) {
    log.log(obs::LogLevel::kDebug, "unltd", "", 0.0, "");
  }
  log.close();
  EXPECT_EQ(log.emitted(), 600u);
  EXPECT_EQ(log.suppressed(), 0u);
  std::remove(path);
}

// With no sink attached, lines go nowhere (engine-embedded callers stay
// silent by default).  Detaching the global log's sink is its off
// switch: log_event then writes nothing, and reattaching resumes.
TEST(OpsLog, NoSinkDropsAndKillSwitchSilencesGlobal) {
  obs::OpsLog detached;
  detached.log(obs::LogLevel::kError, "nowhere", "", 0.0, "");
  EXPECT_EQ(detached.emitted(), 0u);

  const char* path = "test_ops_log_kill_tmp.jsonl";
  obs::OpsLog& global = obs::OpsLog::global();
  const std::uint64_t before = global.emitted();
  global.close();
  obs::log_event(obs::LogLevel::kError, "detached", "", 0.0, "");
  EXPECT_EQ(global.emitted(), before);
  global.open_file(path);
  obs::log_event(obs::LogLevel::kError, "attached", "", 0.0, "sink");
  global.close();
  EXPECT_EQ(global.emitted(), before + 1);
  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 2u);  // header + the attached line only
  EXPECT_EQ(parse_json(lines[1]).at("detail").string, "sink");
  std::remove(path);
}

TEST(OpsLog, OpenFileFailureThrowsSanitizedError) {
  obs::OpsLog log;
  EXPECT_THROW(log.open_file("/nonexistent-dir/ops.log"), DpError);
}

}  // namespace
}  // namespace dpnet::core
