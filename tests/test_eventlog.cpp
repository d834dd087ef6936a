// Tests for src/obs/eventlog: encode/parse round-trips, durable appends with
// monotone seq/ts stamps, torn-tail tolerance on read and separator repair
// on reopen, and FsFault-injected append failures surfacing as typed
// FsFaultError without corrupting the surviving prefix (FORMATS.md §14).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/fs_fault.hpp"
#include "src/obs/eventlog.hpp"
#include "tests/temp_path.hpp"

namespace gsnp::obs {
namespace {

namespace fs = std::filesystem;

class EventLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test_temp_path("gsnp_eventlog_test");
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    log_path_ = dir_ / "events.jsonl";
  }
  void TearDown() override {
    fsfault::disarm();  // never leak a plan into the next test
    fs::remove_all(dir_);
  }

  static JobEvent sample(const std::string& event, const std::string& job) {
    JobEvent ev;
    ev.event = event;
    ev.job_id = job;
    ev.tenant = "acme";
    ev.backend = "gsnp";
    return ev;
  }

  static std::string read_raw(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }

  fs::path dir_;
  fs::path log_path_;
};

// ---- encoding --------------------------------------------------------------

TEST_F(EventLogTest, EncodeParseRoundTripsEveryField) {
  JobEvent ev;
  ev.seq = 7;
  ev.ts_ns = 123456789;
  ev.event = "chromosome_done";
  ev.job_id = "job-1";
  ev.tenant = "t\"quoted\"";  // escaping must survive the trip
  ev.backend = "gsnp_cpu";
  ev.reason = "queue_full";
  ev.chromosome = "chr2";
  ev.degraded = true;
  ev.wall_seconds = 0.25;
  ev.modeled_seconds = 0.125;
  ev.error = "line1\nline2";

  const JobEvent back = parse_job_event(encode_job_event(ev));
  EXPECT_EQ(back.seq, ev.seq);
  EXPECT_EQ(back.ts_ns, ev.ts_ns);
  EXPECT_EQ(back.event, ev.event);
  EXPECT_EQ(back.job_id, ev.job_id);
  EXPECT_EQ(back.tenant, ev.tenant);
  EXPECT_EQ(back.backend, ev.backend);
  EXPECT_EQ(back.reason, ev.reason);
  EXPECT_EQ(back.chromosome, ev.chromosome);
  EXPECT_EQ(back.degraded, ev.degraded);
  EXPECT_EQ(back.wall_seconds, ev.wall_seconds);
  EXPECT_EQ(back.modeled_seconds, ev.modeled_seconds);
  EXPECT_EQ(back.error, ev.error);
}

TEST_F(EventLogTest, EncodedLineOmitsEmptyOptionalsAndHasNoNewline) {
  JobEvent ev;
  ev.seq = 1;
  ev.event = "submitted";
  ev.job_id = "j";
  const std::string line = encode_job_event(ev);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_EQ(line.find("tenant"), std::string::npos);
  EXPECT_EQ(line.find("degraded"), std::string::npos);
  EXPECT_EQ(line.find("wall_seconds"), std::string::npos);
}

// ---- append & read-back ----------------------------------------------------

TEST_F(EventLogTest, AppendReadBackPreservesOrderAndStampsMonotonically) {
  {
    EventLog log(log_path_);
    for (int i = 0; i < 5; ++i)
      log.append(sample("started", "job-" + std::to_string(i)));
    EXPECT_EQ(log.appended(), 5u);
  }
  const std::vector<JobEvent> events = read_event_log(log_path_);
  ASSERT_EQ(events.size(), 5u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i + 1);
    EXPECT_EQ(events[i].job_id, "job-" + std::to_string(i));
    if (i > 0) EXPECT_GE(events[i].ts_ns, events[i - 1].ts_ns);
  }
}

TEST_F(EventLogTest, MissingFileReadsAsEmpty) {
  EXPECT_TRUE(read_event_log(dir_ / "nope.jsonl").empty());
}

TEST_F(EventLogTest, ReopeningAppendsAfterTheExistingRecords) {
  { EventLog(log_path_).append(sample("submitted", "a")); }
  { EventLog(log_path_).append(sample("published", "a")); }
  const std::vector<JobEvent> events = read_event_log(log_path_);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].event, "submitted");
  EXPECT_EQ(events[1].event, "published");
}

// ---- torn tails ------------------------------------------------------------

TEST_F(EventLogTest, ReaderSkipsATornFinalLine) {
  {
    EventLog log(log_path_);
    log.append(sample("submitted", "a"));
    log.append(sample("published", "a"));
  }
  // Crash mid-append: chop the file inside the last record.
  std::string raw = read_raw(log_path_);
  raw.resize(raw.size() - 10);
  std::ofstream(log_path_, std::ios::binary | std::ios::trunc) << raw;

  const std::vector<JobEvent> events = read_event_log(log_path_);
  ASSERT_EQ(events.size(), 1u);  // the torn "published" is skipped, not fatal
  EXPECT_EQ(events[0].event, "submitted");
}

TEST_F(EventLogTest, ReopenAfterTornTailStartsANewCleanLine) {
  { EventLog(log_path_).append(sample("submitted", "a")); }
  std::string raw = read_raw(log_path_);
  raw.resize(raw.size() - 5);  // tear: no trailing newline
  std::ofstream(log_path_, std::ios::binary | std::ios::trunc) << raw;

  { EventLog(log_path_).append(sample("recovered", "a")); }
  const std::vector<JobEvent> events = read_event_log(log_path_);
  ASSERT_EQ(events.size(), 1u);  // torn fragment stays skipped...
  EXPECT_EQ(events[0].event, "recovered");  // ...new record parses clean
}

// ---- storage fault injection ----------------------------------------------

TEST_F(EventLogTest, InjectedWriteFailureThrowsTypedAndKeepsThePrefix) {
  EventLog log(log_path_);
  log.append(sample("submitted", "a"));

  FsFaultPlan plan;
  plan.kind = FsFaultKind::kEnospc;
  plan.path_filter = "events";
  fsfault::arm(plan);
  EXPECT_THROW(log.append(sample("published", "a")), FsFaultError);
  EXPECT_GE(fsfault::injected(), 1u);
  fsfault::disarm();

  // The surviving prefix still reads, and the log keeps accepting appends.
  log.append(sample("published", "a"));
  const std::vector<JobEvent> events = read_event_log(log_path_);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].event, "submitted");
  EXPECT_EQ(events[1].event, "published");
  EXPECT_EQ(log.appended(), 2u);  // the failed append never counted
}

TEST_F(EventLogTest, ShortWriteTearIsSkippedOnRead) {
  EventLog log(log_path_);
  log.append(sample("submitted", "a"));

  FsFaultPlan plan;
  plan.kind = FsFaultKind::kShortWrite;
  plan.path_filter = "events";
  plan.seed = 42;
  fsfault::arm(plan);
  EXPECT_THROW(log.append(sample("started", "a")), FsFaultError);
  fsfault::disarm();

  const std::vector<JobEvent> events = read_event_log(log_path_);
  ASSERT_EQ(events.size(), 1u);  // the torn fragment does not parse
  EXPECT_EQ(events[0].event, "submitted");
}

}  // namespace
}  // namespace gsnp::obs
