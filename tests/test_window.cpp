// Tests for window loading (read_site) and the counting component.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <optional>
#include <string>

#include "src/common/parallel.hpp"
#include "src/compress/temp_input.hpp"
#include "src/core/window.hpp"
#include "src/genome/synthetic.hpp"
#include "src/reads/simulator.hpp"
#include "tests/temp_path.hpp"

namespace gsnp::core {
namespace {

reads::AlignmentRecord make_record(u64 pos, u16 length, const char* id = "r",
                                   u32 hits = 1,
                                   Strand strand = Strand::kForward) {
  reads::AlignmentRecord rec;
  rec.read_id = id;
  rec.pos = pos;
  rec.length = length;
  rec.hit_count = hits;
  rec.strand = strand;
  rec.chr_name = "c";
  rec.seq.assign(length, 'A');
  rec.qual.assign(length, 'I');  // q40
  return rec;
}

WindowLoader::RecordSource vector_source(
    std::vector<reads::AlignmentRecord> recs) {
  auto state = std::make_shared<std::pair<std::vector<reads::AlignmentRecord>,
                                          std::size_t>>(std::move(recs), 0);
  return [state]() -> std::optional<reads::AlignmentRecord> {
    if (state->second >= state->first.size()) return std::nullopt;
    return state->first[state->second++];
  };
}

// ---- WindowLoader -------------------------------------------------------------

TEST(WindowLoaderTest, SplitsSitesIntoWindows) {
  WindowLoader loader(vector_source({}), 25, 10);
  WindowRecords win;
  ASSERT_TRUE(loader.next(win));
  EXPECT_EQ(win.start, 0u);
  EXPECT_EQ(win.size, 10u);
  ASSERT_TRUE(loader.next(win));
  EXPECT_EQ(win.start, 10u);
  ASSERT_TRUE(loader.next(win));
  EXPECT_EQ(win.start, 20u);
  EXPECT_EQ(win.size, 5u);  // final partial window
  EXPECT_FALSE(loader.next(win));
}

TEST(WindowLoaderTest, BoundaryRecordAppearsInBothWindows) {
  // A record covering [8, 12) overlaps windows [0,10) and [10,20).
  WindowLoader loader(vector_source({make_record(8, 4)}), 20, 10);
  WindowRecords win;
  ASSERT_TRUE(loader.next(win));
  EXPECT_EQ(win.records.size(), 1u);
  ASSERT_TRUE(loader.next(win));
  EXPECT_EQ(win.records.size(), 1u);
  EXPECT_EQ(win.records[0].pos, 8u);
}

TEST(WindowLoaderTest, RecordSpanningManyWindows) {
  WindowLoader loader(vector_source({make_record(0, 35)}), 40, 10);
  WindowRecords win;
  for (int w = 0; w < 4; ++w) {
    ASSERT_TRUE(loader.next(win));
    EXPECT_EQ(win.records.size(), w < 4 ? 1u : 0u) << "window " << w;
  }
}

TEST(WindowLoaderTest, LookaheadRecordNotLost) {
  // Reading window [0,10) encounters a record at pos 25; it must surface in
  // window [20,30), not be dropped, and windows in between must be empty.
  WindowLoader loader(vector_source({make_record(2, 3), make_record(25, 3)}),
                      30, 10);
  WindowRecords win;
  ASSERT_TRUE(loader.next(win));
  EXPECT_EQ(win.records.size(), 1u);
  ASSERT_TRUE(loader.next(win));
  EXPECT_TRUE(win.records.empty());
  ASSERT_TRUE(loader.next(win));
  ASSERT_EQ(win.records.size(), 1u);
  EXPECT_EQ(win.records[0].pos, 25u);
}

TEST(WindowLoaderTest, AgreesWithBruteForceOnSimulatedData) {
  genome::GenomeSpec gspec;
  gspec.length = 5000;
  const genome::Reference ref = genome::generate_reference(gspec);
  const genome::Diploid ind(ref, {});
  reads::ReadSimSpec rspec;
  rspec.depth = 6.0;
  rspec.read_len = 50;
  const auto records = reads::simulate_reads(ind, rspec);

  WindowLoader loader(vector_source(records), ref.size(), 777);
  WindowRecords win;
  while (loader.next(win)) {
    // Brute force: which records overlap this window?
    std::vector<const reads::AlignmentRecord*> expected;
    for (const auto& rec : records)
      if (rec.pos < win.start + win.size && rec.pos + rec.length > win.start)
        expected.push_back(&rec);
    ASSERT_EQ(win.records.size(), expected.size()) << "window " << win.start;
    for (std::size_t i = 0; i < expected.size(); ++i)
      EXPECT_EQ(win.records[i].read_id, expected[i]->read_id);
  }
}

// ---- the temp-file source ------------------------------------------------------

/// Loads every window of `records` twice, from a RecordSource and from a
/// temp input written with TempInputWriter in `chunk_records`-record
/// frames, and expects the same windows holding the same records in the
/// same order, fanned out and inline.
void expect_temp_source_matches(const std::vector<reads::AlignmentRecord>& records,
                                u64 total_sites, u32 window_size,
                                u32 chunk_records = compress::kTempChunkRecords) {
  const std::filesystem::path path =
      test_temp_path("gsnp_window_source.tmp");
  compress::TempInputWriter writer(path, "c", chunk_records);
  for (const reads::AlignmentRecord& rec : records) writer.add(rec);
  writer.finish();
  for (const bool inline_run : {false, true}) {
    SCOPED_TRACE(inline_run ? "inline" : "fanned out");
    std::optional<InlineComputeScope> one_thread;
    if (inline_run) one_thread.emplace();
    WindowLoader expected_loader(vector_source(records), total_sites,
                                 window_size);
    WindowLoader temp_loader(path, total_sites, window_size);
    WindowRecords expected, got;
    u64 windows = 0;
    for (;;) {
      const bool more = expected_loader.next(expected);
      ASSERT_EQ(temp_loader.next(got), more) << "window " << windows;
      if (!more) break;
      ++windows;
      ASSERT_EQ(got.start, expected.start);
      ASSERT_EQ(got.size, expected.size);
      ASSERT_EQ(got.records.size(), expected.records.size())
          << "window " << got.start;
      for (std::size_t i = 0; i < got.records.size(); ++i) {
        const reads::AlignmentView& a = got.records[i];
        const reads::AlignmentView& b = expected.records[i];
        ASSERT_EQ(a.pos, b.pos) << "window " << got.start << " record " << i;
        EXPECT_EQ(a.length, b.length);
        EXPECT_EQ(a.strand, b.strand);
        EXPECT_EQ(a.hit_count, b.hit_count);
        EXPECT_EQ(a.pair_tag, b.pair_tag);
        EXPECT_EQ(a.seq, b.seq);
        EXPECT_EQ(a.qual, b.qual);
      }
    }
    EXPECT_EQ(windows, (total_sites + window_size - 1) / window_size);
  }
  std::filesystem::remove(path);
}

std::vector<reads::AlignmentRecord> simulated_records(u64 sites, double depth,
                                                      u32 read_len) {
  genome::GenomeSpec gspec;
  gspec.length = sites;
  const genome::Reference ref = genome::generate_reference(gspec);
  const genome::Diploid ind(ref, {});
  reads::ReadSimSpec rspec;
  rspec.depth = depth;
  rspec.read_len = read_len;
  return reads::simulate_reads(ind, rspec);
}

TEST(TempWindowSource, WindowsSmallerThanAFrame) {
  // ~6,000 records in two frames; each 777-site window holds ~75 and the
  // last one is partial.
  const auto records = simulated_records(60'000, 10.0, 100);
  ASSERT_GT(records.size(), compress::kTempChunkRecords);
  expect_temp_source_matches(records, 60'000, 777);
}

TEST(TempWindowSource, WindowsSpanningSeveralFrames) {
  // ~20,000 records in five frames; a 100K-site window spans three.
  const auto records = simulated_records(200'000, 10.0, 100);
  expect_temp_source_matches(records, 200'000, 100'000);
  // Frames of 100 records: every 7,777-site window spans several.
  expect_temp_source_matches(records, 200'000, 7'777, 100);
}

TEST(TempWindowSource, RecordSpanningSeveralWindows) {
  // 50-base reads over 30-site windows, and one 35-base read over four
  // 10-site windows.
  const auto records = simulated_records(5'000, 6.0, 50);
  expect_temp_source_matches(records, 5'000, 30, 64);
  expect_temp_source_matches({make_record(0, 35)}, 40, 10);
}

TEST(TempWindowSource, EmptyAndPartialWindows) {
  // Window [10,20) holds no record, [20,25) is partial; the records differ
  // in strand, hit count, pair tag and 'N' bases.
  auto a = make_record(2, 3, "a", 3, Strand::kReverse);
  a.seq = "ANC";
  a.qual = "+5I";
  auto b = make_record(21, 3, "b");
  b.pair_tag = 'b';
  expect_temp_source_matches({a, b}, 25, 10);
  expect_temp_source_matches({a, b}, 25, 10, 1);
}

TEST(TempWindowSource, EmptyTempFile) {
  expect_temp_source_matches({}, 25, 10);
}

// ---- count_window -----------------------------------------------------------------

TEST(CountWindow, StatsExactOnConstructedCase) {
  WindowRecords win;
  win.start = 0;
  win.size = 10;
  auto r1 = make_record(0, 5, "r1", 1);   // A x5, unique
  auto r2 = make_record(2, 5, "r2", 3);   // A x5, multi-hit
  r2.seq = "CCCCC";
  win.records = {reads::view_of(r1), reads::view_of(r2)};

  WindowObs obs;
  std::vector<SiteStats> stats;
  BaseWordWindow sparse(win.size);
  BaseOccWindow dense(win.size);
  count_window(win, obs, stats, &dense, &sparse);

  // Site 3: covered by both reads.
  EXPECT_EQ(stats[3].depth, 2u);
  EXPECT_EQ(stats[3].count_uniq[0], 1u);   // A from r1 only (unique)
  EXPECT_EQ(stats[3].count_all[0], 1u);
  EXPECT_EQ(stats[3].count_all[1], 1u);    // C from r2
  EXPECT_EQ(stats[3].count_uniq[1], 0u);   // r2 is multi-hit
  EXPECT_EQ(stats[3].hit_sum, 4u);         // 1 + 3

  // Sparse/dense likelihood structures hold unique hits only.
  EXPECT_EQ(sparse.size_of(3), 1u);
  EXPECT_EQ(sparse.size_of(0), 1u);
  EXPECT_EQ(sparse.size_of(8), 0u);
  const AlignedBase ab = base_word_unpack(sparse.site(3)[0]);
  EXPECT_EQ(ab.base, 0);
  EXPECT_EQ(ab.coord, 3);

  u64 dense_total = 0;
  for (const u8 v : dense.site(3)) dense_total += v;
  EXPECT_EQ(dense_total, 1u);
}

TEST(CountWindow, ArrivalOrderPreservedPerSite) {
  WindowRecords win;
  win.start = 0;
  win.size = 5;
  auto r1 = make_record(0, 3, "r1");
  r1.seq = "GGG";
  auto r2 = make_record(0, 3, "r2");
  r2.seq = "TTT";
  win.records = {reads::view_of(r1), reads::view_of(r2)};

  WindowObs obs;
  std::vector<SiteStats> stats;
  count_window(win, obs, stats, nullptr, nullptr);
  const auto site0 = obs.site(0);
  ASSERT_EQ(site0.size(), 2u);
  EXPECT_EQ(site0[0].base, base_from_char('G'));  // r1 arrived first
  EXPECT_EQ(site0[1].base, base_from_char('T'));
}

TEST(CountWindow, ClampsRecordsToWindowBounds) {
  WindowRecords win;
  win.start = 10;
  win.size = 5;
  const auto rec = make_record(8, 10);  // covers [8,18), window is [10,15)
  win.records = {reads::view_of(rec)};

  WindowObs obs;
  std::vector<SiteStats> stats;
  count_window(win, obs, stats, nullptr, nullptr);
  for (u32 s = 0; s < 5; ++s) EXPECT_EQ(stats[s].depth, 1u);
  EXPECT_EQ(obs.obs.size(), 5u);
  // Coordinate at window start is offset 2 of the read.
  EXPECT_EQ(obs.site(0)[0].coord, 2);
}

TEST(CountWindow, EmptyWindow) {
  WindowRecords win;
  win.start = 0;
  win.size = 8;
  WindowObs obs;
  std::vector<SiteStats> stats;
  BaseWordWindow sparse(8);
  count_window(win, obs, stats, nullptr, &sparse);
  EXPECT_EQ(obs.obs.size(), 0u);
  for (const auto& st : stats) EXPECT_EQ(st.depth, 0u);
  EXPECT_TRUE(sparse.words.empty());
}

TEST(CountWindow, QualitySumsAccumulate) {
  WindowRecords win;
  win.start = 0;
  win.size = 2;
  auto r1 = make_record(0, 2, "r1");
  r1.qual = "+5";  // q10, q20
  win.records = {reads::view_of(r1)};
  WindowObs obs;
  std::vector<SiteStats> stats;
  count_window(win, obs, stats, nullptr, nullptr);
  EXPECT_EQ(stats[0].qual_sum_all[0], 10u);
  EXPECT_EQ(stats[1].qual_sum_all[0], 20u);
}

}  // namespace
}  // namespace gsnp::core
