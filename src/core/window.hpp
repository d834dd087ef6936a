#pragma once
// Window loading (workflow component read_site) and per-site counting
// (component counting).
//
// The pipeline processes the reference in fixed-size windows of sites.  The
// alignment stream is position-sorted, so the loader pulls records until one
// starts at/after the window end, keeping records that extend into the next
// window in a carry buffer.  Counting then converts a window's records into:
//   * an arrival-order CSR of per-site observations (always; posterior's
//     rank-sum test needs the raw quality lists),
//   * per-site aggregate statistics (best/second base bookkeeping),
//   * and either the dense BaseOccWindow or the sparse BaseWordWindow,
//     depending on the engine.
// Only uniquely aligned reads (hit_count == 1) contribute to the likelihood
// structures; all reads contribute to the statistics, with a unique/total
// split (SOAPsnp's columns 8/9 and 12/13).

#include <array>
#include <cstddef>
#include <filesystem>
#include <functional>
#include <optional>
#include <vector>

#include "src/common/overwrite_vector.hpp"
#include "src/common/types.hpp"
#include "src/compress/container.hpp"
#include "src/compress/temp_input.hpp"
#include "src/core/base_occ.hpp"
#include "src/core/base_word.hpp"
#include "src/reads/alignment.hpp"
#include "src/reads/simulator.hpp"

namespace gsnp::core {

/// Sites one compute-executor chunk covers in the per-site window loops
/// (sort, likelihood, posterior; common/parallel.hpp).
inline constexpr std::size_t kSitesPerChunk = 4096;
/// Sites per count_window range.  Each range walks the reads overlapping
/// it, so a read crossing a range boundary is walked once per range.
inline constexpr std::size_t kCountSitesPerRange = 16384;

/// A window's worth of alignment records (records overlapping the window;
/// boundary records also appear in the neighbouring window's set), in
/// arrival order.  A loaded window's records are views into memory the
/// window owns and reuses from one load to the next: bytes[0] holds the
/// copies of the records carried over or read ahead (each one's read id,
/// bases and qualities), bytes[1 + f] the bases and qualities of the f-th
/// temp frame decoded for this window, and `pulled` the records a record
/// source handed over for it.  Loaded records carry no sequence name (a run
/// reads one sequence).
struct WindowRecords {
  u64 start = 0;
  u32 size = 0;
  OverwriteVector<reads::AlignmentView> records;
  std::vector<std::vector<char>> bytes;
  std::vector<reads::AlignmentRecord> pulled;
};

/// Streams windows out of a position-sorted record source.  A window holds
/// the records carried over from the previous window (those reaching past
/// its end) first, then the new ones in file order.
class WindowLoader {
 public:
  using RecordSource = std::function<std::optional<reads::AlignmentRecord>()>;

  /// Records pulled one at a time from `source` (SOAPsnp's text pass).  A
  /// window keeps the records it pulls: they move into its `pulled`.
  WindowLoader(RecordSource source, u64 total_sites, u32 window_size);
  /// Records of a GSNPTMP2 temp input (compress/temp_input.hpp).  A window
  /// reads, on the calling thread and in file order, the frames up to the
  /// first one that starts at or past its end (FrameReader::next checks
  /// each CRC), and decodes those that start before it with one
  /// compute-executor task per frame, straight into the window's records
  /// and bytes.  The decoded records starting at or past the end are copied
  /// aside for the next windows.
  WindowLoader(const std::filesystem::path& temp_file, u64 total_sites,
               u32 window_size);

  /// Load the next window; returns false after the final window.
  bool next(WindowRecords& out);

 private:
  /// One temp frame read but not yet decoded.
  struct Frame {
    std::vector<u8> payload;
    compress::ChunkHead head;
  };

  /// Move the source's next records that start before `end` into
  /// out.pulled, in file order, and append views of those reaching past
  /// `start` to out.records.
  void load_pulled(u64 start, u64 end, WindowRecords& out);
  /// Append to staged_, in file order, the records read ahead that start
  /// before `end` and reach past `start`; true when none is left.
  bool stage_ahead(u64 start, u64 end);
  /// Decode the frames holding records that start before `end` into `out`.
  void decode_frames(u64 start, u64 end, WindowRecords& out);

  u64 total_sites_;
  u32 window_size_;
  u64 next_start_ = 0;
  std::vector<reads::AlignmentView> staged_;  ///< a window's copied records
  OverwriteVector<reads::AlignmentView> carry_;   ///< views into carry_bytes_
  std::vector<char> carry_bytes_;

  // The record source.
  RecordSource source_;
  std::optional<reads::AlignmentRecord> pending_;  ///< the look-ahead record
  bool source_done_ = false;

  // The temp input.  frames_[0, held_) are read and not yet decoded, in
  // file order; the rest are spare buffers.  ahead_ holds the decoded
  // records not yet loaded, from ahead_next_ on.
  std::optional<compress::FrameReader> reader_;
  std::vector<Frame> frames_;
  std::size_t held_ = 0;
  bool frames_done_ = false;
  std::vector<std::size_t> offsets_;  ///< each decoded frame's first record
  OverwriteVector<reads::AlignmentView> ahead_;  ///< views into ahead_bytes_
  std::vector<char> ahead_bytes_;
  std::size_t ahead_next_ = 0;
};

/// Arrival-order per-site observations for one window (CSR), written whole
/// by count_window.
struct WindowObs {
  OverwriteVector<u64> offsets;      ///< window size + 1
  OverwriteVector<AlignedBase> obs;  ///< concatenated, arrival order
  OverwriteVector<u32> hits;         ///< parallel hit_count per observation

  u32 window_size() const { return static_cast<u32>(offsets.size() - 1); }
  std::span<const AlignedBase> site(u32 s) const {
    return std::span<const AlignedBase>(obs).subspan(
        offsets[s], offsets[s + 1] - offsets[s]);
  }
  std::span<const u32> site_hits(u32 s) const {
    return std::span<const u32>(hits).subspan(offsets[s],
                                              offsets[s + 1] - offsets[s]);
  }
};

/// Per-site aggregate statistics over ALL aligned reads.
struct SiteStats {
  std::array<u32, kNumBases> count_uniq = {0, 0, 0, 0};
  std::array<u32, kNumBases> count_all = {0, 0, 0, 0};
  std::array<u32, kNumBases> qual_sum_all = {0, 0, 0, 0};
  u32 depth = 0;    ///< total aligned bases (all hits)
  u32 hit_sum = 0;  ///< sum of hit_count values (for average copy number)
};

/// Counting pass: records -> arrival-order observations + stats.  The dense
/// and sparse structures are filled only if non-null (unique hits only).
/// Ranges of kCountSitesPerRange sites are counted on the compute executor;
/// the result is the same as one walk over all records in arrival order.
void count_window(const WindowRecords& win, WindowObs& obs_out,
                  std::vector<SiteStats>& stats_out, BaseOccWindow* dense,
                  BaseWordWindow* sparse);

}  // namespace gsnp::core
