#include "src/core/window.hpp"

#include <algorithm>

#include "src/common/error.hpp"
#include "src/common/parallel.hpp"

namespace gsnp::core {

WindowLoader::WindowLoader(RecordSource source, u64 total_sites,
                           u32 window_size)
    : source_(std::move(source)), total_sites_(total_sites),
      window_size_(window_size) {
  GSNP_CHECK(window_size_ > 0);
}

bool WindowLoader::next(WindowRecords& out) {
  if (next_start_ >= total_sites_) return false;
  const u64 start = next_start_;
  const u64 end = std::min(start + window_size_, total_sites_);
  out.start = start;
  out.size = static_cast<u32>(end - start);
  out.records.clear();

  // Records carried over from previous windows that overlap this one.
  // (Every carried record started before a previous window's end, so only
  // the right boundary needs checking.)
  for (const auto& rec : carry_)
    if (rec.pos + rec.length > start) out.records.push_back(rec);

  // Pull records starting inside this window.  `pending_` holds the one
  // look-ahead record that was read past a window boundary.
  while (!source_done_) {
    reads::AlignmentRecord rec;
    if (pending_) {
      if (pending_->pos >= end) break;  // still beyond this window
      rec = std::move(*pending_);
      pending_.reset();
    } else {
      auto r = source_();
      if (!r) {
        source_done_ = true;
        break;
      }
      if (r->pos >= end) {
        pending_ = std::move(r);
        break;
      }
      rec = std::move(*r);
    }
    // Only a record reaching past the window end is needed twice; every
    // other record moves into the window.
    if (rec.pos + rec.length > end) {
      out.records.push_back(rec);
      carry_.push_back(std::move(rec));
    } else if (rec.pos + rec.length > start) {
      out.records.push_back(std::move(rec));
    }
  }

  // Carried records that end within this window are never needed again.
  std::erase_if(carry_, [end](const reads::AlignmentRecord& rec) {
    return rec.pos + rec.length <= end;
  });

  next_start_ = end;
  return true;
}

namespace {

/// Resize a buffer the caller overwrites completely.  Growing past the
/// capacity reallocates to exactly `n` without copying the old contents;
/// otherwise only elements past the old size are value-initialized, not
/// the whole buffer.
template <typename T>
void resize_for_overwrite(std::vector<T>& v, std::size_t n) {
  if (n > v.capacity()) {
    v.clear();
    v.reserve(n);
  }
  v.resize(n);
}

/// Turn the difference array of sites [a, b) into per-site counts in place;
/// returns their sum.
u64 diff_to_counts(u64* v, u32 a, u32 b) {
  u64 run = 0, total = 0;
  for (u32 s = a; s < b; ++s) {
    run += v[s];
    v[s] = run;
    total += run;
  }
  return total;
}

/// Turn the per-site counts of sites [a, b) into CSR offsets in place,
/// starting at `base` (the counts of all sites before a).
void counts_to_offsets(u64* v, u32 a, u32 b, u64 base) {
  for (u32 s = a; s < b; ++s) {
    const u64 count = v[s];
    v[s] = base;
    base += count;
  }
}

/// Used as fill cursors, v[s] has advanced to v[s + 1]; shift [a, b) back.
void restore_offsets(u64* v, u32 a, u32 b, u64 base) {
  std::copy_backward(v + a, v + b - 1, v + b);
  v[a] = base;
}

/// The reads overlapping each count range, as a CSR of record indices in
/// arrival order (a read crossing a range boundary is listed in both).
struct RangeReads {
  std::vector<u32> offsets;  ///< ranges + 1
  std::vector<u32> reads;

  std::span<const u32> range(std::size_t r) const {
    return std::span<const u32>(reads).subspan(offsets[r],
                                               offsets[r + 1] - offsets[r]);
  }
};

RangeReads reads_by_range(const WindowRecords& win, std::size_t ranges) {
  const u64 win_end = win.start + win.size;
  RangeReads rr;
  rr.offsets.assign(ranges + 1, 0);
  const auto for_each_range = [&](const reads::AlignmentRecord& rec,
                                  auto&& fn) {
    const u64 lo = std::max<u64>(rec.pos, win.start);
    const u64 hi = std::min<u64>(rec.pos + rec.length, win_end);
    if (lo >= hi) return;
    const u64 last = (hi - 1 - win.start) / kCountSitesPerRange;
    for (u64 r = (lo - win.start) / kCountSitesPerRange; r <= last; ++r)
      fn(static_cast<std::size_t>(r));
  };
  for (const auto& rec : win.records)
    for_each_range(rec, [&](std::size_t r) { ++rr.offsets[r + 1]; });
  for (std::size_t r = 0; r < ranges; ++r) rr.offsets[r + 1] += rr.offsets[r];
  rr.reads.resize(rr.offsets[ranges]);
  std::vector<u32> cursor(rr.offsets.begin(), rr.offsets.end() - 1);
  for (u32 i = 0; i < win.records.size(); ++i)
    for_each_range(win.records[i],
                   [&](std::size_t r) { rr.reads[cursor[r]++] = i; });
  return rr;
}

}  // namespace

void count_window(const WindowRecords& win, WindowObs& obs_out,
                  std::vector<SiteStats>& stats_out, BaseOccWindow* dense,
                  BaseWordWindow* sparse) {
  const u32 w = win.size;
  const u64 start = win.start;
  // Contiguous site ranges, each counted by one executor chunk from the
  // reads overlapping it, taken in arrival order: a site's observations and
  // base_words come out in the order a serial walk over all reads would
  // produce (the device sort's counters depend on it), and no position
  // order among the reads is assumed.  A call that would run inline counts
  // the whole window as one range and walks every record, without the
  // per-range read lists.
  const std::size_t split_ranges =
      (std::size_t{w} + kCountSitesPerRange - 1) / kCountSitesPerRange;
  const bool split = fans_out(split_ranges, 1);
  const std::size_t ranges =
      split ? split_ranges : std::min<std::size_t>(split_ranges, 1);
  const std::size_t range_sites = split ? kCountSitesPerRange : w;
  const RangeReads rr = split ? reads_by_range(win, ranges) : RangeReads{};
  const auto bounds = [&](std::size_t r) {
    return std::pair<u32, u32>(
        static_cast<u32>(r * range_sites),
        static_cast<u32>(std::min<std::size_t>(w, (r + 1) * range_sites)));
  };
  const auto for_each_read = [&](std::size_t r, auto&& fn) {
    if (!split) {
      for (const reads::AlignmentRecord& rec : win.records) fn(rec);
      return;
    }
    for (const u32 i : rr.range(r)) fn(win.records[i]);
  };

  std::vector<u64>& offsets = obs_out.offsets;
  offsets.resize(static_cast<std::size_t>(w) + 1);
  if (sparse) sparse->offsets.resize(static_cast<std::size_t>(w) + 1);
  u64* const obs_count = offsets.data();
  u64* const word_count = sparse ? sparse->offsets.data() : nullptr;

  // Pass 1, per range: per-site observation counts (all hits, and unique
  // hits for the sparse CSR) from difference arrays over each read's
  // covered span, less its non-ACGT bases, which carry no observation.
  // Unsigned wrap-around cancels: every prefix sum is a true count.  The
  // entry one past the range belongs to the next range and is never
  // written.  The range totals seed the exclusive scan below.
  std::vector<u64> obs_base(ranges + 1, 0), word_base(ranges + 1, 0);
  parallel_for(ranges, 1, [&](std::size_t r0, std::size_t r1, std::size_t) {
    for (std::size_t r = r0; r < r1; ++r) {
      const auto [a, b] = bounds(r);
      const u64 lo_site = start + a, hi_site = start + b;
      std::fill(obs_count + a, obs_count + b, 0);
      if (word_count) std::fill(word_count + a, word_count + b, 0);
      const auto add_span = [&](bool unique, u64 lo, u64 hi, u64 delta) {
        obs_count[lo - start] += delta;
        if (hi < hi_site) obs_count[hi - start] -= delta;
        if (!unique) return;
        word_count[lo - start] += delta;
        if (hi < hi_site) word_count[hi - start] -= delta;
      };
      for_each_read(r, [&](const reads::AlignmentRecord& rec) {
        const bool unique = rec.hit_count == 1 && sparse != nullptr;
        const u64 lo = std::max<u64>(rec.pos, lo_site);
        const u64 hi = std::min<u64>(rec.pos + rec.length, hi_site);
        if (lo >= hi) return;
        add_span(unique, lo, hi, 1);
        const bool forward = rec.strand == Strand::kForward;
        const u64 first = forward ? lo - rec.pos : rec.pos + rec.length - hi;
        const u64 last = forward ? hi - rec.pos : rec.pos + rec.length - lo;
        for (u64 cycle = first; cycle < last; ++cycle) {
          if (base_from_char(rec.seq[cycle]) < kNumBases) continue;
          const u64 p = rec.pos + (forward ? cycle : rec.length - 1 - cycle);
          add_span(unique, p, p + 1, ~u64{0});  // -1: one position less
        }
      });
      obs_base[r + 1] = diff_to_counts(obs_count, a, b);
      if (word_count) word_base[r + 1] = diff_to_counts(word_count, a, b);
    }
  });
  for (std::size_t r = 0; r < ranges; ++r) {
    obs_base[r + 1] += obs_base[r];
    word_base[r + 1] += word_base[r];
  }
  offsets[w] = obs_base[ranges];
  resize_for_overwrite(obs_out.obs, offsets[w]);
  resize_for_overwrite(obs_out.hits, offsets[w]);
  if (sparse) {
    sparse->offsets[w] = word_base[ranges];
    resize_for_overwrite(sparse->words, sparse->offsets[w]);
  }
  resize_for_overwrite(stats_out, w);

  // Pass 2, per range: one walk per read in reference order fills the
  // observations, the statistics and the likelihood structures.  The
  // range's counts become offsets, which then serve as fill cursors and are
  // shifted back afterwards.  Raw pointers, captured by value: the
  // byte-wide stores below may alias any object, so container members would
  // be re-read after every store.
  AlignedBase* const obs = obs_out.obs.data();
  u32* const obs_hits = obs_out.hits.data();
  SiteStats* const stats = stats_out.data();
  u32* const words = sparse ? sparse->words.data() : nullptr;
  parallel_for(ranges, 1, [&](std::size_t r0, std::size_t r1, std::size_t) {
    for (std::size_t r = r0; r < r1; ++r) {
      const auto [a, b] = bounds(r);
      counts_to_offsets(obs_count, a, b, obs_base[r]);
      if (word_count) counts_to_offsets(word_count, a, b, word_base[r]);
      std::fill(stats + a, stats + b, SiteStats{});
      for_each_read(r, [&](const reads::AlignmentRecord& rec) {
        const u32 hits = rec.hit_count;
        reads::for_each_observation(
            rec, start + a, start + b,
            [=](u64 p, const reads::SiteObservation& so) {
              const u32 s = static_cast<u32>(p - start);
              AlignedBase ab;
              ab.base = so.base;
              ab.quality = so.quality;
              ab.coord = so.coord;
              ab.strand = so.strand;
              const u64 k = obs_count[s]++;
              obs[k] = ab;
              obs_hits[k] = hits;
              SiteStats& st = stats[s];
              ++st.count_all[ab.base];
              st.qual_sum_all[ab.base] += ab.quality;
              ++st.depth;
              st.hit_sum += hits;
              if (hits != 1) return;
              ++st.count_uniq[ab.base];
              if (dense) dense->add(s, ab);
              if (words) words[word_count[s]++] = base_word_pack(ab);
            });
      });
      restore_offsets(obs_count, a, b, obs_base[r]);
      if (word_count) restore_offsets(word_count, a, b, word_base[r]);
    }
  });
}

}  // namespace gsnp::core
