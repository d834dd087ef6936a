#include "src/core/window.hpp"

#include <algorithm>

#include "src/common/error.hpp"

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

/// Turn a difference array of per-site counts (diff[0..w), diff[w] ignored)
/// into CSR offsets in place: offsets[s] = sum of the counts of sites < s.
void diff_to_offsets(std::vector<u64>& diff, u32 w) {
  u64 count = 0, offset = 0;
  for (u32 s = 0; s < w; ++s) {
    count += diff[s];
    diff[s] = offset;
    offset += count;
  }
  diff[w] = offset;
}

/// Used as fill cursors, offsets[s] has advanced to offsets[s + 1]; shift
/// them back.
void restore_offsets(std::vector<u64>& offsets, u32 w) {
  std::copy_backward(offsets.begin(), offsets.begin() + w,
                     offsets.begin() + w + 1);
  offsets[0] = 0;
}

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

}  // namespace

void count_window(const WindowRecords& win, WindowObs& obs_out,
                  std::vector<SiteStats>& stats_out, BaseOccWindow* dense,
                  BaseWordWindow* sparse) {
  const u32 w = win.size;
  const u64 win_end = win.start + w;
  std::vector<u64>& offsets = obs_out.offsets;
  offsets.assign(static_cast<std::size_t>(w) + 1, 0);
  if (sparse) sparse->offsets.assign(static_cast<std::size_t>(w) + 1, 0);

  // Pass 1: per-site observation counts as difference arrays over each
  // read's covered span (all hits, and unique hits for the sparse CSR),
  // less its non-ACGT bases, which carry no observation.  Unsigned
  // wrap-around cancels: every prefix sum is a true count.
  const auto add_span = [&](const reads::AlignmentRecord& rec, u64 lo, u64 hi,
                            u64 delta) {
    const bool unique = rec.hit_count == 1 && sparse != nullptr;
    offsets[lo - win.start] += delta;
    offsets[hi - win.start] -= delta;
    if (unique) {
      sparse->offsets[lo - win.start] += delta;
      sparse->offsets[hi - win.start] -= delta;
    }
  };
  for (const auto& rec : win.records) {
    const u64 lo = std::max<u64>(rec.pos, win.start);
    const u64 hi = std::min<u64>(rec.pos + rec.length, win_end);
    if (lo >= hi) continue;
    add_span(rec, lo, hi, 1);
    const bool forward = rec.strand == Strand::kForward;
    const u64 first = forward ? lo - rec.pos : rec.pos + rec.length - hi;
    const u64 last = forward ? hi - rec.pos : rec.pos + rec.length - lo;
    for (u64 cycle = first; cycle < last; ++cycle) {
      if (base_from_char(rec.seq[cycle]) < kNumBases) continue;
      const u64 p = rec.pos + (forward ? cycle : rec.length - 1 - cycle);
      add_span(rec, p, p + 1, ~u64{0});  // -1: one position less
    }
  }
  diff_to_offsets(offsets, w);
  resize_for_overwrite(obs_out.obs, offsets[w]);
  resize_for_overwrite(obs_out.hits, offsets[w]);
  if (sparse) {
    diff_to_offsets(sparse->offsets, w);
    resize_for_overwrite(sparse->words, sparse->offsets[w]);
  }

  // Pass 2: one walk per read in reference order fills the observations,
  // the statistics and the likelihood structures.  Reads arrive in record
  // order, so each site's observations and base_words keep arrival order.
  // The offsets serve as fill cursors.  Raw pointers, captured by value: the
  // byte-wide stores below may alias any object, so container members would
  // be re-read after every store.
  stats_out.assign(w, SiteStats{});
  AlignedBase* const obs = obs_out.obs.data();
  u32* const obs_hits = obs_out.hits.data();
  u64* const obs_cursor = offsets.data();
  SiteStats* const stats = stats_out.data();
  u32* const words = sparse ? sparse->words.data() : nullptr;
  u64* const word_cursor = sparse ? sparse->offsets.data() : nullptr;
  const u64 start = win.start;
  for (const auto& rec : win.records) {
    const u32 hits = rec.hit_count;
    reads::for_each_observation(
        rec, start, win_end, [=](u64 p, const reads::SiteObservation& so) {
          const u32 s = static_cast<u32>(p - start);
          AlignedBase ab;
          ab.base = so.base;
          ab.quality = so.quality;
          ab.coord = so.coord;
          ab.strand = so.strand;
          const u64 k = obs_cursor[s]++;
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
          if (words) words[word_cursor[s]++] = base_word_pack(ab);
        });
  }
  restore_offsets(offsets, w);
  if (sparse) restore_offsets(sparse->offsets, w);
}

}  // namespace gsnp::core
