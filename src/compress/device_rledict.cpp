#include "src/compress/device_rledict.hpp"

#include "src/common/error.hpp"
#include "src/sortnet/batch_sort.hpp"

namespace gsnp::compress {

using device::Access;
using device::BlockContext;
using device::Device;
using device::DeviceBuffer;
using device::ThreadContext;

namespace {

constexpr u32 kBlockThreads = 256;

u32 grid_for(u64 n) {
  return static_cast<u32>((n + kBlockThreads - 1) / kBlockThreads);
}

/// Inclusive scan of a u32 flag buffer on the device (single-block serial
/// kernel — adequate for per-window column sizes); returns the total.
/// After the scan, element i of a flagged sequence belongs to group
/// scan[i] - 1, and i starts a group iff i == 0 or scan[i] != scan[i-1].
u32 device_inclusive_scan(Device& dev, DeviceBuffer<u32>& flags) {
  const u64 n = flags.size();
  DeviceBuffer<u32> total = dev.alloc<u32>(1);
  dev.launch("rle_inclusive_scan", 1, 1, [&](BlockContext& blk) {
    blk.single_thread([&](ThreadContext& t) {
      u32 running = 0;
      for (u64 i = 0; i < n; ++i) {
        running += t.gload(flags, i, Access::kCoalesced);
        t.gstore(flags, i, running, Access::kCoalesced);
        t.inst();
      }
      t.gstore(total, 0, running);
    });
  });
  return dev.to_host(total)[0];
}

}  // namespace

RunDecomposition device_run_decompose(Device& dev,
                                      std::span<const u32> column) {
  RunDecomposition runs;
  if (column.empty()) return runs;
  const u64 n = column.size();

  DeviceBuffer<u32> values = dev.to_device(column);
  DeviceBuffer<u32> flags = dev.alloc<u32>(n);

  // Kernel 1: run-boundary flags (coalesced neighbour reads).
  dev.launch("rle_boundary_flags", grid_for(n), kBlockThreads,
             [&](BlockContext& blk) {
    blk.threads([&](ThreadContext& t) {
      const u64 i = static_cast<u64>(blk.block_idx()) * kBlockThreads + t.tid();
      if (i >= n) return;
      const u32 v = t.gload(values, i, Access::kCoalesced);
      const u32 boundary =
          (i == 0 || t.gload(values, i - 1, Access::kCoalesced) != v) ? 1 : 0;
      t.inst();
      t.gstore(flags, i, boundary, Access::kCoalesced);
    });
  });

  // Kernel 2: inclusive scan -> run id per element, plus the run count.
  const u32 n_runs = device_inclusive_scan(dev, flags);

  // Kernel 3: the first element of each run scatters its value and start
  // index; lengths follow from consecutive starts.
  DeviceBuffer<u32> run_values = dev.alloc<u32>(n_runs);
  DeviceBuffer<u32> run_starts = dev.alloc<u32>(n_runs);
  dev.launch("rle_emit_runs", grid_for(n), kBlockThreads,
             [&](BlockContext& blk) {
    blk.threads([&](ThreadContext& t) {
      const u64 i = static_cast<u64>(blk.block_idx()) * kBlockThreads + t.tid();
      if (i >= n) return;
      const u32 scan = t.gload(flags, i, Access::kCoalesced);
      const bool is_start =
          (i == 0) || scan != t.gload(flags, i - 1, Access::kCoalesced);
      t.inst();
      if (!is_start) return;
      const u32 rid = scan - 1;
      t.gstore(run_values, rid, t.gload(values, i, Access::kCoalesced),
               Access::kRandom);
      t.gstore(run_starts, rid, static_cast<u32>(i), Access::kRandom);
    });
  });

  runs.values = dev.to_host(run_values);
  const std::vector<u32> starts = dev.to_host(run_starts);
  runs.lengths.resize(n_runs);
  for (u32 r = 0; r < n_runs; ++r) {
    const u32 end = (r + 1 < n_runs) ? starts[r + 1] : static_cast<u32>(n);
    runs.lengths[r] = end - starts[r];
  }
  return runs;
}

DictMapping device_build_dict(Device& dev, std::span<const u32> column) {
  DictMapping m;
  if (column.empty()) return m;
  const u64 n = column.size();

  // Sort a copy with the device radix sort, then mark/keep unique values.
  DeviceBuffer<u32> sorted = dev.to_device(column);
  sortnet::device_radix_sort(dev, sorted);

  DeviceBuffer<u32> uniq_flags = dev.alloc<u32>(n);
  dev.launch("dict_uniq_flags", grid_for(n), kBlockThreads,
             [&](BlockContext& blk) {
    blk.threads([&](ThreadContext& t) {
      const u64 i = static_cast<u64>(blk.block_idx()) * kBlockThreads + t.tid();
      if (i >= n) return;
      const u32 v = t.gload(sorted, i, Access::kCoalesced);
      const u32 uniq =
          (i == 0 || t.gload(sorted, i - 1, Access::kCoalesced) != v) ? 1 : 0;
      t.inst();
      t.gstore(uniq_flags, i, uniq, Access::kCoalesced);
    });
  });
  const u32 dict_size = device_inclusive_scan(dev, uniq_flags);

  DeviceBuffer<u32> dict = dev.alloc<u32>(dict_size);
  dev.launch("dict_emit", grid_for(n), kBlockThreads,
             [&](BlockContext& blk) {
    blk.threads([&](ThreadContext& t) {
      const u64 i = static_cast<u64>(blk.block_idx()) * kBlockThreads + t.tid();
      if (i >= n) return;
      const u32 scan = t.gload(uniq_flags, i, Access::kCoalesced);
      const bool is_first =
          (i == 0) || scan != t.gload(uniq_flags, i - 1, Access::kCoalesced);
      t.inst();
      if (is_first)
        t.gstore(dict, scan - 1, t.gload(sorted, i, Access::kCoalesced),
                 Access::kRandom);
    });
  });

  // Dictionary lookup: parallel binary search.  The paper loads the
  // dictionary into constant memory when it fits (quality columns have
  // < 100 distinct values, so it always does here).
  m.dict = dev.to_host(dict);
  const bool use_constant =
      m.dict.size() * sizeof(u32) <= dev.spec().constant_bytes / 2;
  device::ConstantTable<u32> cdict;
  if (use_constant) cdict = dev.to_constant(std::span<const u32>(m.dict));

  DeviceBuffer<u32> values = dev.to_device(column);
  DeviceBuffer<u32> indices = dev.alloc<u32>(n);
  dev.launch("dict_lookup", grid_for(n), kBlockThreads,
             [&](BlockContext& blk) {
    blk.threads([&](ThreadContext& t) {
      const u64 i = static_cast<u64>(blk.block_idx()) * kBlockThreads + t.tid();
      if (i >= n) return;
      const u32 v = t.gload(values, i, Access::kCoalesced);
      u32 lo = 0, hi = dict_size;
      while (lo + 1 < hi) {
        const u32 mid = (lo + hi) / 2;
        const u32 dv = use_constant ? t.cload(cdict, mid)
                                    : t.gload(dict, mid, Access::kRandom);
        t.inst(2);
        if (dv <= v) lo = mid; else hi = mid;
      }
      t.gstore(indices, i, lo, Access::kCoalesced);
    });
  });
  m.indices = dev.to_host(indices);
  return m;
}

void device_encode_rle_dict(Device& dev, std::span<const u32> column,
                            std::vector<u8>& out) {
  const RunDecomposition runs = device_run_decompose(dev, column);
  const DictMapping values_map =
      device_build_dict(dev, std::span<const u32>(runs.values));
  const DictMapping lengths_map =
      device_build_dict(dev, std::span<const u32>(runs.lengths));
  // The frames are byte-identical to the host encode_dict's.
  append_dict_frame(values_map.dict, values_map.indices, out);
  append_dict_frame(lengths_map.dict, lengths_map.indices, out);
}

}  // namespace gsnp::compress
