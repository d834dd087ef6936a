#include "src/sortnet/multipass.hpp"

#include <algorithm>
#include <numeric>

#include "src/common/error.hpp"
#include "src/common/parallel.hpp"

namespace gsnp::sortnet {

using device::Access;
using device::BlockContext;
using device::Device;
using device::DeviceBuffer;
using device::ThreadContext;

void sort_cpu_batch(VarArrays& va) {
  parallel_for(va.count(), 1024,
               [&](std::size_t begin, std::size_t end, std::size_t) {
                 for (std::size_t i = begin; i < end; ++i) {
                   auto a = va.array(i);
                   std::sort(a.begin(), a.end());
                 }
               });
}

namespace {

/// Gather the member arrays of one size class into a padded batch, sort on
/// the device, and scatter the sorted prefixes back.  Each class is one
/// "sort_pass" span, annotated with its batch geometry.
void sort_class(Device& dev, VarArrays& va, std::span<const u64> members,
                u32 batch_size, SortStats& stats,
                obs::Tracer* tracer = nullptr) {
  if (members.empty()) return;
  obs::Tracer::Scope span(tracer, "sort_pass", "sort", &dev);
  span.note("batch_size", std::to_string(batch_size));
  span.note("arrays", std::to_string(members.size()));
  std::vector<u32> batch(members.size() * batch_size, kPadValue);
  for (std::size_t m = 0; m < members.size(); ++m) {
    const auto a = va.array(members[m]);
    std::copy(a.begin(), a.end(), batch.begin() + m * batch_size);
    stats.elements_real += a.size();
  }
  DeviceBuffer<u32> buf = dev.to_device(std::span<const u32>(batch));
  batch_bitonic_sort(dev, buf, batch_size, members.size());
  batch = dev.to_host(buf);
  for (std::size_t m = 0; m < members.size(); ++m) {
    const auto a = va.array(members[m]);
    // Padding is kPadValue (the maximum), so the real values are the prefix.
    std::copy_n(batch.begin() + m * batch_size, a.size(), a.begin());
  }
  stats.arrays_sorted += members.size();
  stats.elements_padded += members.size() * batch_size;
  stats.passes += 1;
}

}  // namespace

SortStats sort_device_multipass(Device& dev, VarArrays& va,
                                std::span<const u32> class_bounds,
                                obs::Tracer* tracer) {
  GSNP_CHECK(std::is_sorted(class_bounds.begin(), class_bounds.end()));
  SortStats stats;

  // Bucket array ids by size class.  Class c holds sizes in
  // (bounds[c-1], bounds[c]]; the final class holds everything larger.
  const std::size_t n_classes = class_bounds.size() + 1;
  std::vector<std::vector<u64>> classes(n_classes);
  u32 max_size = 0;
  for (u64 i = 0; i < va.count(); ++i) {
    const u64 size = va.size_of(i);
    if (size <= 1) continue;  // already sorted
    max_size = std::max<u32>(max_size, static_cast<u32>(size));
    const auto it = std::lower_bound(class_bounds.begin(), class_bounds.end(),
                                     static_cast<u32>(size));
    classes[static_cast<std::size_t>(it - class_bounds.begin())].push_back(i);
  }

  for (std::size_t c = 0; c < n_classes; ++c) {
    if (classes[c].empty()) continue;
    const u32 upper = c < class_bounds.size() ? class_bounds[c] : max_size;
    sort_class(dev, va, classes[c], next_pow2(upper), stats, tracer);
  }
  return stats;
}

namespace {

/// Device-to-device gather/scatter between a CSR word buffer and a padded
/// equal-size batch for one size class.
struct ClassMeta {
  DeviceBuffer<u64> starts;  ///< CSR start offset per member array
  DeviceBuffer<u32> sizes;   ///< real size per member array
  u64 count = 0;
};

ClassMeta upload_class(Device& dev, std::span<const u64> offsets,
                       std::span<const u64> members) {
  std::vector<u64> starts(members.size());
  std::vector<u32> sizes(members.size());
  for (std::size_t m = 0; m < members.size(); ++m) {
    starts[m] = offsets[members[m]];
    sizes[m] = static_cast<u32>(offsets[members[m] + 1] - offsets[members[m]]);
  }
  ClassMeta meta;
  meta.starts = dev.to_device(std::span<const u64>(starts));
  meta.sizes = dev.to_device(std::span<const u32>(sizes));
  meta.count = members.size();
  return meta;
}

void class_copy_kernel(Device& dev, DeviceBuffer<u32>& words,
                       DeviceBuffer<u32>& batch, const ClassMeta& meta,
                       u32 batch_size, bool gather) {
  const u64 total = meta.count * batch_size;
  constexpr u32 kBlock = 256;
  const u32 grid = static_cast<u32>((total + kBlock - 1) / kBlock);
  dev.launch(gather ? "sort_class_gather" : "sort_class_scatter", grid, kBlock,
             [&](BlockContext& blk) {
    blk.threads([&](ThreadContext& t) {
      const u64 slot = t.global_tid();
      t.inst();
      if (slot >= total) return;
      const u64 m = slot / batch_size;
      const u32 j = static_cast<u32>(slot % batch_size);
      const u32 size = t.gload(meta.sizes, m, Access::kCoalesced);
      if (gather) {
        const u32 v =
            j < size ? t.gload(words,
                               t.gload(meta.starts, m, Access::kCoalesced) + j,
                               Access::kRandom)
                     : kPadValue;
        t.gstore(batch, slot, v, Access::kCoalesced);
      } else if (j < size) {
        // Padding sorted to the tail: real values are the prefix.
        t.gstore(words, t.gload(meta.starts, m, Access::kCoalesced) + j,
                 t.gload(batch, slot, Access::kCoalesced), Access::kRandom);
      }
    });
  });
}

}  // namespace

SortStats sort_device_multipass_resident(Device& dev, DeviceBuffer<u32>& words,
                                         std::span<const u64> offsets_host,
                                         std::span<const u32> class_bounds,
                                         obs::Tracer* tracer) {
  GSNP_CHECK(std::is_sorted(class_bounds.begin(), class_bounds.end()));
  GSNP_CHECK(!offsets_host.empty());
  GSNP_CHECK_MSG(offsets_host.back() == words.size(),
                 "offsets do not match the resident word buffer");
  SortStats stats;

  const u64 count = offsets_host.size() - 1;
  const std::size_t n_classes = class_bounds.size() + 1;
  std::vector<std::vector<u64>> classes(n_classes);
  u32 max_size = 0;
  for (u64 i = 0; i < count; ++i) {
    const u64 size = offsets_host[i + 1] - offsets_host[i];
    if (size <= 1) continue;
    max_size = std::max<u32>(max_size, static_cast<u32>(size));
    const auto it = std::lower_bound(class_bounds.begin(), class_bounds.end(),
                                     static_cast<u32>(size));
    classes[static_cast<std::size_t>(it - class_bounds.begin())].push_back(i);
  }

  for (std::size_t c = 0; c < n_classes; ++c) {
    if (classes[c].empty()) continue;
    const u32 upper = c < class_bounds.size() ? class_bounds[c] : max_size;
    const u32 batch_size = next_pow2(upper);
    obs::Tracer::Scope span(tracer, "sort_pass", "sort", &dev);
    span.note("batch_size", std::to_string(batch_size));
    span.note("arrays", std::to_string(classes[c].size()));
    const ClassMeta meta = upload_class(dev, offsets_host, classes[c]);
    DeviceBuffer<u32> batch = dev.alloc<u32>(meta.count * batch_size);
    class_copy_kernel(dev, words, batch, meta, batch_size, /*gather=*/true);
    batch_bitonic_sort(dev, batch, batch_size, meta.count);
    class_copy_kernel(dev, words, batch, meta, batch_size, /*gather=*/false);
    for (const u64 i : classes[c])
      stats.elements_real += offsets_host[i + 1] - offsets_host[i];
    stats.arrays_sorted += meta.count;
    stats.elements_padded += meta.count * batch_size;
    stats.passes += 1;
  }
  return stats;
}

SortStats sort_device_singlepass(Device& dev, VarArrays& va) {
  SortStats stats;
  u32 max_size = 0;
  std::vector<u64> members;
  for (u64 i = 0; i < va.count(); ++i) {
    const u64 size = va.size_of(i);
    if (size <= 1) continue;
    max_size = std::max<u32>(max_size, static_cast<u32>(size));
    members.push_back(i);
  }
  if (members.empty()) return stats;
  sort_class(dev, va, members, next_pow2(max_size), stats);
  return stats;
}

SortStats sort_device_noneq(Device& dev, VarArrays& va) {
  SortStats stats;
  std::vector<u64> members;
  u32 max_size = 0;
  for (u64 i = 0; i < va.count(); ++i) {
    const u64 size = va.size_of(i);
    if (size <= 1) continue;
    members.push_back(i);
    max_size = std::max<u32>(max_size, static_cast<u32>(size));
  }
  if (members.empty()) return stats;
  const u32 block_threads = next_pow2(max_size);

  // Pack each array padded to its own power of two; record per-block extents.
  std::vector<u32> packed;
  std::vector<u64> base(members.size());
  std::vector<u32> pow2(members.size());
  for (std::size_t m = 0; m < members.size(); ++m) {
    const auto a = va.array(members[m]);
    base[m] = packed.size();
    pow2[m] = next_pow2(static_cast<u32>(a.size()));
    packed.insert(packed.end(), a.begin(), a.end());
    packed.resize(base[m] + pow2[m], kPadValue);
    stats.elements_real += a.size();
    stats.elements_padded += pow2[m];
  }
  stats.arrays_sorted = members.size();
  stats.passes = 1;

  DeviceBuffer<u32> buf = dev.to_device(std::span<const u32>(packed));
  DeviceBuffer<u64> bases = dev.to_device(std::span<const u64>(base));
  DeviceBuffer<u32> sizes = dev.to_device(std::span<const u32>(pow2));

  // One block per array, but a *uniform* block size set by the largest array:
  // blocks sorting small arrays leave most threads idle every phase, which is
  // exactly the imbalance the paper's Fig 7(b) attributes the slowdown to.
  dev.launch("bitonic_noneq_sort", static_cast<u32>(members.size()),
             block_threads, [&](BlockContext& blk) {
               auto sh = blk.shared_array<u32>(block_threads);
               u64 my_base = 0;
               u32 my_n = 0;
               blk.single_thread([&](ThreadContext& t) {
                 my_base = t.gload(bases, blk.block_idx());
                 my_n = t.gload(sizes, blk.block_idx());
               });
               blk.threads([&](ThreadContext& t) {
                 if (t.tid() < my_n)
                   t.sstore(sh, t.tid(),
                            t.gload(buf, my_base + t.tid(), Access::kCoalesced));
                 else
                   t.inst();  // idle lane still occupies the SIMT slot
               });
               for (u32 k = 2; k <= my_n; k <<= 1) {
                 for (u32 j = k >> 1; j > 0; j >>= 1) {
                   blk.threads([&](ThreadContext& t) {
                     t.inst();
                     const u32 i = t.tid();
                     if (i >= my_n) return;  // idle lane
                     const u32 l = i ^ j;
                     if (l <= i || l >= my_n) return;
                     const u32 a = t.sload<u32>(sh, i);
                     const u32 b = t.sload<u32>(sh, l);
                     const bool ascending = (i & k) == 0;
                     if ((a > b) == ascending) {
                       t.sstore(sh, i, b);
                       t.sstore(sh, l, a);
                     }
                   });
                 }
               }
               blk.threads([&](ThreadContext& t) {
                 if (t.tid() < my_n)
                   t.gstore(buf, my_base + t.tid(), t.sload<u32>(sh, t.tid()),
                            Access::kCoalesced);
                 else
                   t.inst();
               });
             });

  packed = dev.to_host(buf);
  for (std::size_t m = 0; m < members.size(); ++m) {
    const auto a = va.array(members[m]);
    std::copy_n(packed.begin() + static_cast<std::ptrdiff_t>(base[m]),
                a.size(), a.begin());
  }
  return stats;
}

SortStats sort_device_radix_seq(Device& dev, VarArrays& va) {
  SortStats stats;
  for (u64 i = 0; i < va.count(); ++i) {
    const auto a = va.array(i);
    if (a.size() <= 1) continue;
    DeviceBuffer<u32> buf = dev.to_device(std::span<const u32>(a));
    device_radix_sort(dev, buf);
    const auto sorted = dev.to_host(buf);
    std::copy(sorted.begin(), sorted.end(), a.begin());
    stats.arrays_sorted += 1;
    stats.elements_real += a.size();
    stats.elements_padded += a.size();  // radix pads nothing
    stats.passes += 1;
  }
  return stats;
}

}  // namespace gsnp::sortnet
