#include "src/core/log_table.hpp"

#include "src/core/adjust.hpp"

namespace gsnp::core {

const std::array<double, kLogTableSize>& log_table() {
  static const std::array<double, kLogTableSize> table = make_log_table();
  return table;
}

const std::array<int, kLogTableSize>& quality_penalties() {
  static const std::array<int, kLogTableSize> table = [] {
    std::array<int, kLogTableSize> penalties{};
    for (int k = 0; k < kLogTableSize; ++k)
      penalties[static_cast<std::size_t>(k)] =
          quality_penalty(k, log_table().data());
    return penalties;
  }();
  return table;
}

}  // namespace gsnp::core
