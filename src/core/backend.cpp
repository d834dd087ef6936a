#include "src/core/backend.hpp"

#include <array>
#include <sstream>

namespace gsnp::core {

namespace {

constexpr std::array<BackendInfo, 3> kRegistry{{
    {EngineKind::kSoapsnp, "soapsnp", "soapsnp",
     "SOAPsnp CPU baseline: dense base_occ, Algorithm 1, text output",
     /*needs_device=*/false, /*text_output=*/true},
    {EngineKind::kGsnpCpu, "gsnp-cpu", "gsnp_cpu",
     "GSNP algorithm on the host: sparse base_word, new_p_matrix, "
     "compressed I/O",
     /*needs_device=*/false, /*text_output=*/false},
    {EngineKind::kGsnp, "gsnp", "gsnp",
     "full GSNP system: device sort + likelihood kernels, device RLE-DICT "
     "output",
     /*needs_device=*/true, /*text_output=*/false},
}};

std::string unknown_backend_message(std::string_view name) {
  std::ostringstream os;
  os << "unknown backend '" << name << "' (valid: " << backend_name_list()
     << ")";
  return os.str();
}

}  // namespace

const char* engine_name(EngineKind kind) { return backend_info(kind).id; }

std::optional<EngineKind> engine_kind_from_name(std::string_view name) {
  if (const BackendInfo* info = find_backend(name)) return info->kind;
  return std::nullopt;
}

std::span<const BackendInfo> backend_registry() {
  return {kRegistry.data(), kRegistry.size()};
}

const BackendInfo* find_backend(std::string_view name) {
  for (const BackendInfo& info : kRegistry)
    if (name == info.name || name == info.id) return &info;
  return nullptr;
}

const BackendInfo& backend_info(EngineKind kind) {
  for (const BackendInfo& info : kRegistry)
    if (info.kind == kind) return info;
  GSNP_CHECK_MSG(false, "unregistered engine kind "
                            << static_cast<int>(kind));
  return kRegistry[0];  // unreachable
}

std::string backend_name_list() {
  std::string names;
  for (const BackendInfo& info : kRegistry) {
    if (!names.empty()) names += ", ";
    names += info.name;
  }
  return names;
}

UnknownBackendError::UnknownBackendError(std::string_view name)
    : Error(unknown_backend_message(name)) {}

const BackendInfo& require_backend(std::string_view name) {
  const BackendInfo* info = find_backend(name);
  if (info == nullptr) throw UnknownBackendError(name);
  return *info;
}

RunReport run_backend(const BackendInfo& backend, const EngineConfig& config,
                      device::Device* dev, const device::PerfModel& model) {
  GSNP_CHECK_MSG(!backend.needs_device || dev != nullptr,
                 "backend " << backend.name << " needs a device");
  switch (backend.kind) {
    case EngineKind::kSoapsnp: return run_soapsnp(config);
    case EngineKind::kGsnpCpu: return run_gsnp_cpu(config);
    case EngineKind::kGsnp: return run_gsnp(config, *dev, model);
  }
  GSNP_CHECK_MSG(false, "bad engine kind");
  return {};
}

}  // namespace gsnp::core
