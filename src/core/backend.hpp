#pragma once
// First-class engine/backend registry.
//
// The daemon, the CLI and the benches used to hard-code an EngineKind switch
// each; this header makes the engines self-describing instead.  Every
// backend registers a canonical name, the stable identifier used in output
// filenames / manifests, capability flags, and a common run entry
// (run_backend), so callers select backends by name and interrogate the
// flags instead of switching on the enum.
//
// Naming: `name` is the user-facing registry name with hyphens ("gsnp-cpu",
// as the CLI always spelled it); `id` is the underscore identifier engines
// have always written into output filenames (<chr>.<id>.{txt,snp}) and
// manifests ("gsnp_cpu").  find_backend accepts either, so old job specs
// and manifests keep working; engine_name/engine_kind_from_name remain the
// strict id mapping used by manifest round-trips.
//
// Every backend is held to the same bit-exactness contract (§IV-G): for the
// same inputs all backends produce byte-identical output streams — the
// golden corpus and the determinism battery enforce it.

#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "src/common/error.hpp"
#include "src/core/engine.hpp"

namespace gsnp::core {

enum class EngineKind { kSoapsnp, kGsnpCpu, kGsnp };

/// Stable identifier ("soapsnp", "gsnp_cpu", "gsnp") used in output
/// filenames and manifests.
const char* engine_name(EngineKind kind);
/// Inverse of engine_name; nullopt for unknown names (corrupt manifests).
/// Accepts the hyphenated registry spelling too.
std::optional<EngineKind> engine_kind_from_name(std::string_view name);

/// One registered backend: identity, capabilities, description.
struct BackendInfo {
  EngineKind kind;
  const char* name;         ///< canonical registry name ("gsnp-cpu")
  const char* id;           ///< filename/manifest identifier ("gsnp_cpu")
  const char* description;  ///< one-line summary for --help / errors
  bool needs_device;        ///< run_backend requires a device::Device
  bool text_output;         ///< SOAPsnp text rows (vs GSNPOUT2 binary)
};

/// All registered backends, in registration order.
std::span<const BackendInfo> backend_registry();

/// Look up by canonical name or id; nullptr when unknown.
const BackendInfo* find_backend(std::string_view name);

/// Registry entry for an enum value (always exists).
const BackendInfo& backend_info(EngineKind kind);

/// "soapsnp, gsnp-cpu, gsnp" — for error messages and usage text.
std::string backend_name_list();

/// Thrown by require_backend for names the registry does not know; the
/// message lists every valid name.  The daemon maps it to the protocol's
/// invalid_argument error code, the CLI prints it and exits non-zero.
class UnknownBackendError : public Error {
 public:
  explicit UnknownBackendError(std::string_view name);
};

/// find_backend or throw UnknownBackendError.
const BackendInfo& require_backend(std::string_view name);

/// The common run entry: dispatch one chromosome run to `backend`.  `dev` is
/// required iff backend.needs_device (checked); `model` is only read by
/// device-backed engines.
RunReport run_backend(const BackendInfo& backend, const EngineConfig& config,
                      device::Device* dev = nullptr,
                      const device::PerfModel& model = {});

}  // namespace gsnp::core
