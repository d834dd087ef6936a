#pragma once
// The gsnpd wire protocol and job model (FORMATS.md §12).
//
// Everything a client exchanges with the daemon is newline-delimited JSON:
// one request object per line in, one response object per line out, over a
// local AF_UNIX stream socket (src/service/socket.hpp).  The same structs
// drive the in-process API (service::Daemon) and the job journal, so a job
// admitted over the wire, journaled to the spool, and resumed after a crash
// is one representation throughout.
//
// Rejections are *typed*: admission failures carry an ErrorCode a client can
// branch on (shed on kQueueFull, back off on kQuotaExceeded, split the job on
// kPayloadTooLarge) instead of parsing prose.

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/json.hpp"
#include "src/common/types.hpp"

namespace gsnp::service {

/// Why the daemon refused (or could not serve) a request.
enum class ErrorCode {
  kBadRequest,        ///< malformed spec: missing fields, no chromosomes, ...
  kInvalidArgument,   ///< well-formed spec with a bad value: unknown backend
  kQueueFull,         ///< admission queue at capacity — load shed, retry later
  kPayloadTooLarge,   ///< summed alignment bytes exceed the per-job cap
  kQuotaExceeded,     ///< tenant already holds its quota of unfinished jobs
  kDeadlineExceeded,  ///< job cancelled by the watchdog past its deadline
  kNotFound,          ///< unknown job id
  kShuttingDown,      ///< daemon is draining; nothing new is admitted
  kStorageFailure,    ///< spool write failed (ENOSPC/EIO class) — job not durable
  kFrameTooLarge,     ///< request line exceeds the server's max-frame cap
  kDeviceBudgetExceeded,  ///< worst-case device footprint over the daemon's
                          ///< capacity (or no batch budget to compute it)
  kInternal,          ///< unexpected server-side failure
};

const char* error_code_name(ErrorCode code);
std::optional<ErrorCode> error_code_from_name(std::string_view name);

/// Thrown by Daemon entry points; carries the typed code the protocol layer
/// serializes into the response line.
class ServiceError : public Error {
 public:
  ServiceError(ErrorCode code, const std::string& message)
      : Error(std::string(error_code_name(code)) + ": " + message),
        code_(code) {}

  ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

/// One chromosome of a job: the alignment to call plus the reference (a
/// single-sequence FASTA) and an optional known-SNP prior table.  All paths
/// are files on the daemon's filesystem — the protocol ships names, not data.
struct ChromosomeSpec {
  std::string name;
  std::string alignment_file;
  std::string reference_file;
  std::string dbsnp_file;  ///< "" = genome-wide novel-SNP prior only
};

struct JobSpec {
  std::string job_id;            ///< "" = daemon assigns "job-<n>"
  std::string tenant = "default";
  std::string engine = "gsnp";   ///< a backend name core::find_backend knows
                                 ///< ("gsnp", "gsnp-cpu", "soapsnp", or the
                                 ///< "_" id spellings)
  std::vector<ChromosomeSpec> chromosomes;
  /// Where outputs publish; "" = the job's spool directory (`<job dir>/out`).
  std::string output_dir;
  u32 window_size = 0;           ///< 0 = engine default
  /// Depth-aware batching budget (device bytes per batch); 0 = daemon
  /// default (DaemonConfig::batch_bytes).  Bounds the job's worst-case
  /// device footprint, which admission control checks before accepting.
  u64 batch_bytes = 0;
  /// Wall-clock budget from admission (re-armed from resume on recovery);
  /// 0 = no deadline.  Overruns are cancelled by the watchdog and fail with
  /// kDeadlineExceeded.
  double deadline_seconds = 0.0;
};

/// One request line.  `op` selects the verb; the other fields are op-specific
/// ("submit" uses `job`; "status"/"cancel" use `job_id`; "stats", "ping",
/// "shutdown" take nothing).
struct Request {
  std::string op;
  std::string job_id;
  JobSpec job;
};

/// One response line.  ok=true carries `fields` (flat string map: job_id,
/// state, counters...); ok=false carries the typed error + message.
struct Response {
  bool ok = false;
  ErrorCode error = ErrorCode::kInternal;
  std::string message;
  std::map<std::string, std::string> fields;
};

/// Line codecs.  Encoders emit exactly one line WITHOUT the trailing '\n'
/// (the socket layer frames); parsers accept one line and throw
/// ServiceError(kBadRequest) / gsnp::Error on malformed input.
std::string encode_request(const Request& request);
Request parse_request(std::string_view line);
std::string encode_response(const Response& response);
Response parse_response(std::string_view line);

/// JobSpec <-> JSON object, shared by the wire format and the job journal
/// (daemon.cpp writes specs into `job.json` so recovery re-creates the exact
/// submitted job).
void encode_job_spec(std::ostream& os, const JobSpec& spec);
JobSpec parse_job_spec(const json::Value& value);

}  // namespace gsnp::service
