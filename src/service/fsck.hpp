#pragma once
// The spool scrubber (`gsnp_cli fsck <spool>`, FORMATS.md §13) — walks every
// job directory under `<spool>/jobs/`, verifies the journal / manifest /
// output invariants the formats promise, and classifies each job with a
// stable verdict:
//
//   clean               terminal job, everything it claims verifies
//   resumable           non-terminal job (queued/running/interrupted), or a
//                       done job demoted because an output or digest failed
//                       verification — the next recover() finishes it
//   torn_staging        valid journal plus `.part`/`.tmp` staging residue
//                       (or a torn/corrupt manifest) — removable litter from
//                       a crash mid-publish
//   orphaned            a job directory with no journal at all: outputs
//                       without provenance
//   corrupt_quarantined a journal that exists but does not parse/validate —
//                       nothing in the directory can be trusted
//
// Verdicts are ordered by severity; a job exhibiting several conditions
// reports the worst.  With `repair` set, fsck applies exactly the repairs
// that cannot lose data: staging residue is deleted (outputs re-derive from
// inputs), corrupt manifests are deleted (rebuilt on rerun), done jobs with
// unverifiable outputs are demoted to "interrupted" (rerun produces
// identical bytes), orphaned directories move to `<spool>/lost+found/`, and
// corrupt-journal directories move to `<spool>/quarantine/`.  Repair never
// deletes a published output and never edits a journal except the
// done->interrupted demotion.
//
// Daemon::recover() runs fsck (repairing) before resuming, so a daemon
// restarted onto a mauled spool starts from a scrubbed one.

#include <filesystem>
#include <string>
#include <vector>

#include "src/common/types.hpp"

namespace gsnp::service {

enum class FsckVerdict : u8 {
  kClean,
  kResumable,
  kTornStaging,
  kOrphaned,
  kCorruptQuarantined,
};

const char* fsck_verdict_name(FsckVerdict verdict);

struct FsckOptions {
  bool repair = false;       ///< apply the safe repairs described above
  /// Re-read GSNPOUT2 containers frame by frame (every CRC) instead of only
  /// the file-level CRC-32 the manifest records.  Slower, strictly stronger.
  bool deep_verify = false;
};

struct FsckJobReport {
  std::string job_id;  ///< spool directory name
  FsckVerdict verdict = FsckVerdict::kClean;
  std::vector<std::string> issues;   ///< what failed verification, and where
  std::vector<std::string> repairs;  ///< repair actions actually applied
};

struct FsckReport {
  std::vector<FsckJobReport> jobs;  ///< directory order (sorted, stable)
  u64 repairs_applied = 0;

  u64 count(FsckVerdict verdict) const;
  /// Every job clean — the post-chaos acceptance condition.
  bool all_clean() const;
  /// Nothing needing attention: every job clean or merely resumable.
  bool all_recoverable() const;
  std::string summary() const;  ///< one line: "jobs=N clean=N resumable=..."
};

/// Scrub `<spool>/jobs/*`.  Never throws on corrupt spool content — every
/// malformed artifact becomes a verdict, not an exception (I/O errors on the
/// spool root itself still throw).
FsckReport fsck_spool(const std::filesystem::path& spool_dir,
                      const FsckOptions& options = {});

}  // namespace gsnp::service
