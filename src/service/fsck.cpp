#include "src/service/fsck.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "src/common/atomic_file.hpp"
#include "src/common/crc32.hpp"
#include "src/core/output_codec.hpp"
#include "src/core/run_manifest.hpp"
#include "src/service/journal.hpp"

namespace gsnp::service {

namespace {

constexpr const char* kVerdictNames[] = {
    "clean", "resumable", "torn_staging", "orphaned", "corrupt_quarantined",
};
constexpr int kVerdictCount = sizeof(kVerdictNames) / sizeof(kVerdictNames[0]);

/// Verdicts are ordered by severity in the enum; a job keeps the worst one
/// observed across all its checks.
void worsen(FsckJobReport& report, FsckVerdict verdict) {
  if (static_cast<u8>(verdict) > static_cast<u8>(report.verdict))
    report.verdict = verdict;
}

std::string read_text(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool is_staging_name(const std::string& name) {
  return ends_with(name, ".part") || ends_with(name, ".tmp");
}

/// Move a whole job directory aside (lost+found / quarantine), dodging name
/// collisions from repeated fsck runs with a numeric suffix.
void move_dir_aside(const std::filesystem::path& dir,
                    const std::filesystem::path& destination_root,
                    FsckJobReport& report, u64& repairs) {
  std::filesystem::create_directories(destination_root);
  std::filesystem::path destination = destination_root / dir.filename();
  for (int n = 1; std::filesystem::exists(destination); ++n)
    destination = destination_root / (dir.filename().string() + "." +
                                      std::to_string(n));
  std::filesystem::rename(dir, destination);
  report.repairs.push_back("moved " + dir.filename().string() + " to " +
                           destination.string());
  ++repairs;
}

/// Delete `.part`/`.tmp` staging residue for this job: everything under the
/// job directory, plus — when the spec published into an external output
/// directory — only files namespaced by this job's id (`<id>.*`), so fsck of
/// one job never touches a neighbour sharing that directory.
void scan_staging(const std::filesystem::path& dir,
                  const std::string& job_id,
                  const std::filesystem::path& output_dir,
                  const FsckOptions& options, FsckJobReport& report,
                  u64& repairs) {
  std::vector<std::filesystem::path> torn;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator(); ++it)
    if (it->is_regular_file() && is_staging_name(it->path().filename().string()))
      torn.push_back(it->path());
  const bool external_output =
      !output_dir.empty() &&
      output_dir.lexically_normal().string().rfind(
          dir.lexically_normal().string(), 0) != 0;
  if (external_output && std::filesystem::exists(output_dir)) {
    for (const auto& entry : std::filesystem::directory_iterator(output_dir)) {
      const std::string name = entry.path().filename().string();
      if (entry.is_regular_file() && is_staging_name(name) &&
          name.rfind(job_id + ".", 0) == 0)
        torn.push_back(entry.path());
    }
  }
  std::sort(torn.begin(), torn.end());
  for (const std::filesystem::path& path : torn) {
    worsen(report, FsckVerdict::kTornStaging);
    report.issues.push_back("torn staging file " + path.string());
    if (options.repair) {
      std::filesystem::remove(path);
      report.repairs.push_back("removed " + path.string());
      ++repairs;
    }
  }
}

}  // namespace

const char* fsck_verdict_name(FsckVerdict verdict) {
  const int index = static_cast<int>(verdict);
  GSNP_CHECK_MSG(index >= 0 && index < kVerdictCount,
                 "invalid FsckVerdict " << index);
  return kVerdictNames[index];
}

u64 FsckReport::count(FsckVerdict verdict) const {
  u64 n = 0;
  for (const FsckJobReport& job : jobs)
    if (job.verdict == verdict) ++n;
  return n;
}

bool FsckReport::all_clean() const {
  return count(FsckVerdict::kClean) == jobs.size();
}

bool FsckReport::all_recoverable() const {
  return count(FsckVerdict::kClean) + count(FsckVerdict::kResumable) ==
         jobs.size();
}

std::string FsckReport::summary() const {
  std::ostringstream os;
  os << "jobs=" << jobs.size();
  for (int i = 0; i < kVerdictCount; ++i) {
    const auto verdict = static_cast<FsckVerdict>(i);
    os << ' ' << fsck_verdict_name(verdict) << '=' << count(verdict);
  }
  os << " repairs=" << repairs_applied;
  return os.str();
}

FsckReport fsck_spool(const std::filesystem::path& spool_dir,
                      const FsckOptions& options) {
  FsckReport report;
  const std::filesystem::path jobs_root = spool_dir / "jobs";
  if (!std::filesystem::exists(jobs_root)) return report;

  std::vector<std::filesystem::path> dirs;
  for (const auto& entry : std::filesystem::directory_iterator(jobs_root))
    if (entry.is_directory()) dirs.push_back(entry.path());
  std::sort(dirs.begin(), dirs.end());

  for (const std::filesystem::path& dir : dirs) {
    FsckJobReport job;
    job.job_id = dir.filename().string();

    // -- journal: the root of trust for everything else in the directory.
    const std::filesystem::path journal_path = dir / "job.json";
    if (!std::filesystem::exists(journal_path)) {
      worsen(job, FsckVerdict::kOrphaned);
      job.issues.push_back("no job.json journal (outputs without provenance)");
      if (options.repair)
        move_dir_aside(dir, spool_dir / "lost+found", job,
                       report.repairs_applied);
      report.jobs.push_back(std::move(job));
      continue;
    }

    JobJournal journal;
    bool journal_ok = false;
    try {
      journal = parse_job_journal(read_text(journal_path));
      GSNP_CHECK_MSG(journal.id == job.job_id,
                     "journal id '" << journal.id
                                    << "' does not match directory");
      journal_ok = true;
    } catch (const Error& e) {
      worsen(job, FsckVerdict::kCorruptQuarantined);
      job.issues.push_back(std::string("journal does not verify: ") +
                           e.what());
      if (options.repair)
        move_dir_aside(dir, spool_dir / "quarantine", job,
                       report.repairs_applied);
      report.jobs.push_back(std::move(job));
      continue;
    }
    (void)journal_ok;

    const std::filesystem::path output_dir =
        journal.spec.output_dir.empty()
            ? dir / "out"
            : std::filesystem::path(journal.spec.output_dir);

    // -- staging residue: `.part`/`.tmp` files are crash litter by contract
    // (every publisher stages then renames), always safe to delete.
    scan_staging(dir, job.job_id, output_dir, options, job,
                 report.repairs_applied);

    // -- manifest: optional for unfinished jobs, required for done ones.
    const std::filesystem::path manifest_path = dir / "manifest.json";
    core::RunManifest manifest;
    bool manifest_ok = false;
    if (std::filesystem::exists(manifest_path)) {
      try {
        manifest = core::read_run_manifest(manifest_path);
        manifest_ok = true;
      } catch (const Error& e) {
        worsen(job, FsckVerdict::kTornStaging);
        job.issues.push_back(std::string("manifest does not verify: ") +
                             e.what());
        if (options.repair) {
          std::filesystem::remove(manifest_path);
          job.repairs.push_back("removed corrupt " + manifest_path.string());
          ++report.repairs_applied;
        }
      }
    }

    // -- done jobs must prove their claim: every recorded output exists with
    // the journaled size and CRC, and the journal digest matches the
    // manifest.  Any miss demotes the job to "interrupted" — rerunning a
    // deterministic job is always safe; trusting a wrong "done" never is.
    bool demote = false;
    if (journal.state == JobState::kDone) {
      if (!manifest_ok) {
        demote = true;
        if (!std::filesystem::exists(manifest_path))
          job.issues.push_back("done job has no manifest.json");
      } else {
        for (const core::ManifestEntry& entry : manifest.chromosomes) {
          if (entry.status != "done") continue;
          const std::filesystem::path out = output_dir / entry.output;
          std::error_code ec;
          const u64 bytes = std::filesystem::file_size(out, ec);
          if (ec) {
            demote = true;
            job.issues.push_back("missing output " + out.string());
            continue;
          }
          if (bytes != entry.output_bytes) {
            demote = true;
            job.issues.push_back(
                "output " + out.string() + " is " + std::to_string(bytes) +
                " bytes, manifest says " + std::to_string(entry.output_bytes));
            continue;
          }
          if (crc32_file(out) != entry.output_crc32) {
            demote = true;
            job.issues.push_back("output " + out.string() +
                                 " fails its manifest CRC-32");
            continue;
          }
          if (options.deep_verify && ends_with(entry.output, ".snp")) {
            try {
              std::string seq_name;
              (void)core::read_snp_compressed_file(out, seq_name);
            } catch (const Error& e) {
              demote = true;
              job.issues.push_back("output " + out.string() +
                                   " fails frame verification: " + e.what());
            }
          }
        }
        if (!journal.digest.empty() &&
            core::manifest_digest(manifest) != journal.digest) {
          demote = true;
          job.issues.push_back(
              "journal digest does not match the manifest contents");
        }
      }
      if (demote) {
        worsen(job, FsckVerdict::kResumable);
        if (options.repair) {
          JobJournal demoted = journal;
          demoted.state = JobState::kInterrupted;
          demoted.digest.clear();
          write_file_atomic(journal_path, encode_job_journal(demoted));
          job.repairs.push_back("demoted job.json to interrupted");
          ++report.repairs_applied;
        }
      }
    } else if (!terminal_job_state(journal.state)) {
      // queued/running/interrupted: unfinished by definition — the next
      // recover() picks it up.  Not an issue, just not clean.
      worsen(job, FsckVerdict::kResumable);
    }

    report.jobs.push_back(std::move(job));
  }
  return report;
}

}  // namespace gsnp::service
