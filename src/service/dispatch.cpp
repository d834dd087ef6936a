#include "src/service/dispatch.hpp"

#include <sstream>

namespace gsnp::service {

namespace {

std::string format_seconds(double seconds) {
  std::ostringstream os;
  os.precision(6);
  os << std::fixed << seconds;
  return os.str();
}

void fill_status_fields(const JobStatus& s, const std::string& prefix,
                        std::map<std::string, std::string>& fields) {
  fields[prefix + "job_id"] = s.job_id;
  fields[prefix + "tenant"] = s.tenant;
  fields[prefix + "engine"] = s.engine;
  fields[prefix + "state"] = job_state_name(s.state);
  fields[prefix + "chromosomes_total"] = std::to_string(s.chromosomes_total);
  fields[prefix + "chromosomes_done"] = std::to_string(s.chromosomes_done);
  if (s.degraded) fields[prefix + "degraded"] = "true";
  if (s.resumed) fields[prefix + "resumed"] = "true";
  if (!s.error.empty()) fields[prefix + "error"] = s.error;
  if (!s.manifest_digest.empty())
    fields[prefix + "manifest_digest"] = s.manifest_digest;
  fields[prefix + "manifest_file"] = s.manifest_file.string();
  fields[prefix + "output_dir"] = s.output_dir.string();
  fields[prefix + "run_seconds"] = format_seconds(s.run_seconds);
}

}  // namespace

Response handle_request(Daemon& daemon, const Request& request) {
  Response response;
  try {
    if (request.op == "ping") {
      response.ok = true;
      response.fields["pong"] = "gsnpd";
    } else if (request.op == "submit") {
      response.ok = true;
      response.fields["job_id"] = daemon.submit(request.job);
    } else if (request.op == "status") {
      response.ok = true;
      if (!request.job_id.empty()) {
        fill_status_fields(daemon.status(request.job_id), "", response.fields);
      } else {
        const std::vector<JobStatus> all = daemon.jobs();
        response.fields["jobs"] = std::to_string(all.size());
        for (std::size_t i = 0; i < all.size(); ++i)
          fill_status_fields(all[i], "job." + std::to_string(i) + ".",
                             response.fields);
      }
    } else if (request.op == "cancel") {
      daemon.cancel(request.job_id);
      response.ok = true;
      response.fields["job_id"] = request.job_id;
    } else if (request.op == "stats") {
      const DaemonStats s = daemon.stats();
      response.ok = true;
      response.fields["submitted"] = std::to_string(s.submitted);
      response.fields["admitted"] = std::to_string(s.admitted);
      response.fields["completed"] = std::to_string(s.completed);
      response.fields["failed"] = std::to_string(s.failed);
      response.fields["cancelled"] = std::to_string(s.cancelled);
      response.fields["interrupted"] = std::to_string(s.interrupted);
      response.fields["shed_queue_full"] = std::to_string(s.shed_queue_full);
      response.fields["shed_quota"] = std::to_string(s.shed_quota);
      response.fields["shed_payload"] = std::to_string(s.shed_payload);
      response.fields["rejected_bad_request"] =
          std::to_string(s.rejected_bad_request);
      response.fields["rejected_device_budget"] =
          std::to_string(s.rejected_device_budget);
      response.fields["chromosomes_done"] =
          std::to_string(s.chromosomes_done);
      response.fields["active"] = std::to_string(s.active);
      response.fields["queue_depth"] = std::to_string(s.queue_depth);
      response.fields["workers_busy"] = std::to_string(s.workers_busy);
      response.fields["spool_bytes"] = std::to_string(s.spool_bytes);
      response.fields["minor_faults"] = std::to_string(s.minor_faults);
      response.fields["rss_bytes"] = std::to_string(s.rss_bytes);
      response.fields["peak_rss_bytes"] = std::to_string(s.peak_rss_bytes);
      response.fields["eventlog_write_failures"] =
          std::to_string(s.eventlog_write_failures);
    } else if (request.op == "metrics") {
      response.ok = true;
      response.fields["format"] = "prometheus-text-0.0.4";
      response.fields["text"] = daemon.prometheus_text();
    } else if (request.op == "health") {
      const DaemonHealth h = daemon.health();
      response.ok = true;
      response.fields["ready"] = h.ready ? "true" : "false";
      response.fields["spool_writable"] = h.spool_writable ? "true" : "false";
      response.fields["workers_alive"] = h.workers_alive ? "true" : "false";
      response.fields["shutting_down"] = h.shutting_down ? "true" : "false";
      response.fields["queue_depth"] = std::to_string(h.queue_depth);
      response.fields["queue_capacity"] = std::to_string(h.queue_capacity);
      response.fields["active_jobs"] = std::to_string(h.active_jobs);
    } else if (request.op == "shutdown") {
      response.ok = true;
      response.fields["stopping"] = "true";
    } else {
      response.error = ErrorCode::kBadRequest;
      response.message = "unknown op '" + request.op + "'";
    }
  } catch (const ServiceError& e) {
    response.ok = false;
    response.error = e.code();
    response.message = e.what();
    response.fields.clear();
  } catch (const std::exception& e) {
    response.ok = false;
    response.error = ErrorCode::kInternal;
    response.message = e.what();
    response.fields.clear();
  }
  return response;
}

std::string handle_line(Daemon& daemon, const std::string& line) {
  try {
    return encode_response(handle_request(daemon, parse_request(line)));
  } catch (const ServiceError& e) {
    Response response;
    response.error = e.code();
    response.message = e.what();
    return encode_response(response);
  } catch (const std::exception& e) {
    Response response;
    response.error = ErrorCode::kBadRequest;
    response.message = e.what();
    return encode_response(response);
  }
}

}  // namespace gsnp::service
