#include "graphio/serve/job.hpp"

#include "graphio/la/solver_policy.hpp"
#include "graphio/support/contracts.hpp"

namespace graphio::serve {

namespace {

/// Request keys shared by spec jobs and named-graph queries. Returns
/// false when `key` is not a request key (caller decides what that
/// means). `request.spec` handling stays with the caller.
bool apply_request_key(engine::BoundRequest& request, const std::string& key,
                       const io::JsonValue& v) {
  if (key == "name") {
    request.name = v.as_string();
  } else if (key == "memories") {
    for (const io::JsonValue& m : v.items()) {
      const double memory = m.as_double();
      GIO_EXPECTS_MSG(memory >= 0.0, "memory size must be non-negative");
      request.memories.push_back(memory);
    }
  } else if (key == "methods") {
    for (const io::JsonValue& m : v.items())
      request.methods.push_back(m.as_string());
  } else if (key == "processors") {
    request.processors = v.as_int();
    GIO_EXPECTS_MSG(request.processors >= 1, "processors must be >= 1");
  } else if (key == "sim_random_orders") {
    const std::int64_t orders = v.as_int();
    GIO_EXPECTS_MSG(orders >= 0 && orders <= 1'000'000,
                    "sim_random_orders out of range");
    request.sim_random_orders = static_cast<int>(orders);
  } else if (key == "solver") {
    // Parse at ingest so a bad name rejects the line (with the known
    // names) instead of failing every method at evaluation.
    request.spectral.solver = la::parse_solver_policy(v.as_string());
  } else if (key == "decompose") {
    request.spectral.decompose = v.as_bool();
  } else {
    return false;
  }
  return true;
}

}  // namespace

Job job_from_json(const io::JsonValue& value) {
  GIO_EXPECTS_MSG(value.is_object(), "job line must be a JSON object");
  Job job;
  bool has_patch = false;
  bool has_label = false;
  bool has_request_keys = false;
  for (const auto& [key, v] : value.members()) {
    if (key == "graph") {
      job.graph = v.as_string();
      GIO_EXPECTS_MSG(!job.graph.empty(), "\"graph\" must not be empty");
    } else if (key == "load") {
      job.load_spec = v.as_string();
      GIO_EXPECTS_MSG(!job.load_spec.empty(), "\"load\" must not be empty");
    } else if (key == "patch") {
      GIO_EXPECTS_MSG(v.is_array(), "\"patch\" must be a mutation array");
      for (const io::JsonValue& m : v.items())
        job.patch.mutations.push_back(stream::mutation_from_json(m));
      has_patch = true;
    } else if (key == "label") {
      job.patch.label = v.as_string();
      has_label = true;
    } else if (key == "spec") {
      job.request.spec = v.as_string();
    } else if (apply_request_key(job.request, key, v)) {
      has_request_keys = true;
    } else {
      GIO_EXPECTS_MSG(false, "unknown job key '" + key + "'");
    }
  }

  const bool has_load = !job.load_spec.empty();
  const bool has_query = !job.request.memories.empty();
  GIO_EXPECTS_MSG(static_cast<int>(has_load) + static_cast<int>(has_patch) +
                          static_cast<int>(has_query) <=
                      1,
                  "a job is one of load, patch, or query — not several");
  GIO_EXPECTS_MSG(!has_label || has_patch,
                  "\"label\" only applies to patch jobs");
  if (has_load || has_patch) {
    GIO_EXPECTS_MSG(!job.graph.empty(),
                    "load/patch jobs need a \"graph\" name");
    // Strict, like the rest of the grammar: an analysis key on a
    // load/patch line would be silently dead configuration.
    GIO_EXPECTS_MSG(job.request.spec.empty() && !has_request_keys,
                    "load/patch jobs take no analysis keys");
    job.kind = has_load ? JobKind::kLoad : JobKind::kPatch;
    return job;
  }
  job.kind = JobKind::kBound;
  if (job.graph.empty()) {
    GIO_EXPECTS_MSG(!job.request.spec.empty(), "job needs a \"spec\"");
  } else {
    GIO_EXPECTS_MSG(job.request.spec.empty(),
                    "a query names \"spec\" or \"graph\", not both");
  }
  GIO_EXPECTS_MSG(!job.request.memories.empty(),
                  "job needs a non-empty \"memories\" array");
  return job;
}

Job job_from_json_line(const std::string& line) {
  return job_from_json(io::JsonValue::parse(line));
}

engine::BoundRequest request_from_json(const io::JsonValue& value) {
  Job job = job_from_json(value);
  GIO_EXPECTS_MSG(job.kind == JobKind::kBound && !job.is_stream(),
                  "expected a plain bound job, got a stream job");
  return std::move(job.request);
}

engine::BoundRequest request_from_json_line(const std::string& line) {
  return request_from_json(io::JsonValue::parse(line));
}

std::string request_to_json_line(const engine::BoundRequest& request) {
  io::JsonWriter w;
  w.begin_object();
  w.key("spec").value(request.spec);
  if (!request.name.empty()) w.key("name").value(request.name);
  w.key("memories").begin_array();
  for (double m : request.memories) w.value(m);
  w.end_array();
  if (!request.methods.empty()) {
    w.key("methods").begin_array();
    for (const std::string& m : request.methods) w.value(m);
    w.end_array();
  }
  if (request.processors != 1) w.key("processors").value(request.processors);
  if (request.sim_random_orders != 4)
    w.key("sim_random_orders").value(request.sim_random_orders);
  if (request.spectral.solver)
    w.key("solver").value(la::to_string(*request.spectral.solver));
  if (!request.spectral.decompose) w.key("decompose").value(false);
  w.end_object();
  return w.str();
}

}  // namespace graphio::serve
