#include "serve/request.h"

#include <algorithm>

#include "common/error.h"
#include "tensor/rng.h"

namespace ulayer::serve {

std::string_view PriorityName(Priority p) {
  switch (p) {
    case Priority::kInteractive:
      return "interactive";
    case Priority::kBatch:
      return "batch";
  }
  return "?";
}

std::string_view OutcomeName(Outcome o) {
  switch (o) {
    case Outcome::kCompleted:
      return "completed";
    case Outcome::kShedQueueFull:
      return "shed-queue-full";
    case Outcome::kShedDeadline:
      return "shed-deadline";
    case Outcome::kShedExpired:
      return "shed-expired";
  }
  return "?";
}

std::vector<Request> GenerateTrace(const TraceSpec& spec) {
  if (spec.num_requests < 0 || spec.models.empty() || spec.sessions <= 0 ||
      !(spec.duration_us >= 0.0)) {
    throw Error(ErrorCode::kInvalidArgument, "GenerateTrace: malformed TraceSpec");
  }
  Rng rng(spec.seed);
  std::vector<Request> trace;
  trace.reserve(static_cast<size_t>(spec.num_requests));
  for (int i = 0; i < spec.num_requests; ++i) {
    Request r;
    r.model = spec.models[rng.Below(spec.models.size())];
    r.session = static_cast<int64_t>(rng.Below(static_cast<uint64_t>(spec.sessions)));
    r.priority = static_cast<double>(rng.Uniform(0.0f, 1.0f)) < spec.interactive_fraction
                     ? Priority::kInteractive
                     : Priority::kBatch;
    r.arrival_us = static_cast<double>(rng.Uniform(0.0f, 1.0f)) * spec.duration_us;
    r.deadline_us = r.arrival_us + (r.priority == Priority::kInteractive
                                        ? spec.interactive_deadline_us
                                        : spec.batch_deadline_us);
    r.input_seed = rng.Next();
    trace.push_back(std::move(r));
  }
  // Arrival order defines the id order (stable: equal arrivals keep their
  // generation order, so the trace is a pure function of the spec).
  std::stable_sort(trace.begin(), trace.end(),
                   [](const Request& a, const Request& b) { return a.arrival_us < b.arrival_us; });
  for (size_t i = 0; i < trace.size(); ++i) {
    trace[i].id = static_cast<int64_t>(i);
  }
  return trace;
}

}  // namespace ulayer::serve
