// Serving-layer request types and the deterministic trace generator
// (DESIGN.md Section 14).
//
// A Request is one inference to run against a zoo model family under an SLO:
// an absolute deadline plus a priority class. Requests arrive as a trace
// (generated here or hand-built), are admitted into per-family queues, and
// leave as Completions — either executed inside a batch or shed. Everything
// is plain data keyed by integer ids so serving runs are reproducible
// byte-for-byte from (trace, seed) alone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/fnv1a.h"

namespace ulayer::serve {

// Scheduling class. Lower value = more urgent: the scheduler always drains
// interactive work before batch work, and EDF orders within a class.
enum class Priority : uint8_t { kInteractive = 0, kBatch = 1 };

std::string_view PriorityName(Priority p);

struct Request {
  int64_t id = -1;            // Unique, monotone in arrival order.
  std::string model;          // Zoo family key ("lenet5", "alexnet", ...).
  int64_t session = 0;        // Tenant/session id (executor-lane affinity).
  Priority priority = Priority::kInteractive;
  double arrival_us = 0.0;    // Absolute arrival time.
  double deadline_us = 0.0;   // Absolute SLO deadline (> arrival_us).
  uint64_t input_seed = 0;    // Seeds this request's input tensor (functional).
};

// What happened to a request.
enum class Outcome : uint8_t {
  kCompleted,      // Executed; see latency/deadline_met/digest.
  kShedQueueFull,  // Rejected at admission: the family queue was full.
  kShedDeadline,   // Rejected at admission: predicted finish past deadline.
  kShedExpired,    // Dropped at dispatch: deadline passed while queued.
};

std::string_view OutcomeName(Outcome o);

struct Completion {
  int64_t id = -1;
  Outcome outcome = Outcome::kCompleted;
  double finish_us = 0.0;   // Completion or shed decision time.
  double latency_us = 0.0;  // finish - arrival (kCompleted only).
  int batch_size = 0;       // Size of the batch it executed in (kCompleted).
  bool deadline_met = false;
  uint64_t output_digest = 0;  // FNV-1a of this request's output row bytes
                               // (functional runs only; 0 otherwise).
};

// FNV-1a 64-bit over a byte range (common/fnv1a.h) — the digest used to
// compare per-request outputs across serving configurations (batched vs.
// sequential, different thread budgets) without storing tensors.
using ulayer::Fnv1a64;

// Deterministic open-loop trace: `num_requests` arrivals uniform over
// [0, duration_us), families/sessions/classes sampled from the seeded Rng.
// Identical spec -> identical trace, on every platform.
struct TraceSpec {
  uint64_t seed = 1;
  int num_requests = 64;
  double duration_us = 1e6;
  std::vector<std::string> models{"lenet5"};  // Sampled uniformly.
  int sessions = 4;
  double interactive_fraction = 0.5;
  // Deadline = arrival + the class budget.
  double interactive_deadline_us = 50e3;
  double batch_deadline_us = 500e3;
};

// Requests sorted by (arrival_us, id), ids dense from 0.
std::vector<Request> GenerateTrace(const TraceSpec& spec);

}  // namespace ulayer::serve
