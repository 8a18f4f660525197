#include "net/coordinator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>

#include "common/error.h"
#include "core/compute.h"
#include "net/wire.h"

namespace ulayer::net {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The roofline prices work at QUInt8 storage, matching the partitioner's
// cost model (and multi::SliceWork); functional numerics are unaffected.
constexpr DType kCostDType = DType::kQUInt8;

std::string FormatUs(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

}  // namespace

std::string NetDegradation::ToString() const {
  std::ostringstream os;
  os << "net degradation: "
     << (degraded() ? "degraded" : "none")
     << " (retransmits=" << retransmits << " reroutes=" << reroutes
     << " worker-deaths=" << worker_deaths << " partitions=" << partitions
     << " delays=" << delays << " heartbeat-timeouts=" << heartbeat_timeouts
     << " faults-injected=" << faults_injected << ")";
  for (const fault::FaultEvent& ev : events) {
    os << "\n  " << ev.ToString();
  }
  return os.str();
}

Coordinator::Coordinator(const PreparedModel& pm, ClusterSpec cluster)
    : pm_(pm), cluster_(std::move(cluster)) {
  injector_ = std::make_unique<fault::FaultInjector>(fault::FaultPlan{});
}

void Coordinator::SetFaultPlan(fault::FaultPlan plan) {
  injector_ = std::make_unique<fault::FaultInjector>(std::move(plan));
}

NetRunResult Coordinator::Run(const NetPlan& plan, const Tensor* input) {
  const Graph& g = pm_.graph();
  const size_t v = static_cast<size_t>(g.size());
  const size_t nw = cluster_.workers.size();
  if (plan.kind != NetPlanKind::kChannel) {
    throw Error(ErrorCode::kInvalidArgument,
                "Run wants a channel plan; use RunPipeline for pipeline plans");
  }
  if (plan.fractions.size() != v) {
    throw Error(ErrorCode::kInvalidArgument,
                "net plan has " + std::to_string(plan.fractions.size()) + " rows for a " +
                    std::to_string(v) + "-node graph");
  }
  injector_->ResetRun();

  NetRunResult r;
  r.worker_busy_us.assign(nw, 0.0);
  r.worker_alive.assign(nw, true);
  r.death_us.assign(nw, kInf);

  std::vector<Link> links;
  links.reserve(nw);
  for (const WorkerSpec& w : cluster_.workers) {
    links.emplace_back(w.link);
  }
  std::vector<char> link_down(nw, 0);
  std::vector<char> alive(nw, 1);

  const bool functional = input != nullptr;
  std::vector<Tensor> act;
  std::vector<std::vector<Tensor>> wact;
  // Which full (merged) tensors each worker holds — tracked in timing-only
  // runs too, so both modes send identical message sequences and the fault
  // stream of a timing run predicts the functional one exactly.
  std::vector<std::vector<char>> whas(nw, std::vector<char>(v, 0));
  if (functional) {
    act.resize(v);
    wact.assign(nw, std::vector<Tensor>(v));
  }

  std::vector<double> done(v, 0.0);
  std::vector<double> worker_time(nw, 0.0);
  double coord_time = 0.0;
  int64_t seq = 0;

  const multi::MultiProcessor coord_proc{cluster_.coordinator_proc,
                                         cluster_.coordinator_compute};
  auto worker_proc = [&](int w) {
    return multi::MultiProcessor{cluster_.workers[static_cast<size_t>(w)].proc,
                                 cluster_.workers[static_cast<size_t>(w)].compute};
  };

  struct SendOutcome {
    bool delivered = false;
    double arrive_us = -1.0;
  };

  // One message over worker `w`'s link with drop/delay/partition injection
  // and bounded exponential-backoff retransmits.
  auto send_message = [&](int w, MessageKind kind, int node_id, int64_t c0, int64_t c1,
                          double ready_us, bool to_worker) -> SendOutcome {
    const size_t wi = static_cast<size_t>(w);
    const Node& node = g.node(node_id);
    const int64_t bytes = WireSliceBytes(node.out_shape, pm_.ActivationDType(node_id), c0, c1);
    MessageRecord rec;
    rec.seq = seq++;
    rec.kind = kind;
    rec.worker = w;
    rec.node = node_id;
    rec.c_begin = c0;
    rec.c_end = c1;
    rec.bytes = bytes;
    rec.frags = FragmentCount(bytes, links[wi].spec().mtu_bytes);
    rec.to_worker = to_worker;
    rec.send_us = ready_us;

    SendOutcome out;
    int attempts = 0;
    double t = ready_us;
    const int max_attempts = cluster_.max_retransmits + 1;
    while (!out.delivered && attempts < max_attempts && link_down[wi] == 0) {
      ++attempts;
      const Delivery d = links[wi].Send(t, bytes);
      rec.send_us = d.depart_us;
      const auto dec = injector_->OnNetCall(fault::FaultTarget::kNetLink, w, d.depart_us);
      if (!dec.has_value()) {
        out.delivered = true;
        out.arrive_us = d.arrive_us;
      } else if (dec->kind == fault::FaultKind::kDelay) {
        out.delivered = true;
        out.arrive_us = d.arrive_us + dec->delay_us;
        ++r.degradation.delays;
      } else if (dec->kind == fault::FaultKind::kPartition) {
        link_down[wi] = 1;  // Down for the rest of the run; message lost.
        ++r.degradation.partitions;
      } else {
        // kDrop: lost in flight; retransmit after the exponential backoff.
        t = d.depart_us + d.occupancy_us +
            cluster_.retransmit_backoff_us * std::ldexp(1.0, attempts - 1);
      }
    }
    rec.attempts = attempts;
    rec.delivered = out.delivered;
    rec.arrive_us = out.arrive_us;
    r.degradation.retransmits += std::max(0, attempts - 1);
    ++r.wire_messages;
    r.wire_bytes += bytes * attempts;
    r.messages.push_back(rec);
    return out;
  };

  // Functional input delivery: the producer tensor actually travels through
  // the wire format (encode -> MTU fragmentation -> reassembly -> decode ->
  // scatter), so a functional run exercises the full transport end to end.
  auto deliver_input = [&](int w, int p) {
    const size_t wi = static_cast<size_t>(w);
    whas[wi][static_cast<size_t>(p)] = 1;
    if (!functional) {
      return;
    }
    const Tensor& src = act[static_cast<size_t>(p)];
    const std::vector<uint8_t> bytes = EncodeTensorSlice(src, p, 0, src.shape().c);
    const WireSlice slice = DecodeTensorSlice(ReassembleMessage(
        FragmentMessage(static_cast<uint64_t>(seq), bytes, links[wi].spec().mtu_bytes)));
    Tensor dst(src.shape(), src.dtype());
    dst.set_quant_params(src.scale(), src.zero_point());
    ScatterSlice(slice, dst);
    wact[wi][static_cast<size_t>(p)] = std::move(dst);
  };

  // Declares worker `w` lost at `detect_us` (heartbeat expiry).
  auto declare_lost = [&](int w, double detect_us) {
    alive[static_cast<size_t>(w)] = 0;
    r.worker_alive[static_cast<size_t>(w)] = false;
    r.death_us[static_cast<size_t>(w)] = detect_us;
    ++r.degradation.heartbeat_timeouts;
  };

  for (const Node& node : g.nodes()) {
    const size_t id = static_cast<size_t>(node.id);
    injector_->set_current_node(node.id);
    if (node.desc.kind == LayerKind::kInput) {
      if (functional) {
        act[id] = pm_.PrepareInput(*input);
      }
      done[id] = 0.0;
      continue;
    }
    const int64_t channels = node.out_shape.c;
    double ready = 0.0;
    for (int p : node.inputs) {
      ready = std::max(ready, done[static_cast<size_t>(p)]);
    }

    // The plan row, restricted to workers still alive; SliceBoundaries
    // renormalizes, so a surviving subset absorbs a dead worker's share.
    std::vector<double> row = plan.fractions[id];
    row.resize(nw, 0.0);
    for (size_t w = 0; w < nw; ++w) {
      if (alive[w] == 0) {
        row[w] = 0.0;
      }
    }
    const std::vector<int64_t> bounds = SliceBoundaries(channels, row);
    std::vector<int> participants;
    for (size_t w = 0; w < nw; ++w) {
      if (bounds[w + 1] > bounds[w]) {
        participants.push_back(static_cast<int>(w));
      }
    }
    if (!Splittable(node.desc.kind) && participants.size() > 1) {
      throw Error(ErrorCode::kInvalidArgument,
                  "net plan splits non-splittable node " + std::to_string(node.id));
    }

    if (participants.empty()) {
      // Coordinator computes the whole node locally.
      if (functional) {
        act[id] = pm_.MakeActivation(node.id);
        ComputeNodeSlice(pm_, node.id, ProcKind::kCpu, act, 0, channels);
      }
      const double dur = multi::KernelLatencyUs(
          coord_proc, ComputeWork(g, node, kCostDType, 0, channels));
      const double start = std::max(ready, coord_time);
      coord_time = start + dur;
      r.coordinator_busy_us += dur;
      done[id] = coord_time;
      continue;
    }

    if (functional) {
      act[id] = pm_.MakeActivation(node.id);
    }

    struct LostSlice {
      int worker = -1;
      int64_t c0 = 0;
      int64_t c1 = 0;
      double detect_us = 0.0;
    };
    std::vector<LostSlice> lost;
    std::vector<double> arrivals;
    int delivered_slices = 0;

    // Runs slice [c0, c1) on worker `w`: ships missing producers, computes,
    // returns the result. Used for planned assignments and re-routes alike.
    auto run_on_worker = [&](int w, int64_t c0, int64_t c1, double assign_us,
                             bool rerouted) -> void {
      const size_t wi = static_cast<size_t>(w);
      // Worker-death faults fire at slice assignment; the silent death is
      // detected one heartbeat window later.
      const auto dec =
          injector_->OnNetCall(fault::FaultTarget::kNetWorker, w, assign_us);
      if (dec.has_value() && dec->kind == fault::FaultKind::kWorkerDeath) {
        ++r.degradation.worker_deaths;
        const double detect = assign_us + cluster_.heartbeat_timeout_us;
        declare_lost(w, detect);
        lost.push_back(LostSlice{w, c0, c1, detect});
        return;
      }
      double in_ready = assign_us;
      for (int p : node.inputs) {
        if (whas[wi][static_cast<size_t>(p)] != 0) {
          continue;
        }
        const SendOutcome in = send_message(
            w, MessageKind::kInput, p, 0, g.node(p).out_shape.c,
            std::max(assign_us, done[static_cast<size_t>(p)]), /*to_worker=*/true);
        if (!in.delivered) {
          const double detect =
              std::max(assign_us, links[wi].busy_until()) + cluster_.heartbeat_timeout_us;
          declare_lost(w, detect);
          lost.push_back(LostSlice{w, c0, c1, detect});
          return;
        }
        deliver_input(w, p);
        in_ready = std::max(in_ready, in.arrive_us);
      }
      const double start = std::max(in_ready, worker_time[wi]);
      const double dur = multi::KernelLatencyUs(
          worker_proc(w), ComputeWork(g, node, kCostDType, c0, c1));
      worker_time[wi] = start + dur;
      r.worker_busy_us[wi] += dur;
      if (functional) {
        if (wact[wi][id].empty()) {
          wact[wi][id] = pm_.MakeActivation(node.id);
        }
        // Always the deterministic CPU-flavor kernels, whatever the worker's
        // timing dtype: this is what makes any re-partition byte-identical.
        ComputeNodeSlice(pm_, node.id, ProcKind::kCpu, wact[wi], c0, c1);
      }
      const SendOutcome res = send_message(w, MessageKind::kResult, node.id, c0, c1,
                                           worker_time[wi], /*to_worker=*/false);
      SliceRecord srec;
      srec.node = node.id;
      srec.worker = w;
      srec.c_begin = c0;
      srec.c_end = c1;
      srec.start_us = start;
      srec.end_us = worker_time[wi];
      srec.rerouted = rerouted;
      srec.delivered = res.delivered;
      r.slices.push_back(srec);
      if (!res.delivered) {
        // The slice was computed but its result never arrived: the worker is
        // unreachable, so the coordinator re-routes after the heartbeat.
        const double detect =
            std::max(worker_time[wi], links[wi].busy_until()) + cluster_.heartbeat_timeout_us;
        declare_lost(w, detect);
        lost.push_back(LostSlice{w, c0, c1, detect});
        return;
      }
      if (functional) {
        const std::vector<uint8_t> bytes = EncodeTensorSlice(wact[wi][id], node.id, c0, c1);
        ScatterSlice(DecodeTensorSlice(bytes), act[id]);
      }
      arrivals.push_back(res.arrive_us);
      ++delivered_slices;
    };

    for (int w : participants) {
      run_on_worker(w, bounds[static_cast<size_t>(w)], bounds[static_cast<size_t>(w) + 1],
                    ready, /*rerouted=*/false);
    }

    // Recovery: re-route every lost slice to the lowest-id surviving worker,
    // or absorb it on the coordinator when nobody is left. Cascading
    // failures append to `lost` and drain in FIFO order; the coordinator
    // itself never fails, so this terminates.
    for (size_t li = 0; li < lost.size(); ++li) {
      const LostSlice l = lost[li];
      ++r.degradation.reroutes;
      int target = -1;
      for (size_t w = 0; w < nw; ++w) {
        if (alive[w] != 0) {
          target = static_cast<int>(w);
          break;
        }
      }
      if (target >= 0) {
        run_on_worker(target, l.c0, l.c1, l.detect_us, /*rerouted=*/true);
      } else {
        const double start = std::max(l.detect_us, coord_time);
        const double dur = multi::KernelLatencyUs(
            coord_proc, ComputeWork(g, node, kCostDType, l.c0, l.c1));
        coord_time = start + dur;
        r.coordinator_busy_us += dur;
        if (functional) {
          ComputeNodeSlice(pm_, node.id, ProcKind::kCpu, act, l.c0, l.c1);
        }
        SliceRecord srec;
        srec.node = node.id;
        srec.worker = -1;
        srec.c_begin = l.c0;
        srec.c_end = l.c1;
        srec.start_us = start;
        srec.end_us = coord_time;
        srec.rerouted = true;
        srec.delivered = true;
        r.slices.push_back(srec);
        arrivals.push_back(coord_time);
        ++delivered_slices;
      }
    }

    double end = ready;
    for (double a : arrivals) {
      end = std::max(end, a);
    }
    if (delivered_slices > 1) {
      // The coordinator scatters multiple slices back together.
      const double mstart = std::max(end, coord_time);
      coord_time = mstart + cluster_.merge_us;
      r.coordinator_busy_us += cluster_.merge_us;
      end = coord_time;
    }
    done[id] = end;
  }

  injector_->set_current_node(-1);
  r.latency_us = done[v - 1];
  r.degradation.events = injector_->events();
  r.degradation.faults_injected = static_cast<int64_t>(injector_->events().size());
  if (functional) {
    r.output = std::move(act[v - 1]);
    r.output_digest =
        Fnv1a64(r.output->raw(), static_cast<size_t>(r.output->SizeBytes()));
  }
  return r;
}

PipelineResult Coordinator::RunPipeline(const NetPlan& plan, int items) {
  if (plan.kind != NetPlanKind::kPipeline) {
    throw Error(ErrorCode::kInvalidArgument, "RunPipeline wants a kPipeline plan");
  }
  if (items <= 0) {
    throw Error(ErrorCode::kInvalidArgument, "RunPipeline wants items > 0");
  }
  const Graph& g = pm_.graph();
  const int v = g.size();
  const size_t stages = plan.stage_worker.size();

  // Per-stage compute cost and boundary traffic (constant per item).
  std::vector<double> stage_cost(stages, 0.0);
  std::vector<int64_t> stage_in_bytes(stages, 0);
  for (int id = 0; id < v; ++id) {
    const int s = plan.stage_of_node[static_cast<size_t>(id)];
    if (s < 0) {
      continue;
    }
    const Node& node = g.node(id);
    const int w = plan.stage_worker[static_cast<size_t>(s)];
    const multi::MultiProcessor proc =
        w < 0 ? multi::MultiProcessor{cluster_.coordinator_proc, cluster_.coordinator_compute}
              : multi::MultiProcessor{cluster_.workers[static_cast<size_t>(w)].proc,
                                      cluster_.workers[static_cast<size_t>(w)].compute};
    stage_cost[static_cast<size_t>(s)] += multi::KernelLatencyUs(
        proc, ComputeWork(g, node, kCostDType, 0, node.out_shape.c));
    for (int p : node.inputs) {
      if (plan.stage_of_node[static_cast<size_t>(p)] != s) {
        const Shape& ps = g.node(p).out_shape;
        stage_in_bytes[static_cast<size_t>(s)] +=
            WireSliceBytes(ps, pm_.ActivationDType(p), 0, ps.c);
      }
    }
  }
  const Shape& out_shape = g.node(v - 1).out_shape;
  const int64_t out_bytes = WireSliceBytes(out_shape, pm_.ActivationDType(v - 1), 0, out_shape.c);

  std::vector<Link> links;
  links.reserve(cluster_.workers.size());
  for (const WorkerSpec& w : cluster_.workers) {
    links.emplace_back(w.link);
  }

  PipelineResult pr;
  pr.items = items;
  pr.stage_busy_us.assign(stages, 0.0);
  std::vector<double> stage_free(stages, 0.0);
  double last_arrive = 0.0;
  for (int item = 0; item < items; ++item) {
    double at = 0.0;  // Every item is available at the coordinator at t=0;
                      // link occupancy and stage busy-ness stagger them.
    for (size_t s = 0; s < stages; ++s) {
      const int w = plan.stage_worker[s];
      double arrive = at;
      if (w >= 0 && stage_in_bytes[s] > 0) {
        const Delivery d = links[static_cast<size_t>(w)].Send(at, stage_in_bytes[s]);
        arrive = d.arrive_us;
        pr.wire_bytes += stage_in_bytes[s];
      }
      const double start = std::max(arrive, stage_free[s]);
      stage_free[s] = start + stage_cost[s];
      pr.stage_busy_us[s] += stage_cost[s];
      at = stage_free[s];
    }
    if (!plan.stage_worker.empty() && plan.stage_worker.back() >= 0) {
      const Delivery d =
          links[static_cast<size_t>(plan.stage_worker.back())].Send(at, out_bytes);
      at = d.arrive_us;
      pr.wire_bytes += out_bytes;
    }
    last_arrive = std::max(last_arrive, at);
  }
  pr.makespan_us = last_arrive;
  pr.throughput_per_s = last_arrive > 0.0 ? static_cast<double>(items) / (last_arrive * 1e-6) : 0.0;
  for (size_t s = 0; s < stages; ++s) {
    double serialize_us = 0.0;
    const int w = plan.stage_worker[s];
    if (w >= 0 && stage_in_bytes[s] > 0) {
      const LinkSpec& link = cluster_.workers[static_cast<size_t>(w)].link;
      serialize_us =
          static_cast<double>(FragmentCount(stage_in_bytes[s], link.mtu_bytes)) *
              link.per_packet_us +
          static_cast<double>(stage_in_bytes[s]) / (link.gb_per_s * 1e3);
    }
    pr.bottleneck_us = std::max(pr.bottleneck_us, stage_cost[s] + serialize_us);
  }
  return pr;
}

Report VerifyNetRun(const Graph& g, const ClusterSpec& cluster, const NetRunResult& r) {
  Report rep;
  const int nw = static_cast<int>(cluster.workers.size());
  constexpr double kEps = 1e-6;

  // --- N804 message sanity + per-message retransmit bounds (N803) -----------
  int64_t retransmits = 0;
  for (const MessageRecord& m : r.messages) {
    if (m.worker < 0 || m.worker >= nw) {
      rep.Error(DiagCode::kNetMessageInvalid, m.node,
                "message seq " + std::to_string(m.seq) + " names worker " +
                    std::to_string(m.worker) + " outside [0, " + std::to_string(nw) + ")");
      continue;
    }
    const LinkSpec& link = cluster.workers[static_cast<size_t>(m.worker)].link;
    if (m.bytes <= 0) {
      rep.Error(DiagCode::kNetMessageInvalid, m.node,
                "message seq " + std::to_string(m.seq) + " carries no bytes");
    }
    if (m.frags != FragmentCount(m.bytes, link.mtu_bytes)) {
      rep.Error(DiagCode::kNetMessageInvalid, m.node,
                "message seq " + std::to_string(m.seq) + " has " + std::to_string(m.frags) +
                    " fragments; mtu " + std::to_string(link.mtu_bytes) + " implies " +
                    std::to_string(FragmentCount(m.bytes, link.mtu_bytes)));
    }
    if (m.delivered && m.arrive_us + kEps < m.send_us + link.latency_us) {
      rep.Error(DiagCode::kNetMessageInvalid, m.node,
                "message seq " + std::to_string(m.seq) + " arrived at " +
                    FormatUs(m.arrive_us) + "us, before send + link latency");
    }
    if (m.attempts > cluster.max_retransmits + 1) {
      rep.Error(DiagCode::kNetRetransmitMismatch, m.node,
                "message seq " + std::to_string(m.seq) + " used " +
                    std::to_string(m.attempts) + " attempts; bound is " +
                    std::to_string(cluster.max_retransmits + 1));
    }
    if (!m.delivered && m.worker < static_cast<int>(r.worker_alive.size()) &&
        r.worker_alive[static_cast<size_t>(m.worker)]) {
      rep.Error(DiagCode::kNetRetransmitMismatch, m.node,
                "message seq " + std::to_string(m.seq) +
                    " was never delivered, yet worker " + std::to_string(m.worker) +
                    " survived the run");
    }
    retransmits += std::max(0, m.attempts - 1);
  }

  // --- N803 retransmit accounting -------------------------------------------
  if (retransmits != r.degradation.retransmits) {
    rep.Error(DiagCode::kNetRetransmitMismatch, -1,
              "messages record " + std::to_string(retransmits) +
                  " retransmits; the degradation report claims " +
                  std::to_string(r.degradation.retransmits));
  }

  // --- N801 slice coverage / N802 double delivery ---------------------------
  std::map<int, std::vector<const SliceRecord*>> delivered_by_node;
  for (const SliceRecord& s : r.slices) {
    if (s.delivered) {
      delivered_by_node[s.node].push_back(&s);
    }
  }
  for (auto& [node_id, slices] : delivered_by_node) {
    const int64_t channels = g.node(node_id).out_shape.c;
    std::sort(slices.begin(), slices.end(),
              [](const SliceRecord* a, const SliceRecord* b) {
                return a->c_begin != b->c_begin ? a->c_begin < b->c_begin
                                                : a->c_end < b->c_end;
              });
    int64_t cursor = 0;
    bool overlap = false;
    bool gap = false;
    for (const SliceRecord* s : slices) {
      if (s->c_begin < 0 || s->c_end > channels || s->c_end <= s->c_begin) {
        rep.Error(DiagCode::kNetSliceCoverage, node_id,
                  "delivered slice [" + std::to_string(s->c_begin) + ", " +
                      std::to_string(s->c_end) + ") outside [0, " +
                      std::to_string(channels) + ")");
        continue;
      }
      if (s->c_begin < cursor) {
        overlap = true;
      } else if (s->c_begin > cursor) {
        gap = true;
      }
      cursor = std::max(cursor, s->c_end);
    }
    if (overlap) {
      rep.Error(DiagCode::kNetDoubleDelivery, node_id,
                "a channel range was delivered more than once");
    }
    if (gap || cursor != channels) {
      rep.Error(DiagCode::kNetSliceCoverage, node_id,
                "delivered slices do not partition [0, " + std::to_string(channels) + ")");
    }
  }

  // --- N805 no activity past a worker's death -------------------------------
  for (const SliceRecord& s : r.slices) {
    if (s.worker < 0 || static_cast<size_t>(s.worker) >= r.death_us.size()) {
      continue;
    }
    const double death = r.death_us[static_cast<size_t>(s.worker)];
    if (std::isfinite(death) && s.end_us > death + kEps) {
      rep.Error(DiagCode::kNetDeadWorkerActivity, s.node,
                "worker " + std::to_string(s.worker) + " computed a slice ending at " +
                    FormatUs(s.end_us) + "us, after its death at " + FormatUs(death) + "us");
    }
  }
  for (const MessageRecord& m : r.messages) {
    if (m.worker < 0 || static_cast<size_t>(m.worker) >= r.death_us.size()) {
      continue;
    }
    const double death = r.death_us[static_cast<size_t>(m.worker)];
    if (std::isfinite(death) && m.send_us > death + kEps) {
      rep.Error(DiagCode::kNetDeadWorkerActivity, m.node,
                "message seq " + std::to_string(m.seq) + " departed at " +
                    FormatUs(m.send_us) + "us, after worker " + std::to_string(m.worker) +
                    "'s death at " + FormatUs(death) + "us");
    }
  }
  return rep;
}

void AddNetRun(trace::MetricsRegistry& m, const NetRunResult& r) {
  m.Count("net.runs");
  m.Count("net.messages", r.wire_messages);
  m.Count("net.bytes", r.wire_bytes);
  m.Count("net.retransmits", r.degradation.retransmits);
  int64_t drops = 0;
  for (const fault::FaultEvent& ev : r.degradation.events) {
    drops += ev.kind == fault::FaultKind::kDrop ? 1 : 0;
  }
  m.Count("net.drops", drops);
  m.Count("net.reroutes", r.degradation.reroutes);
  m.Count("net.worker_deaths", r.degradation.worker_deaths);
  m.Count("net.partitions", r.degradation.partitions);
  m.Count("net.delays", r.degradation.delays);
  m.Count("net.heartbeat_timeouts", r.degradation.heartbeat_timeouts);
  m.Count("net.faults_injected", r.degradation.faults_injected);
  m.Observe("net.latency_us", r.latency_us);
  for (const MessageRecord& rec : r.messages) {
    m.Observe("net.msg_bytes", static_cast<double>(rec.bytes));
    if (rec.delivered) {
      m.Observe("net.msg_us", rec.arrive_us - rec.send_us);
    }
  }
  for (const SliceRecord& s : r.slices) {
    m.Observe("net.slice_us", s.end_us - s.start_us);
  }
}

}  // namespace ulayer::net
