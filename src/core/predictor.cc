#include "core/predictor.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace ulayer {
namespace {

// Latency floor for fit samples (microseconds): keeps log(t) finite for
// zero-latency samples without disturbing any realistic measurement.
constexpr double kMinSampleUs = 1e-9;

// Solves the 3x3 linear system A*x = b by Gaussian elimination with partial
// pivoting. Returns false if singular.
bool Solve3(double a[3][3], double b[3], double x[3]) {
  int idx[3] = {0, 1, 2};
  for (int col = 0; col < 3; ++col) {
    int pivot = col;
    for (int r = col + 1; r < 3; ++r) {
      if (std::fabs(a[idx[r]][col]) > std::fabs(a[idx[pivot]][col])) {
        pivot = r;
      }
    }
    std::swap(idx[col], idx[pivot]);
    const double diag = a[idx[col]][col];
    if (std::fabs(diag) < 1e-12) {
      return false;
    }
    for (int r = col + 1; r < 3; ++r) {
      const double f = a[idx[r]][col] / diag;
      for (int cc = col; cc < 3; ++cc) {
        a[idx[r]][cc] -= f * a[idx[col]][cc];
      }
      b[idx[r]] -= f * b[idx[col]];
    }
  }
  for (int col = 2; col >= 0; --col) {
    double v = b[idx[col]];
    for (int cc = col + 1; cc < 3; ++cc) {
      v -= a[idx[col]][cc] * x[cc];
    }
    x[col] = v / a[idx[col]][col];
  }
  return true;
}

struct Accum {
  // Normal equations for least squares over features (1, x1, x2).
  double ata[3][3] = {};
  double atb[3] = {};
  int n = 0;

  void Add(double x1, double x2, double y) {
    const double f[3] = {1.0, x1, x2};
    for (int i = 0; i < 3; ++i) {
      for (int j = 0; j < 3; ++j) {
        ata[i][j] += f[i] * f[j];
      }
      atb[i] += f[i] * y;
    }
    ++n;
  }
};

}  // namespace

double LatencyPredictor::MeasureUs(const Graph& g, const Node& node, ProcKind proc,
                                   double fraction) const {
  if (fraction <= 0.0) {
    return 0.0;
  }
  const int64_t c_end = FractionChannels(node, fraction);
  if (c_end <= 0) {
    return 0.0;
  }
  const LayerWork w = ComputeWork(g, node, config_.storage, 0, c_end);
  return timing_.KernelLatencyUs(w, proc, config_.ComputeFor(proc), config_.cpu_threads);
}

LatencyPredictor::LatencyPredictor(const TimingModel& timing, const ExecConfig& config,
                                   const std::vector<const Graph*>& training)
    : timing_(timing), config_(config) {
  std::array<std::array<Accum, 2>, kKinds> acc{};
  const double fractions[] = {0.25, 0.5, 0.75, 1.0};
  for (const Graph* g : training) {
    for (const Node& node : g->nodes()) {
      if (node.desc.kind == LayerKind::kInput) {
        continue;
      }
      for (int pi = 0; pi < 2; ++pi) {
        const ProcKind proc = pi == 0 ? ProcKind::kCpu : ProcKind::kGpu;
        for (const double f : fractions) {
          const int64_t c_end = FractionChannels(node, f);
          const LayerWork w = ComputeWork(*g, node, config_.storage, 0, c_end);
          const double t =
              timing_.KernelLatencyUs(w, proc, config_.ComputeFor(proc), config_.cpu_threads);
          // A degenerate layer or a zero-cost timing configuration can yield
          // t == 0 (log -> -inf) or a non-finite t; either would poison the
          // normal equations for this (kind, proc) and every later
          // prediction. Floor at a sub-nanosecond epsilon and drop anything
          // still non-finite.
          if (!std::isfinite(t)) {
            continue;
          }
          const double log_t = std::log(std::max(t, kMinSampleUs));
          acc[static_cast<size_t>(node.desc.kind)][static_cast<size_t>(pi)].Add(
              std::log1p(w.macs), std::log1p(w.TotalBytes()), log_t);
        }
      }
    }
  }
  for (int kind = 0; kind < kKinds; ++kind) {
    for (int pi = 0; pi < 2; ++pi) {
      Accum& a = acc[static_cast<size_t>(kind)][static_cast<size_t>(pi)];
      if (a.n < 4) {
        continue;  // Too few samples: fall back to direct measurement.
      }
      double x[3];
      // Regularize lightly to keep near-singular fits stable (e.g. layers
      // whose MACs and bytes are perfectly correlated).
      for (int i = 0; i < 3; ++i) {
        a.ata[i][i] += 1e-9 * (1.0 + a.ata[i][i]);
      }
      if (Solve3(a.ata, a.atb, x)) {
        Coeffs& c = coeffs_[static_cast<size_t>(kind)][static_cast<size_t>(pi)];
        c.a = x[0];
        c.b = x[1];
        c.c = x[2];
        c.fitted = true;
      }
    }
  }
}

const LatencyPredictor::Coeffs& LatencyPredictor::CoeffsFor(LayerKind kind, ProcKind proc) const {
  return coeffs_[static_cast<size_t>(kind)][proc == ProcKind::kCpu ? 0 : 1];
}

double LatencyPredictor::PredictUs(const Graph& g, const Node& node, ProcKind proc,
                                   double fraction) const {
  if (fraction <= 0.0 || node.desc.kind == LayerKind::kInput) {
    return 0.0;
  }
  const double correction = corrections_.Get(node.desc.kind, proc);
  const Coeffs& c = CoeffsFor(node.desc.kind, proc);
  if (!c.fitted) {
    const double t = MeasureUs(g, node, proc, fraction);
    return correction != 1.0 ? correction * t : t;
  }
  const int64_t c_end = FractionChannels(node, fraction);
  if (c_end <= 0) {
    return 0.0;
  }
  const LayerWork w = ComputeWork(g, node, config_.storage, 0, c_end);
  const double t = std::exp(c.a + c.b * std::log1p(w.macs) + c.c * std::log1p(w.TotalBytes()));
  return correction != 1.0 ? correction * t : t;
}

LatencyPredictor::Fidelity LatencyPredictor::Evaluate(const Graph& g) const {
  Fidelity f;
  double sum = 0.0;
  for (const Node& node : g.nodes()) {
    if (node.desc.kind == LayerKind::kInput) {
      continue;
    }
    for (const ProcKind proc : {ProcKind::kCpu, ProcKind::kGpu}) {
      const double truth = MeasureUs(g, node, proc, 1.0);
      const double pred = PredictUs(g, node, proc, 1.0);
      const double rel = std::fabs(pred - truth) / std::max(truth, 1e-9);
      sum += rel;
      f.max_abs_rel_err = std::max(f.max_abs_rel_err, rel);
      ++f.samples;
    }
  }
  f.mean_abs_rel_err = f.samples > 0 ? sum / f.samples : 0.0;
  return f;
}

}  // namespace ulayer
