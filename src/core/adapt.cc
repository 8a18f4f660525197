#include "core/adapt.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/fnv1a.h"

namespace ulayer {
namespace {

size_t ProcIndex(ProcKind proc) { return proc == ProcKind::kGpu ? 1 : 0; }

}  // namespace

CorrectionTable::CorrectionTable() {
  for (auto& row : scale_) {
    row = {1.0, 1.0};
  }
}

double CorrectionTable::Get(LayerKind kind, ProcKind proc) const {
  return scale_[static_cast<size_t>(kind)][ProcIndex(proc)];
}

void CorrectionTable::Set(LayerKind kind, ProcKind proc, double scale) {
  if (!std::isfinite(scale)) {
    return;
  }
  scale_[static_cast<size_t>(kind)][ProcIndex(proc)] = std::clamp(scale, kMinScale, kMaxScale);
}

void CorrectionTable::Update(LayerKind kind, ProcKind proc, double observed_ratio, double alpha) {
  if (!std::isfinite(observed_ratio) || observed_ratio <= 0.0) {
    return;
  }
  alpha = std::clamp(alpha, 0.0, 1.0);
  double& cell = scale_[static_cast<size_t>(kind)][ProcIndex(proc)];
  cell = std::clamp((1.0 - alpha) * cell + alpha * observed_ratio, kMinScale, kMaxScale);
}

bool CorrectionTable::IsIdentity() const {
  for (const auto& row : scale_) {
    if (row[0] != 1.0 || row[1] != 1.0) {
      return false;
    }
  }
  return true;
}

int32_t CorrectionTable::BucketOf(double scale, double growth) {
  if (!(scale > 0.0) || !(growth > 1.0)) {
    return 0;
  }
  return static_cast<int32_t>(std::llround(std::log(scale) / std::log(growth)));
}

uint64_t CorrectionTable::Fingerprint(double growth) const {
  uint64_t h = kFnv1a64Basis;
  for (const auto& row : scale_) {
    for (double cell : row) {
      const int32_t bucket = BucketOf(cell, growth);
      h = Fnv1a64(&bucket, sizeof(bucket), h);
    }
  }
  return h;
}

std::string CorrectionTable::ToString() const {
  std::ostringstream os;
  bool any = false;
  for (size_t k = 0; k < scale_.size(); ++k) {
    for (size_t p = 0; p < 2; ++p) {
      if (scale_[k][p] == 1.0) {
        continue;
      }
      if (any) {
        os << "\n";
      }
      any = true;
      os << LayerKindName(static_cast<LayerKind>(k)) << "/" << (p == 1 ? "gpu" : "cpu");
      os.precision(6);
      os << " " << scale_[k][p];
    }
  }
  return any ? os.str() : "identity";
}

std::string PlanCacheKey::ToString() const {
  std::ostringstream os;
  os << "gpu=" << (gpu_available ? 1 : 0) << " scale_bucket=" << scale_bucket << " corrections=0x"
     << std::hex << correction_fp;
  return os.str();
}

PlanCache::PlanCache(size_t capacity) : capacity_(capacity) {}

const Plan* PlanCache::Lookup(const PlanCacheKey& key) {
  for (Entry& e : entries_) {
    if (e.key == key) {
      e.last_use = ++tick_;
      ++stats_.hits;
      return &e.plan;
    }
  }
  ++stats_.misses;
  return nullptr;
}

void PlanCache::Insert(const PlanCacheKey& key, Plan plan) {
  if (capacity_ == 0) {
    return;
  }
  for (Entry& e : entries_) {
    if (e.key == key) {
      e.plan = std::move(plan);
      e.last_use = ++tick_;
      ++stats_.insertions;
      return;
    }
  }
  if (entries_.size() >= capacity_) {
    auto victim = std::min_element(
        entries_.begin(), entries_.end(),
        [](const Entry& a, const Entry& b) { return a.last_use < b.last_use; });
    entries_.erase(victim);
    ++stats_.evictions;
  }
  entries_.push_back(Entry{key, std::move(plan), ++tick_});
  ++stats_.insertions;
}

void PlanCache::Clear() {
  entries_.clear();
  tick_ = 0;
}

}  // namespace ulayer
