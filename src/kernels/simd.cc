#include "kernels/simd.h"

#include <cstdlib>
#include <cstring>
#include <string>

#include "kernels/simd_internal.h"

namespace ulayer::simd {
namespace {

Isa DetectBestIsa() {
#if defined(__x86_64__) || defined(__i386__)
  // AVX2 is only useful to us together with F16C (the F16 tile converts per
  // step); every AVX2 part ships F16C, but check both to be safe.
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("f16c")) {
    return Isa::kAvx2;
  }
  if (__builtin_cpu_supports("sse4.1")) {
    return Isa::kSse41;
  }
#elif defined(__aarch64__)
  return Isa::kNeon;
#endif
  return Isa::kScalar;
}

bool Supported(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kSse41:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("sse4.1") != 0;
#else
      return false;
#endif
    case Isa::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx2") != 0 &&
             __builtin_cpu_supports("f16c") != 0;
#else
      return false;
#endif
    case Isa::kNeon:
#if defined(__aarch64__)
      return true;
#else
      return false;
#endif
  }
  return false;
}

// ULAYER_SIMD=scalar|sse41|avx2|neon|auto. Read once; unknown values and
// unsupported requests fall back to detection (a typo must not change
// results, only possibly speed).
Isa ResolveFromEnv() {
  const char* env = std::getenv("ULAYER_SIMD");
  if (env != nullptr && env[0] != '\0') {
    const std::string v(env);
    Isa req = Isa::kScalar;
    bool known = true;
    if (v == "scalar") {
      req = Isa::kScalar;
    } else if (v == "sse41") {
      req = Isa::kSse41;
    } else if (v == "avx2") {
      req = Isa::kAvx2;
    } else if (v == "neon") {
      req = Isa::kNeon;
    } else {
      known = v == "auto";  // "auto" and anything else both detect.
    }
    if (known && v != "auto" && Supported(req)) {
      return req;
    }
  }
  return DetectBestIsa();
}

bool g_forced = false;
Isa g_forced_isa = Isa::kScalar;

}  // namespace

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kSse41:
      return "sse41";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kNeon:
      return "neon";
  }
  return "unknown";
}

Isa ActiveIsa() {
  if (g_forced) {
    return g_forced_isa;
  }
  static const Isa resolved = ResolveFromEnv();
  return resolved;
}

std::vector<Isa> SupportedIsas() {
  std::vector<Isa> out;
  for (Isa isa : {Isa::kAvx2, Isa::kNeon, Isa::kSse41, Isa::kScalar}) {
    if (Supported(isa)) {
      out.push_back(isa);
    }
  }
  return out;
}

void ForceIsa(Isa isa) {
  g_forced = true;
  g_forced_isa = Supported(isa) ? isa : DetectBestIsa();
}

void ResetForcedIsa() { g_forced = false; }

namespace detail {

void Qu8Scalar(const uint8_t* const* a_rows, int64_t a_kstride, const int32_t* a_zp,
               const uint8_t* b, int64_t ldb, int64_t rows, int64_t jn, int64_t k,
               int32_t* acc, int64_t acc_ld) {
  constexpr int64_t kKUnroll = 4;
  for (int64_t r = 0; r < rows; ++r) {
    const uint8_t* arow = a_rows[r];
    const int32_t zp = a_zp[r];
    int32_t* ar = acc + r * acc_ld;
    int64_t kk = 0;
    for (; kk + kKUnroll <= k; kk += kKUnroll) {
      const int32_t av0 = static_cast<int32_t>(arow[kk * a_kstride]) - zp;
      const int32_t av1 = static_cast<int32_t>(arow[(kk + 1) * a_kstride]) - zp;
      const int32_t av2 = static_cast<int32_t>(arow[(kk + 2) * a_kstride]) - zp;
      const int32_t av3 = static_cast<int32_t>(arow[(kk + 3) * a_kstride]) - zp;
      const uint8_t* b0p = b + kk * ldb;
      const uint8_t* b1p = b0p + ldb;
      const uint8_t* b2p = b1p + ldb;
      const uint8_t* b3p = b2p + ldb;
      for (int64_t j = 0; j < jn; ++j) {
        ar[j] += av0 * static_cast<int32_t>(b0p[j]) +
                 av1 * static_cast<int32_t>(b1p[j]) +
                 av2 * static_cast<int32_t>(b2p[j]) +
                 av3 * static_cast<int32_t>(b3p[j]);
      }
    }
    for (; kk < k; ++kk) {
      const int32_t av = static_cast<int32_t>(arow[kk * a_kstride]) - zp;
      const uint8_t* brow = b + kk * ldb;
      for (int64_t j = 0; j < jn; ++j) {
        ar[j] += av * static_cast<int32_t>(brow[j]);
      }
    }
  }
}

void F32Scalar(const float* const* a_rows, int64_t a_kstride, const float* b,
               int64_t ldb, int64_t rows, int64_t jn, int64_t k, float* const* c_rows) {
  constexpr int64_t kKUnroll = 4;
  for (int64_t r = 0; r < rows; ++r) {
    const float* arow = a_rows[r];
    float* crow = c_rows[r];
    int64_t kk = 0;
    for (; kk + kKUnroll <= k; kk += kKUnroll) {
      const float av0 = arow[kk * a_kstride];
      const float av1 = arow[(kk + 1) * a_kstride];
      const float av2 = arow[(kk + 2) * a_kstride];
      const float av3 = arow[(kk + 3) * a_kstride];
      const float* b0p = b + kk * ldb;
      const float* b1p = b0p + ldb;
      const float* b2p = b1p + ldb;
      const float* b3p = b2p + ldb;
      if (av0 != 0.0f && av1 != 0.0f && av2 != 0.0f && av3 != 0.0f) {
        for (int64_t j = 0; j < jn; ++j) {
          float t = crow[j];
          t += av0 * b0p[j];
          t += av1 * b1p[j];
          t += av2 * b2p[j];
          t += av3 * b3p[j];
          crow[j] = t;
        }
      } else {
        for (int64_t u = 0; u < kKUnroll; ++u) {
          const float av = arow[(kk + u) * a_kstride];
          if (av == 0.0f) {
            continue;
          }
          const float* brow = b + (kk + u) * ldb;
          for (int64_t j = 0; j < jn; ++j) {
            crow[j] += av * brow[j];
          }
        }
      }
    }
    for (; kk < k; ++kk) {
      const float av = arow[kk * a_kstride];
      if (av == 0.0f) {
        continue;
      }
      const float* brow = b + kk * ldb;
      for (int64_t j = 0; j < jn; ++j) {
        crow[j] += av * brow[j];
      }
    }
  }
}

void F16Scalar(const Half* const* a_rows, int64_t a_kstride, const Half* b,
               int64_t ldb, int64_t rows, int64_t jn, int64_t k, Half* const* c_rows) {
  // i-k-j with the C row as the running Half accumulator: per element this is
  // the chain c = RN16(c + RN16(a*b)) with ascending k — the exact op
  // sequence of the naive j-outer/k-inner register accumulator, but with B
  // streamed row-wise instead of strided column loads.
  for (int64_t r = 0; r < rows; ++r) {
    const Half* arow = a_rows[r];
    Half* crow = c_rows[r];
    for (int64_t kk = 0; kk < k; ++kk) {
      const Half av = arow[kk * a_kstride];
      const Half* brow = b + kk * ldb;
      for (int64_t j = 0; j < jn; ++j) {
        crow[j] += av * brow[j];
      }
    }
  }
}

void GemvF32Scalar(const float* a, const float* b, int64_t rows, int64_t k, float* c) {
  for (int64_t i = 0; i < rows; ++i) {
    const float* arow = a + i * k;
    float t = c[i];
    for (int64_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av != 0.0f) {
        t += av * b[kk];
      }
    }
    c[i] = t;
  }
}

}  // namespace detail

const GemmMicroKernels& GemmMicroKernelsFor(Isa isa) {
  static const GemmMicroKernels scalar = {Isa::kScalar, detail::Qu8Scalar,
                                          detail::F32Scalar, detail::F16Scalar,
                                          detail::GemvF32Scalar};
  if (!Supported(isa)) {
    return scalar;  // Never hand out a table the CPU cannot execute.
  }
  const GemmMicroKernels* t = nullptr;
  switch (isa) {
    case Isa::kScalar:
      break;
    case Isa::kSse41:
      t = detail::Sse41Table();
      break;
    case Isa::kAvx2:
      t = detail::Avx2Table();
      break;
    case Isa::kNeon:
      t = detail::NeonTable();
      break;
  }
  return t != nullptr ? *t : scalar;
}

const GemmMicroKernels& ActiveGemmMicroKernels() {
  return GemmMicroKernelsFor(ActiveIsa());
}

}  // namespace ulayer::simd
