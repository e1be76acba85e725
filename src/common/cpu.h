// Single source of truth for CPU feature detection and SIMD dispatch tier.
//
// Every runtime-dispatched kernel in the tree — the dense floating-point
// layer in src/linalg/simd/ and the integer key-scan kernels below (used by
// flat_lru.h) — asks this header which tier to run at. The hardware is
// queried exactly once (one cached CPUID probe via __builtin_cpu_supports);
// everything else layered on top is policy:
//
//   * HUNTER_FORCE_SCALAR=1 in the environment pins the process to the
//     scalar tier (read once, at the first ActiveSimdTier() call). This is
//     how the forced-scalar ctest label runs the entire suite through the
//     fallback kernels on an AVX2 host.
//   * SetSimdTierForTesting / ClearSimdTierForTesting let tests and the
//     bench harness flip tiers in-process to time and compare both paths in
//     one run. Requests for a tier the hardware lacks clamp to scalar.
//
// Raw vector intrinsics are only permitted here and under src/linalg/simd/
// (enforced by the hunterlint rule no-raw-intrinsics-outside-simd).

#ifndef HUNTER_COMMON_CPU_H_
#define HUNTER_COMMON_CPU_H_

#include <cstdint>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace hunter::common {

// The ladder of instruction-set tiers the dispatched kernels are written
// for. kAvx2Fma requires both AVX2 and FMA (they ship together on every
// mainstream core, but the dispatcher checks both — the floating-point
// kernels use FMA-era shuffles even though they never emit a fused
// multiply-add; see src/linalg/simd/simd.h for why contraction is banned).
enum class SimdTier : int {
  kScalar = 0,
  kAvx2Fma = 1,
};

// The tier kernels should dispatch at right now: the hardware tier, capped
// by HUNTER_FORCE_SCALAR and any in-process testing override. Cheap enough
// to call per dispatch (one relaxed atomic load on the override path).
SimdTier ActiveSimdTier();

// What the silicon supports, ignoring overrides. Cached after one probe.
SimdTier HardwareSimdTier();

// Stable lowercase name for reports and metrics: "scalar" / "avx2+fma".
const char* SimdTierName(SimdTier tier);

// Pins ActiveSimdTier() to `tier` (clamped to HardwareSimdTier()) until
// cleared. For tests and the bench harness only — production code never
// calls this. Thread-safe; takes effect on the next dispatch.
void SetSimdTierForTesting(SimdTier tier);
void ClearSimdTierForTesting();

namespace simd {

// ---------------------------------------------------------------------------
// Integer key-scan kernels (flat_lru.h's scan-mode index). These are exact
// lookups over uint64 slabs — no floating point, so the scalar and AVX2
// lanes are trivially answer-identical and the only contract is "same slot
// or kNil".
// ---------------------------------------------------------------------------

// Scalar scan-mode lookup: the slot in [0, count) holding `key`, or
// not-found. Every slot below the fill line is live and the keys are
// distinct (the LRU never removes an entry, it replaces its victim in
// place), so the match condition is the key compare alone.
inline uint32_t ScanFindDenseScalar(const uint64_t* keys, uint32_t count,
                                    uint64_t key) {
  uint32_t found = 0xFFFFFFFFu;
  for (uint32_t j = 0; j < count; ++j) {
    found = keys[j] == key ? j : found;
  }
  return found;
}

#if defined(__x86_64__)
// AVX2 lane: key compares only (see ScanFindDenseScalar for the invariant
// that makes this sufficient). Compiled with AVX2 enabled regardless of
// the build's baseline flags; only called when the CPU reports support.
// Misses dominate an LRU smaller than its working set, so the hot pass is
// a pure in-vector OR-reduction ("is the key anywhere?") with no
// per-chunk vector->scalar crossings; the position is recovered by a
// second positional scan only when a match exists (at most one can).
__attribute__((target("avx2"))) inline uint32_t ScanFindDenseAvx2(
    const uint64_t* keys, uint32_t count, uint64_t key) {
  const __m256i needle = _mm256_set1_epi64x(static_cast<long long>(key));
  __m256i any = _mm256_setzero_si256();
  uint32_t j = 0;
  for (; j + 8 <= count; j += 8) {
    const __m256i eq_lo = _mm256_cmpeq_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + j)),
        needle);
    const __m256i eq_hi = _mm256_cmpeq_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + j + 4)),
        needle);
    any = _mm256_or_si256(any, _mm256_or_si256(eq_lo, eq_hi));
  }
  for (; j < count; ++j) {
    if (keys[j] == key) return j;
  }
  if (_mm256_testz_si256(any, any) != 0) return 0xFFFFFFFFu;
  for (j = 0; j + 4 <= count; j += 4) {
    const __m256i eq = _mm256_cmpeq_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + j)),
        needle);
    const int mask = _mm256_movemask_pd(_mm256_castsi256_pd(eq));
    if (mask != 0) {
      return j + static_cast<uint32_t>(
                     __builtin_ctz(static_cast<unsigned>(mask)));
    }
  }
  return 0xFFFFFFFFu;
}

// Dispatcher. The tier is snapshotted at the first call: the buffer pool's
// Access path runs this on every page touch, and a per-call atomic load is
// measurable there. HUNTER_FORCE_SCALAR (read before any dispatch) is
// always honored; an in-process SetSimdTierForTesting only affects it if
// set before the first scan.
inline uint32_t ScanFindDense(const uint64_t* keys, uint32_t count,
                              uint64_t key) {
  static const bool kAvx2 = ActiveSimdTier() == SimdTier::kAvx2Fma;
  return kAvx2 ? ScanFindDenseAvx2(keys, count, key)
               : ScanFindDenseScalar(keys, count, key);
}
#else
inline uint32_t ScanFindDense(const uint64_t* keys, uint32_t count,
                              uint64_t key) {
  return ScanFindDenseScalar(keys, count, key);
}
#endif

}  // namespace simd

}  // namespace hunter::common

#endif  // HUNTER_COMMON_CPU_H_
