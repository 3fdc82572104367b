// Internal backend entry points for the GEMM layer.  dispatch.cpp routes
// the public kernels.h API here; gemm.cpp implements them.  That TU is
// compiled with -ffp-contract=off so the explicitly written multiply/add
// sequences (the bit-exactness contract in kernels.h) cannot be re-fused
// by the compiler.
#pragma once

namespace rowpress::telemetry {
class Histogram;
}

namespace rowpress::nn::kernels::detail {

#if defined(__AVX2__) && defined(__FMA__)
inline constexpr bool kAvx2Compiled = true;
#else
inline constexpr bool kAvx2Compiled = false;
#endif

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__) && \
    defined(__AVX512VNNI__)
inline constexpr bool kVnniCompiled = true;
#else
inline constexpr bool kVnniCompiled = false;
#endif

/// True when the AVX2 path is compiled in and this CPU executes it.
bool avx2_runtime_supported();

/// True when the AVX-512 VNNI path is compiled in and this CPU executes it.
/// Implemented in qgemm.cpp (next to the kernels that need it).
bool vnni_runtime_supported();

/// The calling thread's bound "kernels.gemm_ns" histogram, or null when
/// kernel telemetry is unbound (conv.cpp times kernels::conv into it).
telemetry::Histogram* bound_gemm_histogram();

/// The calling thread's bound "kernels.qgemm_ns" histogram, or null when
/// kernel telemetry is unbound.  Owned by dispatch.cpp's bind_metrics
/// thread-locals; qgemm.cpp reads it to time the int8 entry points.
telemetry::Histogram* bound_qgemm_histogram();

/// The calling thread's bound "kernels.qpack_ns" histogram (qconv's
/// quantize-and-pack stage), or null when unbound.
telemetry::Histogram* bound_qpack_histogram();

void portable_gemm_nn(const float* a, const float* b, float* c, int m, int k,
                      int n);
void portable_gemm_nt(const float* a, const float* b, float* c, int m, int k,
                      int n);
void portable_gemm_tn(const float* a, const float* b, float* c, int m, int k,
                      int n);

// Compiled only when kAvx2Compiled; dispatch never routes here otherwise.
void avx2_gemm_nn(const float* a, const float* b, float* c, int m, int k,
                  int n);
void avx2_gemm_nt(const float* a, const float* b, float* c, int m, int k,
                  int n);
void avx2_gemm_tn(const float* a, const float* b, float* c, int m, int k,
                  int n);

}  // namespace rowpress::nn::kernels::detail
