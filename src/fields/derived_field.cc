#include "fields/derived_field.h"

#include <algorithm>
#include <cmath>
#include <cstring>

// AVX2 is an x86 extension; elsewhere only the baseline build exists.
#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define TURBDB_KERNEL_X86 1
#endif

namespace turbdb {

bool CpuSupports(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kBaseline:
      return true;
    case KernelIsa::kAvx2:
#ifdef TURBDB_KERNEL_X86
      __builtin_cpu_init();  // In case this runs before libgcc's own init.
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
  }
  return false;
}

KernelIsa BestKernelIsa() {
  static const KernelIsa best =
      CpuSupports(KernelIsa::kAvx2) ? KernelIsa::kAvx2 : KernelIsa::kBaseline;
  return best;
}

namespace {

/// sqrt of the sum of v[c]^2 in component order; NormAt() and every
/// NormLine() share it (or its 4-wide twin) so that their norms agree
/// bit for bit.
double L2Norm(const double* v, int n) {
  double sum = 0.0;
  for (int c = 0; c < n; ++c) sum += v[c] * v[c];
  return std::sqrt(sum);
}

/// Four lanes of one step of a line kernel (GCC vector extensions: one
/// AVX register, or two SSE2 halves on the baseline build).
typedef double Double4 __attribute__((vector_size(4 * sizeof(double))));

}  // namespace

double DerivedField::NormAt(const Slab& slab, const Differentiator& diff,
                            int64_t x, int64_t y, int64_t z) const {
  double out[9];
  EvaluateAt(slab, diff, x, y, z, out);
  return L2Norm(out, output_ncomp());
}

void DerivedField::NormLineFor(KernelIsa, const Slab& slab,
                               const Differentiator& diff, int64_t x0,
                               int64_t n, int64_t y, int64_t z,
                               double* norms) const {
  for (int64_t i = 0; i < n; ++i) norms[i] = NormAt(slab, diff, x0 + i, y, z);
}

void MagnitudeField::EvaluateAt(const Slab& slab, const Differentiator&,
                                int64_t x, int64_t y, int64_t z,
                                double* out) const {
  for (int c = 0; c < ncomp_; ++c) out[c] = slab.At(x, y, z, c);
}

void MagnitudeField::NormLineFor(KernelIsa, const Slab& slab,
                                 const Differentiator&, int64_t x0, int64_t n,
                                 int64_t y, int64_t z, double* norms) const {
  const float* p = slab.Ptr(x0, y, z, 0);
  const int64_t plane = slab.ComponentStride();
  double out[9];
  for (int64_t i = 0; i < n; ++i) {
    for (int c = 0; c < ncomp_; ++c) out[c] = p[c * plane + i];
    norms[i] = L2Norm(out, ncomp_);
  }
}

template <typename T>
[[gnu::always_inline]] inline void CurlField::FromGradient(const T* a,
                                                           T* out) {
  out[0] = a[7] - a[5];  // dvz/dy - dvy/dz
  out[1] = a[2] - a[6];  // dvx/dz - dvz/dx
  out[2] = a[3] - a[1];  // dvy/dx - dvx/dy
}

template <typename T>
[[gnu::always_inline]] inline void VelocityGradientField::FromGradient(
    const T* a, T* out) {
  std::copy(a, a + 9, out);  // Row-major: out[3*i + j] = du_i/dx_j.
}

template <typename T>
[[gnu::always_inline]] inline void QCriterionField::FromGradient(const T* a,
                                                                 T* out) {
  // Q = -(1/2) tr(A^2) = (||Omega||^2 - ||S||^2)/2 with
  // S = (A + A^T)/2, Omega = (A - A^T)/2.
  T s2 = T{};
  T o2 = T{};
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      const T sym = 0.5 * (a[3 * i + j] + a[3 * j + i]);
      const T asym = 0.5 * (a[3 * i + j] - a[3 * j + i]);
      s2 += sym * sym;
      o2 += asym * asym;
    }
  }
  out[0] = 0.5 * (o2 - s2);
}

template <typename T>
[[gnu::always_inline]] inline void RInvariantField::FromGradient(const T* a,
                                                                 T* out) {
  const T det =
      a[0] * (a[4] * a[8] - a[5] * a[7]) - a[1] * (a[3] * a[8] - a[5] * a[6]) +
      a[2] * (a[3] * a[7] - a[4] * a[6]);
  out[0] = -det;
}

template <typename T>
[[gnu::always_inline]] inline void DivergenceField::FromGradient(const T* a,
                                                                 T* out) {
  out[0] = a[0] + a[4] + a[8];
}

template <typename Kernel>
void GradientField<Kernel>::EvaluateAt(const Slab& slab,
                                       const Differentiator& diff, int64_t x,
                                       int64_t y, int64_t z,
                                       double* out) const {
  double a[9] = {};
  for (int k = 0; k < 9; ++k) {
    if (Kernel::kGradientMask & (1u << k)) {
      a[k] = diff.Partial(slab, k / 3, k % 3, x, y, z);
    }
  }
  Kernel::FromGradient(a, out);
}

namespace {

/// Differentiator::Apply<kOrder> at the four nodes p .. p+3 of an x-line:
/// in a component plane each tap of the four nodes is four adjacent
/// floats, and every lane does the scalar sum's products and adds.
template <int kOrder>
[[gnu::always_inline]] inline void Apply4(
    const Differentiator::Stencil& stencil, const float* p, Double4* sum) {
  Double4 acc = {};
#pragma GCC unroll 9
  for (int m = 0; m <= kOrder; ++m) {
    if (stencil.centered && m == kOrder / 2) continue;
    // Copied out and spelled per lane, this compiles to one widening
    // load per tap.
    float tap[4];
    std::memcpy(tap, p + stencil.first + m * stencil.stride, sizeof tap);
    acc += stencil.weight[m] * Double4{tap[0], tap[1], tap[2], tap[3]};
  }
  *sum = acc;
}

/// GradientField<Kernel>::NormLine at FD order kOrder over nodes
/// [begin, n) of the line, one node at a time. Each axis's stencil is
/// resolved once for the line and a node's partials are summed in
/// registers straight from the slab. Along a walled x axis the stencil
/// shifts from node to node, so those partials come from Partial().
template <typename Kernel, int kOrder>
void ScalarNormLine(const Slab& slab, const Differentiator& diff, int64_t x0,
                    int64_t begin, int64_t n, int64_t y, int64_t z,
                    double* norms) {
  if (begin == n) return;
  Differentiator::Stencil stencils[3];
  for (int axis = 0; axis < 3; ++axis) {
    stencils[axis] = diff.StencilAt(slab, axis, x0, y, z);
  }
  const bool varies_along_x = diff.StencilVariesAlongX();
  const float* base = slab.Ptr(x0, y, z, 0);
  const int64_t plane = slab.ComponentStride();
  for (int64_t i = begin; i < n; ++i) {
    const float* p = base + i;
    double a[9] = {};
#pragma GCC unroll 9
    for (int k = 0; k < 9; ++k) {
      if (Kernel::kGradientMask & (1u << k)) {
        a[k] = k % 3 == 0 && varies_along_x
                   ? diff.Partial(slab, k / 3, 0, x0 + i, y, z)
                   : Differentiator::Apply<kOrder>(stencils[k % 3],
                                                   p + k / 3 * plane);
      }
    }
    double out[Kernel::kOutputs];
    Kernel::FromGradient(a, out);
    norms[i] = L2Norm(out, Kernel::kOutputs);
  }
}

/// The sums of squares of the norms of nodes [0, n) of a line along a
/// periodic x axis, four nodes per step (n % 4 == 0): ScalarNormLine's
/// products and sums, lane by lane, minus the square roots, which the
/// caller takes in one pass. Inlined into one caller per KernelIsa, so
/// that it is compiled once for each.
template <typename Kernel, int kOrder>
[[gnu::always_inline]] inline void SquaredNormLine4(
    const Slab& slab, const Differentiator& diff, int64_t x0, int64_t n,
    int64_t y, int64_t z, double* sums) {
  Differentiator::Stencil stencils[3];
  for (int axis = 0; axis < 3; ++axis) {
    stencils[axis] = diff.StencilAt(slab, axis, x0, y, z);
  }
  const float* base = slab.Ptr(x0, y, z, 0);
  const int64_t plane = slab.ComponentStride();
  for (int64_t i = 0; i < n; i += 4) {
    const float* p = base + i;
    Double4 a[9] = {};
#pragma GCC unroll 9
    for (int k = 0; k < 9; ++k) {
      if (Kernel::kGradientMask & (1u << k)) {
        Apply4<kOrder>(stencils[k % 3], p + k / 3 * plane, &a[k]);
      }
    }
    Double4 out[Kernel::kOutputs];
    Kernel::FromGradient(a, out);
    Double4 sum = {};
    for (int c = 0; c < Kernel::kOutputs; ++c) sum += out[c] * out[c];
    std::memcpy(sums + i, &sum, sizeof sum);
  }
}

/// How many leading nodes of an n-node line SquaredNormLine4 evaluates;
/// ScalarNormLine does the rest (all of a line along a walled x axis).
int64_t WideNodes(const Differentiator& diff, int64_t n) {
  return diff.StencilVariesAlongX() ? 0 : n - n % 4;
}

template <typename Kernel, int kOrder>
void GradientNormLineBaseline(const Slab& slab, const Differentiator& diff,
                              int64_t x0, int64_t n, int64_t y, int64_t z,
                              double* norms) {
  const int64_t wide = WideNodes(diff, n);
  SquaredNormLine4<Kernel, kOrder>(slab, diff, x0, wide, y, z, norms);
  for (int64_t i = 0; i < wide; ++i) norms[i] = std::sqrt(norms[i]);
  ScalarNormLine<Kernel, kOrder>(slab, diff, x0, wide, n, y, z, norms);
}

#ifdef TURBDB_KERNEL_X86
template <typename Kernel, int kOrder>
__attribute__((target("avx2"))) void GradientNormLineAvx2(
    const Slab& slab, const Differentiator& diff, int64_t x0, int64_t n,
    int64_t y, int64_t z, double* norms) {
  const int64_t wide = WideNodes(diff, n);
  SquaredNormLine4<Kernel, kOrder>(slab, diff, x0, wide, y, z, norms);
  for (int64_t i = 0; i < wide; i += 4) {
    _mm256_storeu_pd(norms + i, _mm256_sqrt_pd(_mm256_loadu_pd(norms + i)));
  }
  ScalarNormLine<Kernel, kOrder>(slab, diff, x0, wide, n, y, z, norms);
}
#endif

template <typename Kernel, int kOrder>
void GradientNormLine(KernelIsa isa, const Slab& slab,
                      const Differentiator& diff, int64_t x0, int64_t n,
                      int64_t y, int64_t z, double* norms) {
#ifdef TURBDB_KERNEL_X86
  if (isa == KernelIsa::kAvx2) {
    return GradientNormLineAvx2<Kernel, kOrder>(slab, diff, x0, n, y, z,
                                                norms);
  }
#else
  (void)isa;
#endif
  GradientNormLineBaseline<Kernel, kOrder>(slab, diff, x0, n, y, z, norms);
}

}  // namespace

template <typename Kernel>
void GradientField<Kernel>::NormLineFor(KernelIsa isa, const Slab& slab,
                                        const Differentiator& diff,
                                        int64_t x0, int64_t n, int64_t y,
                                        int64_t z, double* norms) const {
  switch (diff.order()) {
    case 2:
      return GradientNormLine<Kernel, 2>(isa, slab, diff, x0, n, y, z, norms);
    case 4:
      return GradientNormLine<Kernel, 4>(isa, slab, diff, x0, n, y, z, norms);
    case 6:
      return GradientNormLine<Kernel, 6>(isa, slab, diff, x0, n, y, z, norms);
    case 8:
      return GradientNormLine<Kernel, 8>(isa, slab, diff, x0, n, y, z, norms);
    default:
      return DerivedField::NormLineFor(isa, slab, diff, x0, n, y, z, norms);
  }
}

template class GradientField<CurlField>;
template class GradientField<VelocityGradientField>;
template class GradientField<QCriterionField>;
template class GradientField<RInvariantField>;
template class GradientField<DivergenceField>;

void BoxFilterField::EvaluateAt(const Slab& slab, const Differentiator& diff,
                                int64_t x, int64_t y, int64_t z,
                                double* out) const {
  for (int c = 0; c < ncomp_; ++c) out[c] = 0.0;
  const GridGeometry& geometry = diff.geometry();
  // Clamp the window at walls (periodic axes keep the full window; the
  // gathered halo holds the wrapped images).
  const int64_t coords[3] = {x, y, z};
  int64_t lo[3];
  int64_t hi[3];
  for (int d = 0; d < 3; ++d) {
    lo[d] = coords[d] - half_width_;
    hi[d] = coords[d] + half_width_;
    if (!geometry.periodic(d)) {
      lo[d] = std::max<int64_t>(lo[d], 0);
      hi[d] = std::min<int64_t>(hi[d], geometry.extent(d) - 1);
    }
  }
  uint64_t count = 0;
  for (int64_t wz = lo[2]; wz <= hi[2]; ++wz) {
    for (int64_t wy = lo[1]; wy <= hi[1]; ++wy) {
      for (int64_t wx = lo[0]; wx <= hi[0]; ++wx) {
        for (int c = 0; c < ncomp_; ++c) {
          out[c] += slab.At(wx, wy, wz, c);
        }
        ++count;
      }
    }
  }
  const double inverse = count > 0 ? 1.0 / static_cast<double>(count) : 0.0;
  for (int c = 0; c < ncomp_; ++c) out[c] *= inverse;
}

}  // namespace turbdb
