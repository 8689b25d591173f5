#include "fields/derived_field.h"

#include <algorithm>
#include <cmath>

namespace turbdb {

namespace {

/// sqrt of the sum of v[c]^2 in component order; NormAt() and every
/// NormLine() share it so that their norms agree bit for bit.
double L2Norm(const double* v, int n) {
  double sum = 0.0;
  for (int c = 0; c < n; ++c) sum += v[c] * v[c];
  return std::sqrt(sum);
}

}  // namespace

double DerivedField::NormAt(const Slab& slab, const Differentiator& diff,
                            int64_t x, int64_t y, int64_t z) const {
  double out[9];
  EvaluateAt(slab, diff, x, y, z, out);
  return L2Norm(out, output_ncomp());
}

void DerivedField::NormLine(const Slab& slab, const Differentiator& diff,
                            int64_t x0, int64_t n, int64_t y, int64_t z,
                            double* norms) const {
  for (int64_t i = 0; i < n; ++i) norms[i] = NormAt(slab, diff, x0 + i, y, z);
}

void MagnitudeField::EvaluateAt(const Slab& slab, const Differentiator&,
                                int64_t x, int64_t y, int64_t z,
                                double* out) const {
  for (int c = 0; c < ncomp_; ++c) out[c] = slab.At(x, y, z, c);
}

void MagnitudeField::NormLine(const Slab& slab, const Differentiator&,
                              int64_t x0, int64_t n, int64_t y, int64_t z,
                              double* norms) const {
  const float* p = slab.Ptr(x0, y, z, 0);
  const int64_t step = slab.ncomp();
  double out[9];
  for (int64_t i = 0; i < n; ++i) {
    for (int c = 0; c < ncomp_; ++c) out[c] = p[i * step + c];
    norms[i] = L2Norm(out, ncomp_);
  }
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

/// GradientField<Kernel>::NormLine at FD order kOrder. Each axis's stencil
/// is resolved once for the line and a node's partials are summed in
/// registers straight from the slab. Along a walled x axis the stencil
/// shifts from node to node, so those partials come from Partial().
template <typename Kernel, int kOrder>
void GradientNormLine(const Slab& slab, const Differentiator& diff,
                      int64_t x0, int64_t n, int64_t y, int64_t z,
                      double* norms) {
  Differentiator::Stencil stencils[3];
  for (int axis = 0; axis < 3; ++axis) {
    stencils[axis] = diff.StencilAt(slab, axis, x0, y, z);
  }
  const bool varies_along_x = diff.StencilVariesAlongX();
  const float* base = slab.Ptr(x0, y, z, 0);
  const int64_t step = slab.ncomp();
  for (int64_t i = 0; i < n; ++i) {
    const float* p = base + i * step;
    double a[9] = {};
#pragma GCC unroll 9
    for (int k = 0; k < 9; ++k) {
      if (Kernel::kGradientMask & (1u << k)) {
        a[k] = k % 3 == 0 && varies_along_x
                   ? diff.Partial(slab, k / 3, 0, x0 + i, y, z)
                   : Differentiator::Apply<kOrder>(stencils[k % 3], p + k / 3);
      }
    }
    double out[Kernel::kOutputs];
    Kernel::FromGradient(a, out);
    norms[i] = L2Norm(out, Kernel::kOutputs);
  }
}

}  // namespace

template <typename Kernel>
void GradientField<Kernel>::NormLine(const Slab& slab,
                                     const Differentiator& diff, int64_t x0,
                                     int64_t n, int64_t y, int64_t z,
                                     double* norms) const {
  switch (diff.order()) {
    case 2:
      return GradientNormLine<Kernel, 2>(slab, diff, x0, n, y, z, norms);
    case 4:
      return GradientNormLine<Kernel, 4>(slab, diff, x0, n, y, z, norms);
    case 6:
      return GradientNormLine<Kernel, 6>(slab, diff, x0, n, y, z, norms);
    case 8:
      return GradientNormLine<Kernel, 8>(slab, diff, x0, n, y, z, norms);
    default:
      return DerivedField::NormLine(slab, diff, x0, n, y, z, norms);
  }
}

template class GradientField<CurlField>;
template class GradientField<VelocityGradientField>;
template class GradientField<QCriterionField>;
template class GradientField<RInvariantField>;
template class GradientField<DivergenceField>;

void CurlField::FromGradient(const double* a, double* out) {
  out[0] = a[7] - a[5];  // dvz/dy - dvy/dz
  out[1] = a[2] - a[6];  // dvx/dz - dvz/dx
  out[2] = a[3] - a[1];  // dvy/dx - dvx/dy
}

void VelocityGradientField::FromGradient(const double* a, double* out) {
  std::copy(a, a + 9, out);  // Row-major: out[3*i + j] = du_i/dx_j.
}

void QCriterionField::FromGradient(const double* a, double* out) {
  // Q = -(1/2) tr(A^2) = (||Omega||^2 - ||S||^2)/2 with
  // S = (A + A^T)/2, Omega = (A - A^T)/2.
  double s2 = 0.0;
  double o2 = 0.0;
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      const double sym = 0.5 * (a[3 * i + j] + a[3 * j + i]);
      const double asym = 0.5 * (a[3 * i + j] - a[3 * j + i]);
      s2 += sym * sym;
      o2 += asym * asym;
    }
  }
  out[0] = 0.5 * (o2 - s2);
}

void RInvariantField::FromGradient(const double* a, double* out) {
  const double det =
      a[0] * (a[4] * a[8] - a[5] * a[7]) - a[1] * (a[3] * a[8] - a[5] * a[6]) +
      a[2] * (a[3] * a[7] - a[4] * a[6]);
  out[0] = -det;
}

void DivergenceField::FromGradient(const double* a, double* out) {
  out[0] = a[0] + a[4] + a[8];
}

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
