#include "golden.hpp"

#include <stdexcept>
#include <string>

namespace perfbench {

namespace {

using sfrv::kernels::KernelSpec;

/// Row-major view of one input array of the spec.
struct Mat {
  std::vector<double> v;
  int rows = 0;
  int cols = 0;
  double& operator()(int r, int c) {
    return v[static_cast<std::size_t>(r * cols + c)];
  }
};

Mat input(const KernelSpec& s, const char* name) {
  const int id = s.kernel.array_index(name);
  const auto& decl = s.kernel.arrays[static_cast<std::size_t>(id)];
  Mat m;
  m.rows = decl.rows;
  m.cols = decl.cols;
  const auto& init = s.init[static_cast<std::size_t>(id)];
  m.v = init.empty() ? std::vector<double>(static_cast<std::size_t>(
                           decl.rows * decl.cols), 0.0)
                     : init;
  return m;
}

void append(std::vector<double>& out, const Mat& m) {
  out.insert(out.end(), m.v.begin(), m.v.end());
}

// C[i][j] += sum_k A[i][k] B[k][j]
std::vector<double> gemm(const KernelSpec& s) {
  Mat a = input(s, "A");
  Mat b = input(s, "B");
  Mat c = input(s, "C");
  for (int i = 0; i < c.rows; ++i) {
    for (int j = 0; j < c.cols; ++j) {
      for (int k = 0; k < a.cols; ++k) c(i, j) += a(i, k) * b(k, j);
    }
  }
  return c.v;
}

// tmp = A x; y = A^T tmp
std::vector<double> atax(const KernelSpec& s) {
  Mat a = input(s, "A");
  Mat x = input(s, "x");
  Mat y = input(s, "y");
  Mat tmp = input(s, "tmp");
  for (int i = 0; i < a.rows; ++i) {
    double dot = 0;
    for (int j = 0; j < a.cols; ++j) dot += a(i, j) * x(0, j);
    tmp(0, i) = dot;
  }
  for (int j = 0; j < a.cols; ++j) {
    for (int i = 0; i < a.rows; ++i) y(0, j) += a(i, j) * tmp(0, i);
  }
  std::vector<double> out;
  append(out, tmp);
  append(out, y);
  return out;
}

// Lower triangle of C += A B^T + B A^T
std::vector<double> syr2k(const KernelSpec& s) {
  Mat a = input(s, "A");
  Mat b = input(s, "B");
  Mat c = input(s, "C");
  for (int i = 0; i < c.rows; ++i) {
    for (int j = 0; j <= i; ++j) {
      for (int k = 0; k < a.cols; ++k) {
        c(i, j) += a(i, k) * b(j, k) + b(i, k) * a(j, k);
      }
    }
  }
  return c.v;
}

// Polybench FDTD-2D, one `fict` entry per time step.
std::vector<double> fdtd2d(const KernelSpec& s) {
  Mat ex = input(s, "ex");
  Mat ey = input(s, "ey");
  Mat hz = input(s, "hz");
  Mat fict = input(s, "fict");
  const int n = ex.rows;
  const int m = ex.cols;
  for (int t = 0; t < fict.cols; ++t) {
    for (int j = 0; j < m; ++j) ey(0, j) = fict(0, t);
    for (int i = 1; i < n; ++i) {
      for (int j = 0; j < m; ++j) ey(i, j) -= 0.5 * (hz(i, j) - hz(i - 1, j));
    }
    for (int i = 0; i < n; ++i) {
      for (int j = 1; j < m; ++j) ex(i, j) -= 0.5 * (hz(i, j) - hz(i, j - 1));
    }
    for (int i = 0; i + 1 < n; ++i) {
      for (int j = 0; j + 1 < m; ++j) {
        hz(i, j) -= 0.7 * (ex(i, j + 1) - ex(i, j) + ey(i + 1, j) - ey(i, j));
      }
    }
  }
  std::vector<double> out;
  append(out, ex);
  append(out, ey);
  append(out, hz);
  return out;
}

// out[y][x] += sum_{ky,kx} in[y+ky][x+kx] w[ky][kx]   (valid convolution)
std::vector<double> conv2d(const KernelSpec& s) {
  Mat in = input(s, "in");
  Mat w = input(s, "w");
  Mat out = input(s, "out");
  for (int y = 0; y < out.rows; ++y) {
    for (int x = 0; x < out.cols; ++x) {
      for (int ky = 0; ky < w.rows; ++ky) {
        for (int kx = 0; kx < w.cols; ++kx) {
          out(y, x) += in(y + ky, x + kx) * w(ky, kx);
        }
      }
    }
  }
  return out.v;
}

// out[o] = sum_i W[o][i] x[i]
std::vector<double> fully_connected(const KernelSpec& s) {
  Mat w = input(s, "w");
  Mat x = input(s, "x");
  Mat out = input(s, "out");
  for (int o = 0; o < w.rows; ++o) {
    double dot = 0;
    for (int i = 0; i < w.cols; ++i) dot += w(o, i) * x(0, i);
    out(0, o) = dot;
  }
  return out.v;
}

}  // namespace

std::vector<double> reference_outputs(const KernelSpec& spec) {
  const std::string& name = spec.kernel.name;
  if (name == "gemm") return gemm(spec);
  if (name == "atax") return atax(spec);
  if (name == "syr2k") return syr2k(spec);
  if (name == "fdtd2d") return fdtd2d(spec);
  if (name == "conv2d") return conv2d(spec);
  if (name == "fully_connected") return fully_connected(spec);
  throw std::runtime_error("no reference definition for kernel " + name);
}

}  // namespace perfbench
