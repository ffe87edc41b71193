#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "ml/matrix.h"

namespace sugar::ml {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  Matrix m(r, c);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> dist(-1, 1);
  for (auto& v : m.data()) v = dist(rng);
  return m;
}

Matrix naive_matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j) {
      float s = 0;
      for (std::size_t k = 0; k < a.cols(); ++k) s += a(i, k) * b(k, j);
      c(i, j) = s;
    }
  return c;
}

void expect_near(const Matrix& a, const Matrix& b, float tol = 1e-4f) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_NEAR(a.data()[i], b.data()[i], tol) << "at " << i;
}

TEST(Matrix, MatmulMatchesNaive) {
  auto a = random_matrix(7, 5, 1);
  auto b = random_matrix(5, 9, 2);
  expect_near(matmul(a, b), naive_matmul(a, b));
}

TEST(Matrix, MatmulTnMatchesTransposedNaive) {
  auto a = random_matrix(6, 4, 3);  // interpret as [6x4], use a^T
  auto b = random_matrix(6, 3, 4);
  Matrix at(a.cols(), a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) at(j, i) = a(i, j);
  expect_near(matmul_tn(a, b), naive_matmul(at, b));
}

TEST(Matrix, MatmulNtMatchesTransposedNaive) {
  auto a = random_matrix(6, 4, 5);
  auto b = random_matrix(8, 4, 6);
  Matrix bt(b.cols(), b.rows());
  for (std::size_t i = 0; i < b.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j) bt(j, i) = b(i, j);
  expect_near(matmul_nt(a, b), naive_matmul(a, bt));
}

TEST(Matrix, TakeRows) {
  auto a = random_matrix(5, 3, 7);
  auto sub = a.take_rows({4, 0, 2});
  ASSERT_EQ(sub.rows(), 3u);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_EQ(sub(0, j), a(4, j));
    EXPECT_EQ(sub(1, j), a(0, j));
    EXPECT_EQ(sub(2, j), a(2, j));
  }
}

TEST(Matrix, AddRowVector) {
  Matrix m(2, 3, 1.0f);
  add_row_vector(m, {1, 2, 3});
  EXPECT_EQ(m(0, 0), 2);
  EXPECT_EQ(m(1, 2), 4);
}

TEST(Matrix, ReluAndMask) {
  Matrix m(1, 4);
  m(0, 0) = -1;
  m(0, 1) = 2;
  m(0, 2) = 0;
  m(0, 3) = 0.5f;
  auto mask = relu_inplace(m);
  EXPECT_EQ(m(0, 0), 0);
  EXPECT_EQ(m(0, 1), 2);
  EXPECT_EQ(mask(0, 0), 0);
  EXPECT_EQ(mask(0, 1), 1);
  EXPECT_EQ(mask(0, 2), 0);
  EXPECT_EQ(mask(0, 3), 1);
}

TEST(Matrix, SoftmaxRows) {
  Matrix m(2, 3);
  m(0, 0) = 1;
  m(0, 1) = 2;
  m(0, 2) = 3;
  m(1, 0) = 1000;  // numerical stability check
  m(1, 1) = 1000;
  m(1, 2) = 1000;
  softmax_rows(m);
  float sum0 = m(0, 0) + m(0, 1) + m(0, 2);
  EXPECT_NEAR(sum0, 1.0f, 1e-5f);
  EXPECT_GT(m(0, 2), m(0, 1));
  EXPECT_NEAR(m(1, 0), 1.0f / 3, 1e-5f);
}

TEST(Matrix, ArgmaxRowsTiesGoToLowestColumn) {
  Matrix m(3, 4);
  const float rows[3][4] = {{0.1f, 0.7f, 0.2f, 0.7f},
                            {-1.0f, -2.0f, -0.5f, -3.0f},
                            {0.25f, 0.25f, 0.25f, 0.25f}};
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 4; ++j) m(i, j) = rows[i][j];
  EXPECT_EQ(argmax_rows(m), (std::vector<int>{1, 2, 0}));
  EXPECT_TRUE(argmax_rows(Matrix(0, 4)).empty());
}

TEST(Matrix, SquaredDistance) {
  float a[] = {0, 0, 0};
  float b[] = {1, 2, 2};
  EXPECT_FLOAT_EQ(squared_distance(a, b, 3), 9.0f);
}

}  // namespace
}  // namespace sugar::ml
