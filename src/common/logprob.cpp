#include "reap/common/logprob.hpp"

#include <cmath>
#include <limits>

#include "reap/common/assert.hpp"

namespace reap::common {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// std::lgamma writes the global `signgam`, a data race when models are
// built on several threads at once; the reentrant form returns the sign
// through an out-parameter and computes the same value.
double log_gamma(double x) {
  int sign = 0;
  return ::lgamma_r(x, &sign);
}
}  // namespace

double log_sum_exp(double la, double lb) {
  if (la == kNegInf) return lb;
  if (lb == kNegInf) return la;
  const double m = la > lb ? la : lb;
  return m + std::log1p(std::exp((la > lb ? lb : la) - m));
}

double log1m_exp(double lx) {
  REAP_EXPECTS(lx <= 0.0);
  if (lx == 0.0) return kNegInf;
  // Threshold from Maechler (2012): use log(-expm1(x)) above -ln2, else
  // log1p(-exp(x)).
  if (lx > -0.6931471805599453) return std::log(-std::expm1(lx));
  return std::log1p(-std::exp(lx));
}

double log_binomial_coeff(std::uint64_t n, std::uint64_t k) {
  if (k > n) return kNegInf;
  if (k == 0 || k == n) return 0.0;
  const double dn = static_cast<double>(n);
  const double dk = static_cast<double>(k);
  return log_gamma(dn + 1.0) - log_gamma(dk + 1.0) - log_gamma(dn - dk + 1.0);
}

double log_binomial_pmf(std::uint64_t n, std::uint64_t k, double p) {
  REAP_EXPECTS(p >= 0.0 && p <= 1.0);
  if (k > n) return kNegInf;
  if (p == 0.0) return k == 0 ? 0.0 : kNegInf;
  if (p == 1.0) return k == n ? 0.0 : kNegInf;
  const double dk = static_cast<double>(k);
  const double dnk = static_cast<double>(n - k);
  return log_binomial_coeff(n, k) + dk * std::log(p) + dnk * std::log1p(-p);
}

double log_binomial_cdf_upto(std::uint64_t n, std::uint64_t t, double p) {
  if (p == 0.0) return 0.0;  // P(X <= t) = 1 whenever t >= 0
  if (t >= n) return 0.0;    // X <= n <= t surely; avoids rounding residue
  double acc = kNegInf;
  const std::uint64_t top = t < n ? t : n;
  for (std::uint64_t k = 0; k <= top; ++k) {
    acc = log_sum_exp(acc, log_binomial_pmf(n, k, p));
  }
  // Clamp tiny positive drift from lgamma rounding.
  return acc > 0.0 ? 0.0 : acc;
}

double binomial_tail_above(std::uint64_t n, std::uint64_t t, double p) {
  if (t >= n) return 0.0;
  if (p == 0.0) return 0.0;
  if (p == 1.0) return 1.0;  // X == n > t surely
  const double lcdf = log_binomial_cdf_upto(n, t, p);
  return -std::expm1(lcdf);
}

}  // namespace reap::common
