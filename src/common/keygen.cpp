#include "common/keygen.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

#include "common/hash.hpp"

namespace hydra {
namespace {

double zeta(std::uint64_t n, double theta) {
  double sum = 0.0;
  for (std::uint64_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
  }
  return sum;
}

}  // namespace

ZipfianChooser::ZipfianChooser(std::uint64_t count, double theta)
    : count_(count), theta_(theta) {
  assert(count_ > 0);
  zeta2theta_ = zeta(2, theta_);
  zetan_ = zeta(count_, theta_);
  harmonic_ = std::abs(1.0 - theta_) < kHarmonicEpsilon;
  if (count_ < 2 || harmonic_) {
    // alpha/eta are only meaningful for the Gray et al. inversion, which
    // requires theta != 1 (exponent 1/(1-theta)) and at least two records
    // (eta divides by 1 - zeta(2)/zeta(n), which is <= 0 when n < 2).
    return;
  }
  alpha_ = 1.0 / (1.0 - theta_);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(count_), 1.0 - theta_)) /
         (1.0 - zeta2theta_ / zetan_);
}

std::uint64_t ZipfianChooser::next(Xoshiro256& rng) {
  if (count_ < 2) return 0;
  // Gray et al. rejection-free inversion, identical to YCSB's ZipfianGenerator.
  const double u = rng.uniform();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
  if (harmonic_) {
    // theta -> 1 limit: zeta degenerates to the harmonic series, whose
    // continuous CDF inverse is count^u (the "pure Zipf" branch in Gray
    // et al.). The two head branches above stay exact.
    const auto r = static_cast<std::uint64_t>(
        std::pow(static_cast<double>(count_), u));
    return r >= count_ ? count_ - 1 : r;
  }
  const auto r = static_cast<std::uint64_t>(
      static_cast<double>(count_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return r >= count_ ? count_ - 1 : r;
}

ScrambledZipfianChooser::ScrambledZipfianChooser(std::uint64_t count, double theta)
    : inner_(count, theta), count_(count) {}

std::uint64_t ScrambledZipfianChooser::next(Xoshiro256& rng) {
  const std::uint64_t rank = inner_.next(rng);
  return fnv1a64(rank) % count_;
}

std::string format_key(std::uint64_t index, std::size_t key_len) {
  // "user" prefix plus at least 12 zero-padded digits, like YCSB's keys,
  // padded with 'x' or truncated to exactly key_len bytes so the wire format
  // sees fixed-size keys.
  constexpr std::size_t kPrefix = 4;
  constexpr std::size_t kMinDigits = 12;
  char buf[kPrefix + 20] = {'u', 's', 'e', 'r'};  // 20 = digits of UINT64_MAX
  std::size_t digits = 1;
  for (std::uint64_t v = index; v >= 10; v /= 10) ++digits;
  const std::size_t len = kPrefix + std::max(digits, kMinDigits);
  std::memset(buf + kPrefix, '0', len - kPrefix);
  for (char* p = buf + len; index != 0; index /= 10) *--p = static_cast<char>('0' + index % 10);
  std::string key(key_len, 'x');
  std::memcpy(key.data(), buf, std::min(len, key_len));
  return key;
}

std::string synth_value(std::uint64_t index, std::size_t value_len) {
  std::string value(value_len, '\0');
  SplitMix64 sm(index ^ 0x5A5A5A5A5A5A5A5AULL);
  for (std::size_t i = 0; i < value_len; ++i) {
    value[i] = static_cast<char>('a' + (sm.next() % 26));
  }
  return value;
}

HotspotChooser::HotspotChooser(std::uint64_t count, double data_fraction,
                               double opn_fraction)
    : count_(count), opn_fraction_(opn_fraction) {
  assert(count_ > 0);
  hot_count_ = static_cast<std::uint64_t>(static_cast<double>(count_) * data_fraction);
  if (hot_count_ == 0) hot_count_ = 1;
  if (hot_count_ > count_) hot_count_ = count_;
}

std::uint64_t HotspotChooser::next(Xoshiro256& rng) {
  if (hot_count_ >= count_) return rng.below(count_);
  if (rng.uniform() < opn_fraction_) return rng.below(hot_count_);
  return hot_count_ + rng.below(count_ - hot_count_);
}

std::unique_ptr<KeyChooser> make_chooser(Distribution d, std::uint64_t count,
                                         double theta, double hotspot_data_fraction,
                                         double hotspot_opn_fraction) {
  switch (d) {
    case Distribution::kUniform:
      return std::make_unique<UniformChooser>(count);
    case Distribution::kHotspot:
      return std::make_unique<HotspotChooser>(count, hotspot_data_fraction,
                                              hotspot_opn_fraction);
    case Distribution::kZipfian:
      break;
  }
  return std::make_unique<ScrambledZipfianChooser>(count, theta);
}

}  // namespace hydra
