// Unit tests for hydra_common: hashing, RNG, key generators, histogram.
#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.hpp"
#include "common/histogram.hpp"
#include "common/keygen.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace hydra {
namespace {

// ---------------------------------------------------------------- hashing

TEST(Hash, DeterministicAndInputSensitive) {
  const std::string a = "user000000000001";
  const std::string b = "user000000000002";
  EXPECT_EQ(hash_key(a), hash_key(a));
  EXPECT_NE(hash_key(a), hash_key(b));
  EXPECT_NE(hash_key(""), hash_key(std::string_view("\0", 1)));
}

TEST(Hash, CoversAllLengthBranches) {
  // Exercise <4, <8, 8..31 and >=32 byte paths and verify no collisions in
  // a small corpus of related strings.
  std::set<std::uint64_t> seen;
  std::string s;
  for (int len = 0; len <= 100; ++len) {
    s.push_back(static_cast<char>('a' + len % 26));
    ASSERT_TRUE(seen.insert(hash_bytes(s.data(), s.size())).second)
        << "collision at length " << len;
  }
}

TEST(Hash, BucketDistributionIsRoughlyUniform) {
  constexpr int kBuckets = 64;
  constexpr int kKeys = 64000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kKeys; ++i) {
    ++counts[hash_key(format_key(static_cast<std::uint64_t>(i))) % kBuckets];
  }
  const int expected = kKeys / kBuckets;
  for (int c : counts) {
    EXPECT_GT(c, expected / 2);
    EXPECT_LT(c, expected * 2);
  }
}

TEST(Hash, SignatureUsesHighBitsIndependentOfBucketBits) {
  // Two hashes agreeing in the low 16 bits should usually have different
  // signatures; construct a couple and check the extraction logic itself.
  EXPECT_EQ(key_signature(0xABCD000000000000ULL), 0xABCD);
  EXPECT_EQ(key_signature(0x0000FFFFFFFFFFFFULL), 0x0000);
}

TEST(Hash, Mix64Avalanches) {
  // Flipping one input bit should flip roughly half the output bits.
  const std::uint64_t h0 = mix64(0x123456789ABCDEFULL);
  const std::uint64_t h1 = mix64(0x123456789ABCDEFULL ^ 1);
  const int flipped = __builtin_popcountll(h0 ^ h1);
  EXPECT_GT(flipped, 16);
  EXPECT_LT(flipped, 48);
}

// ---------------------------------------------------------------- rng

TEST(Rng, SameSeedSameStream) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b());
  EXPECT_LT(equal, 3);
}

TEST(Rng, BelowStaysInRange) {
  Xoshiro256 rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) ASSERT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, UniformIsInUnitIntervalAndCentred) {
  Xoshiro256 rng(9);
  double sum = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kN, 0.5, 0.02);
}

// ---------------------------------------------------------------- keygen

TEST(Keygen, FormatKeyIsFixedWidthAndUnique) {
  std::set<std::string> keys;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    std::string k = format_key(i);
    EXPECT_EQ(k.size(), 16u);
    EXPECT_TRUE(keys.insert(std::move(k)).second);
  }
  EXPECT_EQ(format_key(5, 32).size(), 32u);
}

TEST(Keygen, SynthValueDeterministic) {
  EXPECT_EQ(synth_value(77), synth_value(77));
  EXPECT_NE(synth_value(77), synth_value(78));
  EXPECT_EQ(synth_value(1, 100).size(), 100u);
}

TEST(Keygen, UniformChooserCoversRange) {
  UniformChooser chooser(100);
  Xoshiro256 rng(3);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 50000; ++i) ++counts[chooser.next(rng)];
  for (int c : counts) {
    EXPECT_GT(c, 250);
    EXPECT_LT(c, 1000);
  }
}

TEST(Keygen, ZipfianRankZeroIsMostPopular) {
  ZipfianChooser chooser(10000);
  Xoshiro256 rng(11);
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 100000; ++i) ++counts[chooser.next(rng)];
  const auto most = std::max_element(
      counts.begin(), counts.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  EXPECT_EQ(most->first, 0u);
  // Theoretical P(rank 0) for theta=0.99, N=10000 is ~1/zeta ~ 9.5%.
  EXPECT_GT(most->second, 60000 * 0.095 * 0.8);
}

TEST(Keygen, ZipfianIsHeavilySkewed) {
  ScrambledZipfianChooser chooser(100000);
  Xoshiro256 rng(13);
  std::map<std::uint64_t, int> counts;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) ++counts[chooser.next(rng)];
  std::vector<int> freq;
  freq.reserve(counts.size());
  for (const auto& [k, c] : counts) freq.push_back(c);
  std::sort(freq.rbegin(), freq.rend());
  // Top 1% of *touched* records should absorb a large share of requests.
  const std::size_t top = std::max<std::size_t>(1, freq.size() / 100);
  const long top_sum = std::accumulate(freq.begin(), freq.begin() + static_cast<long>(top), 0L);
  EXPECT_GT(static_cast<double>(top_sum) / kDraws, 0.30);
}

TEST(Keygen, ScrambledSpreadsHotKeysAcrossSpace) {
  ScrambledZipfianChooser chooser(100000);
  Xoshiro256 rng(17);
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 100000; ++i) ++counts[chooser.next(rng)];
  // The two hottest records should NOT be adjacent small indices.
  std::vector<std::pair<int, std::uint64_t>> by_freq;
  for (const auto& [k, c] : counts) by_freq.emplace_back(c, k);
  std::sort(by_freq.rbegin(), by_freq.rend());
  ASSERT_GE(by_freq.size(), 2u);
  EXPECT_GT(by_freq[0].second + by_freq[1].second, 1000u);
}

class ZipfThetaSweep : public ::testing::TestWithParam<double> {};

TEST_P(ZipfThetaSweep, HigherThetaMeansMoreSkew) {
  const double theta = GetParam();
  ZipfianChooser chooser(10000, theta);
  Xoshiro256 rng(19);
  int rank0 = 0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) rank0 += (chooser.next(rng) == 0);
  const double p0 = static_cast<double>(rank0) / kDraws;
  if (theta >= 0.99) {
    EXPECT_GT(p0, 0.05);
  } else {
    EXPECT_GT(p0, 0.001);
    EXPECT_LT(p0, 0.20);
  }
}

INSTANTIATE_TEST_SUITE_P(Thetas, ZipfThetaSweep, ::testing::Values(0.5, 0.8, 0.99));

// Statistical pin for the zipfian-0.99 generator: observed rank
// frequencies over a fixed-seed run must match Gray et al. theory --
// P(rank r) = (1/(r+1)^theta) / zeta(n, theta) -- under a chi-squared
// goodness-of-fit check. The draw is deterministic (fixed seed), so this is
// a pin on the construction, not a flaky sampling test.
TEST(Keygen, ZipfianMatchesTheoreticalFrequencies) {
  constexpr std::uint64_t kRanks = 100;
  constexpr double kTheta = 0.99;
  constexpr int kDraws = 200000;
  ZipfianChooser chooser(kRanks, kTheta);
  Xoshiro256 rng(1234);
  std::vector<int> counts(kRanks, 0);
  for (int i = 0; i < kDraws; ++i) {
    const std::uint64_t r = chooser.next(rng);
    ASSERT_LT(r, kRanks);
    ++counts[r];
  }
  double zetan = 0.0;
  for (std::uint64_t i = 1; i <= kRanks; ++i) {
    zetan += 1.0 / std::pow(static_cast<double>(i), kTheta);
  }
  double chi2 = 0.0;
  for (std::uint64_t r = 0; r < kRanks; ++r) {
    const double expected =
        kDraws / (std::pow(static_cast<double>(r + 1), kTheta) * zetan);
    ASSERT_GE(expected, 5.0);  // chi-squared validity: all cells populated
    const double d = counts[r] - expected;
    chi2 += d * d / expected;
  }
  // Gray et al.'s construction approximates the mid/tail ranks with a
  // continuous inverse-CDF, so the statistic carries a systematic floor on
  // top of sampling noise (measured ~0.0028 per draw at these parameters);
  // a broken alpha/eta/zeta lands orders of magnitude higher. Normalizing
  // by the draw count makes the bound independent of sample size.
  EXPECT_LT(chi2 / kDraws, 0.005) << "zipfian frequencies diverge from theory";
  // The head is exact in the construction: P(rank 0) = 1 / zeta.
  EXPECT_NEAR(static_cast<double>(counts[0]), kDraws / zetan, 0.05 * kDraws / zetan);
  // And popularity must decay with rank across the head of the curve.
  for (int r = 0; r + 1 < 8; ++r) {
    EXPECT_GT(counts[r], counts[r + 1]) << "rank " << r;
  }
}

// Same seed -> same sequence, for both the plain and scrambled variants;
// a different seed must diverge. Trace pre-generation and every bench
// (bench_txn's contention axis included) lean on this determinism.
TEST(Keygen, ZipfianSameSeedSameSequence) {
  ZipfianChooser a(1000), b(1000);
  ScrambledZipfianChooser sa(1000), sb(1000);
  Xoshiro256 ra(9), rb(9), rsa(9), rsb(9), rother(10);
  ZipfianChooser other(1000);
  bool diverged = false;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.next(ra), b.next(rb)) << "draw " << i;
    EXPECT_EQ(sa.next(rsa), sb.next(rsb)) << "draw " << i;
    diverged |= (a.next(ra) != other.next(rother));
    // keep the paired streams aligned after the extra draw above
    b.next(rb);
  }
  EXPECT_TRUE(diverged) << "different seeds produced identical sequences";
}

// Regression pins for the two data-path edge cases the hot-key work flushed
// out. A single-record universe used to feed eta a division by
// 1 - zeta(2)/zeta(1) <= 0 (NaN ranks), and theta == 1.0 used to raise the
// Gray et al. inversion to the power 1/(1-theta) = inf. Both must now draw
// valid in-range indices forever.
TEST(Keygen, SingleRecordChooserAlwaysReturnsZero) {
  ZipfianChooser z(1);
  ZipfianChooser zh(1, 1.0);  // both degenerate paths at once
  ScrambledZipfianChooser s(1);
  HotspotChooser h(1);
  Xoshiro256 rng(23);
  EXPECT_EQ(z.record_count(), 1u);
  EXPECT_EQ(s.record_count(), 1u);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(z.next(rng), 0u);
    EXPECT_EQ(zh.next(rng), 0u);
    EXPECT_EQ(s.next(rng), 0u);
    EXPECT_EQ(h.next(rng), 0u);
  }
}

TEST(Keygen, ThetaNearOneTakesHarmonicBranchAndStaysSkewed) {
  constexpr std::uint64_t kRanks = 10000;
  // theta == 1.0 exactly, and a value inside the epsilon window around it;
  // both must route through the harmonic-limit inversion (count^u) rather
  // than the alpha = 1/(1-theta) exponent.
  for (const double theta : {1.0, 1.0 - 1e-9}) {
    ZipfianChooser chooser(kRanks, theta);
    Xoshiro256 rng(29);
    std::vector<int> counts(kRanks, 0);
    constexpr int kDraws = 100000;
    for (int i = 0; i < kDraws; ++i) {
      const std::uint64_t r = chooser.next(rng);
      ASSERT_LT(r, kRanks) << "theta " << theta;  // no NaN/inf casts
      ++counts[r];
    }
    // Harmonic zeta(10000) ~ 9.79, so P(rank 0) = 1/zeta ~ 10.2%.
    EXPECT_GT(counts[0], static_cast<int>(kDraws * 0.07)) << "theta " << theta;
    // Popularity still decays across the head of the curve.
    EXPECT_GT(counts[0], counts[1]) << "theta " << theta;
    EXPECT_GT(counts[1], counts[4]) << "theta " << theta;
  }
  // Just OUTSIDE the epsilon window the Gray inversion must still hold up
  // numerically (alpha ~ 1e5): every draw in range, head still hottest.
  ZipfianChooser edge(kRanks, 1.0 - 1e-5);
  Xoshiro256 rng(31);
  int rank0 = 0;
  for (int i = 0; i < 50000; ++i) {
    const std::uint64_t r = edge.next(rng);
    ASSERT_LT(r, kRanks);
    rank0 += (r == 0);
  }
  EXPECT_GT(rank0, 50000 * 0.07);
}

TEST(Keygen, HotspotRespectsFractions) {
  constexpr std::uint64_t kCount = 1000;
  HotspotChooser chooser(kCount, 0.2, 0.8);
  EXPECT_EQ(chooser.hot_count(), 200u);
  Xoshiro256 rng(37);
  int hot = 0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    const std::uint64_t r = chooser.next(rng);
    ASSERT_LT(r, kCount);
    hot += (r < chooser.hot_count());
  }
  const double hot_share = static_cast<double>(hot) / kDraws;
  EXPECT_GT(hot_share, 0.75);
  EXPECT_LT(hot_share, 0.85);
}

TEST(Keygen, FactoryMatchesDistributionEnum) {
  auto u = make_chooser(Distribution::kUniform, 10);
  auto z = make_chooser(Distribution::kZipfian, 10);
  auto h = make_chooser(Distribution::kHotspot, 10);
  EXPECT_EQ(u->record_count(), 10u);
  EXPECT_EQ(z->record_count(), 10u);
  EXPECT_EQ(h->record_count(), 10u);
  EXPECT_STREQ(to_string(Distribution::kUniform), "uniform");
  EXPECT_STREQ(to_string(Distribution::kZipfian), "zipfian");
  EXPECT_STREQ(to_string(Distribution::kHotspot), "hotspot");
}

// ---------------------------------------------------------------- histogram

TEST(Histogram, BasicStats) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(50), 0u);
  h.record(100);
  h.record(200);
  h.record(300);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.mean(), 200.0);
  EXPECT_EQ(h.min(), 100u);
  EXPECT_EQ(h.max(), 300u);
}

TEST(Histogram, PercentilePrecision) {
  LatencyHistogram h;
  for (Duration v = 1; v <= 10000; ++v) h.record(v);
  // Log-bucketed: ~6% relative error tolerated.
  EXPECT_NEAR(static_cast<double>(h.percentile(50)), 5000.0, 350.0);
  EXPECT_NEAR(static_cast<double>(h.percentile(99)), 9900.0, 700.0);
  EXPECT_EQ(h.percentile(100), 10000u);
}

TEST(Histogram, PercentileMonotonic) {
  LatencyHistogram h;
  Xoshiro256 rng(23);
  for (int i = 0; i < 10000; ++i) h.record(rng.below(1'000'000) + 1);
  Duration prev = 0;
  for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9}) {
    const Duration v = h.percentile(p);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(Histogram, MergeEqualsUnion) {
  LatencyHistogram a, b, u;
  Xoshiro256 rng(29);
  for (int i = 0; i < 5000; ++i) {
    const Duration v = rng.below(100000) + 1;
    if (i % 2 == 0) a.record(v); else b.record(v);
    u.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), u.count());
  EXPECT_DOUBLE_EQ(a.mean(), u.mean());
  EXPECT_EQ(a.min(), u.min());
  EXPECT_EQ(a.max(), u.max());
  EXPECT_EQ(a.percentile(50), u.percentile(50));
}

TEST(Histogram, ResetClears) {
  LatencyHistogram h;
  h.record(42);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(Histogram, ExtremeValues) {
  LatencyHistogram h;
  h.record(0);
  h.record(1);
  h.record(~Duration{0} / 2);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_GE(h.percentile(100), ~Duration{0} / 4);
}

TEST(Histogram, EmptyInputsAreAllZero) {
  const LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  for (double p : {0.0, 50.0, 99.9, 100.0}) EXPECT_EQ(h.percentile(p), 0u);
}

TEST(Histogram, SingleSampleEveryPercentileIsTheSample) {
  LatencyHistogram h;
  h.record(777);
  // One sample: min == max == every percentile, exactly (bucket upper bounds
  // are clamped to the observed max, so no log-bucket error leaks through).
  EXPECT_EQ(h.min(), 777u);
  EXPECT_EQ(h.max(), 777u);
  for (double p : {0.1, 1.0, 50.0, 99.0, 99.9, 100.0}) {
    EXPECT_EQ(h.percentile(p), 777u) << "p" << p;
  }
  EXPECT_DOUBLE_EQ(h.mean(), 777.0);
}

TEST(Histogram, ValuesBelowSubBucketCountAreExact) {
  // The first 16 buckets are width-1: tiny durations suffer no bucketing
  // error at all.
  LatencyHistogram h;
  for (Duration v = 0; v < 16; ++v) h.record(v);
  for (int i = 1; i <= 16; ++i) {
    const double p = 100.0 * i / 16.0;
    EXPECT_EQ(h.percentile(p), static_cast<Duration>(i - 1)) << "p" << p;
  }
}

TEST(Histogram, PowerOfTwoBucketBoundaries) {
  // 2^k and 2^k - 1 straddle an exponent boundary; each must land in its own
  // bucket and percentile must resolve them without crossing the boundary.
  for (int k = 5; k <= 40; k += 7) {
    LatencyHistogram h;
    const Duration below = (Duration{1} << k) - 1;
    const Duration at = Duration{1} << k;
    h.record(below);
    h.record(at);
    // p50 falls in `below`'s bucket, whose upper bound is exactly 2^k - 1.
    EXPECT_EQ(h.percentile(50), below) << "k=" << k;
    EXPECT_EQ(h.percentile(100), at) << "k=" << k;
  }
}

TEST(Histogram, MergeWithEmptyIsIdentity) {
  LatencyHistogram a;
  LatencyHistogram empty;
  a.record(10);
  a.record(1000);
  const Duration p50_before = a.percentile(50);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 1000u);
  EXPECT_EQ(a.percentile(50), p50_before);

  // And merging INTO an empty histogram adopts the source wholesale,
  // including min (the empty side's sentinel min must not leak through).
  LatencyHistogram b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_EQ(b.min(), 10u);
  EXPECT_EQ(b.max(), 1000u);
  EXPECT_EQ(b.percentile(50), a.percentile(50));
}

TEST(Histogram, MergeDisjointRangesPreservesTails) {
  LatencyHistogram lo, hi;
  for (int i = 0; i < 100; ++i) {
    lo.record(100);
    hi.record(1'000'000);
  }
  lo.merge(hi);
  EXPECT_EQ(lo.count(), 200u);
  EXPECT_EQ(lo.min(), 100u);
  EXPECT_EQ(lo.max(), 1'000'000u);
  // p25 is in the low cluster, p75 in the high one; log-bucket error ~6%.
  EXPECT_NEAR(static_cast<double>(lo.percentile(25)), 100.0, 7.0);
  EXPECT_NEAR(static_cast<double>(lo.percentile(75)), 1'000'000.0, 70'000.0);
}

// ---------------------------------------------------------------- status

TEST(Status, ToStringCoversAllCodes) {
  EXPECT_EQ(to_string(Status::kOk), "OK");
  EXPECT_EQ(to_string(Status::kNotFound), "NOT_FOUND");
  EXPECT_EQ(to_string(Status::kStale), "STALE");
  EXPECT_EQ(to_string(Status::kTimeout), "TIMEOUT");
}

TEST(Result, CarriesValueOrStatus) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  Result<int> err(Status::kNotFound);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status(), Status::kNotFound);
}

}  // namespace
}  // namespace hydra
