// Unit tests for the RNG streams and the conflict scheduler.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/rng.h"
#include "sim/shard.h"

namespace {

using sinet::sim::Rng;
using sinet::sim::RngFactory;

TEST(Rng, UniformInRange) {
  Rng rng(123);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 100; ++i) {
    const double u = rng.uniform(-5.0, 5.0);
    EXPECT_GE(u, -5.0);
    EXPECT_LT(u, 5.0);
  }
  EXPECT_THROW((void)rng.uniform(1.0, 0.0), std::invalid_argument);
  // NaN and infinite bounds used to return NaN or inf instead.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)rng.uniform(0.0, kNaN), std::invalid_argument);
  EXPECT_THROW((void)rng.uniform(kNaN, 1.0), std::invalid_argument);
  EXPECT_THROW((void)rng.uniform(0.0, kInf), std::invalid_argument);
  EXPECT_THROW((void)rng.uniform(-kInf, 0.0), std::invalid_argument);
  EXPECT_EQ(rng.uniform(2.0, 2.0), 2.0);  // an empty range stays valid
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(99), b(99);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, NormalMomentsRoughlyCorrect) {
  Rng rng(7);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, ExponentialMeanAndErrors) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.1);
  EXPECT_THROW((void)rng.exponential(0.0), std::invalid_argument);
  EXPECT_THROW((void)rng.exponential(std::nan("")), std::invalid_argument);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
  // Out-of-range p is clamped, not thrown.
  EXPECT_TRUE(rng.chance(2.0));
  EXPECT_FALSE(rng.chance(-1.0));
}

TEST(Rng, RicianMeanPowerIsUnity) {
  Rng rng(13);
  const sinet::sim::RicianParams p = sinet::sim::rician_params(10.0);
  double power = 0.0;
  const int n = 30000;
  for (int i = 0; i < n; ++i) {
    const double x = p.los + p.sigma * rng.normal();
    const double y = p.sigma * rng.normal();
    power += x * x + y * y;
  }
  EXPECT_NEAR(power / n, 1.0, 0.03);
}

TEST(Rng, UniformIntBounds) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
  EXPECT_THROW((void)rng.uniform_int(2, 1), std::invalid_argument);
}

// Golden values pin the exact draw sequences: every distribution is an
// explicit algorithm over the fully-specified MT19937-64 output, so these
// must hold on every platform and standard library. A failure here means
// the reproducibility contract broke — sweep manifests written elsewhere
// would no longer resume bit-identically.
TEST(Rng, GoldenUniform) {
  Rng rng(2024);
  EXPECT_DOUBLE_EQ(rng.uniform(), 0.612684545263525);
  EXPECT_DOUBLE_EQ(rng.uniform(), 0.79471606632696579);
  EXPECT_DOUBLE_EQ(rng.uniform(), 0.26565714033653043);
  EXPECT_DOUBLE_EQ(rng.uniform(), 0.33429718095848859);
}

TEST(Rng, GoldenNormal) {
  Rng rng(2024);
  EXPECT_DOUBLE_EQ(rng.normal(), 0.28632278359838387);
  EXPECT_DOUBLE_EQ(rng.normal(), 0.8228947168325057);
  EXPECT_DOUBLE_EQ(rng.normal(), -0.62600100723135632);
  EXPECT_DOUBLE_EQ(rng.normal(), -0.42807796070852955);
}

TEST(Rng, GoldenUniformInt) {
  Rng rng(2024);
  EXPECT_EQ(rng.uniform_int(-5, 1000000), 206429);
  EXPECT_EQ(rng.uniform_int(-5, 1000000), 157266);
  EXPECT_EQ(rng.uniform_int(-5, 1000000), 262604);
  EXPECT_EQ(rng.uniform_int(-5, 1000000), 560161);
}

TEST(Rng, GoldenExponential) {
  Rng rng(2024);
  EXPECT_DOUBLE_EQ(rng.exponential(2.5), 2.3712894736778987);
  EXPECT_DOUBLE_EQ(rng.exponential(2.5), 3.9584030395564973);
  EXPECT_DOUBLE_EQ(rng.exponential(2.5), 0.77194812042997674);
  EXPECT_DOUBLE_EQ(rng.exponential(2.5), 1.0172798142046489);
}

TEST(Rng, NormalInverseTransformIsMonotoneInUniform) {
  // Two streams at the same seed: the normal draw must be the inverse
  // CDF of the uniform draw (one uniform per normal, same raw stream).
  Rng u(321), n(321);
  for (int i = 0; i < 200; ++i) {
    const double p = u.uniform();
    const double z = n.normal();
    // Inverse CDF maps p<0.5 below zero and p>0.5 above.
    if (p < 0.5) {
      EXPECT_LT(z, 0.0) << "p=" << p;
    }
    if (p > 0.5) {
      EXPECT_GT(z, 0.0) << "p=" << p;
    }
  }
}

TEST(Rng, NormalIsTheQuantileOfItsUniform) {
  // Drawing the uniforms of several normals first and taking their
  // quantiles later gives normal()'s values, and each uniform is a
  // nonzero multiple of 2^-53.
  Rng a(2024), b(2024);
  std::vector<double> uniforms(1000);
  for (double& u : uniforms) u = b.normal_uniform();
  for (const double u : uniforms) {
    EXPECT_EQ(a.normal(), sinet::sim::normal_quantile(u));
    EXPECT_GT(u, 0.0);
    EXPECT_EQ(u * 0x1.0p53, std::floor(u * 0x1.0p53));
  }
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

// The fade certificate (docs/PERFORMANCE.md, "The decode certificate")
// bounds each normal by its uniform's bucket; a bracket that misses the
// quantile at any drawable uniform would let a decode be settled wrongly.
TEST(NormalQuantileBrackets, ContainTheQuantileAtEveryProbedUniform) {
  using sinet::sim::kQuantileBuckets;
  using sinet::sim::normal_quantile;
  using sinet::sim::quantile_bucket;
  const auto brackets = sinet::sim::normal_quantile_brackets();
  constexpr std::uint64_t kTop = std::uint64_t{1} << 53;  // u = k / kTop
  constexpr std::uint64_t kPerBucket = kTop / kQuantileBuckets;
  std::uint64_t probed = 0, missed = 0;
  double first_miss = 0.0;
  const auto probe = [&](std::uint64_t k) {
    if (k == 0 || k >= kTop) return;  // normal_uniform never draws these
    const double u = static_cast<double>(k) * 0x1.0p-53;
    const std::size_t bucket = quantile_bucket(u);
    ASSERT_EQ(bucket, k / kPerBucket) << "u = " << u;
    const double z = normal_quantile(u);
    ++probed;
    if (!(brackets[bucket].lo <= z && z <= brackets[bucket].hi) &&
        missed++ == 0)
      first_miss = u;
  };
  // Every bucket: 64 drawable uniforms on each side of each edge, and 256
  // random ones inside.
  Rng rng(20241019);
  for (std::uint64_t b = 0; b <= kQuantileBuckets; ++b) {
    for (std::uint64_t d = 0; d < 64; ++d) {
      probe(b * kPerBucket + d);
      if (b * kPerBucket > d) probe(b * kPerBucket - 1 - d);
    }
    if (b == kQuantileBuckets) break;
    for (int i = 0; i < 256; ++i)
      probe(b * kPerBucket + (rng.next_u64() >> 11) % kPerBucket);
  }
  // AS241 switches rational approximation at |u - 0.5| = 0.425 and, in
  // the tails, where r = sqrt(-log(min(u, 1 - u))) passes 5 (u = e^-25):
  // every drawable uniform within 2^20 of the first switch, and every one
  // below 2^18 * 2^-53 (the second switch is near 125,000 * 2^-53) at
  // each end.
  for (const double edge : {0.075, 0.925}) {
    const auto k0 = static_cast<std::uint64_t>(edge * 0x1.0p53);
    for (std::uint64_t k = k0 - (1u << 20); k <= k0 + (1u << 20); ++k)
      probe(k);
  }
  ASSERT_LT(std::exp(-25.0) * 0x1.0p53, 0x1.0p18);
  for (std::uint64_t k = 1; k <= (1u << 18); ++k) {
    probe(k);
    probe(kTop - k);
  }
  EXPECT_EQ(missed, 0u) << "first at u = " << first_miss;
  EXPECT_GT(probed, 3'000'000u);
  // The extremes are finite, so every bucket's bracket is.
  EXPECT_NEAR(brackets[0].lo, normal_quantile(0x1.0p-53), 2e-9);
  EXPECT_NEAR(brackets[kQuantileBuckets - 1].hi,
              normal_quantile(1.0 - 0x1.0p-53), 2e-9);
  for (std::size_t b = 0; b < kQuantileBuckets; ++b) {
    EXPECT_TRUE(std::isfinite(brackets[b].lo) &&
                std::isfinite(brackets[b].hi))
        << "bucket " << b;
    if (b > 0) {
      EXPECT_LE(brackets[b - 1].lo, brackets[b].lo) << b;
    }
  }
}

TEST(Rng, UniformIntIsUnbiasedOverSmallSpan) {
  // A span that does not divide 2^64 exercises the rejection path;
  // each residue should appear with roughly equal frequency.
  Rng rng(99);
  int counts[7] = {0};
  const int n = 70000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_int(0, 6)];
  for (const int c : counts) EXPECT_NEAR(c, n / 7.0, 5.0 * std::sqrt(n / 7.0));
}

TEST(DeriveSeed, SiblingStreamsAreDistinct) {
  const auto s00 = sinet::sim::derive_seed(42, "point/0/rep/0");
  const auto s01 = sinet::sim::derive_seed(42, "point/0/rep/1");
  const auto s10 = sinet::sim::derive_seed(42, "point/1/rep/0");
  EXPECT_NE(s00, s01);
  EXPECT_NE(s00, s10);
  EXPECT_NE(s01, s10);
  // Golden: the sweep-seed scheme is stable across versions.
  EXPECT_EQ(s00, 7528871755621292291ull);
  EXPECT_EQ(s01, 7672027735136331127ull);
}

TEST(DeriveSeed, PrefixAmbiguousNamesAreDistinct) {
  // derive_seed hashes the whole name byte-wise (the separator is part
  // of the string), so "a/bc" vs "ab/c" cannot collide the way a
  // separator-free concatenation of ("a","bc") / ("ab","c") would.
  EXPECT_NE(sinet::sim::derive_seed(7, "a/bc"),
            sinet::sim::derive_seed(7, "ab/c"));
  // Chained derivation is also unambiguous: splitting the same bytes at
  // a different boundary changes where the mixing happens.
  const auto chained1 =
      sinet::sim::derive_seed(sinet::sim::derive_seed(7, "a"), "bc");
  const auto chained2 =
      sinet::sim::derive_seed(sinet::sim::derive_seed(7, "ab"), "c");
  EXPECT_NE(chained1, chained2);
}

TEST(DeriveSeed, SiblingStreamsAreUncorrelated) {
  // Pearson correlation of paired uniforms from adjacent replicate
  // streams; |r| for independent samples is ~1/sqrt(n).
  Rng a(sinet::sim::derive_seed(42, "point/0/rep/0"));
  Rng b(sinet::sim::derive_seed(42, "point/0/rep/1"));
  const int n = 4096;
  double sa = 0, sb = 0, saa = 0, sbb = 0, sab = 0;
  for (int i = 0; i < n; ++i) {
    const double x = a.uniform(), y = b.uniform();
    sa += x; sb += y; saa += x * x; sbb += y * y; sab += x * y;
  }
  const double cov = sab / n - (sa / n) * (sb / n);
  const double va = saa / n - (sa / n) * (sa / n);
  const double vb = sbb / n - (sb / n) * (sb / n);
  EXPECT_LT(std::abs(cov / std::sqrt(va * vb)), 0.05);
}

TEST(RngFactory, StreamsAreIndependentAndStable) {
  RngFactory f(42);
  Rng a1 = f.make("channel");
  Rng a2 = f.make("channel");
  Rng b = f.make("backhaul");
  EXPECT_DOUBLE_EQ(a1.uniform(), a2.uniform());
  // Different component names produce different streams.
  Rng a3 = f.make("channel");
  EXPECT_NE(a3.uniform(), b.uniform());
}

TEST(RngFactory, DifferentRootSeedsDiffer) {
  RngFactory f1(1), f2(2);
  Rng a = f1.make("x");
  Rng b = f2.make("x");
  EXPECT_NE(a.uniform(), b.uniform());
}

TEST(Rng, DeriveStreamGolden) {
  // Counter-based streams seed the parallel DtS engine's per-event RNGs;
  // the values are part of the reproducibility contract, so they are
  // pinned like the other RNG goldens.
  EXPECT_EQ(sinet::sim::derive_stream(42, 0), 13679457532755275413ull);
  EXPECT_EQ(sinet::sim::derive_stream(42, 1), 2949826092126892291ull);
  EXPECT_EQ(sinet::sim::derive_stream(42, 2), 5139283748462763858ull);
  EXPECT_EQ(sinet::sim::derive_stream(0, 0), 16294208416658607535ull);
  EXPECT_EQ(sinet::sim::derive_stream(1, 0), 10451216379200822465ull);
}

TEST(Rng, EngineMatchesStdMt19937_64) {
  // The engine is its own MT19937-64; it must yield std::mt19937_64's
  // sequence for every seed, through several refills. The seeds cover
  // the edges and the seed families the simulator actually uses.
  std::vector<std::uint64_t> seeds = {
      0, 1, 5489, std::numeric_limits<std::uint64_t>::max()};
  for (std::uint64_t i = 0; seeds.size() < 1000; ++i) {
    seeds.push_back(sinet::sim::derive_seed(i, "passive-ESA"));
    seeds.push_back(sinet::sim::derive_stream(i * 0x9E3779B97F4A7C15ull, i));
    seeds.push_back(i << 40 | i);
  }
  static_assert(sizeof(Rng) <= sizeof(std::mt19937_64),
                "the engine must not grow sim::Rng");
  constexpr int kDraws = 5 * 312;  // five refills
  for (const std::uint64_t seed : seeds) {
    sinet::sim::Mt19937_64 engine(seed);
    Rng rng(seed);
    std::mt19937_64 want(seed);
    for (int d = 0; d < kDraws; ++d) {
      const std::uint64_t w = want();
      ASSERT_EQ(engine(), w) << "seed " << seed << " draw " << d;
      ASSERT_EQ(rng.next_u64(), w) << "seed " << seed << " draw " << d;
    }
  }
}

TEST(Rng, EngineTenThousandthDrawIsTheStandardValue) {
  // [rand.predef]: the 10000th consecutive invocation of a
  // default-constructed mt19937_64 (seed 5489) produces this value.
  sinet::sim::Mt19937_64 engine(5489);
  for (int i = 1; i < 10000; ++i) (void)engine();
  EXPECT_EQ(engine(), 9981545732273789042ull);
}

TEST(Rng, DeriveStreamDistinctAcrossBaseAndCounter) {
  // Neighbouring (base, counter) pairs must not collide — each pair
  // seeds an independent event stream.
  std::vector<std::uint64_t> seen;
  for (std::uint64_t base = 0; base < 8; ++base)
    for (std::uint64_t counter = 0; counter < 64; ++counter)
      seen.push_back(sinet::sim::derive_stream(base, counter));
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

/// Members of one shard as a vector, for EXPECT_EQ.
std::vector<std::uint32_t> members(const sinet::sim::ShardSchedule& s,
                                   std::uint32_t slice, std::uint32_t shard) {
  const auto span = s.members_of(s.slice_begin[slice] + shard);
  return {span.begin(), span.end()};
}

TEST(ConflictScheduler, DisjointResourcesStaySeparateShards) {
  sinet::sim::ConflictScheduler sched(3);
  sched.touch(0, 0, 100);
  sched.touch(0, 1, 200);
  sched.touch(0, 2, 300);
  const auto slices = sched.build();
  ASSERT_EQ(slices.slice_count(), 1u);
  ASSERT_EQ(slices.shard_count(0), 3u);
  EXPECT_EQ(members(slices, 0, 0), (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(members(slices, 0, 1), (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(members(slices, 0, 2), (std::vector<std::uint32_t>{2}));
}

TEST(ConflictScheduler, SharedResourceMergesTransitively) {
  // 0-1 share resource A, 1-2 share resource B → one shard {0,1,2}.
  sinet::sim::ConflictScheduler sched(4);
  sched.touch(0, 0, 7);
  sched.touch(0, 1, 7);
  sched.touch(0, 1, 8);
  sched.touch(0, 2, 8);
  sched.touch(0, 3, 9);
  const auto slices = sched.build();
  ASSERT_EQ(slices.slice_count(), 1u);
  ASSERT_EQ(slices.shard_count(0), 2u);
  EXPECT_EQ(members(slices, 0, 0), (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(members(slices, 0, 1), (std::vector<std::uint32_t>{3}));
}

TEST(ConflictScheduler, SlicesAreIndependent) {
  // The same two members conflict in slice 0 but not in slice 1.
  sinet::sim::ConflictScheduler sched(2);
  sched.touch(0, 0, 5);
  sched.touch(0, 1, 5);
  sched.touch(1, 0, 5);
  sched.touch(1, 1, 6);
  const auto slices = sched.build();
  ASSERT_EQ(slices.slice_count(), 2u);
  ASSERT_EQ(slices.shard_count(0), 1u);
  EXPECT_EQ(members(slices, 0, 0), (std::vector<std::uint32_t>{0, 1}));
  ASSERT_EQ(slices.shard_count(1), 2u);
}

TEST(ConflictScheduler, ActivateKeepsMemberWithoutResources) {
  // A member with timeline entries but no footprint touches still shows
  // up as a singleton shard (flush-only slices must run).
  sinet::sim::ConflictScheduler sched(2);
  sched.activate(0, 1);
  const auto slices = sched.build();
  ASSERT_EQ(slices.slice_count(), 1u);
  ASSERT_EQ(slices.shard_count(0), 1u);
  EXPECT_EQ(members(slices, 0, 0), (std::vector<std::uint32_t>{1}));
}

TEST(ConflictScheduler, DeterministicShardOrder) {
  // Shards are ordered by their smallest member and members ascend —
  // the fixed merge order the parallel engine's determinism relies on.
  sinet::sim::ConflictScheduler sched(5);
  sched.touch(0, 4, 1);
  sched.touch(0, 2, 1);
  sched.touch(0, 3, 2);
  sched.touch(0, 0, 3);
  const auto slices = sched.build();
  ASSERT_EQ(slices.shard_count(0), 3u);
  EXPECT_EQ(members(slices, 0, 0), (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(members(slices, 0, 1), (std::vector<std::uint32_t>{2, 4}));
  EXPECT_EQ(members(slices, 0, 2), (std::vector<std::uint32_t>{3}));
}

TEST(ConflictScheduler, DependenciesOrderEveryConflictAcrossSlices) {
  // Random touches over 40 slices (some left empty): every two shards of
  // different slices that share a member or a resource must be joined by
  // a path of edges, and each shard's predecessors must be exactly the
  // latest earlier shard of each of its members and resources.
  constexpr std::uint32_t kMembers = 9, kResources = 7, kSlices = 40;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    sinet::sim::ConflictScheduler sched(kMembers);
    // resources_of[k][m]: what member m touches in slice k.
    std::vector<std::vector<std::set<std::uint64_t>>> resources_of(
        kSlices, std::vector<std::set<std::uint64_t>>(kMembers));
    for (std::uint32_t k = 0; k < kSlices; ++k) {
      if (k % 13 == 5) continue;  // an empty slice
      for (std::uint32_t m = 0; m < kMembers; ++m) {
        if (rng.chance(0.3)) {
          const auto r = static_cast<std::uint64_t>(
              1000 + rng.uniform_int(0, kResources - 1));
          sched.touch(k, m, r);
          resources_of[k][m].insert(r);
        } else if (rng.chance(0.2)) {
          sched.activate(k, m);
        }
      }
    }
    const sinet::sim::ShardSchedule s = sched.build();
    const std::uint32_t n = s.total_shards();
    ASSERT_GT(n, 60u);
    ASSERT_EQ(s.pred_count.size(), n);
    ASSERT_EQ(s.succ_begin.size(), std::size_t{n} + 1);

    // Each shard's slice, members and resources.
    std::vector<std::set<std::uint64_t>> members(n), resources(n);
    for (std::uint32_t j = 0; j < n; ++j) {
      const std::uint32_t k = s.slice_of(j);
      ASSERT_GE(j, s.slice_begin[k]);
      ASSERT_LT(j, s.slice_begin[k + 1]);
      for (const std::uint32_t m : s.members_of(j)) {
        members[j].insert(m);
        resources[j].insert(resources_of[k][m].begin(),
                            resources_of[k][m].end());
      }
    }
    const auto conflict = [&](std::uint32_t i, std::uint32_t j) {
      for (const std::uint64_t m : members[i])
        if (members[j].count(m)) return true;
      for (const std::uint64_t r : resources[i])
        if (resources[j].count(r)) return true;
      return false;
    };

    // Predecessors computed independently: the latest earlier holder of
    // each member and of each resource.
    std::size_t edges = 0;
    for (std::uint32_t j = 0; j < n; ++j) {
      std::set<std::uint32_t> expect;
      const auto latest = [&](auto holds) {
        for (std::uint32_t i = s.slice_begin[s.slice_of(j)]; i-- > 0;) {
          if (holds(i)) {
            expect.insert(i);
            return;
          }
        }
      };
      for (const std::uint64_t m : members[j])
        latest([&](std::uint32_t i) { return members[i].count(m) > 0; });
      for (const std::uint64_t r : resources[j])
        latest([&](std::uint32_t i) { return resources[i].count(r) > 0; });
      EXPECT_EQ(s.pred_count[j], expect.size()) << "shard " << j;
      edges += expect.size();
      for (const std::uint32_t next : s.successors(j)) {
        EXPECT_GT(next, j);
        EXPECT_TRUE(conflict(j, next)) << j << " -> " << next;
      }
    }
    EXPECT_EQ(s.succ.size(), edges);

    // Reachability, highest shard first: every edge points up.
    std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
    for (std::uint32_t i = n; i-- > 0;)
      for (const std::uint32_t next : s.successors(i)) {
        reach[i][next] = true;
        for (std::uint32_t x = next + 1; x < n; ++x)
          if (reach[next][x]) reach[i][x] = true;
      }
    for (std::uint32_t j = 0; j < n; ++j)
      for (std::uint32_t i = 0; i < s.slice_begin[s.slice_of(j)]; ++i) {
        if (conflict(i, j)) {
          EXPECT_TRUE(reach[i][j]) << i << " ~> " << j;
        }
      }
  }
}

TEST(ConflictScheduler, OutOfRangeMemberThrows) {
  sinet::sim::ConflictScheduler sched(2);
  EXPECT_THROW(sched.touch(0, 2, 0), std::out_of_range);
  EXPECT_THROW(sched.activate(0, 2), std::out_of_range);
}

TEST(ConflictScheduler, ClosedSliceThrowsAndSkippedSlicesAreEmpty) {
  // Slices close as registration moves past them, so a late touch of a
  // closed slice is a caller bug, and a slice nobody registered has no
  // shards.
  sinet::sim::ConflictScheduler sched(2);
  sched.touch(0, 0, 1);
  sched.touch(2, 1, 1);
  EXPECT_THROW(sched.touch(1, 0, 1), std::invalid_argument);
  EXPECT_THROW(sched.activate(0, 1), std::invalid_argument);
  const auto slices = sched.build();
  ASSERT_EQ(slices.slice_count(), 3u);
  EXPECT_EQ(slices.shard_count(0), 1u);
  EXPECT_EQ(slices.shard_count(1), 0u);
  EXPECT_EQ(members(slices, 2, 0), (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(sched.build().slice_count(), 0u) << "build() starts over";
}

}  // namespace
