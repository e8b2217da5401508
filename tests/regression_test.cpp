// Golden-value regression pins: every algorithm on a fixed seed must keep
// producing byte-identical decisions across refactorings.  These values
// were recorded from the initial verified implementation; a change here
// means an intentional algorithmic change (update the constants and note
// it in EXPERIMENTS.md) or an accidental nondeterminism (fix it).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "algo/matching.hpp"
#include "algorithms/algorithm.hpp"
#include "gen/families.hpp"
#include "gen/random_graph.hpp"
#include "gen/regular_graph.hpp"
#include "gen/traffic_patterns.hpp"
#include "graph/csr_graph.hpp"
#include "graph/properties.hpp"
#include "test_graphs.hpp"

namespace tgroom {
namespace {

struct Golden {
  AlgorithmId id;
  int k;
  long long sadms;
};

TEST(Regression, DenseRatioWorkloadGoldenValues) {
  Rng rng(2026);
  Graph g = random_dense_ratio(36, 0.5, rng);
  ASSERT_EQ(g.edge_count(), 216);

  const Golden golden[] = {
      {AlgorithmId::kGoldschmidt, 4, 268},
      {AlgorithmId::kGoldschmidt, 16, 191},
      {AlgorithmId::kBrauner, 4, 274},
      {AlgorithmId::kBrauner, 16, 211},
      {AlgorithmId::kWangGuIcc06, 4, 272},
      {AlgorithmId::kWangGuIcc06, 16, 193},
      {AlgorithmId::kSpanTEuler, 4, 266},
      {AlgorithmId::kSpanTEuler, 16, 199},
      {AlgorithmId::kCliquePack, 4, 250},
      {AlgorithmId::kCliquePack, 16, 162},
  };
  for (const Golden& entry : golden) {
    EdgePartition p = run_algorithm(entry.id, g, entry.k);
    EXPECT_EQ(sadm_cost(g, p), entry.sadms)
        << algorithm_name(entry.id) << " k=" << entry.k;
  }
}

TEST(Regression, RegularWorkloadGoldenValues) {
  {
    Rng rng(99);
    Graph g = random_regular(36, 7, rng);
    EXPECT_EQ(
        sadm_cost(g, run_algorithm(AlgorithmId::kRegularEuler, g, 4)), 157);
    EXPECT_EQ(
        sadm_cost(g, run_algorithm(AlgorithmId::kRegularEuler, g, 16)), 122);
  }
  {
    Rng rng(99);
    Graph g = random_regular(36, 8, rng);
    EXPECT_EQ(
        sadm_cost(g, run_algorithm(AlgorithmId::kRegularEuler, g, 4)), 178);
    EXPECT_EQ(
        sadm_cost(g, run_algorithm(AlgorithmId::kRegularEuler, g, 16)), 140);
  }
}

TEST(Regression, GeneratorsAreStable) {
  // The generators feed every golden value above; pin their output shape.
  // Unsigned accumulator: the rolling hash wraps by design.
  Rng rng(2026);
  Graph g = random_dense_ratio(36, 0.5, rng);
  unsigned long long edge_hash = 0;
  for (const Edge& e : g.edges()) {
    edge_hash = edge_hash * 131 + static_cast<unsigned long long>(e.u) * 37 +
                static_cast<unsigned long long>(e.v);
  }
  Rng rng2(2026);
  Graph g2 = random_dense_ratio(36, 0.5, rng2);
  unsigned long long edge_hash2 = 0;
  for (const Edge& e : g2.edges()) {
    edge_hash2 = edge_hash2 * 131 + static_cast<unsigned long long>(e.u) * 37 +
                 static_cast<unsigned long long>(e.v);
  }
  EXPECT_EQ(edge_hash, edge_hash2);
}

TEST(Regression, RepeatedRunsAreIdentical) {
  // Same options.seed -> identical partitions (not just costs).
  Rng rng(5);
  Graph g = random_dense_ratio(24, 0.5, rng);
  for (AlgorithmId id :
       {AlgorithmId::kGoldschmidt, AlgorithmId::kBrauner,
        AlgorithmId::kWangGuIcc06, AlgorithmId::kSpanTEuler,
        AlgorithmId::kCliquePack}) {
    GroomingOptions options;
    options.seed = 17;
    EdgePartition a = run_algorithm(id, g, 8, options);
    EdgePartition b = run_algorithm(id, g, 8, options);
    EXPECT_EQ(a.parts, b.parts) << algorithm_name(id);
  }
}

// ---- Cold-size partition goldens -------------------------------------
//
// Every part's edge ids, hashed, for SpanT_Euler and Regular_Euler on the
// graph sizes a cold groom request carries (n 64-192).  Unlike the SADM
// goldens above these pin the partition itself, so a kernel rewrite that
// keeps the cost but reorders a walk fails here.

std::uint64_t partition_hash(const EdgePartition& p) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ULL;
  };
  for (FlatParts::Part part : p.parts) {
    mix(part.size());
    for (EdgeId e : part) mix(static_cast<std::uint64_t>(e));
  }
  return h;
}

struct ColdCase {
  std::string name;
  Graph graph;
  AlgorithmId id;
  GroomingOptions options;
};

std::vector<ColdCase> cold_cases() {
  std::vector<ColdCase> cases;
  auto spant = [&cases](std::string name, Graph g) {
    cases.push_back({std::move(name), std::move(g), AlgorithmId::kSpanTEuler,
                     GroomingOptions{}});
  };
  auto regular = [&cases](std::string name, Graph g,
                          MatchingPolicy policy = MatchingPolicy::kBlossom) {
    GroomingOptions options;
    options.matching_policy = policy;
    cases.push_back({std::move(name), std::move(g),
                     AlgorithmId::kRegularEuler, options});
  };
  Rng rng(1919);
  spant("random n=64", random_gnm(64, 400, rng));
  spant("random n=128", random_gnm(128, 1600, rng));
  spant("random n=192 sparse", random_gnm(192, 700, rng));
  spant("hub n=96", relabelled(hub_traffic(96, 9).traffic_graph(), rng));
  spant("hub n=160", relabelled(hub_traffic(160, 30).traffic_graph(), rng));
  // Two components plus isolated nodes: G'' spans several components.
  {
    Graph g = random_gnm(100, 300, rng);
    Graph two(140);
    for (const Edge& e : g.edges()) two.add_edge(e.u, e.v);
    for (NodeId v = 0; v + 1 < 30; ++v) two.add_edge(105 + v, 106 + v);
    spant("two components n=140", std::move(two));
  }
  regular("even r=10 n=96", random_regular(96, 10, rng));
  regular("odd r=15 n=128", random_regular(128, 15, rng));
  regular("odd r=31 n=190", random_regular(190, 31, rng));
  regular("odd r=7 n=64 no perfect matching",
          no_perfect_matching_regular(7, rng));
  regular("odd r=9 n=100 no perfect matching",
          no_perfect_matching_regular(9, rng));
  regular("odd r=11 n=144 greedy", random_regular(144, 11, rng),
          MatchingPolicy::kGreedy);
  regular("odd r=9 n=80 color class", random_regular(80, 9, rng),
          MatchingPolicy::kColorClass);
  const std::size_t regular_end = cases.size();
  for (std::size_t i = 6; i < regular_end; ++i) {
    Graph g = cases[i].graph;
    spant(cases[i].name + " (SpanT)", std::move(g));
  }
  return cases;
}

TEST(Regression, ColdSizePartitionsArePinned) {
  const std::vector<ColdCase> cases = cold_cases();
  const int factors[] = {4, 16, 48};
  // Recorded before the CSR Regular_Euler and the label-free Euler walk;
  // one row per case, one column per k.
  const std::vector<std::array<std::uint64_t, 3>> golden = {
      // random n=64
      {0x39a7ba8b9bee9eadULL,
       0x7abedacf1b119eb5ULL, 0x16d39ee7cf01f78dULL},
      // random n=128
      {0xd17d7e3d9e3f89a3ULL,
       0x6c35a107ad616b01ULL, 0x01d4d557598f2463ULL},
      // random n=192 sparse
      {0xb0392fd55beab0cdULL,
       0x5b2483c655b2d04fULL, 0x3f4830bed3e61455ULL},
      // hub n=96
      {0x90d6de441182e2e7ULL,
       0xfe167c1dc0ab0751ULL, 0xba900215c8533a9fULL},
      // hub n=160
      {0x964417fa707ee5e5ULL,
       0x0bc7411a3d2e21ebULL, 0xfdd56355ec4b387dULL},
      // two components n=140
      {0x199a4f8b5137cb12ULL,
       0x46420bed0ad5f30aULL, 0x5060a895008c562cULL},
      // even r=10 n=96
      {0x5c6d07b9e1c426cfULL,
       0x30273cb138a60f67ULL, 0x6a056b41666b6a33ULL},
      // odd r=15 n=128
      {0x73020b226551d89bULL,
       0x03ab8cde8497f089ULL, 0xff5be2eb210f6787ULL},
      // odd r=31 n=190
      {0x152b7ec7c1b5ac0cULL,
       0x122e77eaa968634eULL, 0xc6479eb210381be6ULL},
      // odd r=7 n=64 no perfect matching
      {0x81bdb2bede970a15ULL,
       0x430a7e0d10a0c1bbULL, 0xdc7a1409e8167c5bULL},
      // odd r=9 n=100 no perfect matching
      {0x8cf77272a6720016ULL,
       0x31de11b2ff22772cULL, 0x6ce85ace35ba9ba8ULL},
      // odd r=11 n=144 greedy
      {0x5287729cdda41c85ULL,
       0xafa5ca4c49e87839ULL, 0x5c0545df4500cae7ULL},
      // odd r=9 n=80 color class
      {0x26e9a4f031bc5f71ULL,
       0x8807454600b6c701ULL, 0x208bac399bed8e87ULL},
      // even r=10 n=96 (SpanT)
      {0x5c6d07b9e1c426cfULL,
       0x30273cb138a60f67ULL, 0x6a056b41666b6a33ULL},
      // odd r=15 n=128 (SpanT)
      {0xa58876bd67f6f1cfULL,
       0x13784015c79adee3ULL, 0x53e13766b67a0d4dULL},
      // odd r=31 n=190 (SpanT)
      {0xcb592851b3f74186ULL,
       0x6d07b32f265f6ef2ULL, 0x1858f27ae133df6aULL},
      // odd r=7 n=64 no perfect matching (SpanT)
      {0x658d620076f1ec41ULL,
       0x378d0e4609b286f3ULL, 0xb9615e2a26047003ULL},
      // odd r=9 n=100 no perfect matching (SpanT)
      {0xd9f2df7aab241fe2ULL,
       0x8a906adb8e3c1778ULL, 0x8ce5d2254b748714ULL},
      // odd r=11 n=144 greedy (SpanT)
      {0xe5acd35eec600eafULL,
       0x72c174277fcf75a1ULL, 0x0dc58b8e656ef13bULL},
      // odd r=9 n=80 color class (SpanT)
      {0x66b438487550ece9ULL,
       0x9ed4efeaab71ea79ULL, 0xb528515da0ffca43ULL},
  };
  ASSERT_EQ(golden.size(), cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const ColdCase& c = cases[i];
    const CsrGraph csr(c.graph);
    for (std::size_t j = 0; j < 3; ++j) {
      const int k = factors[j];
      const EdgePartition p = run_algorithm(c.id, c.graph, k, c.options);
      EXPECT_EQ(partition_hash(p), golden[i][j])
          << c.name << " k=" << k;
      EXPECT_EQ(run_algorithm(c.id, csr, k, c.options, nullptr).parts,
                p.parts)
          << c.name << " k=" << k << " (CSR input)";
    }
  }
}

// ---- Baseline partition goldens -----------------------------------------
//
// The same partition hash for the three baselines, CliquePack, and the
// refine pass on SpanT_Euler and on Brauner, on graph shapes that reach
// their corner cases: Brauner's component chaining (two components, a
// forest of one tree, a star) and odd-node pairing, Wang-Gu's repeated
// peels, and the empty graph.  Kept small so the refine runs stay fast.

struct BaselineRun {
  AlgorithmId id;
  bool refine;
};

constexpr BaselineRun kBaselineRuns[] = {
    {AlgorithmId::kGoldschmidt, false}, {AlgorithmId::kBrauner, false},
    {AlgorithmId::kWangGuIcc06, false}, {AlgorithmId::kCliquePack, false},
    {AlgorithmId::kSpanTEuler, true},   {AlgorithmId::kBrauner, true},
};

std::vector<std::pair<std::string, Graph>> baseline_graphs() {
  std::vector<std::pair<std::string, Graph>> graphs;
  Rng rng(2323);
  graphs.emplace_back("random n=40 m=50", random_gnm(40, 50, rng));
  graphs.emplace_back("random n=40 m=200", random_gnm(40, 200, rng));
  graphs.emplace_back("random n=24 m=220", random_gnm(24, 220, rng));
  graphs.emplace_back("hub n=48",
                      relabelled(hub_traffic(48, 4).traffic_graph(), rng));
  {
    // Two edge-bearing components plus isolated nodes.
    Graph g = random_gnm(30, 90, rng);
    Graph two(52);
    for (const Edge& e : g.edges()) two.add_edge(e.u, e.v);
    for (NodeId v = 0; v + 1 < 15; ++v) two.add_edge(34 + v, 35 + v);
    graphs.emplace_back("two components n=52", std::move(two));
  }
  {
    // Random recursive tree: node v hangs off an earlier node.
    Graph tree(60);
    for (NodeId v = 1; v < 60; ++v) {
      tree.add_edge(static_cast<NodeId>(rng.uniform_int(0, v - 1)), v);
    }
    graphs.emplace_back("tree n=60", relabelled(tree, rng));
  }
  graphs.emplace_back("star n=33", star_graph(33));
  graphs.emplace_back("empty n=12", Graph(12));
  graphs.emplace_back("even r=6 n=40", random_regular(40, 6, rng));
  graphs.emplace_back("odd r=5 n=36", random_regular(36, 5, rng));
  return graphs;
}

TEST(Regression, BaselinePartitionsArePinned) {
  const auto graphs = baseline_graphs();
  const int factors[] = {4, 16, 48};
  // Recorded before the baselines moved onto the CSR kernels; one row per
  // (graph, run) in baseline_graphs() x kBaselineRuns order, one column
  // per k.
  const std::vector<std::array<std::uint64_t, 3>> golden = {
      // random n=40 m=50, Algo1-Goldschmidt
      {0xf883f30c5d586c04ULL, 0x361bd25d1fd151e0ULL, 0x02b3fdd38538797aULL},
      // random n=40 m=50, Algo2-Brauner
      {0x9e4a5f4e02566a04ULL, 0x7b333c7e6b3fed94ULL, 0xcac69ff7492bd5e4ULL},
      // random n=40 m=50, Algo3-WangGu
      {0xe20569e358f1358eULL, 0x2261413d9f431cf0ULL, 0xa2f394d2b6405d48ULL},
      // random n=40 m=50, CliquePack
      {0xf99891e2648ce686ULL, 0xed230392d3a7b810ULL, 0xd1abcb0b45d327d6ULL},
      // random n=40 m=50, SpanT_Euler refine
      {0x0e2d50c85640a7daULL, 0xa471a922aed284d6ULL, 0x4536e485d84ce800ULL},
      // random n=40 m=50, Algo2-Brauner refine
      {0x5951c8b0eb5f49b8ULL, 0x95858a41091146beULL, 0x77da9d064fa90238ULL},
      // random n=40 m=200, Algo1-Goldschmidt
      {0xbb4a5fa3d8e2e6c3ULL, 0x29810514aa2061f7ULL, 0xa9e5ec62207d858fULL},
      // random n=40 m=200, Algo2-Brauner
      {0xa4dded275d90da6fULL, 0x095332480af644ffULL, 0x50679df573bf0f17ULL},
      // random n=40 m=200, Algo3-WangGu
      {0x4edd30fc61aadca3ULL, 0xff4412446f924417ULL, 0x5c6d217a5afddd67ULL},
      // random n=40 m=200, CliquePack
      {0xfcdfa738230d8c1fULL, 0xf767f83bb77336c3ULL, 0xef572adfc373184dULL},
      // random n=40 m=200, SpanT_Euler refine
      {0xacad285e17d41ba1ULL, 0x6c1e3f2c11e55d47ULL, 0x44df9cbb9f29009bULL},
      // random n=40 m=200, Algo2-Brauner refine
      {0x262cdc98518c3bf1ULL, 0x0a77dfb30090c515ULL, 0x85b8da1334b91e83ULL},
      // random n=24 m=220, Algo1-Goldschmidt
      {0x6a25364ebb05ada5ULL, 0xbcf7854449c93e0bULL, 0xaf026e365d3cb507ULL},
      // random n=24 m=220, Algo2-Brauner
      {0x9a9a5b8afb0712afULL, 0xbc96837654b8c0c7ULL, 0x425fef5148879403ULL},
      // random n=24 m=220, Algo3-WangGu
      {0x0f97144722098491ULL, 0x498d5f88882f68a5ULL, 0xba75869f6b2536f7ULL},
      // random n=24 m=220, CliquePack
      {0xc2f3638a5f859027ULL, 0x46c397328bacccd5ULL, 0xf62570d77e7a8661ULL},
      // random n=24 m=220, SpanT_Euler refine
      {0x29cf316a96f0d481ULL, 0x33f1b1752f53b16fULL, 0x45ba8c8f7d55532fULL},
      // random n=24 m=220, Algo2-Brauner refine
      {0x7e43155e5fcae23dULL, 0x8b68bfe521292b3dULL, 0x0d96c793d2fdd637ULL},
      // hub n=48, Algo1-Goldschmidt
      {0x4afddbf0cd19588eULL, 0x0fa92050eb48eaa6ULL, 0x5add9cba86c01828ULL},
      // hub n=48, Algo2-Brauner
      {0x8c83b4957255310cULL, 0xbb93106ce887661cULL, 0x08374627176bacccULL},
      // hub n=48, Algo3-WangGu
      {0x9306fc29cdeed260ULL, 0xab43fd72dae971e0ULL, 0xb2e73d47995dda38ULL},
      // hub n=48, CliquePack
      {0x821fa7e7bd816f2aULL, 0xb6f2b0cd013ec620ULL, 0x5161b81bfacf4880ULL},
      // hub n=48, SpanT_Euler refine
      {0xea714b340674d15aULL, 0x307b55d29337e3eeULL, 0x40a1840d6443ae84ULL},
      // hub n=48, Algo2-Brauner refine
      {0xfcf6e71f38a7f15aULL, 0xb046d1006def3b8cULL, 0x215fc63eeadc779cULL},
      // two components n=52, Algo1-Goldschmidt
      {0x9b9848aa263287e3ULL, 0x3469f8014ff7bdf9ULL, 0x61de05defe2b9d61ULL},
      // two components n=52, Algo2-Brauner
      {0x67c32253100c9353ULL, 0x9f3076104b7b4d03ULL, 0x0453f346cd984031ULL},
      // two components n=52, Algo3-WangGu
      {0xd28e68a4f2123b99ULL, 0x876c65003c2041c3ULL, 0xc8ffeddec5913727ULL},
      // two components n=52, CliquePack
      {0x440173edc4dfc2bdULL, 0xb1064db69ab2ae39ULL, 0x839c176469702d13ULL},
      // two components n=52, SpanT_Euler refine
      {0x4c06f557eb3a5cebULL, 0x2dbc9b4ad41004a5ULL, 0x0522eae6c600b531ULL},
      // two components n=52, Algo2-Brauner refine
      {0x11947fb096175c6dULL, 0xa626b8c2b37936b3ULL, 0x007825536d3cff45ULL},
      // tree n=60, Algo1-Goldschmidt
      {0x5f0bb6c5b19cf65fULL, 0x111bd676014b3337ULL, 0xc370629ba3c54661ULL},
      // tree n=60, Algo2-Brauner
      {0xbe04ab02086da26dULL, 0xc08b37dca31d5255ULL, 0x0ead0db8f2f15953ULL},
      // tree n=60, Algo3-WangGu
      {0xdeb03f3090ea71d1ULL, 0x23818a986b3cc113ULL, 0x466ff33729d83755ULL},
      // tree n=60, CliquePack
      {0x8fc29f391ebb467dULL, 0x825c1448fce89bbbULL, 0x1c352caeaefd1e1dULL},
      // tree n=60, SpanT_Euler refine
      {0xaa4c90fb01b5331bULL, 0x786d09cccd9bcd49ULL, 0xce73476656fcac65ULL},
      // tree n=60, Algo2-Brauner refine
      {0xdcc1f57f2b844543ULL, 0x283b0c539357d645ULL, 0x303b47537377f4d3ULL},
      // star n=33, Algo1-Goldschmidt
      {0x5fb9d8363c890aa3ULL, 0xadd22a9dbb14a7abULL, 0x89ce131b6a50bc99ULL},
      // star n=33, Algo2-Brauner
      {0xb8808a7fd0b53a03ULL, 0x4f6f8af2afbb580bULL, 0xa4636a64cde8ef79ULL},
      // star n=33, Algo3-WangGu
      {0x3c69d98cf55b683bULL, 0x088c519337b5b03bULL, 0xeb308d944bf9806bULL},
      // star n=33, CliquePack
      {0x5fb9d8363c890aa3ULL, 0xadd22a9dbb14a7abULL, 0x89ce131b6a50bc99ULL},
      // star n=33, SpanT_Euler refine
      {0x5fb9d8363c890aa3ULL, 0xadd22a9dbb14a7abULL, 0x89ce131b6a50bc99ULL},
      // star n=33, Algo2-Brauner refine
      {0xb8808a7fd0b53a03ULL, 0x4f6f8af2afbb580bULL, 0xa4636a64cde8ef79ULL},
      // empty n=12, Algo1-Goldschmidt
      {0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
      // empty n=12, Algo2-Brauner
      {0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
      // empty n=12, Algo3-WangGu
      {0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
      // empty n=12, CliquePack
      {0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
      // empty n=12, SpanT_Euler refine
      {0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
      // empty n=12, Algo2-Brauner refine
      {0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL, 0x14650fb0739d0383ULL},
      // even r=6 n=40, Algo1-Goldschmidt
      {0x0b839b0a3dea286dULL, 0xe0bf3e372e47957bULL, 0xc169797c57330db1ULL},
      // even r=6 n=40, Algo2-Brauner
      {0x63c4cfec14a812f5ULL, 0xb8ab7eb9f8f36cefULL, 0x43a386d62acae021ULL},
      // even r=6 n=40, Algo3-WangGu
      {0xe4d863b96b48095dULL, 0x33e4285f63299a4fULL, 0x0ae5f4f4f095576bULL},
      // even r=6 n=40, CliquePack
      {0x676f1cc66d0beaefULL, 0xa5df09a78a671ac7ULL, 0x8f56a95ab5ce140bULL},
      // even r=6 n=40, SpanT_Euler refine
      {0xb872d0dd103e16afULL, 0xf8629ed81995085fULL, 0x1f6b60c991c57f71ULL},
      // even r=6 n=40, Algo2-Brauner refine
      {0xb872d0dd103e16afULL, 0xf8629ed81995085fULL, 0x1f6b60c991c57f71ULL},
      // odd r=5 n=36, Algo1-Goldschmidt
      {0x946d97195532dcf2ULL, 0xb455ce34fbe4bbbcULL, 0xf89a3ef17a23261aULL},
      // odd r=5 n=36, Algo2-Brauner
      {0xcc0c65f2c0487cb2ULL, 0x0f233c599d9e08b0ULL, 0x988295887a689642ULL},
      // odd r=5 n=36, Algo3-WangGu
      {0x6d98a5966ea839ccULL, 0x9ae31aa30c91fdd4ULL, 0x14335e47dd0b8caeULL},
      // odd r=5 n=36, CliquePack
      {0x43ec9de8bb5c6406ULL, 0x967ea3f4b0f3686cULL, 0x5a52ca19d1e15f24ULL},
      // odd r=5 n=36, SpanT_Euler refine
      {0x0987c6363626674aULL, 0x40c7056eefae327cULL, 0x4c35dee3b275fd52ULL},
      // odd r=5 n=36, Algo2-Brauner refine
      {0x20b94e0df0eef528ULL, 0xf7fad31d2dc6e6ecULL, 0xccdbb9d8a254c7a0ULL},
  };
  constexpr std::size_t kRuns = std::size(kBaselineRuns);
  ASSERT_EQ(golden.size(), graphs.size() * kRuns);
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const auto& [name, g] = graphs[i];
    const CsrGraph csr(g);
    for (std::size_t r = 0; r < kRuns; ++r) {
      GroomingOptions options;
      options.refine = kBaselineRuns[r].refine;
      const AlgorithmId id = kBaselineRuns[r].id;
      for (std::size_t j = 0; j < 3; ++j) {
        const int k = factors[j];
        const EdgePartition p = run_algorithm(id, g, k, options);
        const std::string what = name + " " + algorithm_name(id) +
                                 (options.refine ? " refine" : "") +
                                 " k=" + std::to_string(k);
        EXPECT_EQ(partition_hash(p), golden[i * kRuns + r][j]) << what;
        EXPECT_EQ(partition_hash(run_algorithm(id, csr, k, options, nullptr)),
                  golden[i * kRuns + r][j])
            << what << " (CSR input)";
      }
    }
  }
}

TEST(Regression, NoPerfectMatchingGraphIsRegularWithoutPerfectMatching) {
  Rng rng(3);
  for (NodeId r : {7, 9}) {
    const Graph g = no_perfect_matching_regular(r, rng);
    EXPECT_EQ(regularity(g), std::optional<NodeId>(r));
    EXPECT_TRUE(is_simple(g));
    EXPECT_LT(static_cast<NodeId>(
                  matching_of(CsrGraph(g), MatchingPolicy::kBlossom).size()) *
                  2,
              g.node_count() - 1);
  }
}

}  // namespace
}  // namespace tgroom
