// Property sweeps for the relational operators against straightforward
// reference implementations (hand-rolled loops, lesion cross-checks) on
// randomized tables.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "ra/operators.h"
#include "ra/optimizer.h"
#include "ra/vec_ops.h"
#include "util/rng.h"

namespace tuffy {
namespace {

Table RandomTable(const std::string& name, int rows, int cols, int cardinality,
                  uint64_t seed) {
  std::vector<Column> schema_cols;
  for (int c = 0; c < cols; ++c) {
    schema_cols.push_back(
        Column{"c" + std::to_string(c), ColumnType::kInt64});
  }
  Table t(name, Schema(std::move(schema_cols)));
  Rng rng(seed);
  for (int i = 0; i < rows; ++i) {
    Row row;
    for (int c = 0; c < cols; ++c) {
      row.push_back(Datum(static_cast<int64_t>(rng.Uniform(cardinality))));
    }
    t.Append(std::move(row));
  }
  t.Analyze();
  return t;
}

std::vector<std::vector<int64_t>> Collect(PhysicalOp* op) {
  std::vector<std::vector<int64_t>> out;
  EXPECT_TRUE(op->Open().ok());
  Row row;
  while (true) {
    auto has = op->Next(&row);
    EXPECT_TRUE(has.ok());
    if (!has.value()) break;
    std::vector<int64_t> vals;
    for (const Datum& d : row) vals.push_back(d.int64());
    out.push_back(std::move(vals));
  }
  op->Close();
  return out;
}

class RaPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(RaPropertyTest, FilterThenProjectEqualsManualLoop) {
  Table t = RandomTable("t", 150, 3, 6, GetParam() * 3 + 2);
  auto filter = std::make_unique<FilterOp>(
      std::make_unique<SeqScanOp>(RefTo(t)),
      Cmp(CompareOp::kLt, Col(0), Col(1)));
  ProjectOp project(std::move(filter), {2, 0});
  auto got = Collect(&project);

  std::vector<std::vector<int64_t>> expected;
  for (const Row& r : t.rows()) {
    if (r[0].int64() < r[1].int64()) {
      expected.push_back({r[2].int64(), r[0].int64()});
    }
  }
  EXPECT_EQ(got, expected);  // operators preserve scan order
}

TEST_P(RaPropertyTest, ThreeWayJoinPlansAgreeAcrossAllLesions) {
  // Random 3-table chain query executed under every optimizer
  // configuration; results must coincide as multisets.
  int seed = GetParam();
  Table t1 = RandomTable("t1", 40, 2, 6, seed * 101 + 1);
  Table t2 = RandomTable("t2", 35, 2, 6, seed * 101 + 2);
  Table t3 = RandomTable("t3", 30, 2, 6, seed * 101 + 3);

  auto make_query = [&]() {
    ConjunctiveQuery q;
    q.tables.push_back(RefTo(t1));
    q.tables.push_back(RefTo(t2));
    q.tables.push_back(RefTo(t3));
    q.joins.push_back(JoinCondition{0, 1, 1, 0});
    q.joins.push_back(JoinCondition{1, 1, 2, 0});
    q.outputs.push_back(OutputCol{0, 0, "a"});
    q.outputs.push_back(OutputCol{1, 1, "b"});
    q.outputs.push_back(OutputCol{2, 1, "c"});
    return q;
  };

  std::multiset<std::vector<int64_t>> reference;
  bool first = true;
  for (int config = 0; config < 8; ++config) {
    OptimizerOptions opts;
    opts.enable_hash_join = (config & 1) != 0;
    opts.enable_merge_join = (config & 2) != 0;
    opts.fixed_join_order = (config & 4) != 0;
    Optimizer optimizer(opts);
    auto plan = optimizer.Plan(make_query());
    ASSERT_TRUE(plan.ok());
    auto rows = Collect(plan.value().root.get());
    std::multiset<std::vector<int64_t>> got(rows.begin(), rows.end());
    if (first) {
      reference = std::move(got);
      first = false;
    } else {
      EXPECT_EQ(got, reference) << "config " << config;
    }
  }
  EXPECT_FALSE(first);
}

TEST_P(RaPropertyTest, RowsProducedCountersConsistent) {
  Table t = RandomTable("t", 120, 2, 4, GetParam() * 5 + 9);
  auto scan = std::make_unique<SeqScanOp>(RefTo(t));
  SeqScanOp* scan_raw = scan.get();
  FilterOp filter(std::move(scan), Eq(Col(0), Val(Datum(int64_t{1}))));
  auto rows = Collect(&filter);
  EXPECT_EQ(scan_raw->rows_produced(), t.num_rows());
  EXPECT_EQ(filter.rows_produced(), rows.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RaPropertyTest, ::testing::Range(1, 7));

// ------------------------------------------- VecHashJoinOp build paths

/// A relation of three columns (two key columns and a unique row tag)
/// split into IdTable segments, and the TableRef both executors scan.
struct SegmentedRelation {
  std::vector<std::unique_ptr<IdTable>> segments;
  TableStats stats;
  size_t rows = 0;

  TableRef Ref(const std::string& label) const {
    TableRef ref;
    for (const auto& seg : segments) ref.segments.push_back(seg.get());
    ref.stats = &stats;
    ref.label = label;
    return ref;
  }
  uint64_t Chunks() const {
    uint64_t chunks = 0;
    for (const auto& seg : segments) {
      chunks += (seg->num_rows() + kVecChunkRows - 1) / kVecChunkRows;
    }
    return chunks;
  }
};

/// Splits `rows` into `parts` non-empty segments at random cuts; with
/// `empty_ends`, an empty segment goes at either end (a zero-column one
/// first, as an empty evidence relation is, and an initialized one last).
SegmentedRelation Segment(const std::vector<std::vector<int64_t>>& rows,
                          int parts, bool empty_ends, Rng* rng) {
  SegmentedRelation rel;
  rel.rows = rows.size();
  std::vector<size_t> cuts = {0, rows.size()};
  for (int i = 1; i < parts && rows.size() > 1; ++i) {
    cuts.push_back(1 + rng->Uniform(rows.size() - 1));
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  if (empty_ends) rel.segments.push_back(std::make_unique<IdTable>());
  for (size_t i = 0; i == 0 || i + 1 < cuts.size(); ++i) {
    auto seg = std::make_unique<IdTable>();
    seg->Init(3);
    for (size_t r = cuts[i]; i + 1 < cuts.size() && r < cuts[i + 1]; ++r) {
      seg->AppendRow(rows[r]);
    }
    rel.segments.push_back(std::move(seg));
  }
  if (empty_ends) {
    rel.segments.push_back(std::make_unique<IdTable>());
    rel.segments.back()->Init(3);
  }
  std::vector<const IdTable*> view;
  for (const auto& seg : rel.segments) view.push_back(seg.get());
  rel.stats = AnalyzeColumns(view, 3);
  return rel;
}

enum class KeyShape { kDense, kSparse, kDual, kShared };

struct JoinCase {
  const char* what;
  KeyShape shape;
  size_t build_rows;
  size_t probe_rows;
  int build_parts;
  bool empty_ends;
};

/// Rows of (key0, key1, tag). Build keys come from the shape's pool. A
/// probe also draws keys no build row has: dense keys up to 3 past
/// either end of the pool's range, sparse keys anywhere, and two-column
/// keys with a second column past the build's.
std::vector<std::vector<int64_t>> KeyRows(KeyShape shape, size_t n,
                                          const std::vector<int64_t>& pool,
                                          bool probe, int64_t tag0, Rng* rng) {
  std::vector<std::vector<int64_t>> rows;
  for (size_t i = 0; i < n; ++i) {
    int64_t k0 = 42;
    int64_t k1 = 7;
    if (shape == KeyShape::kDense) {
      k0 = probe ? pool[0] - 3 + static_cast<int64_t>(
                                     rng->Uniform(pool.size() + 6))
                 : pool[rng->Uniform(pool.size())];
    } else if (shape == KeyShape::kSparse) {
      k0 = probe && rng->Uniform(5) == 0
               ? static_cast<int64_t>(rng->Uniform(int64_t{1} << 30))
               : pool[rng->Uniform(pool.size())];
    } else if (shape == KeyShape::kDual) {
      k0 = static_cast<int64_t>(rng->Uniform(20));
      k1 = static_cast<int64_t>(rng->Uniform(probe ? 32 : 30));
    }
    rows.push_back({k0, k1, tag0 + static_cast<int64_t>(i)});
  }
  return rows;
}

/// Entries of VecHashJoinOp's slot array for `rows` build rows:
/// NextPow2(2 x rows), at least 16.
int64_t SlotArraySize(size_t rows) {
  int64_t size = 16;
  while (size < static_cast<int64_t>(2 * rows)) size <<= 1;
  return size;
}

std::vector<int64_t> FlattenVolcano(PhysicalOp* root) {
  std::vector<int64_t> flat;
  for (const auto& row : Collect(root)) {
    flat.insert(flat.end(), row.begin(), row.end());
  }
  return flat;
}

std::vector<int64_t> FlattenVec(VecOp* root) {
  std::vector<int64_t> flat;
  Status st = ForEachChunk(root, [&](const ColumnChunk& chunk) {
    for (uint32_t r = 0; r < chunk.num_rows; ++r) {
      for (size_t c = 0; c < chunk.num_cols(); ++c) {
        flat.push_back(chunk.col(c)[r]);
      }
    }
    return Status::OK();
  });
  EXPECT_TRUE(st.ok()) << st.ToString();
  return flat;
}

class VecHashJoinPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(VecHashJoinPropertyTest, EveryBuildPathMatchesVolcanoHashJoin) {
  // Each case runs twice: the build reads a bare scan's segments in
  // place, and the build pulls chunks through a filter that keeps every
  // row. Both must emit HashJoinOp's rows in HashJoinOp's order. A
  // failure names its seed; everything it drew derives from that seed,
  // so --gtest_filter on the failing instance (index seed - 1) replays it.
  const int seed = GetParam();
  Rng rng(DeriveSeed(0x5EED, seed));
  const size_t b = 1 + rng.Uniform(3000);
  const size_t p = 1 + rng.Uniform(2500);
  const std::vector<JoinCase> cases = {
      {"dense one-column key", KeyShape::kDense, b, p, 1, false},
      {"sparse one-column key", KeyShape::kSparse, b, p, 1, false},
      {"two-column key", KeyShape::kDual, b, p, 1, false},
      {"dense key, segments with empty ends", KeyShape::kDense, b, p,
       2 + static_cast<int>(rng.Uniform(3)), true},
      {"sparse key, segments with empty ends", KeyShape::kSparse, b, p,
       2 + static_cast<int>(rng.Uniform(3)), true},
      {"two-column key, segments with empty ends", KeyShape::kDual, b, p, 3,
       true},
      {"empty build", KeyShape::kDense, 0, p, 1, true},
      {"empty probe", KeyShape::kSparse, b, 0, 2, false},
      {"one key shared by every row", KeyShape::kShared,
       1 + rng.Uniform(200), 1 + rng.Uniform(1500), 2, false},
  };
  for (const JoinCase& jc : cases) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed << ": " << jc.what
                                      << " (build " << jc.build_rows
                                      << ", probe " << jc.probe_rows << ")");
    std::vector<int64_t> pool;
    if (jc.shape == KeyShape::kDense) {
      const int64_t base = 3 + static_cast<int64_t>(rng.Uniform(1000));
      for (size_t k = 0; k < std::max<size_t>(1, jc.build_rows / 4); ++k) {
        pool.push_back(base + static_cast<int64_t>(k));
      }
    } else if (jc.shape == KeyShape::kSparse) {
      for (size_t k = 0; k < std::max<size_t>(1, jc.build_rows / 3); ++k) {
        pool.push_back(static_cast<int64_t>(rng.Uniform(int64_t{1} << 30)));
      }
    }
    const SegmentedRelation build = Segment(
        KeyRows(jc.shape, jc.build_rows, pool, false, 0, &rng),
        jc.build_parts, jc.empty_ends, &rng);
    const SegmentedRelation probe = Segment(
        KeyRows(jc.shape, jc.probe_rows, pool, true, 1 << 20, &rng), 1,
        false, &rng);
    std::vector<JoinKey> keys = {{0, 0}};
    if (jc.shape == KeyShape::kDual) keys.push_back({1, 1});
    // A one-column key is hashed only when its build values span at
    // least the slot array's size.
    const bool hashed =
        jc.shape == KeyShape::kDual ||
        (jc.shape == KeyShape::kSparse &&
         *std::max_element(pool.begin(), pool.end()) -
                 *std::min_element(pool.begin(), pool.end()) >=
             SlotArraySize(jc.build_rows));

    for (bool borrowed : {true, false}) {
      SCOPED_TRACE(borrowed ? "build borrows the scan"
                            : "build pulls through a filter");
      PhysicalOpPtr volcano_build = std::make_unique<SeqScanOp>(build.Ref("b"));
      VecOpPtr vec_build = std::make_unique<VecScanOp>(build.Ref("b"));
      const VecOp* build_scan = vec_build.get();
      if (!borrowed) {
        volcano_build = std::make_unique<FilterOp>(std::move(volcano_build),
                                                   Eq(Col(2), Col(2)));
        vec_build = std::make_unique<VecFilterOp>(
            std::move(vec_build),
            std::vector<VecPredicate>{VecPredicate::EqCols(2, 2)});
      }
      HashJoinOp volcano(std::make_unique<SeqScanOp>(probe.Ref("p")),
                         std::move(volcano_build), keys);
      auto vec_probe = std::make_unique<VecScanOp>(probe.Ref("p"));
      const VecOp* probe_scan = vec_probe.get();
      VecHashJoinOp vec(std::move(vec_probe), std::move(vec_build), keys);

      const std::vector<int64_t> expected = FlattenVolcano(&volcano);
      const std::vector<int64_t> got = FlattenVec(&vec);
      EXPECT_EQ(got.size(), expected.size());
      EXPECT_TRUE(got == expected) << "rows differ in value or order";
      EXPECT_EQ(vec.rows_produced() * 6, got.size());  // 3 columns a side

      EXPECT_EQ(build_scan->rows_produced(), build.rows);
      EXPECT_EQ(build_scan->chunks_produced(), build.Chunks());
      if (build.rows > 0) {
        EXPECT_EQ(probe_scan->rows_produced(), probe.rows);
        EXPECT_NE(vec.name().find(hashed ? ", hashed)" : ", direct)"),
                  std::string::npos)
            << vec.name();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VecHashJoinPropertyTest,
                         ::testing::Range(1, 9));

TEST(VecHashJoinTest, DirectAddressingEndsAtTheSlotArraySize) {
  // 100 build rows: NextPow2(200) = 256 entries. Keys spanning 256
  // values are their own index; spanning 257, they are hashed. Either
  // way the join matches HashJoinOp.
  for (int64_t span : {int64_t{256}, int64_t{257}}) {
    std::vector<std::vector<int64_t>> rows;
    for (int64_t i = 0; i < 100; ++i) {
      rows.push_back({i == 99 ? 10 + span - 1 : 10 + (i * 7) % span, 0, i});
    }
    Rng rng(1);
    const SegmentedRelation build = Segment(rows, 1, false, &rng);
    const SegmentedRelation probe = Segment(rows, 1, false, &rng);
    HashJoinOp volcano(std::make_unique<SeqScanOp>(probe.Ref("p")),
                       std::make_unique<SeqScanOp>(build.Ref("b")),
                       {{0, 0}});
    VecHashJoinOp vec(std::make_unique<VecScanOp>(probe.Ref("p")),
                      std::make_unique<VecScanOp>(build.Ref("b")), {{0, 0}});
    EXPECT_EQ(FlattenVec(&vec), FlattenVolcano(&volcano)) << span;
    EXPECT_EQ(vec.name(), span == 256 ? "VecHashJoin(keys=1, direct)"
                                      : "VecHashJoin(keys=1, hashed)");
  }
}

}  // namespace
}  // namespace tuffy
