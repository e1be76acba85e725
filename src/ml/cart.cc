#include "ml/cart.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <stdexcept>

#include "linalg/simd/simd.h"

namespace hunter::ml {

namespace {

struct SplitStats {
  double sum = 0.0;
  double sum_sq = 0.0;
  size_t count = 0;

  void Add(double y) {
    sum += y;
    sum_sq += y * y;
    ++count;
  }
  // Sum of squared deviations from the mean (count * variance).
  double SumSquaredError() const {
    if (count == 0) return 0.0;
    return sum_sq - sum * sum / static_cast<double>(count);
  }
  double Mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

}  // namespace

// The training view as distinct rows: `mult[row]` counts a row's copies in
// the view and each feature stripe holds every distinct row once, in the
// presort's order. Within a node the stripes' [row_begin, row_end)
// segments hold its distinct rows and `order`'s [begin, end) segment its
// copies.
//
// Why this fits the same tree, bit for bit, as a list with one entry per
// copy (tests/ml/cart_position_ref.h): in such a sorted list a row's copies
// sit next to each other with no cut between them (equal values), so adding
// a row's label mult[row] times in a row and then considering the one cut
// after it is the same sequence of additions and the same candidate cuts.
// Node statistics sum over `order`, the copies in draw order, because that
// is the seed's insertion order; gains that tie up to ~1e-16 of summation
// noise decide the winning feature.
struct CartTree::Scratch {
  size_t n = 0;                    // rows in x
  size_t d = 0;                    // features
  size_t rows = 0;                 // distinct rows in the view
  const double* columns = nullptr; // the presort's feature-major x
  const double* labels = nullptr;  // y
  std::vector<uint32_t> mult;      // n, copies of each row in the view
  std::vector<uint32_t> order;     // the view's rows in draw order
  std::vector<uint32_t> stripes;   // d stripes of `rows` distinct rows
  std::vector<uint8_t> go_left;    // n, split routing flags by row
  std::vector<uint32_t> tmp;       // right-side entries during partition
  std::vector<size_t> features;    // per-node candidate features
};

void FeaturePresort::Build(const linalg::Matrix& x) {
  if (x.rows() >= UINT32_MAX) {
    throw std::invalid_argument(
        "FeaturePresort: row ids are 32-bit, the matrix has too many rows");
  }
  num_rows = x.rows();
  num_features = x.cols();
  columns.resize(num_features * num_rows);
  for (size_t r = 0; r < num_rows; ++r) {
    for (size_t f = 0; f < num_features; ++f) {
      columns[f * num_rows + r] = x.At(r, f);
    }
  }
  sorted_rows.resize(num_features * num_rows);
  for (size_t f = 0; f < num_features; ++f) {
    uint32_t* seg = sorted_rows.data() + f * num_rows;
    const double* vals = columns.data() + f * num_rows;
    std::iota(seg, seg + num_rows, 0u);
    std::sort(seg, seg + num_rows, [vals](uint32_t a, uint32_t b) {
      if (vals[a] != vals[b]) return vals[a] < vals[b];
      return a < b;
    });
  }
}

void CartTree::Fit(const linalg::Matrix& x, const std::vector<double>& y,
                   const CartOptions& options, common::Rng* rng) {
  std::vector<size_t> identity(x.rows());
  std::iota(identity.begin(), identity.end(), 0);
  FitIndices(x, y, identity, options, rng);
}

void CartTree::FitIndices(const linalg::Matrix& x,
                          const std::vector<double>& y,
                          const std::vector<size_t>& row_indices,
                          const CartOptions& options, common::Rng* rng,
                          const FeaturePresort* presort) {
  nodes_.clear();
  importance_.assign(x.cols(), 0.0);
  if (presort != nullptr &&
      (presort->num_rows != x.rows() || presort->num_features != x.cols())) {
    throw std::invalid_argument(
        "CartTree::FitIndices: presort was built for a matrix of another "
        "shape");
  }
  if (row_indices.size() > static_cast<size_t>(INT32_MAX)) {
    throw std::invalid_argument(
        "CartTree::FitIndices: the split scan counts copies in 32 bits, the "
        "view has too many rows");
  }
  if (row_indices.empty()) return;
  FeaturePresort own_presort;
  if (presort == nullptr) {
    own_presort.Build(x);
    presort = &own_presort;
  }

  // One scratch arena per thread, reused across trees: a forest fit keeps
  // the buffers warm instead of reallocating them per tree.
  static thread_local Scratch scratch;
  Scratch& s = scratch;
  s.n = x.rows();
  s.d = x.cols();
  s.columns = presort->columns.data();
  s.labels = y.data();
  s.features.clear();
  s.mult.assign(s.n, 0);
  s.order.resize(row_indices.size());
  for (size_t i = 0; i < row_indices.size(); ++i) {
    const uint32_t row = static_cast<uint32_t>(row_indices[i]);
    s.order[i] = row;
    ++s.mult[row];
  }
  s.rows = 0;
  for (size_t r = 0; r < s.n; ++r) s.rows += s.mult[r] != 0 ? 1 : 0;
  // Keep the presort's rows that the view holds. The store is
  // unconditional and only the cursor depends on the row (a branch on
  // mult would mispredict on ~37% of rows); the one-past-the-end store
  // lands in the next stripe before it is written, or in the spare slot.
  s.stripes.resize(s.d * s.rows + 1);
  for (size_t f = 0; f < s.d; ++f) {
    uint32_t* seg = s.stripes.data() + f * s.rows;
    const uint32_t* sorted = presort->sorted_rows.data() + f * s.n;
    size_t out = 0;
    for (size_t i = 0; i < s.n; ++i) {
      const uint32_t row = sorted[i];
      seg[out] = row;
      out += s.mult[row] != 0 ? 1 : 0;
    }
  }
  s.go_left.resize(s.n);
  s.tmp.resize(s.order.size());

  BuildNode(s, 0, s.order.size(), 0, s.rows, 0, options, rng);
}

int CartTree::BuildNode(Scratch& s, size_t begin, size_t end,
                        size_t row_begin, size_t row_end, int depth,
                        const CartOptions& options, common::Rng* rng) {
  const size_t count = end - begin;
  SplitStats node_stats;
  for (size_t i = begin; i < end; ++i) {
    node_stats.Add(s.labels[s.order[i]]);
  }

  const int node_id = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  nodes_[node_id].value = node_stats.Mean();

  const double node_sse = node_stats.SumSquaredError();
  if (depth >= options.max_depth || count < 2 * options.min_samples_leaf ||
      node_sse < 1e-12) {
    return node_id;
  }

  // Choose candidate features (without replacement). The list is rebuilt to
  // full width every node so Shuffle consumes the same RNG draws as the
  // original per-node implementation.
  s.features.resize(s.d);
  std::iota(s.features.begin(), s.features.end(), 0);
  const size_t feature_budget =
      options.max_features == 0 ? s.d : std::min(options.max_features, s.d);
  if (feature_budget < s.d) rng->Shuffle(&s.features);
  s.features.resize(feature_budget);

  // Scan the candidates four at a time, one kernel lane per feature. Each
  // lane returns its feature's first maximum; taking lanes in candidate
  // order with strict `>` keeps the first maximum in (feature, cut) order.
  linalg::simd::SplitScanInput in;
  in.k = row_end - row_begin;
  in.labels = s.labels;
  in.mult = s.mult.data();
  in.sum = node_stats.sum;
  in.sum_sq = node_stats.sum_sq;
  in.count = static_cast<double>(count);
  in.sse = node_sse;
  in.min_leaf = static_cast<double>(options.min_samples_leaf);
  double best_gain = 1e-12;
  size_t best_feature = 0;
  double best_threshold = 0.0;
  for (size_t first = 0; first < feature_budget; first += 4) {
    in.lanes = std::min<size_t>(4, feature_budget - first);
    for (size_t l = 0; l < in.lanes; ++l) {
      const size_t feature = s.features[first + l];
      in.rows[l] = s.stripes.data() + feature * s.rows + row_begin;
      in.values[l] = s.columns + feature * s.n;
    }
    in.floor = best_gain;
    linalg::simd::SplitScanResult result;
    linalg::simd::CartSplitScan(in, &result);
    for (size_t l = 0; l < in.lanes; ++l) {
      if (result.gain[l] > best_gain) {
        const size_t cut = result.cut[l];
        best_gain = result.gain[l];
        best_feature = s.features[first + l];
        best_threshold = 0.5 * (in.values[l][in.rows[l][cut]] +
                                in.values[l][in.rows[l][cut + 1]]);
      }
    }
  }

  if (best_gain <= 1e-12) return node_id;

  // Route each distinct row and bail on a degenerate partition (possible
  // when the midpoint threshold rounds onto one of the two cut values).
  const double* best_vals = s.columns + best_feature * s.n;
  const uint32_t* best_seg = s.stripes.data() + best_feature * s.rows;
  size_t left_rows = 0;
  size_t left_count = 0;
  for (size_t i = row_begin; i < row_end; ++i) {
    const uint32_t row = best_seg[i];
    const uint8_t go_left = best_vals[row] <= best_threshold ? 1 : 0;
    s.go_left[row] = go_left;
    left_rows += go_left;
    left_count += go_left * s.mult[row];
  }
  if (left_rows == 0 || left_rows == row_end - row_begin) return node_id;

  importance_[best_feature] += best_gain;

  // Stable in-place partition of `order` and of every feature's segment:
  // left entries compact forward in order, right entries park in tmp and
  // are copied back behind them. Each child segment therefore stays sorted
  // (and `order` stays in draw order). Every element is written to both
  // destinations and only the matching cursor advances: the side an element
  // lands on is close to a coin flip, and a data-dependent branch here
  // mispredicts on roughly half of the elements. A left write targets
  // seg[write] with write <= i, so no unread element is clobbered.
  const auto partition_segment = [&](uint32_t* seg, size_t from, size_t to) {
    size_t write = from;
    size_t parked = 0;
    for (size_t i = from; i < to; ++i) {
      const uint32_t row = seg[i];
      const uint8_t flag = s.go_left[row];
      seg[write] = row;
      s.tmp[parked] = row;
      write += flag;
      parked += static_cast<size_t>(1 - flag);
    }
    std::copy(s.tmp.begin(), s.tmp.begin() + static_cast<long>(parked),
              seg + write);
  };
  partition_segment(s.order.data(), begin, end);
  // Children that cannot split never read the stripes.
  const size_t min_split = 2 * options.min_samples_leaf;
  if (depth + 1 < options.max_depth &&
      (left_count >= min_split || count - left_count >= min_split)) {
    for (size_t f = 0; f < s.d; ++f) {
      partition_segment(s.stripes.data() + f * s.rows, row_begin, row_end);
    }
  }
  const size_t split = begin + left_count;
  const size_t row_split = row_begin + left_rows;

  nodes_[node_id].is_leaf = false;
  nodes_[node_id].feature = best_feature;
  nodes_[node_id].threshold = best_threshold;
  const int left_id = BuildNode(s, begin, split, row_begin, row_split,
                                depth + 1, options, rng);
  nodes_[node_id].left = left_id;
  const int right_id = BuildNode(s, split, end, row_split, row_end,
                                 depth + 1, options, rng);
  nodes_[node_id].right = right_id;
  return node_id;
}

double CartTree::Predict(const std::vector<double>& row) const {
  if (nodes_.empty()) return 0.0;
  int node = 0;
  while (!nodes_[static_cast<size_t>(node)].is_leaf) {
    const Node& n = nodes_[static_cast<size_t>(node)];
    node = row[n.feature] <= n.threshold ? n.left : n.right;
  }
  return nodes_[static_cast<size_t>(node)].value;
}

}  // namespace hunter::ml
