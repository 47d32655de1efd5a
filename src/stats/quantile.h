// Greenwald–Khanna streaming quantile summary (SIGMOD 2001): one-pass
// eps-approximate rank queries in O((1/eps) log(eps n)) space, with merge
// support for split accumulation. Entirely deterministic — no sampling,
// no randomization — so identical insert order yields identical summaries
// and identical query answers (golden-safe). Used by the workload engine's
// FCT recorder for P50/P90/P99/P999 over millions of completions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ccas {

class QuantileSketch {
 public:
  // eps is the rank-error bound: quantile(q) returns a value whose true
  // rank is within eps * count() of q * count() (about 2*eps after merging
  // independently built sketches).
  explicit QuantileSketch(double eps = 0.001);

  void insert(double v);

  // Folds `other` into this sketch (merge-sort of the two summaries plus a
  // compress pass). Both sides must use the same eps.
  void merge(const QuantileSketch& other);

  // q in [0, 1]. Returns NaN when empty; exact min/max at q = 0 / q = 1.
  [[nodiscard]] double quantile(double q) const;

  [[nodiscard]] uint64_t count() const { return count_; }
  [[nodiscard]] double eps() const { return eps_; }
  // Summary footprint, for tests asserting sublinear growth.
  [[nodiscard]] size_t tuple_count() const { return tuples_.size(); }

  // Pre-sizes internal storage so steady-state insertion never allocates
  // (the userscale bench holds the allocs-per-event gate with this).
  void reserve(size_t tuples);

 private:
  struct Tuple {
    double v;        // a sample value
    uint64_t g;      // rmin(this) - rmin(previous tuple)
    uint64_t delta;  // rmax(this) - rmin(this)
  };

  void compress();

  double eps_;
  uint64_t count_ = 0;
  uint64_t inserts_since_compress_ = 0;
  std::vector<Tuple> tuples_;   // sorted by v
  std::vector<Tuple> scratch_;  // compress/merge workspace (reused)
};

}  // namespace ccas
