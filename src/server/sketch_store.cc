#include "server/sketch_store.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "hash/mix.h"
#include "recon/exact_recon.h"
#include "recon/params.h"
#include "recon/quadtree_recon.h"
#include "riblt/riblt_recon.h"
#include "util/check.h"

namespace rsr {
namespace server {

namespace {

bool SameIbltConfig(const IbltConfig& a, const IbltConfig& b) {
  return a.cells == b.cells && a.q == b.q && a.value_bits == b.value_bits &&
         a.checksum_bits == b.checksum_bits && a.count_bits == b.count_bits &&
         a.seed == b.seed;
}

bool SameStrataConfig(const StrataConfig& a, const StrataConfig& b) {
  return a.num_strata == b.num_strata &&
         a.cells_per_stratum == b.cells_per_stratum && a.q == b.q &&
         a.checksum_bits == b.checksum_bits && a.count_bits == b.count_bits &&
         a.seed == b.seed;
}

// max_entries deliberately ignored: it fixes serialized sum-field widths
// only, never cell arithmetic, and the session-side value legitimately
// tracks the *initiator's* set size (riblt-oneshot) while the store's
// tracks the canonical one. Subtract requires exactly the fields compared
// here.
bool CompatibleRibltConfig(const RibltConfig& a, const RibltConfig& b) {
  return a.RoundedCells() == b.RoundedCells() && a.q == b.q &&
         a.count_bits == b.count_bits && a.seed == b.seed &&
         a.universe.d == b.universe.d && a.universe.delta == b.universe.delta;
}

// The serialized sum-field widths the two configs would put on the wire.
// RIBLT configs derive max_entries from |S| (2n + 2 in riblt-oneshot and
// the MLSH ladder), so a batch can change KeySumBits/CoordSumBits without
// touching the histogram width — those boundaries sit one point below each
// HistogramCountBits power of two. A cached table serialized under the old
// widths would no longer be bit-identical to a fresh build.
bool SameRibltWidths(const RibltConfig& a, const RibltConfig& b) {
  return a.KeySumBits() == b.KeySumBits() &&
         a.CoordSumBits() == b.CoordSumBits();
}

/// Observes elapsed wall time into a histogram at scope exit; inert when
/// the histogram is null (probe disabled).
class ScopedTimer {
 public:
  explicit ScopedTimer(obs::Histogram* histogram)
      : histogram_(histogram),
        start_(histogram != nullptr
                   ? std::chrono::steady_clock::now()
                   : std::chrono::steady_clock::time_point{}) {}
  ~ScopedTimer() {
    if (histogram_ == nullptr) return;
    histogram_->Observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count());
  }

 private:
  obs::Histogram* const histogram_;
  const std::chrono::steady_clock::time_point start_;
};

}  // namespace

SketchStoreMetrics MakeStoreMetrics(obs::MetricsRegistry* registry,
                                    bool latency_probes) {
  SketchStoreMetrics metrics;
  if (latency_probes) {
    metrics.apply_seconds = registry->GetHistogram(
        "rsr_store_apply_seconds", "SketchStore::ApplyUpdate wall time",
        obs::DefaultLatencyBounds());
  }
  metrics.rebuilds = registry->GetCounter(
      "rsr_store_rebuilds_total",
      "From-scratch sketch rebuilds (initial build included)");
  metrics.generation = registry->GetGauge(
      "rsr_store_generation", "Published canonical snapshot generation");
  metrics.points =
      registry->GetGauge("rsr_store_points", "Canonical set size");
  return metrics;
}

// ----------------------------------------------------------- SketchSnapshot

std::optional<Iblt> SketchSnapshot::QuadtreeLevelIblt(const IbltConfig& config,
                                                      int level) const {
  for (const LevelSketch& sketch : levels_) {
    if (sketch.level != level) continue;
    if (!SameIbltConfig(sketch.iblt_config, config)) return std::nullopt;
    return sketch.iblt;  // private copy for the session
  }
  return std::nullopt;
}

std::optional<StrataEstimator> SketchSnapshot::QuadtreeLevelProbe(
    const StrataConfig& config, int level) const {
  for (const LevelSketch& sketch : levels_) {
    if (sketch.level != level) continue;
    if (!SameStrataConfig(sketch.probe_config, config)) return std::nullopt;
    return sketch.probe;
  }
  return std::nullopt;
}

std::optional<StrataEstimator> SketchSnapshot::ExactStrata(
    const StrataConfig& config) const {
  if (!exact_strata_.has_value() ||
      !SameStrataConfig(exact_config_, config)) {
    return std::nullopt;
  }
  return exact_strata_;
}

std::shared_ptr<const recon::KeyedPointList> SketchSnapshot::ExactKeyedPoints(
    uint64_t seed) const {
  if (exact_keyed_ == nullptr || seed != seed_) return nullptr;
  return exact_keyed_;
}

std::optional<Riblt> SketchSnapshot::MlshLevelRiblt(const RibltConfig& config,
                                                    size_t level_index) const {
  if (level_index >= mlsh_tables_.size() ||
      !CompatibleRibltConfig(mlsh_configs_[level_index], config)) {
    return std::nullopt;
  }
  return mlsh_tables_[level_index];
}

std::optional<Riblt> SketchSnapshot::OneShotRiblt(
    const RibltConfig& config) const {
  if (!oneshot_.has_value() ||
      !CompatibleRibltConfig(*oneshot_config_, config)) {
    return std::nullopt;
  }
  return oneshot_;
}

// --------------------------------------------------------------- SketchStore

SketchStore::SketchStore(PointSet canonical, SketchStoreOptions options)
    : context_(options.context),
      params_(options.params.Resolved()),
      materialize_(options.materialize),
      metrics_(options.metrics),
      grid_(context_.universe, context_.seed) {
  // The cached quadtree levels: the one-shot ladder plus the single-grid
  // protocol's forced level (identical config derivation, so one cache
  // serves both).
  cached_levels_ = recon::ProtocolLevels(grid_, params_.quadtree);
  if (params_.single_grid_level >= 0 &&
      params_.single_grid_level <= grid_.max_level() &&
      std::find(cached_levels_.begin(), cached_levels_.end(),
                params_.single_grid_level) == cached_levels_.end()) {
    cached_levels_.push_back(params_.single_grid_level);
    std::sort(cached_levels_.begin(), cached_levels_.end());
  }
  mlsh_prefixes_ = lshrecon::MlshPrefixLadder(params_.mlsh.NumFunctions());
  mlsh_family_ = lshrecon::MakeMlshFamily(
      params_.mlsh.family, context_.universe,
      lshrecon::MlshEffectiveWidth(context_.universe, params_.mlsh),
      params_.mlsh.NumFunctions(), context_.seed);
  MutexLock lock(mu_);
  snapshot_ = Rebuild(std::move(canonical), /*generation=*/0);
  PublishMetrics();
}

void SketchStore::PublishMetrics() const {
  if (metrics_.generation != nullptr) {
    metrics_.generation->Set(static_cast<int64_t>(snapshot_->generation()));
  }
  if (metrics_.points != nullptr) {
    metrics_.points->Set(static_cast<int64_t>(snapshot_->size()));
  }
}

std::shared_ptr<const SketchSnapshot> SketchStore::Snapshot() const {
  MutexLock lock(mu_);
  return snapshot_;
}

std::shared_ptr<SketchSnapshot> SketchStore::Rebuild(PointSet points,
                                                     uint64_t generation) {
  auto snap = std::shared_ptr<SketchSnapshot>(new SketchSnapshot());
  if (metrics_.rebuilds != nullptr) metrics_.rebuilds->Inc();
  snap->generation_ = generation;
  snap->seed_ = context_.seed;
  snap->materialized_ = materialize_;
  const size_t n = points.size();
  snap->points_ = std::move(points);
  level_histograms_.clear();
  point_counts_.clear();
  if (!materialize_) return snap;

  // Quadtree level IBLTs + adaptive probes (and their histograms, kept for
  // incremental maintenance).
  snap->levels_.reserve(cached_levels_.size());
  level_histograms_.reserve(cached_levels_.size());
  for (int level : cached_levels_) {
    snap->levels_.push_back(SketchSnapshot::LevelSketch{
        level,
        recon::LevelIbltConfig(grid_, level, n, params_.quadtree,
                               context_.seed),
        recon::BuildLevelIblt(grid_, snap->points_, level, n,
                              params_.quadtree, context_.seed),
        recon::AdaptiveLevelProbeConfig(level, context_.seed),
        recon::BuildLevelProbe(grid_, snap->points_, level, context_.seed)});
    level_histograms_.push_back(
        BuildCellHistogram(grid_, snap->points_, level));
  }

  // Exact baseline: occurrence-indexed keyed list + strata estimator, and
  // the multiset view that keeps the occurrence indices maintainable.
  auto keyed = std::make_shared<recon::KeyedPointList>(
      recon::ExactKeyedPoints(snap->points_, context_.seed));
  snap->exact_config_ = recon::ExactReconStrataConfig(context_.seed);
  snap->exact_strata_.emplace(snap->exact_config_);
  for (const auto& [key, point] : *keyed) {
    snap->exact_strata_->Insert(key);
    ++point_counts_[point];
  }
  snap->exact_keyed_ = std::move(keyed);

  // MLSH ladder RIBLTs.
  snap->mlsh_configs_.clear();
  snap->mlsh_tables_.clear();
  snap->mlsh_tables_.reserve(mlsh_prefixes_.size());
  for (size_t li = 0; li < mlsh_prefixes_.size(); ++li) {
    snap->mlsh_configs_.push_back(lshrecon::MlshLevelConfig(
        context_.universe, params_.mlsh, n, li, context_.seed));
    snap->mlsh_tables_.emplace_back(snap->mlsh_configs_.back());
  }
  for (const Point& p : snap->points_) {
    const std::vector<uint64_t> chain =
        lshrecon::MlshKeyChain(*mlsh_family_, p, context_.seed);
    for (size_t li = 0; li < mlsh_prefixes_.size(); ++li) {
      snap->mlsh_tables_[li].Insert(chain[mlsh_prefixes_[li] - 1], p);
    }
  }

  // One-shot exact-key RIBLT.
  snap->oneshot_config_ = RibltOneShotConfig(context_.universe, params_.riblt,
                                             n, context_.seed);
  snap->oneshot_.emplace(*snap->oneshot_config_);
  for (const Point& p : snap->points_) {
    snap->oneshot_->Insert(PointKey(p, context_.seed), p);
  }
  return snap;
}

void SketchStore::UpdatePoint(SketchSnapshot* snap, const Point& p,
                              int direction) {
  RSR_DCHECK(direction == 1 || direction == -1);
  const size_t n = snap->points_.size();  // final size; widths already equal

  // Quadtree histograms: count c -> c + direction means erase the
  // (cell, c) element and insert (cell, c + direction) — two O(q) linear
  // updates per level.
  for (size_t li = 0; li < cached_levels_.size(); ++li) {
    const int level = cached_levels_[li];
    auto& histogram = level_histograms_[li];
    SketchSnapshot::LevelSketch& sketch = snap->levels_[li];
    const uint64_t cell_key = grid_.CellKeyOf(p, level);
    auto it = histogram.find(cell_key);
    const int64_t old_count = it == histogram.end() ? 0 : it->second.count;
    const Cell cell =
        it == histogram.end() ? grid_.CellOf(p, level) : it->second.cell;
    if (old_count > 0) {
      const uint64_t entry =
          recon::HistogramEntryKey(grid_, cell, level, old_count);
      sketch.iblt.Erase(entry, recon::HistogramEntryValue(grid_, cell, level,
                                                          old_count, n));
      sketch.probe.Erase(entry);
    }
    const int64_t new_count = old_count + direction;
    RSR_CHECK(new_count >= 0);
    if (new_count > 0) {
      const uint64_t entry =
          recon::HistogramEntryKey(grid_, cell, level, new_count);
      sketch.iblt.Insert(entry, recon::HistogramEntryValue(grid_, cell, level,
                                                           new_count, n));
      sketch.probe.Insert(entry);
      if (it == histogram.end()) {
        histogram.emplace(cell_key, CellCount{cell, new_count});
      } else {
        it->second.count = new_count;
      }
    } else if (it != histogram.end()) {
      histogram.erase(it);
    }
  }

  // Exact strata: the occurrence index of the mutated copy is its
  // multiplicity before (insert) / after (erase) the update.
  // One map search per point: the iterator serves the read and the write.
  if (direction > 0) {
    const auto it = point_counts_.try_emplace(p, 0).first;
    snap->exact_strata_->Insert(recon::ExactOccurrenceKey(
        p, static_cast<size_t>(it->second), context_.seed));
    ++it->second;
  } else {
    const auto it = point_counts_.find(p);
    RSR_CHECK(it != point_counts_.end() && it->second > 0);
    snap->exact_strata_->Erase(recon::ExactOccurrenceKey(
        p, static_cast<size_t>(it->second - 1), context_.seed));
    if (--it->second == 0) point_counts_.erase(it);
  }

  // MLSH ladder and one-shot RIBLTs: plain linear Insert/Erase.
  const std::vector<uint64_t> chain =
      lshrecon::MlshKeyChain(*mlsh_family_, p, context_.seed);
  for (size_t li = 0; li < mlsh_prefixes_.size(); ++li) {
    const uint64_t key = chain[mlsh_prefixes_[li] - 1];
    if (direction > 0) {
      snap->mlsh_tables_[li].Insert(key, p);
    } else {
      snap->mlsh_tables_[li].Erase(key, p);
    }
  }
  const uint64_t oneshot_key = PointKey(p, context_.seed);
  if (direction > 0) {
    snap->oneshot_->Insert(oneshot_key, p);
  } else {
    snap->oneshot_->Erase(oneshot_key, p);
  }
}

std::shared_ptr<const SketchSnapshot> SketchStore::ApplyUpdate(
    const PointSet& inserts, const PointSet& erases) {
  MutexLock lock(mu_);
  ScopedTimer timer(metrics_.apply_seconds);

  // The new point set: per erased value, the first (remaining) equal
  // points are removed — absent copies are skipped, and must also be
  // skipped in the sketch updates — then the inserts are appended. One
  // sweep instead of a find-per-erase keeps a batch O(|S| + batch), not
  // O(|S| · batch) (the per-element find was the only set-size-
  // proportional term the header comment did not account for).
  std::map<Point, int64_t, PointOrder> pending;
  for (const Point& e : erases) ++pending[e];
  PointSet points;
  points.reserve(snapshot_->points().size() + inserts.size());
  PointSet applied_erases;
  applied_erases.reserve(erases.size());
  for (const Point& p : snapshot_->points()) {
    const auto it = pending.find(p);
    if (it != pending.end() && it->second > 0) {
      --it->second;
      applied_erases.push_back(p);
      continue;
    }
    points.push_back(p);
  }
  points.insert(points.end(), inserts.begin(), inserts.end());

  const uint64_t generation = snapshot_->generation() + 1;
  const bool incremental_ok =
      materialize_ &&
      recon::HistogramCountBits(points.size()) ==
          recon::HistogramCountBits(snapshot_->points().size()) &&
      snapshot_->oneshot_config_.has_value() &&
      SameRibltWidths(RibltOneShotConfig(context_.universe, params_.riblt,
                                         points.size(), context_.seed),
                      *snapshot_->oneshot_config_) &&
      (snapshot_->mlsh_configs_.empty() ||
       SameRibltWidths(
           lshrecon::MlshLevelConfig(context_.universe, params_.mlsh,
                                     points.size(), 0, context_.seed),
           snapshot_->mlsh_configs_[0]));
  if (!incremental_ok) {
    // Crossing a histogram-width boundary invalidates every level IBLT's
    // value layout, and crossing a RIBLT sum-width boundary (see
    // SameRibltWidths) invalidates the cached one-shot and MLSH tables;
    // take the set-proportional path (rare: widths change near powers of
    // two of |S|).
    snapshot_ = Rebuild(std::move(points), generation);
    PublishMetrics();
    return snapshot_;
  }

  // Incremental path: clone the sketch state (O(cells), set-size
  // independent), then apply the per-point increments.
  auto snap = std::shared_ptr<SketchSnapshot>(new SketchSnapshot(*snapshot_));
  snap->generation_ = generation;
  snap->points_ = std::move(points);
  for (const Point& e : applied_erases) UpdatePoint(snap.get(), e, -1);
  for (const Point& i : inserts) UpdatePoint(snap.get(), i, +1);
  // The keyed list is positional (sorted, occurrence-indexed), so it is
  // re-derived from the multiset view rather than patched in place: no
  // sorting, but O(n) copying AND O(n) hashing — ExactOccurrenceKey runs
  // PointKey for every point of the set on every batch, including the
  // ones the batch left untouched.
  auto keyed = std::make_shared<recon::KeyedPointList>();
  keyed->reserve(snap->points_.size());
  for (const auto& [point, copies] : point_counts_) {
    for (int64_t occ = 0; occ < copies; ++occ) {
      keyed->emplace_back(recon::ExactOccurrenceKey(point, static_cast<size_t>(occ), context_.seed),
                          point);
    }
  }
  snap->exact_keyed_ = std::move(keyed);
  snapshot_ = std::move(snap);
  PublishMetrics();
  return snapshot_;
}

}  // namespace server
}  // namespace rsr
