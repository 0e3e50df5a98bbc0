#include "core/clic.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/hint_tree.h"
#include "policies/common.h"

namespace clic {

ClicPolicy::ClicPolicy(std::size_t cache_pages, ClicOptions options)
    : options_(std::move(options)) {
  if (options_.generalize && !options_.hint_space) {
    throw std::invalid_argument(
        "ClicOptions::generalize needs a hint_space registry");
  }
  cache_pages = std::max<std::size_t>(1, cache_pages);
  outqueue_capacity_ = static_cast<std::size_t>(
      std::llround(std::max(0.0, options_.outqueue_per_page) *
                   static_cast<double>(cache_pages)));
  cache_capacity_ = cache_pages;
  if (options_.charge_metadata) {
    // Each outqueue entry costs ~1% of a page of metadata; the paper
    // charges CLIC for that space instead of letting it track for free.
    const std::size_t meta = (outqueue_capacity_ + 99) / 100;
    cache_capacity_ = cache_pages > meta ? cache_pages - meta : 1;
  }
  if (options_.window == 0) options_.window = 1;
  // Adaptive bounds resolve against the configured window: the floor
  // defaults to a sixteenth of it, the ceiling to the window itself, so
  // adaptation can only shorten the paper's W unless the caller widens
  // the ceiling explicitly.
  min_window_ = options_.min_window != 0
                    ? options_.min_window
                    : std::max<std::uint64_t>(1, options_.window / 16);
  max_window_ = options_.max_window != 0 ? options_.max_window
                                         : options_.window;
  if (min_window_ > max_window_) min_window_ = max_window_;
  effective_window_ = options_.adaptive_window
                          ? std::clamp(options_.window, min_window_,
                                       max_window_)
                          : options_.window;
  next_window_end_ = effective_window_;
  checkpoint_interval_ = std::max<std::uint64_t>(1, min_window_ / 2);
  // The first checkpoint of a window arms at start + min_window (not at
  // the cadence interval): no close may produce a window shorter than
  // the floor, so a floor-length window has no checkpoints at all.
  window_checkpoint_ = (options_.adaptive_window &&
                        options_.churn_threshold > 0.0 &&
                        min_window_ < effective_window_)
                           ? min_window_
                           : next_window_end_;
  next_event_ = window_checkpoint_;
  for (double& f : decay_ring_) f = options_.decay;

  slots_.resize(cache_capacity_ + outqueue_capacity_);
  free_slots_.reserve(slots_.size());
  for (std::size_t i = slots_.size(); i-- > 0;) {
    free_slots_.push_back(static_cast<std::uint32_t>(i));
  }
  buckets_.assign(1, List{});
  bitmap_.assign(1, 0);
  bitmap_summary_.assign(1, 0);

  if (options_.tracker == TrackerKind::kSpaceSaving) {
    space_saving_ = std::make_unique<SpaceSaving<HintSetId>>(
        std::max<std::size_t>(1, options_.top_k));
  } else if (options_.tracker == TrackerKind::kLossyCounting) {
    lossy_counting_ = std::make_unique<LossyCounting<HintSetId>>(
        1.0 / static_cast<double>(std::max<std::size_t>(1, options_.top_k)));
  }
}

ClicPolicy::~ClicPolicy() = default;

void ClicPolicy::EnsureHint(HintSetId h) {
  if (h < hints_.size()) return;
  const std::size_t n = static_cast<std::size_t>(h) + 1;
  hints_.refs_w.resize(n, 0);
  hints_.rerefs_w.resize(n, 0);
  hints_.cur.resize(n, 0);
  hints_.area.resize(n, 0);
  hints_.last_change.resize(n, window_start_);
  hints_.acc_r.resize(n, 0.0);
  hints_.acc_s.resize(n, 0.0);
  hints_.priority.resize(n, 0.0);
  hints_.rank.resize(n, 0);
  touched_flag_.resize(n, 0);
  acc_window_.resize(n, windows_completed_);
  pos_index_.resize(n, kInvalidIndex);
  eligible_.resize(n, 0);
  win_r_.resize(n, 0.0);
  win_s_.resize(n, 0.0);
}

void ClicPolicy::FlushArea(HintSetId h, SeqNum now) {
  // Every cur / annotation change flows through here, so flushing also
  // registers the hint set as an incremental-window candidate.
  Touch(h);
  hints_.area[h] += static_cast<std::uint64_t>(hints_.cur[h]) *
                    (now - hints_.last_change[h]);
  hints_.last_change[h] = now;
}

void ClicPolicy::Annotate(Slot& slot, HintSetId hint, SeqNum now) {
  if (slot.hint == hint) return;
  FlushArea(slot.hint, now);
  --hints_.cur[slot.hint];
  FlushArea(hint, now);
  ++hints_.cur[hint];
  slot.hint = hint;
}

// ---- intrusive lists ------------------------------------------------------

void ClicPolicy::ListPushFront(List& list, std::uint32_t i) {
  slots_[i].prev = kInvalidIndex;
  slots_[i].next = list.head;
  if (list.head != kInvalidIndex) {
    slots_[list.head].prev = i;
  } else {
    list.tail = i;
  }
  list.head = i;
  ++list.size;
}

void ClicPolicy::ListPushBack(List& list, std::uint32_t i) {
  slots_[i].next = kInvalidIndex;
  slots_[i].prev = list.tail;
  if (list.tail != kInvalidIndex) {
    slots_[list.tail].next = i;
  } else {
    list.head = i;
  }
  list.tail = i;
  ++list.size;
}

void ClicPolicy::ListRemove(List& list, std::uint32_t i) {
  Slot& s = slots_[i];
  if (s.prev != kInvalidIndex) {
    slots_[s.prev].next = s.next;
  } else {
    list.head = s.next;
  }
  if (s.next != kInvalidIndex) {
    slots_[s.next].prev = s.prev;
  } else {
    list.tail = s.prev;
  }
  s.prev = s.next = kInvalidIndex;
  --list.size;
}

void ClicPolicy::BucketPushFront(std::uint32_t rank, std::uint32_t i) {
  ListPushFront(buckets_[rank], i);
  if (buckets_[rank].size == 1) BitmapSet(rank);
}

void ClicPolicy::BucketRemove(std::uint32_t rank, std::uint32_t i) {
  ListRemove(buckets_[rank], i);
  if (buckets_[rank].size == 0) BitmapClear(rank);
}

void ClicPolicy::BitmapSet(std::uint32_t rank) {
  const std::uint32_t word = rank >> 6;
  bitmap_[word] |= 1ull << (rank & 63);
  bitmap_summary_[word >> 6] |= 1ull << (word & 63);
}

void ClicPolicy::BitmapClear(std::uint32_t rank) {
  const std::uint32_t word = rank >> 6;
  bitmap_[word] &= ~(1ull << (rank & 63));
  if (bitmap_[word] == 0) {
    bitmap_summary_[word >> 6] &= ~(1ull << (word & 63));
  }
}

std::uint32_t ClicPolicy::FindVictimRank() const {
  for (std::uint32_t sw = 0; sw < bitmap_summary_.size(); ++sw) {
    if (bitmap_summary_[sw] == 0) continue;
    const std::uint32_t word =
        (sw << 6) + static_cast<std::uint32_t>(
                        __builtin_ctzll(bitmap_summary_[sw]));
    return (word << 6) +
           static_cast<std::uint32_t>(__builtin_ctzll(bitmap_[word]));
  }
  return 0;  // unreachable while the cache holds pages
}

// ---- cache mechanics ------------------------------------------------------

void ClicPolicy::EvictOne(SeqNum now) {
  const std::uint32_t rank = FindVictimRank();
  const std::uint32_t si = buckets_[rank].tail;
  BucketRemove(rank, si);
  --cached_;
  Slot& s = slots_[si];
  if (outqueue_capacity_ > 0) {
    // The page's metadata stays tracked in the outqueue so a re-reference
    // still credits its hint set.
    s.state = SlotState::kOutqueue;
    ListPushFront(outqueue_, si);
    if (outqueue_.size > outqueue_capacity_) {
      const std::uint32_t drop = outqueue_.tail;
      ListRemove(outqueue_, drop);
      Slot& d = slots_[drop];
      FlushArea(d.hint, now);
      --hints_.cur[d.hint];
      page_table_.Clear(d.page);
      d.state = SlotState::kFree;
      free_slots_.push_back(drop);
    }
  } else {
    FlushArea(s.hint, now);
    --hints_.cur[s.hint];
    page_table_.Clear(s.page);
    s.state = SlotState::kFree;
    free_slots_.push_back(si);
  }
}

void ClicPolicy::InsertCached(std::uint32_t slot_index, SeqNum now) {
  if (cached_ >= cache_capacity_) EvictOne(now);
  Slot& s = slots_[slot_index];
  s.state = SlotState::kCached;
  s.stamp = ++clock_;
  ++cached_;
  BucketPushFront(hints_.rank[s.hint], slot_index);
}

namespace {
/// Third prefetch stage of the batch pipeline: the list neighbours of
/// the slot request i + kBatchSpliceDistance will splice.
constexpr std::size_t kBatchSpliceDistance = 2;
}  // namespace

// clic-lint: hot-path
bool ClicPolicy::Access(const Request& r, SeqNum seq) {
  if (seq >= next_event_) HandleWindowEvent(seq);
  return AccessOne(r, seq);
}

void ClicPolicy::HandleWindowEvent(SeqNum seq) {
  if (seq >= next_window_end_) {
    EndWindow(next_window_end_);
    return;
  }
  // seq landed in [checkpoint, window end): consume this checkpoint,
  // arm the next one on the fixed cadence (every checkpoint_interval_
  // requests, so worst-case detection latency is bounded by
  // ~min_window even when the effective window has re-expanded),
  // evaluate the churn signal once, and close early if the previous
  // window's ranks no longer predict the live re-reference mass. A
  // checkpoint no request ever lands on is never evaluated — the
  // signal is a pure function of the request stream, not of wall time.
  const SeqNum ckpt = window_checkpoint_;
  const SeqNum next_ckpt = ckpt + checkpoint_interval_;
  window_checkpoint_ =
      next_ckpt < next_window_end_ ? next_ckpt : next_window_end_;
  next_event_ = window_checkpoint_;
  const double similarity = ChurnSimilarity();
  if (similarity < options_.churn_threshold) {
    // Close early AND discount the accumulated history by the measured
    // similarity: ranks that no longer predict live behaviour were
    // produced by history that is now stale, and with the paper's r = 1
    // that history would otherwise pin the previous phase's hint sets
    // at the top of the ranking for the rest of the run.
    churn_discount_ = similarity;
    EndWindow(ckpt);
  }
}

double ClicPolicy::ChurnSimilarity() {
  // A signed rank correlation (Spearman/Kendall) over the live partial
  // priorities degenerates here: after a total working-set shift every
  // stale hint set's live priority ties at exactly zero, the tie block
  // sorts by id, and rho lands near 0 — i.e. similarity saturates at
  // 0.5 instead of collapsing. What the close decision actually needs
  // is "does the committed ranking still predict where re-reference
  // value accrues", so measure exactly that: the fraction of the
  // re-reference mass credited to hint sets the committed ranking
  // placed in its top half (ranks above k/2 of the k ranked sets).
  // Stable workloads score near 1; an abrupt shift scores near 0
  // because the new phase's sets are bottom-ranked or unranked.
  //
  // The fraction is computed over the mass accrued SINCE THE PREVIOUS
  // CHECKPOINT, not since the window start: rerefs_w is cumulative,
  // and a shift landing mid-window would otherwise be diluted by the
  // pre-shift mass for the rest of the window (measured on
  // phase-abrupt: similarity plateaus at ~0.62 while the hit ratio
  // sits at zero). Ranks are constant between closes, so two scalar
  // snapshot bases — reset by EndWindow alongside rerefs_w — turn the
  // cumulative pass into an exact per-interval delta. One pass over
  // the candidate list, no sort — and the signal keeps firing across
  // consecutive checkpoints until the discounted ranking predicts
  // behaviour again.
  const std::size_t k = positive_.size();
  if (k < kMinChurnSignalHints) return 1.0;
  const std::uint32_t top_rank = static_cast<std::uint32_t>(k / 2);
  std::uint64_t total = 0;
  std::uint64_t predicted = 0;
  for (HintSetId h : touched_) {
    const std::uint64_t rr = hints_.rerefs_w[h];
    total += rr;
    if (hints_.rank[h] > top_rank) predicted += rr;
  }
  const std::uint64_t interval_total = total - ckpt_total_base_;
  const std::uint64_t interval_predicted = predicted - ckpt_pred_base_;
  ckpt_total_base_ = total;
  ckpt_pred_base_ = predicted;
  // No re-references this interval is absence of evidence, not churn.
  if (interval_total == 0) return 1.0;
  return static_cast<double>(interval_predicted) /
         static_cast<double>(interval_total);
}

// clic-lint: hot-path
template <int kTracker>
void ClicPolicy::RunBatchSpan(const Request* reqs, SeqNum first_seq,
                              std::size_t begin, std::size_t end,
                              std::size_t n, std::uint8_t* hits_out) {
  // Three prefetch stages, each reading what the previous one warmed.
  // All are advisory: an intervening remap or splice only wastes a
  // prefetch, never changes a decision.
  for (std::size_t i = begin; i < end; ++i) {
    if (i + kBatchPrefetchDistance < n) {
      page_table_.Prefetch(reqs[i + kBatchPrefetchDistance].page);
    }
    if (i + kBatchNodeDistance < n) {
      // The table entry prefetched kBatchPrefetchDistance ago is warm;
      // chase it so the Slot is warm when its request arrives.
      const std::uint32_t ahead =
          page_table_.Get(reqs[i + kBatchNodeDistance].page);
      if (ahead != kInvalidIndex) __builtin_prefetch(&slots_[ahead], 0, 1);
    }
    if (i + kBatchSpliceDistance < n) {
      // The Slot chased kBatchNodeDistance ago is warm; prefetch its
      // list neighbours, which the bucket (or outqueue) splice writes.
      const std::uint32_t ahead =
          page_table_.Get(reqs[i + kBatchSpliceDistance].page);
      if (ahead != kInvalidIndex) {
        const Slot& s = slots_[ahead];
        if (s.prev != kInvalidIndex) __builtin_prefetch(&slots_[s.prev], 1, 1);
        if (s.next != kInvalidIndex) __builtin_prefetch(&slots_[s.next], 1, 1);
      }
    }
    hits_out[i] = AccessOneT<kTracker>(reqs[i], first_seq + i);
  }
}

// clic-lint: hot-path
void ClicPolicy::AccessBatch(const Request* reqs, SeqNum first_seq,
                             std::size_t n, std::uint8_t* hits_out) {
  // Prologue: the span loop prefetches the table entry of request
  // i + kBatchPrefetchDistance, so without this the first entries of
  // every batch would be demand-loaded — most of a short served slice.
  const std::size_t warm = std::min(n, kBatchPrefetchDistance);
  for (std::size_t i = 0; i < warm; ++i) page_table_.Prefetch(reqs[i].page);
  std::size_t i = 0;
  while (i < n) {
    const SeqNum seq = first_seq + i;
    if (seq >= next_event_) {
      HandleWindowEvent(seq);
      if (seq >= next_event_) {
        // Degenerate seq jump (more than one window event between
        // consecutive requests): fall back to the scalar path's
        // one-event-per-access behaviour for this request.
        hits_out[i] = AccessOne(reqs[i], seq);
        ++i;
        continue;
      }
    }
    // No window event (checkpoint or close) can fire before `run`, so
    // the inner span needs no boundary check at all — the per-request
    // branch is hoisted here, and the tracker dispatch happens once per
    // span instead of per request.
    const std::size_t run =
        i + static_cast<std::size_t>(
                std::min<std::uint64_t>(n - i, next_event_ - seq));
    if (space_saving_) {
      RunBatchSpan<1>(reqs, first_seq, i, run, n, hits_out);
    } else if (lossy_counting_) {
      RunBatchSpan<2>(reqs, first_seq, i, run, n, hits_out);
    } else {
      RunBatchSpan<0>(reqs, first_seq, i, run, n, hits_out);
    }
    i = run;
  }
}

// clic-lint: hot-path
inline bool ClicPolicy::AccessOne(const Request& r, SeqNum seq) {
  if (space_saving_) return AccessOneT<1>(r, seq);
  if (lossy_counting_) return AccessOneT<2>(r, seq);
  return AccessOneT<0>(r, seq);
}

// clic-lint: hot-path
template <int kTracker>
inline bool ClicPolicy::AccessOneT(const Request& r, SeqNum seq) {
  last_seq_ = seq;
  EnsureHint(r.hint_set);
  if (hints_.refs_w[r.hint_set]++ == 0) Touch(r.hint_set);
  if constexpr (kTracker == 1) {
    space_saving_->Offer(r.hint_set);
  } else if constexpr (kTracker == 2) {
    lossy_counting_->Offer(r.hint_set);
  }

  const std::uint32_t si = page_table_.Get(r.page);
  if (si != kInvalidIndex) {
    Slot& s = slots_[si];
    // Re-reference: credit the hint set that annotated the page. A
    // tracked slot means cur[s.hint] > 0, which guarantees s.hint is
    // already a window candidate (see Touch invariant) — no Touch here.
    ++hints_.rerefs_w[s.hint];
    if (s.state == SlotState::kCached) {
      const std::uint32_t old_rank = hints_.rank[s.hint];
      Annotate(s, r.hint_set, seq);
      s.stamp = ++clock_;
      const std::uint32_t rank = hints_.rank[s.hint];
      if (rank != old_rank || buckets_[rank].head != si) {
        BucketRemove(old_rank, si);
        BucketPushFront(rank, si);
      }
      return true;
    }
    // Outqueue hit: a miss for the cache, but the page re-enters it.
    ListRemove(outqueue_, si);
    Annotate(s, r.hint_set, seq);
    InsertCached(si, seq);
    return false;
  }

  // Cold miss: the page becomes annotated with the request's hint set.
  FlushArea(r.hint_set, seq);
  ++hints_.cur[r.hint_set];
  if (free_slots_.empty()) EvictOne(seq);  // trims the outqueue, frees a slot
  const std::uint32_t node = free_slots_.back();
  free_slots_.pop_back();
  Slot& s = slots_[node];
  s.page = r.page;
  s.hint = r.hint_set;
  page_table_.Set(r.page, node);
  InsertCached(node, seq);
  return false;
}

// ---- window analysis (Equation 2, incremental) ----------------------------
//
// The harvest / decay / rank loops visit only this window's candidates
// (the touched_ list) instead of every hint set ever seen. Correctness
// rests on two facts:
//   1. A hint set outside touched_ has refs_w == rerefs_w == area == 0
//      and cur == 0 (Touch invariant + cur>0 reseed), so its window
//      statistics are exactly the post-reset state — skipping it is a
//      no-op.
//   2. An untouched hint set's Equation-2 ratio is unchanged by the
//      plain decay recurrence (both accumulators scale by the same
//      factor), so its priority — and hence its rank order relative to
//      other unchanged hints — carries forward. The three cases where
//      the ratio does change are all handled at the close that causes
//      them: approximate trackers drop unreferenced hints and decay ==
//      0 discards history (both sweep the maintained positive set),
//      and a churn-discounted close scales acc_r by less than acc_s,
//      so EndWindow folds and re-ranks every untouched hint eagerly on
//      that close. Pending decay scalings are otherwise applied lazily
//      by FoldDecay, with a periodic full fold keeping every
//      *accumulator* bit-identical to the eager per-window recurrence.
//      The carried *priority* fl(a/b) of an untouched hint can differ
//      from an eagerly recomputed fl(fl(d*a)/fl(d*b)) by an ulp when
//      decay is not a power of two (independent rounding of the two
//      products); it is the mathematically exact value of the same
//      ratio, but a rank sort could in principle order two
//      ulp-adjacent priorities differently than an eager
//      implementation would.

void ClicPolicy::FoldDecay(HintSetId h, std::uint64_t upto_window) {
  std::uint64_t w = acc_window_[h];
  acc_window_[h] = upto_window;
  // One multiplication per skipped window, oldest first — identical
  // value and rounding order to the eager per-window recurrences
  // acc_r = 0 + r_factor * acc_r and acc_s = 0 + decay * acc_s.
  // Bounded by kDecayFoldPeriod, so every r-factor is still resident
  // in the ring. A factor of exactly 1.0 is a bit-exact no-op and is
  // skipped (the pre-adaptive fast path).
  const double s_decay = options_.decay;
  for (; w < upto_window;) {
    ++w;
    const double f = decay_ring_[w % kDecayRingSize];
    if (f != 1.0) hints_.acc_r[h] *= f;
    if (s_decay != 1.0) hints_.acc_s[h] *= s_decay;
  }
}

void ClicPolicy::SetPriority(HintSetId h, double priority) {
  hints_.priority[h] = priority;
  const bool in_positive = pos_index_[h] != kInvalidIndex;
  if (priority > 0.0) {
    if (!in_positive) {
      pos_index_[h] = static_cast<std::uint32_t>(positive_.size());
      positive_.push_back(h);
    }
  } else if (in_positive) {
    const std::uint32_t idx = pos_index_[h];
    const HintSetId last = positive_.back();
    positive_[idx] = last;
    pos_index_[last] = idx;
    positive_.pop_back();
    pos_index_[h] = kInvalidIndex;
    // hints_.rank[h] keeps its old value until RelabelBuckets, which
    // needs it to find the bucket list the hint leaves behind.
  }
}

void ClicPolicy::EndWindow(SeqNum end) {
  const std::uint64_t length = end - window_start_;
  if (options_.adaptive_window) {
    // MIMD adaptation: a churn-triggered (or forced) early close halves
    // the effective window; kStableClosesToGrow consecutive windows
    // that ran to their scheduled end double it back. Both moves clamp
    // to [min_window_, max_window_]. Growth is deliberately slower than
    // shrinkage: a short window keeps the checkpoint cadence fine while
    // a churn episode is still resolving, and the only cost of staying
    // short during stability is the rank recompute, not ranking quality
    // (the decay blend accumulates across windows either way).
    if (end < next_window_end_) {
      ++early_closes_;
      stable_closes_ = 0;
      effective_window_ = std::max(min_window_, effective_window_ / 2);
    } else if (++stable_closes_ >= kStableClosesToGrow) {
      stable_closes_ = 0;
      effective_window_ = effective_window_ > max_window_ / 2
                              ? max_window_
                              : effective_window_ * 2;
    }
  }
  const std::uint64_t next_len =
      options_.adaptive_window ? effective_window_ : options_.window;
  next_window_end_ = end + next_len;
  // First checkpoint at end + min_window_ — a window can never close
  // before the floor, and a floor-length window has no checkpoints.
  window_checkpoint_ = (options_.adaptive_window &&
                        options_.churn_threshold > 0.0 &&
                        min_window_ < next_len)
                           ? end + min_window_
                           : next_window_end_;
  next_event_ = window_checkpoint_;
  if (length == 0) return;

  // Candidate order must match the ascending full-scan order the eager
  // analysis used: generalization class ids depend on sample order.
  std::sort(touched_.begin(), touched_.end());

  for (HintSetId h : touched_) {
    if (hints_.cur[h]) FlushArea(h, end);
  }

  // Which hint sets get priorities at all (Section 5 top-k filtering).
  // Tracker items were all offered this window, so they are candidates;
  // eligible_ bits are cleared again in the reset loop below.
  const bool exact = options_.tracker == TrackerKind::kExact;
  const std::size_t n = hints_.size();
  if (!exact) {
    if (space_saving_) {
      for (const auto& e : space_saving_->Items()) {
        if (e.item < n) eligible_[e.item] = 1;
      }
    } else if (lossy_counting_) {
      std::size_t taken = 0;
      for (const auto& e : lossy_counting_->Items()) {
        if (taken++ >= options_.top_k) break;
        if (e.item < n) eligible_[e.item] = 1;
      }
    }
  }

  // Per-hint window statistics: R = re-references credited to the hint
  // set, S = time-averaged number of tracked pages it annotated. Only
  // candidate entries of the persistent scratch are written (and read).
  for (HintSetId h : touched_) {
    win_r_[h] = static_cast<double>(hints_.rerefs_w[h]);
    win_s_[h] = static_cast<double>(hints_.area[h]) /
                static_cast<double>(length);
  }

  if (options_.generalize) {
    // Pool statistics over decision-tree classes; every member of a
    // class shares the pooled Equation-2 estimate, and top-k filtering
    // applies to classes instead of raw hint sets. Samples (refs_w > 0)
    // are a subset of the candidates.
    std::vector<HintSample> samples;
    samples.reserve(touched_.size());
    for (HintSetId h : touched_) {
      if (hints_.refs_w[h] == 0) continue;
      HintSample s;
      s.hint = h;
      s.weight = hints_.refs_w[h];
      s.rate = static_cast<double>(hints_.rerefs_w[h]) /
               static_cast<double>(hints_.refs_w[h]);
      samples.push_back(s);
    }
    HintClassTree tree(*options_.hint_space, samples);
    const std::uint32_t classes = tree.num_classes();
    std::vector<double> class_r(classes, 0.0), class_s(classes, 0.0);
    std::vector<std::uint64_t> class_refs(classes, 0);
    for (const HintSample& s : samples) {
      const std::uint32_t c = tree.ClassOf(s.hint);
      class_r[c] += win_r_[s.hint];
      class_s[c] += win_s_[s.hint];
      class_refs[c] += s.weight;
    }
    std::vector<std::uint8_t> class_ok(classes, 1);
    if (!exact && classes > options_.top_k) {
      std::vector<std::uint32_t> order(classes);
      for (std::uint32_t c = 0; c < classes; ++c) order[c] = c;
      std::sort(order.begin(), order.end(),
                [&](std::uint32_t a, std::uint32_t b) {
                  if (class_refs[a] != class_refs[b]) {
                    return class_refs[a] > class_refs[b];
                  }
                  return a < b;
                });
      class_ok.assign(classes, 0);
      for (std::size_t i = 0; i < options_.top_k; ++i) class_ok[order[i]] = 1;
    }
    if (!exact) {
      for (HintSetId h : touched_) eligible_[h] = 0;
    }
    for (const HintSample& s : samples) {
      const std::uint32_t c = tree.ClassOf(s.hint);
      win_r_[s.hint] = class_r[c];
      win_s_[s.hint] = class_s[c];
      if (!exact && class_ok[c]) eligible_[s.hint] = 1;
    }
  }

  // Fold pending decay, blend this window in, and recompute priorities
  // — candidates only. A churn-triggered close discounts the
  // *numerator* history by the measured similarity: scaling both
  // accumulators would cancel in the Equation-2 ratio and leave every
  // stale hint set's priority untouched, which with the paper's r = 1
  // would pin the previous phase at the top of the ranking forever.
  // Discounting acc_r alone demotes a stale set's priority by exactly
  // how badly its committed rank predicted the live ranking. The ring
  // records the per-window r-factor so the lazy fold replays it for
  // hints untouched this window; acc_s always folds with the constant
  // configured decay.
  const double decay = options_.decay;
  const bool churned = churn_discount_ != 1.0;
  const double r_factor = decay * churn_discount_;
  churn_discount_ = 1.0;
  const std::uint64_t this_window = windows_completed_ + 1;
  decay_ring_[this_window % kDecayRingSize] = r_factor;
  for (HintSetId h : touched_) {
    FoldDecay(h, windows_completed_);
    hints_.acc_r[h] = win_r_[h] + r_factor * hints_.acc_r[h];
    hints_.acc_s[h] = win_s_[h] + decay * hints_.acc_s[h];
    acc_window_[h] = this_window;
    const bool ok = exact || eligible_[h];
    SetPriority(h, (ok && hints_.acc_s[h] > 0.0)
                       ? hints_.acc_r[h] / hints_.acc_s[h]
                       : 0.0);
  }

  // Untouched hints keep their previous priority (case 2 above) except:
  // approximate trackers make every unreferenced hint ineligible, a
  // zero blend factor (decay == 0) zeroes its history, and a churn
  // close changes the ratio itself (r shrinks, s does not), so every
  // untouched hint is folded and re-ranked eagerly right here — the
  // whole point of the discount is that the stale sets lose this
  // window's rank sort, not some later one. (Downward sweep loop:
  // SetPriority(., 0) swap-removes, moving an already-visited tail
  // element into slot i.)
  if (!exact || (!churned && r_factor == 0.0)) {
    for (std::size_t i = positive_.size(); i-- > 0;) {
      const HintSetId h = positive_[i];
      if (!touched_flag_[h]) SetPriority(h, 0.0);
    }
  } else if (churned) {
    for (std::size_t h = 0; h < n; ++h) {
      if (touched_flag_[h]) continue;
      FoldDecay(static_cast<HintSetId>(h), this_window);
      SetPriority(static_cast<HintSetId>(h),
                  hints_.acc_s[h] > 0.0 ? hints_.acc_r[h] / hints_.acc_s[h]
                                        : 0.0);
    }
  }

  RelabelBuckets();

  // Reset candidates' window statistics and reseed the next window's
  // candidate list with hint sets that still annotate tracked pages
  // (their area keeps accruing with no further event).
  std::size_t keep = 0;
  for (HintSetId h : touched_) {
    hints_.refs_w[h] = 0;
    hints_.rerefs_w[h] = 0;
    hints_.area[h] = 0;
    hints_.last_change[h] = end;
    eligible_[h] = 0;
    if (hints_.cur[h]) {
      touched_[keep++] = h;
    } else {
      touched_flag_[h] = 0;
    }
  }
  touched_.resize(keep);
  if (space_saving_) space_saving_->Clear();
  if (lossy_counting_) lossy_counting_->Clear();
  window_start_ = end;
  ckpt_total_base_ = 0;
  ckpt_pred_base_ = 0;
  ++windows_completed_;

  // Periodic full fold: bounds the lazy fold's per-hint backlog (the
  // decay ring only holds the last kDecayRingSize factors) and keeps
  // long-idle accumulators numerically identical to eager decay. With
  // adaptive windowing the fold must run even at decay == 1: a churn
  // close puts a non-unit factor in the ring.
  if ((decay != 1.0 || options_.adaptive_window) &&
      windows_completed_ % kDecayFoldPeriod == 0) {
    for (std::size_t h = 0; h < n; ++h) {
      FoldDecay(static_cast<HintSetId>(h), windows_completed_);
    }
  }
}

// Rank hint sets: rank 0 collects everything with zero priority (those
// pages are evicted first, least recently used first); positive
// priorities get ranks 1..k in ascending (priority, id) order, so each
// positive rank holds exactly one hint set. positive_ is exactly the
// set a full scan would collect, and sorting the pairs makes the order
// independent of how the set was accumulated.
//
// Bucket contents follow from two invariants: a cached slot sits in the
// bucket of its hint's rank, and every bucket is in descending stamp
// (= recency) order. A hint ranked before and after the close keeps
// its whole list, so only the List header moves. Membership changes
// only where a hint crosses rank 0: a hint leaving the ranked set pours
// its list into bucket 0, and a newly ranked hint takes its pages out
// of bucket 0. Then bucket 0 and the fallen lists are gathered, sorted
// by stamp (descending) and pushed back to their new buckets. Stamps
// are unique, so each bucket ends in exactly the order a walk over all
// cached pages, most recent first, would have produced.
void ClicPolicy::RelabelBuckets() {
  bool crossing = false;
  resort_.clear();
  const auto gather = [this](const List& list) {
    for (std::uint32_t i = list.head; i != kInvalidIndex;
         i = slots_[i].next) {
      resort_.emplace_back(slots_[i].stamp, i);
    }
  };
  // Previous ranking: ranked_[r - 1] still names rank r's hint.
  for (std::uint32_t r = 1; r < num_ranks_; ++r) {
    const HintSetId h = ranked_[r - 1].second;
    if (pos_index_[h] != kInvalidIndex) continue;
    crossing = true;
    hints_.rank[h] = 0;
    gather(buckets_[r]);
  }

  ranked_.clear();
  ranked_.reserve(positive_.size());
  for (HintSetId h : positive_) {
    ranked_.emplace_back(hints_.priority[h], h);
  }
  std::sort(ranked_.begin(), ranked_.end());
  const std::uint32_t ranks =
      static_cast<std::uint32_t>(ranked_.size()) + 1;
  next_buckets_.assign(ranks, List{});
  for (std::uint32_t r = 1; r < ranks; ++r) {
    const HintSetId h = ranked_[r - 1].second;
    const std::uint32_t old = hints_.rank[h];
    if (old != 0) {
      next_buckets_[r] = buckets_[old];
    } else {
      crossing = true;
    }
    hints_.rank[h] = r;
  }

  if (crossing) {
    gather(buckets_[0]);
    std::sort(resort_.begin(), resort_.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    for (const auto& entry : resort_) {
      const std::uint32_t i = entry.second;
      ListPushBack(next_buckets_[hints_.rank[slots_[i].hint]], i);
    }
  } else {
    next_buckets_[0] = buckets_[0];
  }
  buckets_.swap(next_buckets_);
  num_ranks_ = ranks;

  const std::size_t words = (num_ranks_ + 63) / 64;
  bitmap_.assign(words, 0);
  bitmap_summary_.assign((words + 63) / 64, 0);
  for (std::uint32_t r = 0; r < num_ranks_; ++r) {
    if (buckets_[r].size != 0) BitmapSet(r);
  }
}

void ClicPolicy::ForceEndWindow() { EndWindow(last_seq_ + 1); }

std::vector<std::pair<HintSetId, double>> ClicPolicy::Priorities() const {
  std::vector<std::pair<HintSetId, double>> out;
  const std::size_t n = hints_.size();
  out.reserve(n);
  for (std::size_t h = 0; h < n; ++h) {
    // Accumulators fold lazily; a positive factor never changes whether
    // they are zero, but a zero factor (decay == 0, or a churn close at
    // similarity exactly 0) in a pending window zeroes the history.
    bool stale_zero = false;
    for (std::uint64_t w = acc_window_[h];
         w < windows_completed_ && !stale_zero;) {
      ++w;
      stale_zero = decay_ring_[w % kDecayRingSize] == 0.0;
    }
    if (!stale_zero && (hints_.acc_s[h] > 0.0 || hints_.acc_r[h] > 0.0)) {
      out.emplace_back(static_cast<HintSetId>(h), hints_.priority[h]);
    }
  }
  return out;
}

}  // namespace clic
