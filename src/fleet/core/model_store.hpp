#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "fleet/core/atomic_shared.hpp"

namespace fleet::core {

/// Ring buffer of immutable, reference-counted model snapshots keyed by the
/// server's logical clock (DESIGN.md §4, threading model §6).
///
/// The FLeet protocol hands every worker the parameter vector theta^(t_i)
/// it must compute its gradient against (Fig 2, step 4), and resolves the
/// returning gradient's staleness tau_i = t - t_i against that version
/// (§2.3). Materializing a fresh copy per request makes the request path
/// O(|theta|) allocations per worker; the store instead publishes one
/// immutable snapshot per version and hands out shared_ptr handles, so a
/// 10k-worker fleet at the same clock value shares a single buffer and the
/// system holds O(window) parameter buffers total, regardless of request
/// volume. A snapshot stays alive while any in-flight task still references
/// it, even after the ring evicts its slot.
///
/// Concurrency contract (single publisher, many readers): each ring slot is
/// an atomically swapped shared_ptr to an immutable (version, snapshot)
/// record (AtomicSharedPtr — a constant-time handle swap; see that header
/// for why std::atomic<shared_ptr> is not usable), so at()/resolve()/
/// contains() are safe from any thread while one thread publishes, and the
/// snapshot buffers themselves are kept alive by the shared_ptr control
/// block's atomic refcounts. publish() asserts the single-publisher
/// invariant: two threads publishing concurrently is a protocol violation
/// (the logical clock has exactly one owner) and throws std::logic_error
/// when detected.
class ModelStore {
 public:
  using Buffer = std::vector<float>;
  /// Immutable shared snapshot handle. Cheap to copy, never deep-copied;
  /// refcount updates are atomic, so handles may be acquired and released
  /// from any thread.
  using Snapshot = std::shared_ptr<const Buffer>;

  /// `window`: number of versions retained (>= 1). Like the paper's
  /// bounded-staleness setups, anything staler than the window resolves to
  /// the oldest retained snapshot.
  explicit ModelStore(std::size_t window);

  /// Store the snapshot for `version`, evicting whatever occupied its ring
  /// slot. Returns the shared handle. Publishing the same version twice
  /// replaces the snapshot (the last write wins). Single-publisher only.
  Snapshot publish(std::size_t version, Buffer parameters);

  /// Publish an already-built snapshot handle (e.g. a SnapshotPool buffer
  /// the fold lanes filled): a handle swap, no copy and no buffer
  /// allocation. Same ring and single-publisher rules as above.
  Snapshot publish(std::size_t version, Snapshot snapshot);

  /// Exact lookup; nullptr when `version` was never published or has been
  /// evicted from the ring. One constant-time atomic record copy (a
  /// micro-spinlocked handle, see AtomicSharedPtr — not formally
  /// lock-free); safe concurrently with publish().
  Snapshot at(std::size_t version) const;

  /// Lookup with staleness clamping: the snapshot for `version`, or the
  /// oldest retained snapshot when `version` fell off the ring. nullptr
  /// only when the store is empty.
  Snapshot resolve(std::size_t version) const;

  /// Existence probe; unlike at(), does not count toward hits().
  bool contains(std::size_t version) const {
    const SlotPtr slot = slots_[version % window_].load();
    return slot != nullptr && slot->version == version;
  }

  /// Clamp a task's origin version to the oldest version the ring can still
  /// hold at logical clock `current`: staleness beyond the window resolves
  /// to the window edge (bounded-staleness history semantics).
  std::size_t clamp(std::size_t version, std::size_t current) const {
    const std::size_t w = window_;
    if (current >= w && version + w <= current) return current - w + 1;
    return version;
  }

  std::size_t window() const { return window_; }
  bool empty() const { return published_.load(std::memory_order_acquire) == 0; }

  /// Highest version ever published (0 when empty).
  std::size_t latest_version() const {
    return latest_.load(std::memory_order_acquire);
  }

  /// Total publishes. Contrast with hits() to see how much the ring
  /// amortizes.
  std::size_t publishes() const {
    return published_.load(std::memory_order_relaxed);
  }

  /// Successful shared lookups served without materializing anything.
  std::size_t hits() const { return hits_.load(std::memory_order_relaxed); }

 private:
  /// Immutable once published; the slot swaps whole records so readers
  /// always observe a consistent (version, snapshot) pair.
  struct SlotRecord {
    std::size_t version = 0;
    Snapshot snapshot;
  };
  using SlotPtr = std::shared_ptr<const SlotRecord>;

  std::size_t window_;
  std::unique_ptr<AtomicSharedPtr<const SlotRecord>[]> slots_;
  std::atomic<std::size_t> latest_{0};
  std::atomic<std::size_t> published_{0};
  mutable std::atomic<std::size_t> hits_{0};
  /// Single-publisher tripwire (see class comment).
  std::atomic_flag publishing_ = ATOMIC_FLAG_INIT;
};

/// Recycler of fixed-length snapshot buffers (DESIGN.md §4). A serving
/// session publishes a new parameter vector per dirty drain batch; instead
/// of allocating (and page-faulting) a fresh |theta| buffer each time, it
/// takes one from its pool, fills it, and seals it into a Snapshot whose
/// last handle — in the ring, in current(), or in any reader — gives the
/// buffer back when it drops. A buffer is therefore only ever handed out
/// again once nobody can read it, so the writer never races a reader.
///
/// acquire()/seal() belong to the single publisher; buffers may come back
/// from any thread (the return is a short mutex hold). The pool's shelf is
/// shared with every outstanding handle, so handles may outlive the pool
/// (and its session) safely.
class SnapshotPool {
 public:
  /// `length`: floats per buffer (the model's parameter count).
  explicit SnapshotPool(std::size_t length);

  SnapshotPool(const SnapshotPool&) = delete;
  SnapshotPool& operator=(const SnapshotPool&) = delete;

  /// A writable buffer of the pool's length: a returned one when any is
  /// free, else a newly allocated one. Given `contents` (of the pool's
  /// length), the buffer holds a copy of them — one pass, also for a new
  /// buffer; without, its contents are unspecified.
  std::unique_ptr<ModelStore::Buffer> acquire(
      std::span<const float> contents = {});

  /// Seal a buffer from acquire() into an immutable shared snapshot; the
  /// buffer returns to this pool when the snapshot's last handle drops.
  ModelStore::Snapshot seal(std::unique_ptr<ModelStore::Buffer> buffer);

  /// Buffers this pool ever allocated. Once the ring and the readers'
  /// handles reach a steady state it stops moving — the zero-growth gauge
  /// for publishing (RuntimeStats::snapshot_buffer_growths).
  std::size_t growths() const;

 private:
  struct Shelf;
  struct ReturnToShelf;
  std::shared_ptr<Shelf> shelf_;
};

}  // namespace fleet::core
