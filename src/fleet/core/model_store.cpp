#include "fleet/core/model_store.hpp"

#include <algorithm>
#include <stdexcept>

namespace fleet::core {

namespace {

/// RAII guard for the single-publisher invariant: throws when a second
/// thread enters publish() while one is already inside.
class PublishGuard {
 public:
  explicit PublishGuard(std::atomic_flag& flag) : flag_(flag) {
    if (flag_.test_and_set(std::memory_order_acquire)) {
      throw std::logic_error(
          "ModelStore::publish: concurrent publish detected — the store has "
          "a single-publisher contract (one logical-clock owner)");
    }
  }
  ~PublishGuard() { flag_.clear(std::memory_order_release); }

  PublishGuard(const PublishGuard&) = delete;
  PublishGuard& operator=(const PublishGuard&) = delete;

 private:
  std::atomic_flag& flag_;
};

}  // namespace

ModelStore::ModelStore(std::size_t window)
    : window_(window),
      slots_(window > 0
                 ? std::make_unique<AtomicSharedPtr<const SlotRecord>[]>(window)
                 : nullptr) {
  if (window == 0) {
    throw std::invalid_argument("ModelStore: window must be >= 1");
  }
}

ModelStore::Snapshot ModelStore::publish(std::size_t version,
                                         Buffer parameters) {
  return publish(version,
                 std::make_shared<const Buffer>(std::move(parameters)));
}

ModelStore::Snapshot ModelStore::publish(std::size_t version,
                                         Snapshot snapshot) {
  PublishGuard guard(publishing_);
  auto record =
      std::make_shared<const SlotRecord>(SlotRecord{version, snapshot});
  slots_[version % window_].store(std::move(record));
  if (published_.load(std::memory_order_relaxed) == 0 ||
      version > latest_.load(std::memory_order_relaxed)) {
    latest_.store(version, std::memory_order_release);
  }
  published_.fetch_add(1, std::memory_order_release);
  return snapshot;
}

ModelStore::Snapshot ModelStore::at(std::size_t version) const {
  const SlotPtr slot = slots_[version % window_].load();
  if (slot == nullptr || slot->version != version) return nullptr;
  hits_.fetch_add(1, std::memory_order_relaxed);
  return slot->snapshot;
}

ModelStore::Snapshot ModelStore::resolve(std::size_t version) const {
  if (auto exact = at(version)) return exact;
  // Evicted (or never published): clamp to the oldest snapshot the ring
  // still holds, mirroring bounded-staleness history semantics.
  SlotPtr oldest;
  for (std::size_t i = 0; i < window_; ++i) {
    const SlotPtr slot = slots_[i].load();
    if (slot == nullptr) continue;
    if (oldest == nullptr || slot->version < oldest->version) {
      oldest = slot;
    }
  }
  if (oldest == nullptr) return nullptr;
  hits_.fetch_add(1, std::memory_order_relaxed);
  return oldest->snapshot;
}

struct SnapshotPool::Shelf {
  explicit Shelf(std::size_t n) : length(n) {}
  const std::size_t length;
  std::mutex mu;
  /// Reserved to `allocated` entries whenever a buffer is allocated, so a
  /// returning handle's push never allocates (it runs in a deleter).
  std::vector<std::unique_ptr<ModelStore::Buffer>> free;
  std::size_t allocated = 0;
};

/// Deleter of a sealed snapshot: shelves the buffer instead of freeing it.
/// Holds the shelf, so the last handle may outlive the pool.
struct SnapshotPool::ReturnToShelf {
  std::shared_ptr<Shelf> shelf;
  void operator()(ModelStore::Buffer* buffer) const {
    std::lock_guard<std::mutex> lock(shelf->mu);
    shelf->free.emplace_back(buffer);
  }
};

SnapshotPool::SnapshotPool(std::size_t length)
    : shelf_(std::make_shared<Shelf>(length)) {}

std::unique_ptr<ModelStore::Buffer> SnapshotPool::acquire(
    std::span<const float> contents) {
  if (!contents.empty() && contents.size() != shelf_->length) {
    throw std::invalid_argument("SnapshotPool::acquire: contents length");
  }
  std::unique_ptr<ModelStore::Buffer> buffer;
  {
    std::lock_guard<std::mutex> lock(shelf_->mu);
    if (!shelf_->free.empty()) {
      buffer = std::move(shelf_->free.back());
      shelf_->free.pop_back();
    } else {
      ++shelf_->allocated;
      shelf_->free.reserve(shelf_->allocated);
    }
  }
  if (buffer != nullptr) {
    std::copy(contents.begin(), contents.end(), buffer->begin());
  } else if (!contents.empty()) {
    buffer = std::make_unique<ModelStore::Buffer>(contents.begin(),
                                                  contents.end());
  } else {
    buffer = std::make_unique<ModelStore::Buffer>(shelf_->length);
  }
  return buffer;
}

ModelStore::Snapshot SnapshotPool::seal(
    std::unique_ptr<ModelStore::Buffer> buffer) {
  if (buffer == nullptr || buffer->size() != shelf_->length) {
    throw std::invalid_argument("SnapshotPool::seal: not a buffer of this pool");
  }
  return ModelStore::Snapshot(buffer.release(), ReturnToShelf{shelf_});
}

std::size_t SnapshotPool::growths() const {
  std::lock_guard<std::mutex> lock(shelf_->mu);
  return shelf_->allocated;
}

}  // namespace fleet::core
