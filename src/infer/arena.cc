#include "src/infer/arena.h"

#include <algorithm>
#include <new>
#include <utility>

#include "src/core/status.h"
#include "src/tensor/tensor.h"

namespace dlsys {
namespace {

constexpr int64_t kAlign = 64;  // cache line; also serves any SIMD width

int64_t AlignUp(int64_t v) { return (v + kAlign - 1) / kAlign * kAlign; }

}  // namespace

TensorArena::~TensorArena() { FreeStorage(); }

TensorArena::TensorArena(TensorArena&& other) noexcept
    : slots_(std::move(other.slots_)),
      total_bytes_(other.total_bytes_),
      base_(other.base_) {
  other.slots_.clear();
  other.total_bytes_ = 0;
  other.base_ = nullptr;
}

TensorArena& TensorArena::operator=(TensorArena&& other) noexcept {
  if (this == &other) return *this;
  FreeStorage();
  slots_ = std::move(other.slots_);
  total_bytes_ = other.total_bytes_;
  base_ = other.base_;
  other.slots_.clear();
  other.total_bytes_ = 0;
  other.base_ = nullptr;
  return *this;
}

void TensorArena::FreeStorage() {
  if (base_ != nullptr) {
    MemoryTracker::Global().Release(total_bytes_);
    ::operator delete(base_, std::align_val_t{kAlign});
    base_ = nullptr;
  }
}

TensorArena::BufferId TensorArena::Place(int64_t offset_bytes, int64_t count,
                                         int64_t elem_bytes, ElemType type,
                                         int live_begin, int live_end) {
  DLSYS_CHECK(!committed(),
              "TensorArena::Place after Commit — the plan is frozen; "
              "inference-time buffer growth is a planning bug");
  DLSYS_CHECK(count >= 0, "TensorArena::Place negative count");
  DLSYS_CHECK(offset_bytes >= 0 && offset_bytes % kAlign == 0,
              "TensorArena::Place offset must be 64-byte aligned");
  DLSYS_CHECK(live_begin <= live_end,
              "TensorArena::Place inverted live interval");
  Slot slot;
  slot.offset = offset_bytes;
  slot.count = count;
  slot.bytes = AlignUp(count * elem_bytes);
  slot.type = type;
  slot.live_begin = live_begin;
  slot.live_end = live_end;
  slots_.push_back(slot);
  total_bytes_ = std::max(total_bytes_, offset_bytes + slot.bytes);
  return static_cast<BufferId>(slots_.size()) - 1;
}

TensorArena::BufferId TensorArena::PlaceFloats(int64_t offset_bytes,
                                               int64_t count, int live_begin,
                                               int live_end) {
  return Place(offset_bytes, count, static_cast<int64_t>(sizeof(float)),
               ElemType::kFloat, live_begin, live_end);
}

TensorArena::BufferId TensorArena::PlaceInt8s(int64_t offset_bytes,
                                              int64_t count, int live_begin,
                                              int live_end) {
  return Place(offset_bytes, count, 1, ElemType::kInt8, live_begin,
               live_end);
}

void TensorArena::Commit() {
  DLSYS_CHECK(!committed(), "TensorArena::Commit called twice");
  // Liveness cross-check: two buffers whose live intervals overlap must
  // occupy disjoint byte ranges. O(slots^2), run once at plan time.
  for (size_t a = 0; a < slots_.size(); ++a) {
    const int64_t a_end = slots_[a].offset + slots_[a].bytes;
    for (size_t b = a + 1; b < slots_.size(); ++b) {
      const bool lifetimes_overlap =
          slots_[a].live_begin <= slots_[b].live_end &&
          slots_[b].live_begin <= slots_[a].live_end;
      if (!lifetimes_overlap) continue;
      const int64_t b_end = slots_[b].offset + slots_[b].bytes;
      DLSYS_CHECK(
          a_end <= slots_[b].offset || b_end <= slots_[a].offset,
          "TensorArena::Commit: overlapping-lifetime buffers assigned to "
          "overlapping offsets — liveness packing bug");
    }
  }
  const int64_t bytes = total_bytes_ > 0 ? total_bytes_ : kAlign;
  total_bytes_ = bytes;
  base_ = static_cast<uint8_t*>(
      ::operator new(static_cast<size_t>(bytes), std::align_val_t{kAlign}));
  // The workspace counts as live tensor memory: checkpointing/offloading
  // experiments that read the tracker should see serving buffers too.
  MemoryTracker::Global().Allocate(bytes);
}

void* TensorArena::Resolve(BufferId id, ElemType type) const {
  DLSYS_CHECK(committed(), "TensorArena buffer access before Commit");
  DLSYS_CHECK(id >= 0 && id < buffer_count(), "TensorArena bad buffer id");
  DLSYS_CHECK(slots_[static_cast<size_t>(id)].type == type,
              "TensorArena buffer accessed as the wrong element type");
  return base_ + slots_[static_cast<size_t>(id)].offset;
}

float* TensorArena::Floats(BufferId id) const {
  return static_cast<float*>(Resolve(id, ElemType::kFloat));
}

int8_t* TensorArena::Int8s(BufferId id) const {
  return static_cast<int8_t*>(Resolve(id, ElemType::kInt8));
}

int64_t TensorArena::ElementCount(BufferId id) const {
  DLSYS_CHECK(id >= 0 && id < buffer_count(), "TensorArena bad buffer id");
  return slots_[static_cast<size_t>(id)].count;
}

}  // namespace dlsys
