#ifndef DLSYS_INFER_ARENA_H_
#define DLSYS_INFER_ARENA_H_

#include <cstdint>
#include <vector>

/// \file arena.h
/// \brief Plan-once workspace allocator for the inference engine.
///
/// The tutorial's deployment section (Part 1, Section 2) treats inference
/// as a steady-state streaming workload: the model and the batch ceiling
/// are fixed at deployment time, so every intermediate buffer size is
/// known before the first request arrives. TensorArena exploits that: the
/// engine *places* every buffer it will ever need during compilation, the
/// arena *commits* one backing allocation, and the serving hot loop then
/// runs with zero heap traffic — no allocator locks, no fragmentation
/// drift, and stable tail latency. The Place/Commit split is enforced:
/// placing after Commit is a programmer error and aborts.

namespace dlsys {

/// \brief A fixed workspace carved into buffers placed before Commit().
///
/// Lifecycle: Place*() any number of times, then Commit() exactly once,
/// then resolve ids to pointers with Floats()/Int8s(). The committed
/// allocation is 64-byte aligned (as is every buffer within it) and
/// registered with the process-wide MemoryTracker. Not thread-safe during
/// planning; pointer resolution after Commit is const and safe to share.
class TensorArena {
 public:
  /// Opaque handle to a placed buffer.
  using BufferId = int64_t;

  TensorArena() = default;
  ~TensorArena();

  TensorArena(const TensorArena&) = delete;
  TensorArena& operator=(const TensorArena&) = delete;
  TensorArena(TensorArena&& other) noexcept;
  TensorArena& operator=(TensorArena&& other) noexcept;

  /// \brief Places \p count floats at an explicit 64-byte-aligned byte
  /// offset with an inclusive live interval [live_begin, live_end] of
  /// schedule steps — the liveness-packed layout the pass pipeline's
  /// packer computes. Aborts after Commit(). Commit() cross-checks every
  /// placed pair: two buffers whose live intervals overlap must not
  /// overlap in bytes (DLSYS_CHECK abort otherwise), so a packer bug dies
  /// loudly at plan time instead of corrupting activations at serve time.
  BufferId PlaceFloats(int64_t offset_bytes, int64_t count, int live_begin,
                       int live_end);
  /// \brief Int8 variant of PlaceFloats().
  BufferId PlaceInt8s(int64_t offset_bytes, int64_t count, int live_begin,
                      int live_end);

  /// \brief Performs the single backing allocation. Call exactly once.
  void Commit();

  /// \brief True once Commit() has run.
  bool committed() const { return base_ != nullptr; }

  /// \brief Resolves a float buffer id. Aborts before Commit() or if the
  /// id was placed with a different element type.
  float* Floats(BufferId id) const;
  /// \brief Resolves an int8 buffer id (see Floats()).
  int8_t* Int8s(BufferId id) const;

  /// \brief Element count of buffer \p id.
  int64_t ElementCount(BufferId id) const;
  /// \brief Total committed workspace size (0 before Commit()).
  int64_t total_bytes() const { return committed() ? total_bytes_ : 0; }
  /// \brief Number of placed buffers.
  int64_t buffer_count() const { return static_cast<int64_t>(slots_.size()); }

 private:
  enum class ElemType { kFloat, kInt8 };

  struct Slot {
    int64_t offset = 0;  ///< bytes from base, 64-byte aligned
    int64_t count = 0;   ///< elements
    int64_t bytes = 0;   ///< byte extent, rounded up to 64
    ElemType type = ElemType::kFloat;
    int live_begin = 0;  ///< inclusive live interval
    int live_end = 0;
  };

  BufferId Place(int64_t offset_bytes, int64_t count, int64_t elem_bytes,
                 ElemType type, int live_begin, int live_end);
  void* Resolve(BufferId id, ElemType type) const;
  void FreeStorage();

  std::vector<Slot> slots_;
  int64_t total_bytes_ = 0;  ///< running high-water mark while planning
  uint8_t* base_ = nullptr;  ///< non-null exactly when committed
};

}  // namespace dlsys

#endif  // DLSYS_INFER_ARENA_H_
