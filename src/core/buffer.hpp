// MPI buffer management (paper §3.1.3), as RAII types.
//
// MpiBuf corresponds to mpi_buf_t (alloc_mpi_buf/free_mpi_buf): a typed,
// contiguous, zero-initialised element buffer.  MpiVBuf corresponds to
// mpi_vbuf_t (alloc_mpi_vbuf/free_mpi_vbuf): the irregular-collective
// variant that additionally carries per-rank counts and displacements
// derived from a distribution function, used by scatterv/gatherv property
// tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/distribution.hpp"
#include "mpisim/datatype.hpp"

namespace ats::core {

/// Zero-initialised, move-only byte storage of a fixed size.  Requests of
/// kLargeBytes and more take a power-of-two mmap block from the cache: a
/// fresh one is used as mapped (zero, resident only where written), a
/// cached one is zeroed over the requested length.  A released block is
/// cached, ASan-poisoned, while cached and live blocks stay within
/// kCacheCapBytes, else unmapped.  Smaller requests are plain heap memory.
/// MpiBuf and both MpiVBuf buffers keep their bytes here.
class ZeroedBytes {
 public:
  /// Requests from this size on come from the block cache.
  static constexpr std::size_t kLargeBytes = std::size_t{64} << 10;
  /// Most bytes of cached and live blocks together (DESIGN.md §12).
  static constexpr std::size_t kCacheCapBytes = std::size_t{24} << 20;

  explicit ZeroedBytes(std::size_t bytes);

  std::byte* data() const { return data_.get(); }
  std::size_t size() const { return data_.get_deleter().bytes; }

  /// Bytes of released blocks the cache holds now.
  static std::size_t cached_bytes();

 private:
  struct Release {
    std::size_t bytes;
    void operator()(std::byte* p) const;
  };
  std::unique_ptr<std::byte, Release> data_;
};

/// A typed element buffer for simulated-MPI communication.
class MpiBuf {
 public:
  MpiBuf(mpi::Datatype type, int count);

  void* data() { return storage_.data(); }
  const void* data() const { return storage_.data(); }
  mpi::Datatype type() const { return type_; }
  int count() const { return count_; }
  std::int64_t bytes() const {
    return static_cast<std::int64_t>(storage_.size());
  }

  /// Typed view; T must match the element size of the datatype.
  template <typename T>
  std::span<T> as() {
    require(sizeof(T) == mpi::datatype_size(type_),
            "MpiBuf::as: element size mismatch");
    return {reinterpret_cast<T*>(storage_.data()),
            static_cast<std::size_t>(count_)};
  }

  /// Fills every element of an integer-typed buffer with `value`.
  void fill_int(std::int64_t value);

 private:
  mpi::Datatype type_;
  int count_;
  ZeroedBytes storage_;
};

/// Buffer for irregular collectives: per-rank counts from a distribution,
/// prefix-sum displacements, and root-side storage for the concatenation.
///
/// The distribution value for rank r (times `scale`) is rounded to a
/// non-negative element count.
class MpiVBuf {
 public:
  MpiVBuf(mpi::Datatype type, const Distribution& d, double scale,
          int comm_size, int my_rank);

  mpi::Datatype type() const { return type_; }
  /// Count for this rank (the rank passed at construction).
  int my_count() const { return counts_[static_cast<std::size_t>(rank_)]; }
  std::span<const int> counts() const { return counts_; }
  std::span<const int> displs() const { return displs_; }
  int total() const { return total_; }

  /// Root-side buffer able to hold the full concatenation.
  void* root_data() { return root_storage_.data(); }
  /// This rank's own slice-sized buffer.
  void* my_data() { return my_storage_.data(); }
  std::int64_t my_bytes() const {
    return static_cast<std::int64_t>(my_storage_.size());
  }

 private:
  mpi::Datatype type_;
  int rank_;
  int total_ = 0;
  std::vector<int> counts_;
  std::vector<int> displs_;
  ZeroedBytes root_storage_{0};
  ZeroedBytes my_storage_{0};
};

}  // namespace ats::core
