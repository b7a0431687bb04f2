// Fixed-capacity node pool addressed by 32-bit indices.
//
// The paper's algorithms allocate nodes "from the free list" and the
// experiments pre-initialise that free list (64,000 nodes in the Valois
// memory-exhaustion experiment).  Pool indices are also what lets the
// counted-pointer ABA defence fit index+counter into one 64-bit word
// (tagged/tagged_index.hpp).
//
// The pool itself is just stable storage: allocation policy lives in the
// free list layered on top (FreeList; RefCountPool wraps one).  Nodes may
// be named by index or, under tagged::PointerLink, by address.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>

#include "tagged/tagged_index.hpp"

namespace msq::mem {

template <typename Node>
class NodePool {
 public:
  explicit NodePool(std::uint32_t capacity)
      : capacity_(capacity), nodes_(std::make_unique<Node[]>(capacity)) {
    assert(capacity > 0 && capacity < tagged::kNullIndex);
  }

  NodePool(const NodePool&) = delete;
  NodePool& operator=(const NodePool&) = delete;

  [[nodiscard]] Node& operator[](std::uint32_t index) noexcept {
    assert(index < capacity_);
    return nodes_[index];
  }
  [[nodiscard]] const Node& operator[](std::uint32_t index) const noexcept {
    assert(index < capacity_);
    return nodes_[index];
  }

  /// A pointer link's target (tagged::PointerLink) already is the node;
  /// this lets code written over link targets address nodes either way.
  [[nodiscard]] Node& operator[](Node* node) const noexcept { return *node; }

  [[nodiscard]] std::uint32_t capacity() const noexcept { return capacity_; }

  /// Index of a node known to belong to this pool (for diagnostics).
  [[nodiscard]] std::uint32_t index_of(const Node& node) const noexcept {
    return static_cast<std::uint32_t>(&node - nodes_.get());
  }

 private:
  std::uint32_t capacity_;
  std::unique_ptr<Node[]> nodes_;
};

}  // namespace msq::mem
