// Per-shard ordered index (DESIGN.md §13): an in-memory B+-tree keyed on the
// user key whose leaf entries point at KVStore arena items by offset. The
// KVStore maintains it inline on every mutation (insert/update/remove), so
// every write path -- message handlers, txn apply/undo, replication replay,
// migration merge + scrub, direct loads -- keeps it consistent for free.
//
// Leaves carry a monotonically increasing id and a version counter bumped on
// every entry mutation (including splits/merges/borrows). The change hook
// reports every bump, so the shard's one-sided leaf-page mirror can poison
// the leaf's page at once, and a page is re-serialized when its (id,
// version) no longer matches the live leaf. A leaf merged away reports its
// id to the retire hook so the mirror can free that leaf's page.
//
// A leaf's successor id and head flag change only together with a bump of
// that leaf. Entries leave a leaf toward its predecessor only when it dies
// (merge) or when the predecessor borrows its front entry; the index counts
// those borrows (left_shifts), so a reader that walks from a leaf to the
// successor it named can tell whether an entry may have moved left behind
// it in between.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hydra::index {

class OrderedIndex {
 public:
  struct Entry {
    std::string key;
    std::uint64_t offset = 0;  ///< arena offset of the live KVStore item
  };

  /// A read-only view of one leaf, stable until the next tree mutation.
  struct LeafRef {
    std::uint64_t id = 0;
    std::uint64_t version = 0;
    std::uint64_t next_id = 0;  ///< successor leaf; 0 when none follows
    bool head = false;          ///< no leaf precedes this one
    bool last = false;          ///< no leaf follows in the chain
    const std::vector<Entry>* entries = nullptr;
    /// Index of the first entry at or past the walk's start key (0 on every
    /// leaf after the first).
    std::size_t first = 0;
  };

  /// `fanout` bounds both leaf entries and inner-node children; the minimum
  /// fill is fanout/2. Small fanouts (4..8) are for tests that want to force
  /// deep trees and frequent splits/merges.
  explicit OrderedIndex(std::size_t fanout = 32);
  ~OrderedIndex();

  OrderedIndex(const OrderedIndex&) = delete;
  OrderedIndex& operator=(const OrderedIndex&) = delete;

  /// Inserts `key` or reassigns its offset. Returns true when the key is new.
  bool insert_or_assign(std::string_view key, std::uint64_t offset);

  /// Removes `key`; returns false when absent.
  bool erase(std::string_view key);

  [[nodiscard]] std::optional<std::uint64_t> find(std::string_view key) const;

  /// In-order walk starting at the first key >= `from` (or > `from` when
  /// `exclusive`); stops when `fn` returns false.
  void scan(std::string_view from, bool exclusive,
            const std::function<bool(std::string_view key, std::uint64_t offset)>& fn) const;

  /// Visits the leaf holding the first entry >= `from` (> when `exclusive`),
  /// then its successors in key order, until `fn` returns false or the
  /// chain ends. Visits nothing when no such entry exists.
  void leaves_from(std::string_view from, bool exclusive,
                   const std::function<bool(const LeafRef& leaf)>& fn) const;

  /// Called with a leaf's id when a merge deletes it (never from the
  /// destructor). The hook must not touch the tree.
  void set_retire_hook(std::function<void(std::uint64_t leaf_id)> hook) {
    retire_hook_ = std::move(hook);
  }

  /// Called with a leaf's id whenever its version moves: insert/assign,
  /// erase, borrow and merge. The hook must not touch the tree.
  void set_change_hook(std::function<void(std::uint64_t leaf_id)> hook) {
    change_hook_ = std::move(hook);
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Borrows so far that moved a leaf's front entry into its predecessor.
  [[nodiscard]] std::uint64_t left_shifts() const noexcept { return left_shifts_; }
  [[nodiscard]] std::size_t leaf_count() const noexcept;
  /// Entry slots the leaves hold allocated (vector capacity, summed).
  [[nodiscard]] std::size_t leaf_capacity() const noexcept;
  [[nodiscard]] std::size_t fanout() const noexcept { return fanout_; }

  /// Structural self-check: key order within and across leaves, separator
  /// bounds, uniform leaf depth, fill bounds on non-root nodes, leaf-chain
  /// integrity (next/prev consistent, in key order), size consistency.
  /// Returns an empty string when every invariant holds, else a description
  /// of the first violation found.
  [[nodiscard]] std::string check_invariants() const;

 private:
  struct Node;
  struct Leaf;
  struct Inner;

  Leaf* leaf_lower_bound(std::string_view key) const;
  const Leaf* first_leaf() const noexcept;
  void destroy(Node* n);

  // Insert/erase recursion helpers (defined in btree.cpp).
  struct SplitResult;
  bool insert_rec(Node* n, std::string_view key, std::uint64_t offset,
                  std::optional<SplitResult>& split);
  bool erase_rec(Node* n, std::string_view key);
  void rebalance_child(Inner* parent, std::size_t ci);
  void bump(Leaf* leaf);

  std::size_t fanout_;
  std::size_t size_ = 0;
  Node* root_ = nullptr;
  std::uint64_t next_leaf_id_ = 1;
  std::uint64_t left_shifts_ = 0;
  std::function<void(std::uint64_t)> retire_hook_;
  std::function<void(std::uint64_t)> change_hook_;
};

}  // namespace hydra::index
