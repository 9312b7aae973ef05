#include "index/btree.hpp"

#include <algorithm>
#include <cassert>

namespace hydra::index {

struct OrderedIndex::Node {
  bool is_leaf;
  explicit Node(bool leaf) : is_leaf(leaf) {}
};

struct OrderedIndex::Leaf : Node {
  Leaf() : Node(true) {}
  std::uint64_t id = 0;
  std::uint64_t version = 0;
  std::vector<Entry> entries;
  Leaf* next = nullptr;
  Leaf* prev = nullptr;
};

struct OrderedIndex::Inner : Node {
  Inner() : Node(false) {}
  // children.size() == keys.size() + 1; every key in children[i+1]'s subtree
  // is >= keys[i], every key in children[i]'s subtree is < keys[i].
  std::vector<std::string> keys;
  std::vector<Node*> children;
};

struct OrderedIndex::SplitResult {
  std::string separator;  ///< min key routed to the new right sibling
  Node* right = nullptr;
};

namespace {

struct EntryKeyLess {
  bool operator()(const OrderedIndex::Entry& e, std::string_view k) const {
    return e.key < k;
  }
  bool operator()(std::string_view k, const OrderedIndex::Entry& e) const {
    return k < e.key;
  }
};

}  // namespace

OrderedIndex::OrderedIndex(std::size_t fanout) : fanout_(fanout < 4 ? 4 : fanout) {
  Leaf* leaf = new Leaf();
  leaf->id = next_leaf_id_++;
  root_ = leaf;
}

OrderedIndex::~OrderedIndex() { destroy(root_); }

void OrderedIndex::destroy(Node* n) {
  if (n == nullptr) return;
  if (!n->is_leaf) {
    Inner* in = static_cast<Inner*>(n);
    for (Node* c : in->children) destroy(c);
    delete in;
  } else {
    delete static_cast<Leaf*>(n);
  }
}

// Child index for `key` under the separator convention above: the first
// separator > key bounds the child from the right; equal keys route right.
static std::size_t child_index(const std::vector<std::string>& keys, std::string_view key) {
  std::size_t lo = 0, hi = keys.size();
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (key < keys[mid]) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

OrderedIndex::Leaf* OrderedIndex::leaf_lower_bound(std::string_view key) const {
  Node* n = root_;
  while (!n->is_leaf) {
    Inner* in = static_cast<Inner*>(n);
    n = in->children[child_index(in->keys, key)];
  }
  return static_cast<Leaf*>(n);
}

bool OrderedIndex::insert_or_assign(std::string_view key, std::uint64_t offset) {
  std::optional<SplitResult> split;
  const bool inserted = insert_rec(root_, key, offset, split);
  if (split.has_value()) {
    Inner* new_root = new Inner();
    new_root->keys.push_back(std::move(split->separator));
    new_root->children.push_back(root_);
    new_root->children.push_back(split->right);
    root_ = new_root;
  }
  if (inserted) ++size_;
  return inserted;
}

bool OrderedIndex::insert_rec(Node* n, std::string_view key, std::uint64_t offset,
                              std::optional<SplitResult>& split) {
  if (n->is_leaf) {
    Leaf* leaf = static_cast<Leaf*>(n);
    auto it = std::lower_bound(leaf->entries.begin(), leaf->entries.end(), key,
                               EntryKeyLess{});
    bump(leaf);
    if (it != leaf->entries.end() && it->key == key) {
      it->offset = offset;
      return false;
    }
    leaf->entries.insert(it, Entry{std::string(key), offset});
    if (leaf->entries.size() > fanout_) {
      // Split: left keeps the lower half, a fresh leaf takes the rest.
      const std::size_t keep = leaf->entries.size() / 2;
      Leaf* right = new Leaf();
      right->id = next_leaf_id_++;
      right->version = 1;
      right->entries.assign(std::make_move_iterator(leaf->entries.begin() + keep),
                            std::make_move_iterator(leaf->entries.end()));
      leaf->entries.resize(keep);
      // Drop the split slack: the pre-split capacity would otherwise stay
      // allocated for the leaf's lifetime.
      leaf->entries.shrink_to_fit();
      right->next = leaf->next;
      right->prev = leaf;
      if (leaf->next != nullptr) leaf->next->prev = right;
      leaf->next = right;
      split = SplitResult{right->entries.front().key, right};
    }
    return true;
  }

  Inner* in = static_cast<Inner*>(n);
  const std::size_t ci = child_index(in->keys, key);
  std::optional<SplitResult> child_split;
  const bool inserted = insert_rec(in->children[ci], key, offset, child_split);
  if (child_split.has_value()) {
    in->keys.insert(in->keys.begin() + static_cast<std::ptrdiff_t>(ci),
                    std::move(child_split->separator));
    in->children.insert(in->children.begin() + static_cast<std::ptrdiff_t>(ci) + 1,
                        child_split->right);
    if (in->children.size() > fanout_) {
      const std::size_t mid = in->children.size() / 2;  // promote keys[mid-1]
      Inner* right = new Inner();
      right->children.assign(in->children.begin() + static_cast<std::ptrdiff_t>(mid),
                             in->children.end());
      right->keys.assign(
          std::make_move_iterator(in->keys.begin() + static_cast<std::ptrdiff_t>(mid)),
          std::make_move_iterator(in->keys.end()));
      std::string sep = std::move(in->keys[mid - 1]);
      in->children.resize(mid);
      in->keys.resize(mid - 1);
      split = SplitResult{std::move(sep), right};
    }
  }
  return inserted;
}

bool OrderedIndex::erase(std::string_view key) {
  const bool removed = erase_rec(root_, key);
  if (removed) {
    --size_;
    // Collapse an inner root left with a single child.
    while (!root_->is_leaf && static_cast<Inner*>(root_)->children.size() == 1) {
      Inner* old = static_cast<Inner*>(root_);
      root_ = old->children[0];
      delete old;
    }
  }
  return removed;
}

bool OrderedIndex::erase_rec(Node* n, std::string_view key) {
  if (n->is_leaf) {
    Leaf* leaf = static_cast<Leaf*>(n);
    auto it = std::lower_bound(leaf->entries.begin(), leaf->entries.end(), key,
                               EntryKeyLess{});
    if (it == leaf->entries.end() || it->key != key) return false;
    leaf->entries.erase(it);
    bump(leaf);
    return true;
  }
  Inner* in = static_cast<Inner*>(n);
  const std::size_t ci = child_index(in->keys, key);
  const bool removed = erase_rec(in->children[ci], key);
  if (removed) rebalance_child(in, ci);
  return removed;
}

void OrderedIndex::rebalance_child(Inner* parent, std::size_t ci) {
  Node* child = parent->children[ci];
  const std::size_t min_fill = fanout_ / 2;
  const bool underfull = child->is_leaf
                             ? static_cast<Leaf*>(child)->entries.size() < min_fill
                             : static_cast<Inner*>(child)->children.size() < min_fill;
  if (!underfull) return;

  const std::size_t li = ci > 0 ? ci - 1 : ci;       // left node of the merged pair
  const std::size_t ri = li + 1;                     // right node of the pair
  Node* left = parent->children[li];
  Node* right = parent->children[ri];

  if (child->is_leaf) {
    Leaf* l = static_cast<Leaf*>(left);
    Leaf* r = static_cast<Leaf*>(right);
    Leaf* c = static_cast<Leaf*>(child);
    Leaf* sib = c == l ? r : l;
    if (sib->entries.size() > min_fill) {
      // Borrow one entry across the boundary; the separator between the
      // pair becomes the right node's new minimum.
      if (sib == l) {
        c->entries.insert(c->entries.begin(), std::move(l->entries.back()));
        l->entries.pop_back();
      } else {
        c->entries.push_back(std::move(r->entries.front()));
        r->entries.erase(r->entries.begin());
        ++left_shifts_;
      }
      bump(l);
      bump(r);
      parent->keys[li] = r->entries.front().key;
      return;
    }
    // Merge right into left; the right leaf dies.
    l->entries.insert(l->entries.end(), std::make_move_iterator(r->entries.begin()),
                      std::make_move_iterator(r->entries.end()));
    l->next = r->next;
    bump(l);
    if (r->next != nullptr) r->next->prev = l;
    if (retire_hook_) retire_hook_(r->id);
    delete r;
  } else {
    Inner* l = static_cast<Inner*>(left);
    Inner* r = static_cast<Inner*>(right);
    Inner* c = static_cast<Inner*>(child);
    Inner* sib = c == l ? r : l;
    if (sib->children.size() > min_fill) {
      // Rotate one child through the parent separator.
      if (sib == l) {
        c->keys.insert(c->keys.begin(), std::move(parent->keys[li]));
        c->children.insert(c->children.begin(), l->children.back());
        parent->keys[li] = std::move(l->keys.back());
        l->keys.pop_back();
        l->children.pop_back();
      } else {
        c->keys.push_back(std::move(parent->keys[li]));
        c->children.push_back(r->children.front());
        parent->keys[li] = std::move(r->keys.front());
        r->keys.erase(r->keys.begin());
        r->children.erase(r->children.begin());
      }
      return;
    }
    // Merge: left + separator + right.
    l->keys.push_back(std::move(parent->keys[li]));
    l->keys.insert(l->keys.end(), std::make_move_iterator(r->keys.begin()),
                   std::make_move_iterator(r->keys.end()));
    l->children.insert(l->children.end(), r->children.begin(), r->children.end());
    delete r;
  }
  parent->keys.erase(parent->keys.begin() + static_cast<std::ptrdiff_t>(li));
  parent->children.erase(parent->children.begin() + static_cast<std::ptrdiff_t>(ri));
}

void OrderedIndex::bump(Leaf* leaf) {
  ++leaf->version;
  if (change_hook_) change_hook_(leaf->id);
}

std::optional<std::uint64_t> OrderedIndex::find(std::string_view key) const {
  Leaf* leaf = leaf_lower_bound(key);
  auto it =
      std::lower_bound(leaf->entries.begin(), leaf->entries.end(), key, EntryKeyLess{});
  if (it != leaf->entries.end() && it->key == key) return it->offset;
  return std::nullopt;
}

void OrderedIndex::scan(
    std::string_view from, bool exclusive,
    const std::function<bool(std::string_view, std::uint64_t)>& fn) const {
  leaves_from(from, exclusive, [&fn](const LeafRef& leaf) {
    for (std::size_t i = leaf.first; i < leaf.entries->size(); ++i) {
      if (!fn((*leaf.entries)[i].key, (*leaf.entries)[i].offset)) return false;
    }
    return true;
  });
}

void OrderedIndex::leaves_from(std::string_view from, bool exclusive,
                               const std::function<bool(const LeafRef&)>& fn) const {
  const Leaf* leaf = leaf_lower_bound(from);
  auto it = exclusive ? std::upper_bound(leaf->entries.begin(), leaf->entries.end(),
                                         from, EntryKeyLess{})
                      : std::lower_bound(leaf->entries.begin(), leaf->entries.end(),
                                         from, EntryKeyLess{});
  while (leaf != nullptr && it == leaf->entries.end()) {
    leaf = leaf->next;
    if (leaf != nullptr) it = leaf->entries.begin();
  }
  if (leaf == nullptr) return;
  std::size_t first = static_cast<std::size_t>(it - leaf->entries.begin());
  for (; leaf != nullptr; leaf = leaf->next, first = 0) {
    const LeafRef ref{leaf->id,
                      leaf->version,
                      leaf->next != nullptr ? leaf->next->id : 0,
                      leaf->prev == nullptr,
                      leaf->next == nullptr,
                      &leaf->entries,
                      first};
    if (!fn(ref)) return;
  }
}

const OrderedIndex::Leaf* OrderedIndex::first_leaf() const noexcept {
  const Node* node = root_;
  while (!node->is_leaf) node = static_cast<const Inner*>(node)->children.front();
  return static_cast<const Leaf*>(node);
}

std::size_t OrderedIndex::leaf_count() const noexcept {
  std::size_t n = 0;
  for (const Leaf* l = first_leaf(); l != nullptr; l = l->next) ++n;
  return n;
}

std::size_t OrderedIndex::leaf_capacity() const noexcept {
  std::size_t n = 0;
  for (const Leaf* l = first_leaf(); l != nullptr; l = l->next) n += l->entries.capacity();
  return n;
}

namespace {

struct CheckState {
  std::string error;
  std::size_t entries = 0;
  int leaf_depth = -1;
  const OrderedIndex::Entry* prev_entry = nullptr;

  void fail(std::string msg) {
    if (error.empty()) error = std::move(msg);
  }
};

}  // namespace

std::string OrderedIndex::check_invariants() const {
  CheckState st;
  const std::size_t min_fill = fanout_ / 2;

  // Recursive structural walk with separator bounds. lower/upper are
  // half-open: every key in the subtree must satisfy lower <= key < upper.
  std::vector<const Leaf*> leaves_in_order;
  auto walk = [&](auto&& self, const Node* n, int depth, const std::string* lower,
                  const std::string* upper, bool is_root) -> void {
    if (!st.error.empty()) return;
    if (n->is_leaf) {
      const Leaf* leaf = static_cast<const Leaf*>(n);
      if (st.leaf_depth < 0) {
        st.leaf_depth = depth;
      } else if (depth != st.leaf_depth) {
        st.fail("leaf depth not uniform");
        return;
      }
      if (!is_root && leaf->entries.size() < min_fill) st.fail("leaf underfull");
      if (leaf->entries.size() > fanout_) st.fail("leaf overfull");
      for (const Entry& e : leaf->entries) {
        if (lower != nullptr && e.key < *lower) st.fail("leaf key below separator");
        if (upper != nullptr && e.key >= *upper) st.fail("leaf key above separator");
        if (st.prev_entry != nullptr && st.prev_entry->key >= e.key) {
          st.fail("keys not strictly ascending");
        }
        st.prev_entry = &e;
        ++st.entries;
      }
      leaves_in_order.push_back(leaf);
      return;
    }
    const Inner* in = static_cast<const Inner*>(n);
    if (in->children.size() != in->keys.size() + 1) {
      st.fail("inner children/keys size mismatch");
      return;
    }
    if (is_root ? in->children.size() < 2 : in->children.size() < min_fill) {
      st.fail("inner underfull");
    }
    if (in->children.size() > fanout_) st.fail("inner overfull");
    for (std::size_t i = 0; i + 1 < in->keys.size(); ++i) {
      if (in->keys[i] >= in->keys[i + 1]) st.fail("separators not ascending");
    }
    for (std::size_t i = 0; i < in->children.size(); ++i) {
      const std::string* lo = i == 0 ? lower : &in->keys[i - 1];
      const std::string* hi = i == in->keys.size() ? upper : &in->keys[i];
      self(self, in->children[i], depth + 1, lo, hi, false);
    }
  };
  walk(walk, root_, 0, nullptr, nullptr, true);
  if (!st.error.empty()) return st.error;

  if (st.entries != size_) return "size() does not match entry count";

  // Leaf chain must enumerate exactly the in-order leaves, linked both ways.
  const Leaf* chain = leaves_in_order.empty() ? nullptr : leaves_in_order.front();
  if (chain != nullptr && chain->prev != nullptr) return "first leaf has prev";
  for (std::size_t i = 0; i < leaves_in_order.size(); ++i) {
    if (chain != leaves_in_order[i]) return "leaf chain diverges from tree order";
    const Leaf* next = chain->next;
    if (i + 1 < leaves_in_order.size()) {
      if (next == nullptr) return "leaf chain ends early";
      if (next->prev != chain) return "leaf chain prev link broken";
    } else if (next != nullptr) {
      return "leaf chain runs past the last leaf";
    }
    chain = next;
  }
  return {};
}

}  // namespace hydra::index
