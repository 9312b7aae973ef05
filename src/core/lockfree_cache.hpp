// Lock-free fixed-capacity cache for remote-pointer sharing (paper §4.2.4).
//
// The paper shares one remote-pointer cache among all client processes on a
// machine through a lock-free hash table (Michael, SPAA'02) to avoid locking
// when many clients hit the same pointer. We implement the same contract --
// wait-free readers, lock-free writers, no mutexes anywhere -- with a
// structure better matched to cache semantics: open addressing with
// per-slot seqlocks and bounded probing, where a full probe window evicts
// (it is a cache; dropping an entry only costs a future re-fetch).
//
// This is a *real* concurrent structure (atomic accesses, tested with
// threads), even though inside the simulator it is only exercised
// single-threaded.
//
// The slots live in demand-zero memory (fabric::RegisteredBuffer): an
// all-zero slot is an empty one, so nothing is constructed over the mapping
// and a slot's page becomes resident only once an entry is written there.
// Every slot word is a plain integer accessed through std::atomic_ref.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "common/hash.hpp"
#include "fabric/registered_buffer.hpp"

namespace hydra::core {

template <typename Value>
class LockFreeCache {
  static_assert(std::is_trivially_copyable_v<Value>,
                "seqlock protection requires trivially copyable values");

 public:
  /// Capacity rounds up to a power of two. Keys must be non-zero (0 marks
  /// an empty slot); hash your keys first -- a 64-bit hash is never 0 in
  /// practice, and mix64(k)|1 is an easy guarantee if needed.
  explicit LockFreeCache(std::size_t capacity) {
    std::size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    memory_ = fabric::RegisteredBuffer(cap * sizeof(Slot));
    slots_ = reinterpret_cast<Slot*>(memory_.data());
    mask_ = cap - 1;
  }

  /// Inserts or refreshes key -> value. May evict a colliding entry when
  /// the probe window is full. Lock-free.
  void put(std::uint64_t key, const Value& value) {
    const std::size_t start = mix64(key) & mask_;
    // Pass 1: refresh an existing entry or claim an empty slot.
    for (std::size_t i = 0; i < kProbeWindow; ++i) {
      Slot& s = slots_[(start + i) & mask_];
      std::uint64_t k = key_of(s).load(std::memory_order_acquire);
      if (k == key) {
        write_slot(s, key, value);
        return;
      }
      if (k == 0 &&
          key_of(s).compare_exchange_strong(k, key, std::memory_order_acq_rel)) {
        write_slot(s, key, value);
        size_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      if (k == key) {  // raced: someone else claimed it for our key
        write_slot(s, key, value);
        return;
      }
    }
    // Pass 2: evict within the window (slot chosen by key for determinism).
    Slot& victim = slots_[(start + (key % kProbeWindow)) & mask_];
    begin_write(victim);
    key_of(victim).store(key, std::memory_order_release);
    store_value(victim, value);
    end_write(victim);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Replaces key's entry with `value` if the key is present and
  /// `newer(cached)` holds for the entry it would replace; returns whether
  /// it did. Never claims an empty slot and never evicts, so keys nobody
  /// cached take no room. Lock-free.
  template <typename Newer>
  bool refresh(std::uint64_t key, const Value& value, Newer&& newer) {
    const std::size_t start = mix64(key) & mask_;
    for (std::size_t i = 0; i < kProbeWindow; ++i) {
      Slot& s = slots_[(start + i) & mask_];
      if (key_of(s).load(std::memory_order_acquire) != key) continue;
      begin_write(s);
      // Re-checked under the seqlock: an erase or eviction may have raced.
      const bool replace =
          key_of(s).load(std::memory_order_relaxed) == key && newer(load_value(s));
      if (replace) store_value(s, value);
      end_write(s);
      return replace;
    }
    return false;
  }

  /// Wait-free lookup; returns true and fills *out on hit.
  bool get(std::uint64_t key, Value* out) const {
    const std::size_t start = mix64(key) & mask_;
    for (std::size_t i = 0; i < kProbeWindow; ++i) {
      Slot& s = slots_[(start + i) & mask_];
      const std::uint32_t v1 = version_of(s).load(std::memory_order_acquire);
      if (v1 & 1u) continue;  // mid-write; treat as miss rather than spin
      if (key_of(s).load(std::memory_order_acquire) != key) continue;
      Value copy = load_value(s);  // may tear; validated by the version re-check
      if (version_of(s).load(std::memory_order_acquire) == v1 &&
          key_of(s).load(std::memory_order_relaxed) == key) {
        *out = copy;
        hits_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  /// Invalidates key if present (e.g. after observing a dead guardian).
  void erase(std::uint64_t key) {
    const std::size_t start = mix64(key) & mask_;
    for (std::size_t i = 0; i < kProbeWindow; ++i) {
      Slot& s = slots_[(start + i) & mask_];
      if (key_of(s).load(std::memory_order_acquire) != key) continue;
      begin_write(s);
      key_of(s).store(0, std::memory_order_relaxed);
      end_write(s);
      size_.fetch_sub(1, std::memory_order_relaxed);
      return;
    }
  }

  /// Sweeps every occupied slot and erases entries for which
  /// `pred(key, value)` returns true; returns how many were dropped. Linear
  /// in capacity -- meant for rare maintenance (e.g. evicting pointers
  /// stamped with a superseded routing epoch), never the data path. Entries
  /// mid-write by a concurrent writer are skipped (they are being refreshed,
  /// so the writer owns their fate). Slots never written are only read, so
  /// their pages stay unbacked.
  template <typename Pred>
  std::size_t erase_if(Pred&& pred) {
    std::size_t erased = 0;
    for (std::size_t i = 0; i <= mask_; ++i) {
      Slot& s = slots_[i];
      const std::uint32_t v1 = version_of(s).load(std::memory_order_acquire);
      if (v1 & 1u) continue;  // writer active; skip
      const std::uint64_t k = key_of(s).load(std::memory_order_acquire);
      if (k == 0) continue;
      Value copy = load_value(s);
      if (version_of(s).load(std::memory_order_acquire) != v1 ||
          key_of(s).load(std::memory_order_relaxed) != k) {
        continue;  // torn read; the concurrent writer decides
      }
      if (!pred(k, copy)) continue;
      begin_write(s);
      if (key_of(s).load(std::memory_order_relaxed) == k) {
        key_of(s).store(0, std::memory_order_relaxed);
        size_.fetch_sub(1, std::memory_order_relaxed);
        ++erased;
      }
      end_write(s);
    }
    return erased;
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }
  [[nodiscard]] std::size_t size() const noexcept {
    return size_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t misses() const noexcept {
    return misses_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t evictions() const noexcept {
    return evictions_.load(std::memory_order_relaxed);
  }
  /// The slot storage (for residency checks).
  [[nodiscard]] const fabric::RegisteredBuffer& memory() const noexcept { return memory_; }

 private:
  static constexpr std::size_t kProbeWindow = 16;

  // The value bytes are staged through per-word atomics: a reader
  // validating against the seqlock version may still observe a torn value
  // mid-copy (and discard it), but each word access is atomic, so the race
  // window carries no undefined behavior. Writers store the key and value
  // words with release after taking the seqlock, and readers load them with
  // acquire: a reader that sees any word of a write in progress also sees
  // its odd version at the re-check. No standalone fence is needed, so
  // ThreadSanitizer, which does not model fences, sees the whole protocol.
  static constexpr std::size_t kValueWords = (sizeof(Value) + 7) / 8;

  /// All zero = empty. Never constructed: slots are the buffer's zero bytes.
  struct Slot {
    std::uint64_t key;
    std::uint32_t version;  // seqlock: odd while writing
    std::uint32_t pad;
    std::uint64_t value[kValueWords];
  };
  static_assert(std::is_trivial_v<Slot>);

  static std::atomic_ref<std::uint64_t> key_of(Slot& s) noexcept {
    return std::atomic_ref<std::uint64_t>(s.key);
  }
  static std::atomic_ref<std::uint32_t> version_of(Slot& s) noexcept {
    return std::atomic_ref<std::uint32_t>(s.version);
  }

  static void store_value(Slot& s, const Value& v) noexcept {
    std::uint64_t words[kValueWords] = {};
    std::memcpy(words, &v, sizeof(Value));
    for (std::size_t i = 0; i < kValueWords; ++i) {
      std::atomic_ref<std::uint64_t>(s.value[i]).store(words[i], std::memory_order_release);
    }
  }
  static Value load_value(Slot& s) noexcept {
    std::uint64_t words[kValueWords];
    for (std::size_t i = 0; i < kValueWords; ++i) {
      words[i] = std::atomic_ref<std::uint64_t>(s.value[i]).load(std::memory_order_acquire);
    }
    Value v;
    std::memcpy(&v, words, sizeof(Value));
    return v;
  }

  static void begin_write(Slot& s) noexcept {
    // Spin only against a concurrent writer of the same slot; readers never
    // hold the seqlock, so this is lock-free in the progress-guarantee sense
    // for the system as a whole.
    while (true) {
      std::uint32_t v = version_of(s).load(std::memory_order_relaxed);
      if ((v & 1u) == 0 &&
          version_of(s).compare_exchange_weak(v, v + 1, std::memory_order_acq_rel)) {
        return;
      }
    }
  }
  static void end_write(Slot& s) noexcept {
    version_of(s).fetch_add(1, std::memory_order_release);
  }
  static void write_slot(Slot& s, std::uint64_t key, const Value& value) noexcept {
    begin_write(s);
    key_of(s).store(key, std::memory_order_release);
    store_value(s, value);
    end_write(s);
  }

  fabric::RegisteredBuffer memory_;  ///< demand-zero slot storage
  Slot* slots_ = nullptr;
  std::size_t mask_ = 0;
  std::atomic<std::size_t> size_{0};
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace hydra::core
