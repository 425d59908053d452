// chainedHash / chainedHash-CR: a concurrent closed-addressing (separate
// chaining) table in the style of Lea's java.util.concurrent
// ConcurrentHashMap, the paper's closed-addressing baseline.
//
//  - Buckets are singly-linked lists; a striped spinlock array guards
//    updates (finds are lock-free chain walks, valid in a find-only phase).
//  - chainedHash locks at the *start* of every insert/erase.
//  - chainedHash-CR (ContentionReducing = true) is the paper's optimization:
//    insert locks only after an initial lock-free find misses, and erase
//    locks only after an initial find hits — which collapses the lock
//    traffic on inputs with many duplicate keys (trigram/exponential).
//  - Node storage is a chunked bump-pointer pool plus a tagged lock-free
//    free list (deleted nodes are recycled); this is the "memory management
//    to allocate and de-allocate the cells" cost the paper attributes to
//    closed addressing.
//  - elements() follows the paper: count each bucket's chain, prefix-sum
//    the counts, then copy chains into the output array bucket-parallel.
//
// The table models phase_table / deletable_table / block_table. A chained
// lookup is a pointer chase — bucket head, then node after node — so
// find_block is a true AMAC walk: each lane of core/batch_ops.h's ring
// prefetches its next node (starting from the bucket-head line) and yields,
// advancing one link per rotation on warm lines. Mutating blocks run through
// run_handoff_block: the key is hashed once and its bucket head and lock
// line are prefetched one rotation ahead of the scalar op.
// The table keeps no element count; count() is an O(buckets + nodes) scan.
// phch_lint: table-header
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "phch/core/batch_ops.h"
#include "phch/core/entry_traits.h"
#include "phch/core/phase_runtime.h"
#include "phch/core/table_common.h"
#include "phch/obs/telemetry.h"
#include "phch/parallel/atomics.h"
#include "phch/parallel/parallel_for.h"
#include "phch/parallel/primitives.h"
#include "phch/parallel/spinlock.h"

namespace phch {

template <typename Traits = int_entry<>, bool ContentionReducing = false>
class chained_table {
 public:
  using traits = Traits;
  using value_type = typename Traits::value_type;
  using key_type = typename Traits::key_type;

  explicit chained_table(std::size_t min_capacity)
      : num_buckets_(round_up_pow2(min_capacity < 2 ? 2 : min_capacity)),
        mask_(num_buckets_ - 1),
        buckets_(num_buckets_, nullptr),
        locks_(std::min<std::size_t>(num_buckets_, kMaxLocks)),
        lock_mask_(locks_.size() - 1),
        pool_(num_buckets_) {}

  std::size_t capacity() const noexcept { return num_buckets_; }

  // Live entries, by parallel scan of the chains.
  std::size_t count() const {
    return reduce(std::size_t{0}, num_buckets_, std::size_t{0}, std::plus<std::size_t>{},
                  [&](std::size_t b) {
                    std::size_t c = 0;
                    for (const node* n = load_head(b); n; n = n->next) ++c;
                    return c;
                  });
  }

  void insert(value_type v) {
    phase_runtime::scope guard(phase_, op_kind::insert);
    insert_impl(v, bucket(Traits::key(v)));
  }

  void erase(key_type kq) {
    phase_runtime::scope guard(phase_, op_kind::erase);
    erase_impl(kq, bucket(kq));
  }

  value_type find(key_type kq) const {
    phase_runtime::scope guard(phase_, op_kind::query);
    return find_impl(kq);
  }

  bool contains(key_type kq) const {
    return !Traits::is_empty(find(kq));
  }

  // Paper's scheme: per-bucket chain counts, a prefix sum for offsets, then
  // parallel per-bucket copies.
  std::vector<value_type> elements() const {
    phase_runtime::scope guard(phase_, op_kind::query);
    std::vector<std::size_t> offsets(num_buckets_);
    parallel_for(0, num_buckets_, [&](std::size_t b) {
      std::size_t c = 0;
      for (const node* n = load_head(b); n; n = n->next) ++c;
      offsets[b] = c;
    });
    const std::size_t total = scan_add_inplace(offsets);
    std::vector<value_type> out(total);
    parallel_for(0, num_buckets_, [&](std::size_t b) {
      std::size_t o = offsets[b];
      for (const node* n = load_head(b); n; n = n->next) out[o++] = n->v;
    });
    return out;
  }

  // --- pipelined block members (core/batch_ops.h) ---------------------------
  // Serial within a block; the free batch functions supply the cross-block
  // parallelism.

  // AMAC chain walk: each lane is a tiny state machine — load the bucket
  // head (line prefetched at issue), then follow next pointers, prefetching
  // each node one rotation before inspecting it. Every miss of the pointer
  // chase overlaps with up to kBatchWidth-1 others.
  template <typename K>
  void find_block(const K* keys, std::size_t n, value_type* out) const {
    phase_runtime::scope guard(phase_, op_kind::query);
    struct lane {
      std::size_t idx;
      std::size_t b;
      const node* cur;  // nullptr while waiting on the bucket-head line
      key_type kq;
    };
    obs::tally t_loads(obs::counter::batch_probe_slots);
    obs::tally t_hits(obs::counter::find_hits);
    obs::tally t_links(obs::counter::chained_chain_links);
    batch_detail::run_batch_ring<lane>(
        n,
        [&](lane& o, std::size_t i) {
          const key_type kq = keys[i];
          o = lane{i, bucket(kq), nullptr, kq};
          detail::prefetch_ro(&buckets_[o.b]);
        },
        [&](lane& o) {
          t_loads.add();
          const node* nx;
          if (o.cur == nullptr) {
            nx = load_head(o.b);
          } else {
            t_links.add();
            if (Traits::key_equal(Traits::key(o.cur->v), o.kq)) {
              out[o.idx] = o.cur->v;
              t_hits.add();
              return true;
            }
            nx = atomic_load(&o.cur->next);
          }
          if (nx == nullptr) {
            out[o.idx] = Traits::empty();
            return true;
          }
          o.cur = nx;
          detail::prefetch_ro(nx);
          return false;
        });
    obs::count(obs::counter::find_ops, n);
  }

  // Mutating blocks run through run_handoff_block: the key is hashed once,
  // and its bucket head and lock line are prefetched ahead of the scalar op.
  template <typename V>
  void insert_block(const V* values, std::size_t n) {
    phase_runtime::scope guard(phase_, op_kind::insert);
    batch_detail::run_handoff_block(
        n, [&](std::size_t i) { return prefetch_bucket(Traits::key(values[i])); },
        [&](std::size_t i, std::uint64_t h) { insert_impl(values[i], h & mask_); });
  }

  template <typename K>
  void erase_block(const K* keys, std::size_t n) {
    phase_runtime::scope guard(phase_, op_kind::erase);
    batch_detail::run_handoff_block(
        n, [&](std::size_t i) { return prefetch_bucket(keys[i]); },
        [&](std::size_t i, std::uint64_t h) { erase_impl(keys[i], h & mask_); });
  }

  // The table's single phase-state word (phase epoch + current class,
  // core/phase_runtime.h), shared by scalar and block scopes.
  phase_runtime& phase_rt() const noexcept { return phase_; }

 private:
  static constexpr std::size_t kMaxLocks = 1 << 16;

  // A freed node's `next` holds its free-list link with the low bit set.
  // Under chainedHash-CR an erase's lock-free pre-pass may be standing on a
  // node another erase has just unlinked and freed; the mark tells it that
  // `next` no longer continues the chain. Followed unmarked, the link would
  // lead the walk into the free list, past keys still in the chain. Freed
  // nodes are reused only by a later insert phase.
  struct node {
    value_type v;
    node* next;
  };

  static node* mark_freed(node* p) noexcept {
    return reinterpret_cast<node*>(reinterpret_cast<std::uintptr_t>(p) | 1);
  }
  static bool is_freed_link(const node* p) noexcept {
    return (reinterpret_cast<std::uintptr_t>(p) & 1) != 0;
  }
  static node* unmark(node* p) noexcept {
    return reinterpret_cast<node*>(reinterpret_cast<std::uintptr_t>(p) & ~std::uintptr_t{1});
  }

  // Chunked bump allocator with a tagged (ABA-safe) lock-free free list.
  class node_pool {
   public:
    explicit node_pool(std::size_t hint) : chunk_size_(std::max<std::size_t>(hint / 4, 1024)) {}

    node* allocate() {
      // Recycled node?
      tagged head = free_head_.load(std::memory_order_seq_cst);
      while (head.ptr != nullptr) {
        // Atomic: another thread may pop and re-release this node between
        // our load and the CAS below — the tag check then discards the
        // value, but the read must still be race-free.
        const tagged next{unmark(atomic_load(&head.ptr->next)), head.tag + 1};
        if (free_head_.compare_exchange_weak(head, next,
                                             std::memory_order_seq_cst)) {
          return head.ptr;
        }
      }
      // Bump-allocate from the current chunk.
      for (;;) {
        chunk* c = current_.load(std::memory_order_acquire);
        if (c != nullptr) {
          const std::size_t i = c->used.fetch_add(1, std::memory_order_relaxed);
          if (i < chunk_size_) return &c->nodes[i];
        }
        std::lock_guard<spinlock> lg(grow_lock_);
        chunk* cur = current_.load(std::memory_order_acquire);
        if (cur == c) {  // nobody grew it while we waited
          auto fresh = std::make_unique<chunk>(chunk_size_);
          fresh->prev = std::move(owned_);
          chunk* raw = fresh.get();
          owned_ = std::move(fresh);
          current_.store(raw, std::memory_order_release);
        }
      }
    }

    void release(node* n) {
      tagged head = free_head_.load(std::memory_order_seq_cst);
      for (;;) {
        atomic_store(&n->next, mark_freed(head.ptr));
        const tagged next{n, head.tag + 1};
        if (free_head_.compare_exchange_weak(head, next,
                                             std::memory_order_seq_cst)) {
          return;
        }
      }
    }

   private:
    struct chunk {
      explicit chunk(std::size_t n) : nodes(n) {}
      std::vector<node> nodes;
      std::atomic<std::size_t> used{0};
      std::unique_ptr<chunk> prev;
    };
    struct alignas(16) tagged {
      node* ptr = nullptr;
      std::uint64_t tag = 0;
    };

    std::size_t chunk_size_;
    std::atomic<tagged> free_head_{};
    std::atomic<chunk*> current_{nullptr};
    std::unique_ptr<chunk> owned_;
    spinlock grow_lock_;
  };

  std::size_t bucket(key_type k) const { return Traits::hash(k) & mask_; }

  const node* load_head(std::size_t b) const noexcept { return atomic_load(&buckets_[b]); }

  // A mutating block lane's first touches: hash k once, prefetch its bucket
  // head and lock, and return the hash for the lane's step. Always inlined,
  // so GCC cannot delete the prefetches (see detail::prefetch_rw).
  [[gnu::always_inline]] std::uint64_t prefetch_bucket(key_type k) const {
    const std::uint64_t h = Traits::hash(k);
    const std::size_t b = h & mask_;
    detail::prefetch_rw(&buckets_[b]);
    detail::prefetch_rw(&locks_[b & lock_mask_]);
    return h;
  }

  // Lock-free chain walk; `links` accumulates nodes visited (flushed to the
  // chained_chain_links counter by the calling operation). A walk that
  // lands on a node a concurrent erase has freed restarts at the head.
  node* find_node(std::size_t b, key_type kq, std::uint64_t& links) const noexcept {
    node* n = atomic_load(&buckets_[b]);
    while (n != nullptr) {
      ++links;
      // Atomic value read: during an insert phase a concurrent duplicate
      // may be combine-CASing this node's value while we compare keys.
      if (Traits::key_equal(Traits::key(atomic_load(&n->v)), kq)) return n;
      node* const next = atomic_load(&n->next);
      n = is_freed_link(next) ? atomic_load(&buckets_[b]) : next;
    }
    return nullptr;
  }

  static void combine_node(node* n, value_type incoming) noexcept {
    if constexpr (Traits::has_combine) {
      if constexpr (requires { Traits::combine_inplace(&n->v, incoming); }) {
        Traits::combine_inplace(&n->v, incoming);
      } else {
        value_type cur = atomic_load(&n->v);
        for (;;) {
          const value_type merged = Traits::combine(cur, incoming);
          if (bits_equal(merged, cur) || cas(&n->v, cur, merged)) return;
          cur = atomic_load(&n->v);
        }
      }
    }
    (void)n;
    (void)incoming;
  }

  // Scalar insert of v into its bucket b, shared by insert() and
  // insert_block's handoff. Exactly one of insert_commits / insert_dups is
  // recorded per call.
  void insert_impl(value_type v, std::size_t b) {
    obs::count(obs::counter::insert_ops);
    assert(!Traits::is_empty(v));
    std::uint64_t links = 0;
    const key_type k = Traits::key(v);
    if constexpr (ContentionReducing) {
      // Lock-free pre-pass: on a duplicate hit, combine (or drop) without
      // ever touching the lock.
      if (node* hit = find_node(b, k, links)) {
        combine_node(hit, v);
        obs::count(obs::counter::insert_dups);
        obs::count(obs::counter::chained_chain_links, links);
        return;
      }
    }
    {
      std::lock_guard<spinlock> lg(locks_[b & lock_mask_]);
      if (node* hit = find_node(b, k, links)) {  // re-check under the lock
        combine_node(hit, v);
        obs::count(obs::counter::insert_dups);
        obs::count(obs::counter::chained_chain_links, links);
        return;
      }
      node* n = pool_.allocate();
      n->v = v;
      atomic_store(&n->next, buckets_[b]);
      atomic_store(&buckets_[b], n);
    }
    obs::count(obs::counter::insert_commits);
    obs::count(obs::counter::chained_chain_links, links);
  }

  void erase_impl(key_type kq, std::size_t b) {
    obs::count(obs::counter::erase_ops);
    std::uint64_t links = 0;
    if constexpr (ContentionReducing) {
      if (find_node(b, kq, links) == nullptr) {  // miss: no lock needed
        obs::count(obs::counter::chained_chain_links, links);
        return;
      }
    }
    bool hit = false;
    {
      std::lock_guard<spinlock> lg(locks_[b & lock_mask_]);
      node* prev = nullptr;
      for (node* n = buckets_[b]; n; prev = n, n = n->next) {
        ++links;
        if (Traits::key_equal(Traits::key(n->v), kq)) {
          if (prev)
            atomic_store(&prev->next, n->next);
          else
            atomic_store(&buckets_[b], n->next);
          pool_.release(n);
          hit = true;
          break;
        }
      }
    }
    if (hit) obs::count(obs::counter::erase_hits);
    obs::count(obs::counter::chained_chain_links, links);
  }

  value_type find_impl(key_type kq) const {
    obs::count(obs::counter::find_ops);
    std::uint64_t links = 0;
    const node* n = find_node(bucket(kq), kq, links);
    obs::count(obs::counter::chained_chain_links, links);
    if (n == nullptr) return Traits::empty();
    obs::count(obs::counter::find_hits);
    return n->v;
  }

  std::size_t num_buckets_;
  std::size_t mask_;
  std::vector<node*> buckets_;
  mutable std::vector<spinlock> locks_;
  std::size_t lock_mask_;
  mutable node_pool pool_;
  mutable phase_runtime phase_;
};

}  // namespace phch
