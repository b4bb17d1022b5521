//===- server/Cache.h - Sharded LRU maps for the compile server -*- C++ -*-===//
///
/// \file
/// A byte-capped, sharded LRU map from Key128 to shared immutable values:
/// the compile server's canonical-GMA result cache. Shards are
/// independent (key's high bits pick the shard), each with its own mutex,
/// intrusive LRU list, and byte budget — so concurrent requests only
/// contend when they land on the same shard.
///
/// Hit/miss/insert/evict counts are published both as obs counters
/// (`<prefix>.hit` etc., visible in --metrics-out summaries) and as plain
/// atomics for tests and the server's (stats) protocol verb.
///
/// Soundness: a Key128 match alone never serves a value — every entry
/// stores its canonical identity text and get() compares it exactly, so
/// a 128-bit hash collision degrades to a miss, never a wrong result.
///
//===----------------------------------------------------------------------===//

#ifndef DENALI_SERVER_CACHE_H
#define DENALI_SERVER_CACHE_H

#include "obs/Obs.h"
#include "server/Canon.h"

#include <atomic>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace denali {
namespace server {

/// Aggregate counters of one cache. Values are snapshots (relaxed reads).
struct CacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Insertions = 0;
  uint64_t Evictions = 0;
  size_t Bytes = 0;
  size_t Entries = 0;
};

template <typename V> class ShardedLruCache {
  static constexpr size_t NumShards = 8;

public:
  /// \p MaxBytes caps the summed cost of live entries (0 disables the
  /// cache entirely: get() always misses, put() is a no-op). \p Prefix
  /// names the obs counters, e.g. "server.cache".
  ShardedLruCache(size_t MaxBytes, const std::string &Prefix)
      : MaxBytes(MaxBytes),
        HitCtr(obs::Registry::global().counter(Prefix + ".hit")),
        MissCtr(obs::Registry::global().counter(Prefix + ".miss")),
        InsertCtr(obs::Registry::global().counter(Prefix + ".insert")),
        EvictCtr(obs::Registry::global().counter(Prefix + ".evict")),
        BytesGauge(obs::Registry::global().gauge(Prefix + ".bytes")) {}

  bool enabled() const { return MaxBytes > 0; }

  /// Looks up \p K, verifying \p IdentityText exactly. A hit refreshes
  /// the entry's LRU position and returns a shared pointer that stays
  /// valid after eviction.
  std::shared_ptr<const V> get(const Key128 &K, std::string_view IdentityText) {
    if (!enabled())
      return nullptr;
    Shard &S = shard(K);
    std::lock_guard<std::mutex> Lock(S.Mu);
    auto It = S.Index.find(K);
    if (It == S.Index.end() || It->second->Identity != IdentityText) {
      MissCtr.add();
      Misses.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    S.Lru.splice(S.Lru.begin(), S.Lru, It->second);
    HitCtr.add();
    Hits.fetch_add(1, std::memory_order_relaxed);
    return It->second->Value;
  }

  /// Inserts \p Value under \p K with cost \p Bytes, evicting LRU entries
  /// past the shard's budget. First writer wins: if \p K is already
  /// present with the same identity (two threads raced on one miss), the
  /// existing entry is kept so concurrent duplicates observe one result.
  void put(const Key128 &K, std::string IdentityText,
           std::shared_ptr<const V> Value, size_t Bytes) {
    if (!enabled())
      return;
    size_t ShardCap = MaxBytes / NumShards;
    if (ShardCap == 0)
      ShardCap = 1;
    if (Bytes > ShardCap)
      return; // Would evict the whole shard for one entry; skip.
    Shard &S = shard(K);
    std::lock_guard<std::mutex> Lock(S.Mu);
    auto It = S.Index.find(K);
    if (It != S.Index.end()) {
      if (It->second->Identity == IdentityText)
        return; // First writer won.
      // Genuine 128-bit collision: replace — the old identity can re-cold
      // compile. Vanishingly rare; counted as an eviction.
      S.Bytes -= It->second->Bytes;
      TotalBytes.fetch_sub(It->second->Bytes, std::memory_order_relaxed);
      S.Lru.erase(It->second);
      S.Index.erase(It);
      EvictCtr.add();
      Evictions.fetch_add(1, std::memory_order_relaxed);
    }
    S.Lru.push_front(Entry{K, std::move(IdentityText), std::move(Value),
                           Bytes});
    S.Index[K] = S.Lru.begin();
    S.Bytes += Bytes;
    TotalBytes.fetch_add(Bytes, std::memory_order_relaxed);
    InsertCtr.add();
    Insertions.fetch_add(1, std::memory_order_relaxed);
    while (S.Bytes > ShardCap && S.Lru.size() > 1) {
      Entry &Old = S.Lru.back();
      S.Bytes -= Old.Bytes;
      TotalBytes.fetch_sub(Old.Bytes, std::memory_order_relaxed);
      S.Index.erase(Old.Key);
      S.Lru.pop_back();
      EvictCtr.add();
      Evictions.fetch_add(1, std::memory_order_relaxed);
    }
    publishBytes();
  }

  CacheStats stats() const {
    CacheStats St;
    St.Hits = Hits.load(std::memory_order_relaxed);
    St.Misses = Misses.load(std::memory_order_relaxed);
    St.Insertions = Insertions.load(std::memory_order_relaxed);
    St.Evictions = Evictions.load(std::memory_order_relaxed);
    for (const Shard &S : Shards) {
      std::lock_guard<std::mutex> Lock(S.Mu);
      St.Bytes += S.Bytes;
      St.Entries += S.Lru.size();
    }
    return St;
  }

private:
  struct Entry {
    Key128 Key;
    std::string Identity;
    std::shared_ptr<const V> Value;
    size_t Bytes = 0;
  };
  struct Shard {
    mutable std::mutex Mu;
    std::list<Entry> Lru; ///< Front = most recently used.
    std::unordered_map<Key128, typename std::list<Entry>::iterator, Key128Hash>
        Index;
    size_t Bytes = 0;
  };

  Shard &shard(const Key128 &K) { return Shards[K.Hi % NumShards]; }

  void publishBytes() {
    BytesGauge.set(
        static_cast<int64_t>(TotalBytes.load(std::memory_order_relaxed)));
  }

  size_t MaxBytes;
  Shard Shards[NumShards];
  obs::Counter &HitCtr;
  obs::Counter &MissCtr;
  obs::Counter &InsertCtr;
  obs::Counter &EvictCtr;
  obs::Gauge &BytesGauge;
  std::atomic<uint64_t> Hits{0}, Misses{0}, Insertions{0}, Evictions{0};
  std::atomic<size_t> TotalBytes{0};
};

} // namespace server
} // namespace denali

#endif // DENALI_SERVER_CACHE_H
