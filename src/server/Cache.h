//===- server/Cache.h - The compile server's result cache ------*- C++ -*-===//
///
/// \file
/// A byte-capped LRU map from canonical GMA text to shared immutable
/// values: the compile server's result cache. One mutex guards one
/// recency list and one hash index keyed by the text itself, so a hit is
/// an exact match of the text and two texts never share an entry. Each
/// entry stores its text once; the index refers to it.
///
/// The cap bounds the summed cost of all live entries. An entry whose cost
/// alone is over the cap is not cached, and eviction drops the least
/// recently used entries of the whole cache.
///
/// Hit/miss/insert/evict counts are published both as obs counters
/// (`<prefix>.hit` etc., visible in --metrics-out summaries) and as
/// CacheStats for tests and the server's (stats) protocol verb.
///
//===----------------------------------------------------------------------===//

#ifndef DENALI_SERVER_CACHE_H
#define DENALI_SERVER_CACHE_H

#include "obs/Obs.h"

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace denali {
namespace server {

/// Aggregate counters of one cache, as one snapshot.
struct CacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Insertions = 0;
  uint64_t Evictions = 0;
  size_t Bytes = 0;
  size_t Entries = 0;
};

template <typename V> class LruCache {
public:
  /// \p MaxBytes caps the summed cost of live entries (0 disables the
  /// cache entirely: get() always misses, put() is a no-op). \p Prefix
  /// names the obs counters, e.g. "server.cache".
  LruCache(size_t MaxBytes, const std::string &Prefix)
      : MaxBytes(MaxBytes),
        HitCtr(obs::Registry::global().counter(Prefix + ".hit")),
        MissCtr(obs::Registry::global().counter(Prefix + ".miss")),
        InsertCtr(obs::Registry::global().counter(Prefix + ".insert")),
        EvictCtr(obs::Registry::global().counter(Prefix + ".evict")),
        BytesGauge(obs::Registry::global().gauge(Prefix + ".bytes")) {}

  bool enabled() const { return MaxBytes > 0; }

  /// Looks up \p Text. A hit refreshes the entry's LRU position and
  /// returns a shared pointer that stays valid after eviction.
  std::shared_ptr<const V> get(std::string_view Text) {
    if (!enabled())
      return nullptr;
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Index.find(Text);
    if (It == Index.end()) {
      MissCtr.add();
      ++Stats.Misses;
      return nullptr;
    }
    Lru.splice(Lru.begin(), Lru, It->second);
    HitCtr.add();
    ++Stats.Hits;
    return It->second->Value;
  }

  /// Inserts \p Value under \p Text with cost \p Bytes, evicting LRU
  /// entries past the cap. First writer wins: if \p Text is already
  /// present (two threads raced on one miss), the existing entry is kept
  /// so concurrent duplicates observe one result.
  void put(std::string Text, std::shared_ptr<const V> Value, size_t Bytes) {
    if (!enabled() || Bytes > MaxBytes)
      return;
    std::lock_guard<std::mutex> Lock(Mu);
    if (Index.count(Text))
      return; // First writer won.
    Lru.push_front(Entry{std::move(Text), std::move(Value), Bytes});
    Index.emplace(Lru.front().Text, Lru.begin());
    Stats.Bytes += Bytes;
    InsertCtr.add();
    ++Stats.Insertions;
    // The new entry fits the cap alone, so this stops before reaching it.
    while (Stats.Bytes > MaxBytes) {
      Entry &Old = Lru.back();
      Stats.Bytes -= Old.Bytes;
      Index.erase(Old.Text);
      Lru.pop_back();
      EvictCtr.add();
      ++Stats.Evictions;
    }
    BytesGauge.set(static_cast<int64_t>(Stats.Bytes));
  }

  CacheStats stats() const {
    std::lock_guard<std::mutex> Lock(Mu);
    CacheStats St = Stats;
    St.Entries = Lru.size();
    return St;
  }

private:
  struct Entry {
    std::string Text;
    std::shared_ptr<const V> Value;
    size_t Bytes = 0;
  };

  size_t MaxBytes;
  mutable std::mutex Mu;
  std::list<Entry> Lru; ///< Front = most recently used.
  /// Keys view the Text of their entry, which a list node never moves.
  std::unordered_map<std::string_view, typename std::list<Entry>::iterator>
      Index;
  CacheStats Stats; ///< All but Entries, which is Lru.size().
  obs::Counter &HitCtr;
  obs::Counter &MissCtr;
  obs::Counter &InsertCtr;
  obs::Counter &EvictCtr;
  obs::Gauge &BytesGauge;
};

} // namespace server
} // namespace denali

#endif // DENALI_SERVER_CACHE_H
