//! A small least-recently-used map for the in-memory tier of the cache.
//!
//! Capacity is counted in entries (the byte accounting lives in
//! [`crate::Cache`], which knows the encoded sizes). Recency is a monotonic
//! stamp bumped on every access; eviction scans for the minimum stamp, which
//! is O(n) but trivially correct and plenty for the few hundred entries the
//! pipeline produces.

use repro_util::fxhash::FxHashMap;
use std::hash::Hash;

struct Entry<V> {
    value: V,
    stamp: u64,
}

pub struct Lru<K, V> {
    map: FxHashMap<K, Entry<V>>,
    capacity: usize,
    clock: u64,
}

impl<K: Eq + Hash + Clone, V> Lru<K, V> {
    /// A cache holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Lru<K, V> {
        Lru {
            map: FxHashMap::default(),
            capacity: capacity.max(1),
            clock: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Look up a key, refreshing its recency on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.clock += 1;
        let clock = self.clock;
        self.map.get_mut(key).map(|e| {
            e.stamp = clock;
            &e.value
        })
    }

    /// Insert a value, returning the evicted `(key, value)` if the cache was
    /// full (or the replaced value under the same key).
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        self.clock += 1;
        if let Some(old) = self.map.insert(
            key.clone(),
            Entry {
                value,
                stamp: self.clock,
            },
        ) {
            return Some((key, old.value));
        }
        if self.map.len() > self.capacity {
            // Evict the least recently used entry.
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone())
                .expect("non-empty over-capacity cache");
            let old = self.map.remove(&victim).unwrap();
            return Some((victim, old.value));
        }
        None
    }

    /// Remove one entry, returning its value if it was present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.map.remove(key).map(|e| e.value)
    }

    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Iterate over entries in unspecified order (for byte accounting).
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.map.values().map(|e| &e.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used_first() {
        let mut lru: Lru<&str, u32> = Lru::new(2);
        assert!(lru.insert("a", 1).is_none());
        assert!(lru.insert("b", 2).is_none());
        // Touch "a" so "b" becomes the LRU entry.
        assert_eq!(lru.get(&"a"), Some(&1));
        let evicted = lru.insert("c", 3).expect("over capacity");
        assert_eq!(evicted, ("b", 2));
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.get(&"a"), Some(&1));
        assert_eq!(lru.get(&"c"), Some(&3));
        assert_eq!(lru.get(&"b"), None);

        // Now "a" was touched after "c"; inserting "d" evicts "c".
        assert_eq!(lru.get(&"a"), Some(&1));
        let evicted = lru.insert("d", 4).expect("over capacity");
        assert_eq!(evicted.0, "c");
    }

    #[test]
    fn reinsert_replaces_without_eviction() {
        let mut lru: Lru<u32, u32> = Lru::new(2);
        lru.insert(1, 10);
        lru.insert(2, 20);
        let replaced = lru.insert(1, 11).expect("same-key replace");
        assert_eq!(replaced, (1, 10));
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.get(&1), Some(&11));
        assert_eq!(lru.get(&2), Some(&20));
    }

    #[test]
    fn capacity_one_always_keeps_newest() {
        let mut lru: Lru<u32, u32> = Lru::new(1);
        lru.insert(1, 1);
        assert_eq!(lru.insert(2, 2).unwrap(), (1, 1));
        assert_eq!(lru.insert(3, 3).unwrap(), (2, 2));
        assert_eq!(lru.get(&3), Some(&3));
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn remove_drops_only_its_key() {
        let mut lru: Lru<u32, u32> = Lru::new(4);
        lru.insert(1, 10);
        lru.insert(2, 20);
        assert_eq!(lru.remove(&1), Some(10));
        assert_eq!(lru.remove(&1), None);
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.get(&2), Some(&20));
        // The freed slot is usable again without evicting the survivor.
        lru.insert(3, 30);
        lru.insert(4, 40);
        assert!(lru.insert(5, 50).is_none());
        assert_eq!(lru.len(), 4);
    }

    #[test]
    fn clear_empties() {
        let mut lru: Lru<u32, u32> = Lru::new(4);
        lru.insert(1, 1);
        lru.insert(2, 2);
        lru.clear();
        assert!(lru.is_empty());
        assert_eq!(lru.get(&1), None);
    }
}
