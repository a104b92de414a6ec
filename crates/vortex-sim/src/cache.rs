//! Set-associative cache timing model (tags only — data lives in the flat
//! functional memory).

/// Geometry of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    pub sets: u32,
    pub ways: u32,
    pub line_bytes: u32,
}

impl CacheConfig {
    pub fn capacity_bytes(&self) -> u32 {
        self.sets * self.ways * self.line_bytes
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Way {
    tag: u32,
    valid: bool,
    last_used: u64,
}

/// An LRU set-associative cache.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// log2 of the line size (a power of two), so the memory path never
    /// divides.
    line_shift: u32,
    ways: Vec<Way>,
    pub hits: u64,
    pub misses: u64,
}

impl Cache {
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.sets.is_power_of_two(), "sets must be a power of two");
        assert!(
            cfg.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        Cache {
            cfg,
            line_shift: cfg.line_bytes.trailing_zeros(),
            ways: vec![Way::default(); (cfg.sets * cfg.ways) as usize],
            hits: 0,
            misses: 0,
        }
    }

    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Line address (byte address / line size) of `addr`.
    #[inline]
    pub fn line_of(&self, addr: u32) -> u32 {
        addr >> self.line_shift
    }

    /// Access the line containing `addr` at time `now`; returns true on hit.
    /// A miss allocates (LRU victim) — the caller charges the fill latency.
    pub fn access(&mut self, addr: u32, now: u64) -> bool {
        let line = self.line_of(addr);
        let set = line & (self.cfg.sets - 1);
        let tag = line >> self.cfg.sets.trailing_zeros();
        let base = (set * self.cfg.ways) as usize;
        let set_ways = &mut self.ways[base..base + self.cfg.ways as usize];
        for w in set_ways.iter_mut() {
            if w.valid && w.tag == tag {
                w.last_used = now;
                self.hits += 1;
                return true;
            }
        }
        self.misses += 1;
        // LRU victim.
        let victim = set_ways
            .iter_mut()
            .min_by_key(|w| if w.valid { (1, w.last_used) } else { (0, 0) })
            .expect("at least one way");
        victim.tag = tag;
        victim.valid = true;
        victim.last_used = now;
        false
    }

    /// Set index the line containing `addr` maps to.
    pub fn set_of(&self, addr: u32) -> u32 {
        self.line_of(addr) & (self.cfg.sets - 1)
    }

    /// Adopt `src`'s residency/LRU state for one set (same geometry
    /// assumed). Tag state only — the hit/miss counters are left alone.
    pub fn copy_set_from(&mut self, src: &Cache, set: u32) {
        let b = (set * self.cfg.ways) as usize;
        let e = b + self.cfg.ways as usize;
        self.ways[b..e].copy_from_slice(&src.ways[b..e]);
    }

    /// (hits, misses) — the counter pair the simulator folds into
    /// [`SimStats`](crate::SimStats), mirroring `DramModel::stats`.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Invalidate everything (used between kernel launches).
    pub fn flush(&mut self) {
        for w in &mut self.ways {
            w.valid = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        Cache::new(CacheConfig {
            sets: 2,
            ways: 2,
            line_bytes: 64,
        })
    }

    #[test]
    fn hit_after_fill() {
        let mut c = small();
        assert!(!c.access(0x1000, 0));
        assert!(c.access(0x1000, 1));
        assert!(c.access(0x103C, 2), "same line");
        assert_eq!(c.hits, 2);
        assert_eq!(c.misses, 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = small();
        // Three distinct lines mapping to set 0 (line addr even).
        let a = 0; // line 0, set 0
        let b = 2 * 64 * 2;
        let d = 4 * 64 * 2;
        assert!(!c.access(a, 0));
        assert!(!c.access(b, 1));
        assert!(c.access(a, 2), "a still resident");
        assert!(!c.access(d, 3), "d fills, evicting b (LRU)");
        assert!(!c.access(b, 4), "b was evicted; refilling evicts a (LRU)");
        assert!(c.access(d, 5), "d survived (more recent than a was)");
        assert!(!c.access(a, 6), "a was the LRU victim of step 4");
    }

    #[test]
    fn capacity_math() {
        assert_eq!(
            CacheConfig {
                sets: 64,
                ways: 4,
                line_bytes: 64
            }
            .capacity_bytes(),
            16384
        );
    }

    #[test]
    fn flush_clears_residency() {
        let mut c = small();
        c.access(0x40, 0);
        c.flush();
        assert!(!c.access(0x40, 1));
    }
}
