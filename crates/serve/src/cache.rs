//! The content-addressed result cache with single-flight deduplication.
//!
//! Real verification traffic is repetitive: iterating the same specs
//! across K ranges and candidate sets re-submits near-identical requests
//! over and over. Every completed result document is a pure function of
//! `(spec semantics, kind, K range, state budget, symmetry mode)`, so the
//! service memoizes the **rendered bytes** under exactly that key (see
//! [`crate::jobs::JobRequest::cache_key`], built on
//! [`selfstab_core::spec_hash`]). A repeat request is then served straight
//! from memory — no parse, no analysis, no pool job.
//!
//! Two request-shape subtleties:
//!
//! * **Single flight.** N clients racing the same cold key must cost one
//!   pool job, not N. The first submit atomically reserves the key as
//!   in-flight and carries the job id; every racer is *coalesced* onto
//!   that id and polls the same job. Only completion (or abandonment —
//!   timeout, panic, drain) resolves the reservation.
//! * **Byte budget.** Result documents are small but unbounded in number;
//!   an LRU byte budget caps the memory. Eviction walks off the least
//!   recently *hit* completed entries; in-flight reservations hold no
//!   bytes and are never evicted.
//!
//! Only *completed* documents are cached. A cancelled or timed-out job
//! produced partial bytes that depend on where the deadline landed —
//! caching those would serve nondeterministic documents, so the
//! reservation is abandoned instead and the next request retries.
//!
//! **Warm restarts.** With a snapshot path configured, every completed
//! document is also written through to an append-only, CRC-framed
//! snapshot file (`{"key","exit_code","body"}` records under the
//! campaign journal's `len crc payload\n` framing). At boot the snapshot
//! is replayed — longest valid prefix, later records win — through the
//! ordinary insert path, so the restored set respects the LRU byte
//! budget, and the file is compacted to exactly the surviving entries. A
//! restarted server therefore answers repeat traffic from cache
//! immediately instead of re-verifying its whole working set.
//!
//! **Journaled bodies.** Each completed entry also carries one bit for the
//! server's job journal ([`crate::journal`]): whether the journal already
//! holds this body, so that a hit can journal a reference to it instead
//! of a copy. Journal replay restores entries with the bit set; snapshot
//! replay and [`ResultCache::fulfill`] restore them clear; the server sets
//! it after its `done` append, and a hit on a clear entry sets it under
//! the cache lock. Without a journal the bit is never read.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use selfstab_campaign::journal::replay_frames;
use selfstab_telemetry::Registry;
use serde_json::{json, Value};

/// A completed, cacheable result: the exact response bytes plus the CLI
/// exit code the document maps to (0 verified / 2 violation found).
#[derive(Debug, PartialEq, Eq)]
pub struct CachedDoc {
    /// The canonical rendered document — byte-identical to the
    /// corresponding CLI `--json` output.
    pub body: String,
    /// The CLI exit-code equivalent, echoed as `X-Selfstab-Exit-Code`.
    pub exit_code: u8,
}

/// What a submit found under its cache key.
#[derive(Debug)]
pub enum Lookup {
    /// A completed document: serve it, enqueue nothing. `journaled` is
    /// whether the journal held this body before the lookup. The lookup
    /// marks the entry journaled either way, because a caller that
    /// journals the hit writes the body itself when it was not.
    Hit {
        doc: Arc<CachedDoc>,
        journaled: bool,
    },
    /// Another request is already computing this key; the id is that
    /// request's job. Coalesce onto it, enqueue nothing.
    InFlight(u64),
    /// Nothing cached; the key is now reserved for the caller's job id.
    Miss,
}

enum Entry {
    Done {
        doc: Arc<CachedDoc>,
        bytes: usize,
        last_used: u64,
        /// The server's journal already holds this body.
        journaled: bool,
    },
    InFlight {
        job: u64,
    },
}

struct CacheInner {
    entries: HashMap<String, Entry>,
    /// Total bytes held by `Done` entries.
    bytes: usize,
    /// Monotone recency clock (bumped per touch).
    tick: u64,
    /// The write-through snapshot appender, if snapshotting is on.
    snapshot: Option<selfstab_campaign::Journal>,
}

/// Where an inserted document comes from, which decides its snapshot
/// write-through and its `journaled` bit.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Origin {
    /// Computed by a pool job: written through, not yet journaled.
    Computed,
    /// Replayed from the snapshot file at boot.
    Snapshot,
    /// Replayed from the job journal at boot.
    Journal,
}

/// The cache. All operations take one short mutex; the documents
/// themselves are shared out as `Arc`s, so a hit never copies the body.
pub struct ResultCache {
    budget: usize,
    inner: Mutex<CacheInner>,
    hits: Arc<AtomicU64>,
    misses: Arc<AtomicU64>,
    coalesced: Arc<AtomicU64>,
    insertions: Arc<AtomicU64>,
    evictions: Arc<AtomicU64>,
    snapshot_restored: Arc<AtomicU64>,
}

impl ResultCache {
    /// A cache bounded to `budget` bytes of completed documents, its
    /// counters registered in `registry` under `cache/…`.
    pub fn new(budget: usize, registry: &Registry) -> Self {
        ResultCache {
            budget,
            inner: Mutex::new(CacheInner {
                entries: HashMap::new(),
                bytes: 0,
                tick: 0,
                snapshot: None,
            }),
            hits: registry.counter("cache/hits"),
            misses: registry.counter("cache/misses"),
            coalesced: registry.counter("cache/coalesced"),
            insertions: registry.counter("cache/insertions"),
            evictions: registry.counter("cache/evictions"),
            snapshot_restored: registry.counter("cache/snapshot_restored"),
        }
    }

    /// A cache backed by a write-through snapshot at `path`: existing
    /// records are replayed (longest valid prefix; later records win)
    /// under the byte budget, the file is compacted to the surviving
    /// entries, and every future [`ResultCache::fulfill`] appends a
    /// CRC-framed record.
    ///
    /// # Errors
    ///
    /// Returns the rendered IO failure if the snapshot file exists but
    /// cannot be read, or cannot be rewritten.
    pub fn with_snapshot(
        budget: usize,
        registry: &Registry,
        path: &Path,
        fsync: selfstab_campaign::FsyncPolicy,
    ) -> Result<Self, String> {
        let cache = ResultCache::new(budget, registry);
        let frames = replay_frames(path).map_err(|e| e.to_string())?;
        for ev in frames.events {
            let (Some(key), Some(body), Some(code)) = (
                ev["key"].as_str(),
                ev["body"].as_str(),
                ev["exit_code"].as_u64(),
            ) else {
                continue;
            };
            cache.insert(
                key,
                Arc::new(CachedDoc {
                    body: body.to_owned(),
                    exit_code: code as u8,
                }),
                Origin::Snapshot,
            );
            cache.snapshot_restored.fetch_add(1, Ordering::Relaxed);
        }
        // Compact: rewrite the file to exactly the entries that survived
        // the budget, so the snapshot cannot grow without bound across
        // restarts, then keep it open for write-through appends.
        let journal = selfstab_campaign::Journal::create(path, fsync).map_err(|e| e.to_string())?;
        {
            let inner = cache.inner.lock().expect("cache poisoned");
            let mut live: Vec<(&String, &Arc<CachedDoc>, u64)> = inner
                .entries
                .iter()
                .filter_map(|(k, e)| match e {
                    Entry::Done { doc, last_used, .. } => Some((k, doc, *last_used)),
                    Entry::InFlight { .. } => None,
                })
                .collect();
            // Oldest first, so a future replay's later-wins order equals
            // today's recency order.
            live.sort_by_key(|(_, _, last_used)| *last_used);
            for (key, doc, _) in live {
                journal.event(&snapshot_record(key, doc));
            }
            journal.sync();
        }
        cache
            .inner
            .lock()
            .expect("cache poisoned")
            .snapshot
            .replace(journal);
        Ok(cache)
    }

    /// Inserts a result the job journal replayed, marked journaled and
    /// without touching the snapshot file (the journal already holds
    /// these bytes durably). Budget enforcement is identical to
    /// [`ResultCache::fulfill`].
    pub(crate) fn insert_journaled(&self, key: &str, doc: Arc<CachedDoc>) {
        self.insert(key, doc, Origin::Journal);
    }

    /// Looks up `key`; on a miss, atomically reserves the key for
    /// `job_id` so concurrent identical submits coalesce instead of
    /// duplicating work.
    pub fn lookup_or_reserve(&self, key: &str, job_id: u64) -> Lookup {
        let mut inner = self.inner.lock().expect("cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        match inner.entries.get_mut(key) {
            Some(Entry::Done {
                doc,
                last_used,
                journaled,
                ..
            }) => {
                *last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Lookup::Hit {
                    doc: Arc::clone(doc),
                    journaled: std::mem::replace(journaled, true),
                }
            }
            Some(Entry::InFlight { job }) => {
                self.coalesced.fetch_add(1, Ordering::Relaxed);
                Lookup::InFlight(*job)
            }
            None => {
                inner
                    .entries
                    .insert(key.to_owned(), Entry::InFlight { job: job_id });
                self.misses.fetch_add(1, Ordering::Relaxed);
                Lookup::Miss
            }
        }
    }

    /// Resolves an in-flight reservation with its completed document and
    /// enforces the byte budget (evicting least-recently-used completed
    /// entries; a document larger than the whole budget is simply not
    /// retained). With a snapshot configured, the document is also written
    /// through as a CRC-framed record.
    pub fn fulfill(&self, key: &str, doc: Arc<CachedDoc>) {
        self.insert(key, doc, Origin::Computed);
    }

    /// Records that the journal now holds `doc` for `key`, so later hits
    /// journal a reference to it. A no-op when the entry has since been
    /// evicted or replaced by another document.
    pub(crate) fn mark_journaled(&self, key: &str, doc: &Arc<CachedDoc>) {
        let mut inner = self.inner.lock().expect("cache poisoned");
        if let Some(Entry::Done {
            doc: held,
            journaled,
            ..
        }) = inner.entries.get_mut(key)
        {
            if Arc::ptr_eq(held, doc) {
                *journaled = true;
            }
        }
    }

    /// The shared insert path. Only a computed document is written
    /// through to the snapshot (a replayed one would double every record
    /// at boot), and only a journal-replayed one starts journaled.
    fn insert(&self, key: &str, doc: Arc<CachedDoc>, origin: Origin) {
        let bytes = doc.body.len();
        let mut inner = self.inner.lock().expect("cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        if bytes > self.budget {
            // Too large to ever retain: clear the reservation (and any
            // stale completed entry), giving its bytes back so `bytes`
            // tracks live entries rather than a high-water mark.
            if let Some(Entry::Done { bytes, .. }) = inner.entries.remove(key) {
                inner.bytes -= bytes;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
            return;
        }
        if origin == Origin::Computed {
            if let Some(snapshot) = &inner.snapshot {
                snapshot.event(&snapshot_record(key, &doc));
            }
        }
        if let Some(Entry::Done { bytes, .. }) = inner.entries.insert(
            key.to_owned(),
            Entry::Done {
                doc,
                bytes,
                last_used: tick,
                journaled: origin == Origin::Journal,
            },
        ) {
            inner.bytes -= bytes;
        }
        inner.bytes += bytes;
        self.insertions.fetch_add(1, Ordering::Relaxed);
        while inner.bytes > self.budget {
            let victim = inner
                .entries
                .iter()
                .filter_map(|(k, e)| match e {
                    Entry::Done { last_used, .. } if k != key => Some((*last_used, k.clone())),
                    _ => None,
                })
                .min();
            let Some((_, victim)) = victim else {
                break; // nothing evictable but the fresh entry itself
            };
            if let Some(Entry::Done { bytes, .. }) = inner.entries.remove(&victim) {
                inner.bytes -= bytes;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Drops an in-flight reservation whose job did not complete
    /// (timeout, panic, drain): the next identical request starts fresh.
    pub fn abandon(&self, key: &str) {
        let mut inner = self.inner.lock().expect("cache poisoned");
        if matches!(inner.entries.get(key), Some(Entry::InFlight { .. })) {
            inner.entries.remove(key);
        }
    }

    /// Current resident bytes — the `cache/bytes` gauge at metrics
    /// scrape time.
    pub fn bytes(&self) -> usize {
        self.inner.lock().expect("cache poisoned").bytes
    }

    /// The `/v1/cache/stats` document.
    pub fn stats_json(&self) -> Value {
        let inner = self.inner.lock().expect("cache poisoned");
        let completed = inner
            .entries
            .values()
            .filter(|e| matches!(e, Entry::Done { .. }))
            .count();
        let in_flight = inner.entries.len() - completed;
        json!({
            "budget_bytes": self.budget,
            "bytes": inner.bytes,
            "entries": completed,
            "in_flight": in_flight,
            "hits": self.hits.load(Ordering::Relaxed),
            "misses": self.misses.load(Ordering::Relaxed),
            "coalesced": self.coalesced.load(Ordering::Relaxed),
            "insertions": self.insertions.load(Ordering::Relaxed),
            "evictions": self.evictions.load(Ordering::Relaxed),
            "snapshot_restored": self.snapshot_restored.load(Ordering::Relaxed),
        })
    }
}

/// One snapshot record: everything [`ResultCache::with_snapshot`] needs to
/// rebuild the entry at the next boot.
fn snapshot_record(key: &str, doc: &CachedDoc) -> Value {
    json!({"key": key, "exit_code": doc.exit_code, "body": doc.body.clone()})
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(body: &str) -> Arc<CachedDoc> {
        Arc::new(CachedDoc {
            body: body.to_owned(),
            exit_code: 0,
        })
    }

    fn cache(budget: usize) -> ResultCache {
        ResultCache::new(budget, &Registry::new())
    }

    #[test]
    fn miss_reserves_then_hit_serves() {
        let c = cache(1024);
        assert!(matches!(c.lookup_or_reserve("k", 1), Lookup::Miss));
        // A racer coalesces onto job 1.
        match c.lookup_or_reserve("k", 2) {
            Lookup::InFlight(job) => assert_eq!(job, 1),
            other => panic!("expected coalesce, got {other:?}"),
        }
        c.fulfill("k", doc("result"));
        match c.lookup_or_reserve("k", 3) {
            Lookup::Hit { doc: d, .. } => assert_eq!(d.body, "result"),
            other => panic!("expected hit, got {other:?}"),
        }
        let stats = c.stats_json();
        assert_eq!(stats["hits"], 1u64);
        assert_eq!(stats["misses"], 1u64);
        assert_eq!(stats["coalesced"], 1u64);
        assert_eq!(stats["bytes"], 6u64);
    }

    #[test]
    fn abandon_reopens_the_key() {
        let c = cache(1024);
        assert!(matches!(c.lookup_or_reserve("k", 1), Lookup::Miss));
        c.abandon("k");
        assert!(matches!(c.lookup_or_reserve("k", 2), Lookup::Miss));
        // Abandon never drops a completed document.
        c.fulfill("k", doc("done"));
        c.abandon("k");
        assert!(matches!(c.lookup_or_reserve("k", 3), Lookup::Hit { .. }));
    }

    #[test]
    fn lru_eviction_respects_the_byte_budget() {
        let c = cache(10);
        for (key, body) in [("a", "aaaa"), ("b", "bbbb")] {
            assert!(matches!(c.lookup_or_reserve(key, 0), Lookup::Miss));
            c.fulfill(key, doc(body));
        }
        // Touch `a` so `b` is the LRU victim.
        assert!(matches!(c.lookup_or_reserve("a", 0), Lookup::Hit { .. }));
        assert!(matches!(c.lookup_or_reserve("c", 0), Lookup::Miss));
        c.fulfill("c", doc("cccc"));
        assert!(matches!(c.lookup_or_reserve("a", 0), Lookup::Hit { .. }));
        assert!(matches!(c.lookup_or_reserve("c", 0), Lookup::Hit { .. }));
        assert!(
            matches!(c.lookup_or_reserve("b", 9), Lookup::Miss),
            "b was evicted"
        );
        let stats = c.stats_json();
        assert_eq!(stats["evictions"], 1u64);
        assert!(stats["bytes"].as_u64().unwrap() <= 10);
    }

    #[test]
    fn documents_over_the_whole_budget_are_not_retained() {
        let c = cache(4);
        assert!(matches!(c.lookup_or_reserve("big", 0), Lookup::Miss));
        c.fulfill("big", doc("way too large"));
        assert!(matches!(c.lookup_or_reserve("big", 1), Lookup::Miss));
        assert_eq!(c.stats_json()["bytes"], 0u64);
    }

    #[test]
    fn oversized_replacement_releases_the_old_entrys_bytes() {
        // Regression: replacing a completed entry with a document too big
        // to retain must give the old bytes back — `bytes` reports live
        // entries, not a high-water mark.
        let c = cache(8);
        assert!(matches!(c.lookup_or_reserve("k", 0), Lookup::Miss));
        c.fulfill("k", doc("eight!!!"));
        assert_eq!(c.stats_json()["bytes"], 8u64);
        c.fulfill("k", doc("far more than the whole budget"));
        assert!(matches!(c.lookup_or_reserve("k", 1), Lookup::Miss));
        assert_eq!(c.stats_json()["bytes"], 0u64);
        assert_eq!(c.stats_json()["evictions"], 1u64);
    }

    /// The `journaled` flag of a hit on `key`, which the lookup then sets.
    fn hit_journaled(c: &ResultCache, key: &str) -> bool {
        match c.lookup_or_reserve(key, 0) {
            Lookup::Hit { journaled, .. } => journaled,
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn the_journaled_bit_follows_the_body_onto_the_journal() {
        let c = cache(1024);
        // A computed document is not journaled until the server says so;
        // the first hit claims it (that hit's record carries the body).
        assert!(matches!(c.lookup_or_reserve("a", 1), Lookup::Miss));
        c.fulfill("a", doc("alpha"));
        assert!(!hit_journaled(&c, "a"));
        assert!(hit_journaled(&c, "a"), "later hits refer to it");

        // The pool's mark lands only on the document it journaled.
        assert!(matches!(c.lookup_or_reserve("b", 2), Lookup::Miss));
        let journaled = doc("beta");
        c.fulfill("b", Arc::clone(&journaled));
        c.fulfill("b", doc("beta"));
        c.mark_journaled("b", &journaled);
        assert!(!hit_journaled(&c, "b"), "a replaced entry starts clear");

        let d = doc("gamma");
        c.fulfill("c", Arc::clone(&d));
        c.mark_journaled("c", &d);
        assert!(hit_journaled(&c, "c"));

        // Journal replay restores entries journaled.
        c.insert_journaled("d", doc("delta"));
        assert!(hit_journaled(&c, "d"));
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("selfstab-cache-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn snapshot_roundtrips_across_restart() {
        let path = tmp("roundtrip.snap");
        let _ = std::fs::remove_file(&path);
        {
            let c = ResultCache::with_snapshot(
                1024,
                &Registry::new(),
                &path,
                selfstab_campaign::FsyncPolicy::Always,
            )
            .unwrap();
            assert!(matches!(c.lookup_or_reserve("a", 0), Lookup::Miss));
            c.fulfill("a", doc("alpha"));
            assert!(matches!(c.lookup_or_reserve("b", 1), Lookup::Miss));
            c.fulfill("b", doc("beta"));
        }
        let reg = Registry::new();
        let c =
            ResultCache::with_snapshot(1024, &reg, &path, selfstab_campaign::FsyncPolicy::Always)
                .unwrap();
        match c.lookup_or_reserve("a", 0) {
            Lookup::Hit { doc: d, journaled } => {
                assert_eq!(d.body, "alpha");
                assert!(!journaled, "the snapshot is not the journal");
            }
            other => panic!("expected restored hit, got {other:?}"),
        }
        assert!(matches!(c.lookup_or_reserve("b", 0), Lookup::Hit { .. }));
        let stats = c.stats_json();
        assert_eq!(stats["snapshot_restored"], 2u64);
        assert_eq!(stats["bytes"], 9u64);
    }

    #[test]
    fn snapshot_replay_respects_the_budget_and_compacts() {
        let path = tmp("compaction.snap");
        let _ = std::fs::remove_file(&path);
        {
            let c = ResultCache::with_snapshot(
                1024,
                &Registry::new(),
                &path,
                selfstab_campaign::FsyncPolicy::Always,
            )
            .unwrap();
            for (k, b) in [("a", "aaaa"), ("b", "bbbb"), ("c", "cccc")] {
                assert!(matches!(c.lookup_or_reserve(k, 0), Lookup::Miss));
                c.fulfill(k, doc(b));
            }
        }
        // Reboot with a budget that only fits two entries: replay must
        // keep the most recently written (later-wins) and compact the
        // file to exactly the survivors.
        let c = ResultCache::with_snapshot(
            8,
            &Registry::new(),
            &path,
            selfstab_campaign::FsyncPolicy::Always,
        )
        .unwrap();
        assert!(matches!(c.lookup_or_reserve("a", 0), Lookup::Miss));
        c.abandon("a");
        assert!(matches!(c.lookup_or_reserve("b", 0), Lookup::Hit { .. }));
        assert!(matches!(c.lookup_or_reserve("c", 0), Lookup::Hit { .. }));
        drop(c);
        let frames = selfstab_campaign::journal::replay_frames(&path).unwrap();
        let keys: Vec<&str> = frames
            .events
            .iter()
            .filter_map(|e| e["key"].as_str())
            .collect();
        assert_eq!(keys, ["b", "c"], "compacted to survivors, oldest first");
    }

    #[test]
    fn torn_snapshot_tail_is_dropped_and_rewritten() {
        let path = tmp("torn.snap");
        let _ = std::fs::remove_file(&path);
        {
            let c = ResultCache::with_snapshot(
                1024,
                &Registry::new(),
                &path,
                selfstab_campaign::FsyncPolicy::Always,
            )
            .unwrap();
            assert!(matches!(c.lookup_or_reserve("a", 0), Lookup::Miss));
            c.fulfill("a", doc("alpha"));
            assert!(matches!(c.lookup_or_reserve("b", 1), Lookup::Miss));
            c.fulfill("b", doc("beta"));
        }
        // Tear the final record in half, as a crash mid-write would.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let c = ResultCache::with_snapshot(
            1024,
            &Registry::new(),
            &path,
            selfstab_campaign::FsyncPolicy::Always,
        )
        .unwrap();
        assert!(matches!(c.lookup_or_reserve("a", 0), Lookup::Hit { .. }));
        assert!(
            matches!(c.lookup_or_reserve("b", 0), Lookup::Miss),
            "the torn record is gone, not resurrected"
        );
        assert_eq!(c.stats_json()["snapshot_restored"], 1u64);
    }
}
