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
//! **Owning jobs.** Each completed entry names the job whose `done`
//! result it holds, so a hit is a read: it answers with that job's id, as
//! a coalesced submit answers with the id of the job computing the key.
//! [`ResultCache::fulfill`] names the job that computed the document, and
//! journal replay the job that the journal restored with it. A snapshot
//! entry names no job; the first lookup that finds it names the caller's
//! job instead ([`Lookup::Adopted`]), and that caller makes the job
//! resolve (and journals it) before any other submit can see the name.

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
    /// A completed document, the result of job `job`: answer with that
    /// id, enqueue nothing.
    Hit { job: u64, doc: Arc<CachedDoc> },
    /// A completed document that no job named (restored from the
    /// snapshot): the lookup named the caller's freshly minted `job` its
    /// owner, and the caller makes that job resolve to `doc`.
    Adopted { job: u64, doc: Arc<CachedDoc> },
    /// Another request is already computing this key; the id is that
    /// request's job. Coalesce onto it, enqueue nothing.
    InFlight(u64),
    /// Nothing cached; the key is now reserved for the caller's freshly
    /// minted `job`.
    Miss(u64),
}

enum Entry {
    Done {
        doc: Arc<CachedDoc>,
        bytes: usize,
        last_used: u64,
        /// The job whose result this is; `None` for a snapshot entry that
        /// no lookup has adopted yet.
        job: Option<u64>,
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
            let doc = Arc::new(CachedDoc {
                body: body.to_owned(),
                exit_code: code as u8,
            });
            cache.insert(key, doc, None, false);
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

    /// Inserts the result of job `job`, which the job journal replayed,
    /// without touching the snapshot file (the journal already holds
    /// these bytes durably). Budget enforcement is identical to
    /// [`ResultCache::fulfill`].
    pub(crate) fn insert_journaled(&self, key: &str, doc: Arc<CachedDoc>, job: u64) {
        self.insert(key, doc, Some(job), false);
    }

    /// Looks up `key`. A completed entry is a hit on the job it names, or
    /// is adopted by a job `mint` numbers when it names none; on a miss,
    /// the key is atomically reserved for a job `mint` numbers, so
    /// concurrent identical submits coalesce instead of duplicating work.
    /// `mint` runs under the cache lock, at most once.
    pub fn lookup_or_reserve(&self, key: &str, mint: impl FnOnce() -> u64) -> Lookup {
        let mut inner = self.inner.lock().expect("cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        match inner.entries.get_mut(key) {
            Some(Entry::Done {
                doc,
                last_used,
                job,
                ..
            }) => {
                *last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                let doc = Arc::clone(doc);
                match *job {
                    Some(job) => Lookup::Hit { job, doc },
                    None => Lookup::Adopted {
                        job: *job.insert(mint()),
                        doc,
                    },
                }
            }
            Some(Entry::InFlight { job }) => {
                self.coalesced.fetch_add(1, Ordering::Relaxed);
                Lookup::InFlight(*job)
            }
            None => {
                let job = mint();
                inner
                    .entries
                    .insert(key.to_owned(), Entry::InFlight { job });
                self.misses.fetch_add(1, Ordering::Relaxed);
                Lookup::Miss(job)
            }
        }
    }

    /// Resolves the in-flight reservation with job `job`'s completed
    /// document and names `job` its owner, so later hits answer with its
    /// id: the caller publishes the job as done (journaled, when a
    /// journal is configured) first. Enforces the byte budget (evicting
    /// least-recently-used completed entries; a document larger than the
    /// whole budget is simply not retained). With a snapshot configured,
    /// the document is also written through as a CRC-framed record.
    pub fn fulfill(&self, key: &str, doc: Arc<CachedDoc>, job: u64) {
        self.insert(key, doc, Some(job), true);
    }

    /// The shared insert path. Only a computed document is written
    /// through to the snapshot (a replayed one would double every record
    /// at boot).
    fn insert(&self, key: &str, doc: Arc<CachedDoc>, job: Option<u64>, write_through: bool) {
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
        if write_through {
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
                job,
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
        assert!(matches!(c.lookup_or_reserve("k", || 1), Lookup::Miss(1)));
        // A racer coalesces onto job 1.
        match c.lookup_or_reserve("k", || 2) {
            Lookup::InFlight(job) => assert_eq!(job, 1),
            other => panic!("expected coalesce, got {other:?}"),
        }
        c.fulfill("k", doc("result"), 1);
        match c.lookup_or_reserve("k", || 3) {
            Lookup::Hit { job, doc: d } => assert_eq!((job, d.body.as_str()), (1, "result")),
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
        assert!(matches!(c.lookup_or_reserve("k", || 1), Lookup::Miss(_)));
        c.abandon("k");
        assert!(matches!(c.lookup_or_reserve("k", || 2), Lookup::Miss(_)));
        // Abandon never drops a completed document.
        c.fulfill("k", doc("done"), 2);
        c.abandon("k");
        assert!(matches!(c.lookup_or_reserve("k", || 3), Lookup::Hit { .. }));
    }

    #[test]
    fn lru_eviction_respects_the_byte_budget() {
        let c = cache(10);
        for (key, body) in [("a", "aaaa"), ("b", "bbbb")] {
            assert!(matches!(c.lookup_or_reserve(key, || 0), Lookup::Miss(_)));
            c.fulfill(key, doc(body), 0);
        }
        // Touch `a` so `b` is the LRU victim.
        assert!(matches!(c.lookup_or_reserve("a", || 0), Lookup::Hit { .. }));
        assert!(matches!(c.lookup_or_reserve("c", || 0), Lookup::Miss(_)));
        c.fulfill("c", doc("cccc"), 0);
        assert!(matches!(c.lookup_or_reserve("a", || 0), Lookup::Hit { .. }));
        assert!(matches!(c.lookup_or_reserve("c", || 0), Lookup::Hit { .. }));
        assert!(
            matches!(c.lookup_or_reserve("b", || 9), Lookup::Miss(_)),
            "b was evicted"
        );
        let stats = c.stats_json();
        assert_eq!(stats["evictions"], 1u64);
        assert!(stats["bytes"].as_u64().unwrap() <= 10);
    }

    #[test]
    fn documents_over_the_whole_budget_are_not_retained() {
        let c = cache(4);
        assert!(matches!(c.lookup_or_reserve("big", || 0), Lookup::Miss(_)));
        c.fulfill("big", doc("way too large"), 0);
        assert!(matches!(c.lookup_or_reserve("big", || 1), Lookup::Miss(_)));
        assert_eq!(c.stats_json()["bytes"], 0u64);
    }

    #[test]
    fn oversized_replacement_releases_the_old_entrys_bytes() {
        // Regression: replacing a completed entry with a document too big
        // to retain must give the old bytes back — `bytes` reports live
        // entries, not a high-water mark.
        let c = cache(8);
        assert!(matches!(c.lookup_or_reserve("k", || 0), Lookup::Miss(_)));
        c.fulfill("k", doc("eight!!!"), 0);
        assert_eq!(c.stats_json()["bytes"], 8u64);
        c.fulfill("k", doc("far more than the whole budget"), 0);
        assert!(matches!(c.lookup_or_reserve("k", || 1), Lookup::Miss(_)));
        assert_eq!(c.stats_json()["bytes"], 0u64);
        assert_eq!(c.stats_json()["evictions"], 1u64);
    }

    /// The owning job a hit on `key` answers with; the hit mints no id.
    fn hit_owner(c: &ResultCache, key: &str) -> u64 {
        match c.lookup_or_reserve(key, || panic!("a hit on {key} minted an id")) {
            Lookup::Hit { job, .. } => job,
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn each_entry_names_the_job_that_owns_it() {
        let c = cache(1024);
        // A computed document names the job that computed it, for every
        // hit after it.
        assert!(matches!(c.lookup_or_reserve("a", || 1), Lookup::Miss(1)));
        c.fulfill("a", doc("alpha"), 1);
        assert_eq!(hit_owner(&c, "a"), 1);
        assert_eq!(hit_owner(&c, "a"), 1);

        // A replacing document names its own job.
        c.fulfill("a", doc("alpha"), 2);
        assert_eq!(hit_owner(&c, "a"), 2);

        // Journal replay names the job the journal restored.
        c.insert_journaled("d", doc("delta"), 9);
        assert_eq!(hit_owner(&c, "d"), 9);
        assert_eq!(c.stats_json()["hits"], 4u64);
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
            assert!(matches!(c.lookup_or_reserve("a", || 0), Lookup::Miss(_)));
            c.fulfill("a", doc("alpha"), 0);
            assert!(matches!(c.lookup_or_reserve("b", || 1), Lookup::Miss(_)));
            c.fulfill("b", doc("beta"), 0);
        }
        let reg = Registry::new();
        let c =
            ResultCache::with_snapshot(1024, &reg, &path, selfstab_campaign::FsyncPolicy::Always)
                .unwrap();
        // A restored entry names no job: the first lookup adopts it for
        // the job it mints, and later hits answer with that job.
        match c.lookup_or_reserve("a", || 7) {
            Lookup::Adopted { job, doc: d } => assert_eq!((job, d.body.as_str()), (7, "alpha")),
            other => panic!("expected an adopted hit, got {other:?}"),
        }
        assert_eq!(hit_owner(&c, "a"), 7);
        assert!(matches!(
            c.lookup_or_reserve("b", || 8),
            Lookup::Adopted { job: 8, .. }
        ));
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
                assert!(matches!(c.lookup_or_reserve(k, || 0), Lookup::Miss(_)));
                c.fulfill(k, doc(b), 0);
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
        assert!(matches!(c.lookup_or_reserve("a", || 0), Lookup::Miss(_)));
        c.abandon("a");
        assert!(matches!(
            c.lookup_or_reserve("b", || 0),
            Lookup::Adopted { .. }
        ));
        assert!(matches!(
            c.lookup_or_reserve("c", || 0),
            Lookup::Adopted { .. }
        ));
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
            assert!(matches!(c.lookup_or_reserve("a", || 0), Lookup::Miss(_)));
            c.fulfill("a", doc("alpha"), 0);
            assert!(matches!(c.lookup_or_reserve("b", || 1), Lookup::Miss(_)));
            c.fulfill("b", doc("beta"), 0);
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
        assert!(matches!(
            c.lookup_or_reserve("a", || 0),
            Lookup::Adopted { .. }
        ));
        assert!(
            matches!(c.lookup_or_reserve("b", || 0), Lookup::Miss(_)),
            "the torn record is gone, not resurrected"
        );
        assert_eq!(c.stats_json()["snapshot_restored"], 1u64);
    }
}
