//! The fixed metric taxonomy: query phases, counters, and histograms.
//!
//! Everything is a small dense enum rather than a string key so recorders
//! can be arrays of atomics (no hashing, no allocation on the hot path) and
//! the snapshot schema stays stable across runs by construction.

/// A timed phase of the query pipeline (paper §4/§5 breakdown: where does a
/// query spend its time?).
///
/// Phases are *not* disjoint: [`Phase::Traversal`] spans the whole recursive
/// search, while the others time the individual operations it performs, so
/// `traversal ≥ node_read + vpage_read + lod_fetch` in wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// The whole recursive visibility search (outermost span).
    Traversal,
    /// Tree-node page reads and decodes.
    NodeRead,
    /// V-page fetches (segment lookups + record decode).
    VPageRead,
    /// Model retrieval: object LoDs and internal-LoD interpolation.
    LodFetch,
    /// Buffer-pool probes (hit or miss) in the shared read path.
    CacheProbe,
    /// Motion-vector / batched V-page prefetch work.
    Prefetch,
}

impl Phase {
    /// Number of phases.
    pub const COUNT: usize = 6;

    /// Every phase, in snapshot order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Traversal,
        Phase::NodeRead,
        Phase::VPageRead,
        Phase::LodFetch,
        Phase::CacheProbe,
        Phase::Prefetch,
    ];

    /// Stable snake_case name used in snapshot keys.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Traversal => "traversal",
            Phase::NodeRead => "node_read",
            Phase::VPageRead => "vpage_read",
            Phase::LodFetch => "lod_fetch",
            Phase::CacheProbe => "cache_probe",
            Phase::Prefetch => "prefetch",
        }
    }

    /// Dense index into recorder arrays.
    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

/// A monotonically increasing event counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Buffer-pool hits (shared read path): one per pool probe that finds
    /// its page resident. A query probes a V-page disk page once per run
    /// of consecutive records it reads from that page, so the run's repeat
    /// reads count no hit.
    PoolHits,
    /// Buffer-pool misses (shared read path).
    PoolMisses,
    /// Visibility queries executed.
    Queries,
    /// Tree nodes visited by queries.
    NodesVisited,
    /// V-pages fetched by queries.
    VPagesFetched,
    /// Walkthrough sessions driven to completion.
    SessionsCompleted,
    /// Simulated page reads charged to sessions.
    SessionPageReads,
    /// Disk pages warmed by motion prefetch.
    PrefetchedPages,
    /// Frame-overlay lookups served by an already-decoded object.
    DecodeHits,
    /// Frame-overlay lookups that had to run the decoder.
    DecodeMisses,
    /// Page bytes the zero-copy frame path did not memcpy (vs a copying
    /// read): one page per pool probe of a frame or page run. A query
    /// probes a V-page disk page once per run of consecutive records it
    /// reads from that page.
    BytesCopiedSaved,
    /// Pages whose bytes failed checksum verification at frame admission.
    ChecksumFailures,
    /// Transient read failures retried (one per failed, retried attempt).
    ReadRetries,
    /// Queries that absorbed at least one read error via LoD fallback.
    DegradedQueries,
    /// Subtrees served as an ancestor's internal LoD after read failures.
    LodFallbacks,
    /// Subtrees served as internal LoDs because a query budget ran out.
    BudgetStops,
    /// η-controller moves toward a coarser (cheaper) threshold.
    EtaRaises,
    /// η-controller moves toward a finer (costlier) threshold.
    EtaDrops,
    /// Sessions denied admission and served the root's internal LoD.
    ShedSessions,
    /// Frames whose simulated frame time exceeded the session deadline.
    FrameDeadlineMiss,
    /// Coalesced prefetch runs issued (one per maximal contiguous V-page
    /// run handed to the pool's vectored warm path).
    PrefetchRuns,
    /// Physical read operations issued to the OS by the file backend (one
    /// per `pread` call; always 0 on the mem backend). With run coalescing, a cold contiguous run costs one.
    PhysReads,
    /// WAL records appended (page images and commit markers).
    WalAppends,
    /// Transactions durably committed through the write path.
    Commits,
    /// Pages copied into the shadow area by copy-on-write commits.
    CowPages,
    /// DoV cells recomputed by incremental visibility re-patching.
    DovRepatches,
    /// Raw (uncompressed) bytes of V-page records appended to stores:
    /// `4 + 8·entries` per record, before codec and slot padding.
    VpageBytesRaw,
    /// Encoded bytes of V-page records appended to stores (pre-padding).
    /// Equals `VpageBytesRaw` under the raw codec; smaller under delta.
    VpageBytesEncoded,
    /// V-page record decodes executed (single-record reads and batch
    /// overlay decodes both count per record decoded).
    CodecDecodes,
    /// Page reads served by a non-primary replica after the primary failed
    /// (checksum mismatch or exhausted retries) or was quarantined.
    FailoverReads,
    /// Replica pages rewritten in place from a verified healthy copy
    /// (failover-path and scrubber repairs both count).
    PagesRepaired,
    /// Pages verified by scrubber sweeps (one per page per replica scanned).
    ScrubPages,
    /// Corrupt pages found and repaired by the scrubber specifically.
    ScrubRepairs,
    /// Pages quarantined after a checksum failure (first quarantine of a
    /// `(replica, page)` pair; repaired pages leave quarantine).
    QuarantinedPages,
    /// Shard sub-queries abandoned because they exceeded the router's
    /// per-request deadline.
    ShardTimeouts,
    /// Circuit-breaker transitions from closed (or half-open) to open.
    BreakerOpens,
    /// Frames in which at least one shard's tiles were served coarse
    /// because the shard was tripped, timed out, or failed.
    ShardDegradedFrames,
    /// Pool misses on a file store served by sharing the store's frame of
    /// the page's twin class (pages with byte-identical contents): no
    /// physical read, copy or hash.
    TwinCopies,
}

impl Counter {
    /// Number of counters.
    pub const COUNT: usize = 38;

    /// Every counter, in snapshot order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::PoolHits,
        Counter::PoolMisses,
        Counter::Queries,
        Counter::NodesVisited,
        Counter::VPagesFetched,
        Counter::SessionsCompleted,
        Counter::SessionPageReads,
        Counter::PrefetchedPages,
        Counter::DecodeHits,
        Counter::DecodeMisses,
        Counter::BytesCopiedSaved,
        Counter::ChecksumFailures,
        Counter::ReadRetries,
        Counter::DegradedQueries,
        Counter::LodFallbacks,
        Counter::BudgetStops,
        Counter::EtaRaises,
        Counter::EtaDrops,
        Counter::ShedSessions,
        Counter::FrameDeadlineMiss,
        Counter::PrefetchRuns,
        Counter::PhysReads,
        Counter::WalAppends,
        Counter::Commits,
        Counter::CowPages,
        Counter::DovRepatches,
        Counter::VpageBytesRaw,
        Counter::VpageBytesEncoded,
        Counter::CodecDecodes,
        Counter::FailoverReads,
        Counter::PagesRepaired,
        Counter::ScrubPages,
        Counter::ScrubRepairs,
        Counter::QuarantinedPages,
        Counter::ShardTimeouts,
        Counter::BreakerOpens,
        Counter::ShardDegradedFrames,
        Counter::TwinCopies,
    ];

    /// Stable snake_case name used in snapshot keys.
    pub fn name(self) -> &'static str {
        match self {
            Counter::PoolHits => "pool_hits",
            Counter::PoolMisses => "pool_misses",
            Counter::Queries => "queries",
            Counter::NodesVisited => "nodes_visited",
            Counter::VPagesFetched => "vpages_fetched",
            Counter::SessionsCompleted => "sessions_completed",
            Counter::SessionPageReads => "session_page_reads",
            Counter::PrefetchedPages => "prefetched_pages",
            Counter::DecodeHits => "decode_hits",
            Counter::DecodeMisses => "decode_misses",
            Counter::BytesCopiedSaved => "bytes_copied_saved",
            Counter::ChecksumFailures => "checksum_failures",
            Counter::ReadRetries => "read_retries",
            Counter::DegradedQueries => "degraded_queries",
            Counter::LodFallbacks => "lod_fallbacks",
            Counter::BudgetStops => "budget_stops",
            Counter::EtaRaises => "eta_raises",
            Counter::EtaDrops => "eta_drops",
            Counter::ShedSessions => "shed_sessions",
            Counter::FrameDeadlineMiss => "frame_deadline_miss",
            Counter::PrefetchRuns => "prefetch_runs",
            Counter::PhysReads => "phys_reads",
            Counter::WalAppends => "wal_appends",
            Counter::Commits => "commits",
            Counter::CowPages => "cow_pages",
            Counter::DovRepatches => "dov_repatches",
            Counter::VpageBytesRaw => "vpage_bytes_raw",
            Counter::VpageBytesEncoded => "vpage_bytes_encoded",
            Counter::CodecDecodes => "codec_decodes",
            Counter::FailoverReads => "failover_reads",
            Counter::PagesRepaired => "pages_repaired",
            Counter::ScrubPages => "scrub_pages",
            Counter::ScrubRepairs => "scrub_repairs",
            Counter::QuarantinedPages => "quarantined_pages",
            Counter::ShardTimeouts => "shard_timeouts",
            Counter::BreakerOpens => "breaker_opens",
            Counter::ShardDegradedFrames => "shard_degraded_frames",
            Counter::TwinCopies => "twin_copies",
        }
    }

    /// Dense index into recorder arrays.
    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

/// A built-in histogram. Names carry a `sim_` or `wall_` prefix so the CI
/// gate's tolerance file can ignore wall-clock distributions wholesale
/// (simulated distributions are deterministic; wall ones are not).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Hist {
    /// Simulated per-query search latency, microseconds.
    SimSearchUs,
    /// Wall-clock per-query search latency, nanoseconds.
    WallSearchNs,
    /// Simulated end-to-end frame time, nanoseconds (derived from the
    /// deterministic cost model, never a wall clock).
    SimFrameTimeNs,
}

impl Hist {
    /// Number of histograms.
    pub const COUNT: usize = 3;

    /// Every histogram, in snapshot order.
    pub const ALL: [Hist; Hist::COUNT] =
        [Hist::SimSearchUs, Hist::WallSearchNs, Hist::SimFrameTimeNs];

    /// Stable snake_case name used in snapshot keys.
    pub fn name(self) -> &'static str {
        match self {
            Hist::SimSearchUs => "sim_search_us",
            Hist::WallSearchNs => "wall_search_ns",
            Hist::SimFrameTimeNs => "sim_frame_time_ns",
        }
    }

    /// Dense index into recorder arrays.
    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_names_unique() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, h) in Hist::ALL.iter().enumerate() {
            assert_eq!(h.index(), i);
        }
        let mut names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        names.extend(Counter::ALL.iter().map(|c| c.name()));
        names.extend(Hist::ALL.iter().map(|h| h.name()));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "metric names must be unique");
    }
}
