//! In-process sampling profiler over the span stack.
//!
//! Aggregate spans say how long each phase took *in total*; the sampling
//! profiler says **where wall time concentrates** while costing nothing
//! when it is off. Every thread that opens a [`crate::span()`] maintains a
//! lock-free, seqlock-published mirror of its open-span stack
//! (`ThreadStack`); the background [`crate::Ticker`] thread
//! periodically snapshots every registered thread's stack into bounded
//! per-thread ring buffers (drop-oldest, accounted by the
//! `profiler.dropped_samples` counter) and, on [`crate::Ticker::stop`],
//! folds the samples into collapsed-stack form (`a;b;c <count>`), ready
//! for `flamegraph.pl` or speedscope and the manifest's `profile`
//! section.
//!
//! ## Cost contract
//!
//! - **Off (the default):** span guards pay one relaxed atomic load and
//!   a branch per push/pop — stack publishing only arms when the first
//!   profiling [`crate::Ticker`] starts, and stays armed for the process
//!   lifetime so a mid-run stop/start can never tear stack prefixes.
//! - **On:** push/pop additionally write the thread-owned seqlock'd
//!   frame array (a handful of relaxed stores on the thread's own cache
//!   line) and intern the (static) span name once per push. Nothing in
//!   the hot path blocks on the ticker thread.
//! - **Snapshots are observation-only:** a reader that races a writer
//!   retries a few times and then *skips* the sample (counted by
//!   `profiler.torn_snapshots`), so a published stack is always a
//!   prefix-valid span path — never a torn mixture of two states.
//!
//! Worker threads spawned by `parallel_map` adopt their parent's span
//! path ([`crate::span::adopt`]); the adopted base is published to the
//! mirror too, so worker samples fold under the same hierarchical stack
//! a serial run would produce.
//!
//! Arm the profiler (*start a profiling ticker*) before opening the spans
//! it should see: spans already open when the first one starts are
//! invisible to the mirror (their pops are ignored by saturation, so
//! later samples stay prefix-valid, merely shallower). The bench harness
//! starts its ticker before its root span, which satisfies this.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Maximum stack depth mirrored per thread; deeper nesting is recorded
/// truncated (the true depth keeps counting, so pops stay balanced and
/// samples of an over-deep stack are skipped rather than mis-attributed).
pub const MAX_FRAMES: usize = 32;

// ---------------------------------------------------------------------------
// Static-name interning
// ---------------------------------------------------------------------------
//
// Frames are mirrored as small integer ids instead of `&'static str`
// fat pointers: a torn or stale id resolves to `None` (the sample is
// skipped) instead of becoming an out-of-thin-air reference, so the
// whole mirror stays safe Rust.

struct Interner {
    /// Keyed by the *address* of the static string (distinct literals
    /// with equal text fold to the same name at fold time anyway).
    ids: HashMap<(usize, usize), u32>,
    names: Vec<&'static str>,
}

fn interner() -> &'static Mutex<Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        Mutex::new(Interner {
            ids: HashMap::new(),
            names: Vec::new(),
        })
    })
}

fn intern(name: &'static str) -> u32 {
    let mut i = interner().lock().expect("name interner poisoned");
    let key = (name.as_ptr() as usize, name.len());
    if let Some(&id) = i.ids.get(&key) {
        return id;
    }
    let id = u32::try_from(i.names.len()).expect("interned name count fits u32");
    i.names.push(name);
    i.ids.insert(key, id);
    id
}

fn resolve(id: u32) -> Option<&'static str> {
    interner()
        .lock()
        .expect("name interner poisoned")
        .names
        .get(id as usize)
        .copied()
}

// ---------------------------------------------------------------------------
// Per-thread mirrored stack (single writer, seqlock-validated readers)
// ---------------------------------------------------------------------------

/// One thread's published span stack. Written only by the owning thread
/// (push/pop/adopt), read by the ticker thread through the seqlock.
pub(crate) struct ThreadStack {
    /// Dense per-thread id keying this thread's sample ring.
    tid: u64,
    /// Seqlock version: odd while the owner is mid-update.
    version: AtomicU64,
    /// True stack depth (may exceed [`MAX_FRAMES`]).
    depth: AtomicUsize,
    /// Interned frame ids, valid up to `min(depth, MAX_FRAMES)`.
    frames: [AtomicU32; MAX_FRAMES],
    /// Adopted base path (slash-separated), for `parallel_map` workers.
    base: Mutex<Option<String>>,
    /// Set when the owning thread exits; the ticker prunes dead stacks.
    dead: AtomicBool,
}

impl ThreadStack {
    fn new(tid: u64) -> ThreadStack {
        ThreadStack {
            tid,
            version: AtomicU64::new(0),
            depth: AtomicUsize::new(0),
            frames: std::array::from_fn(|_| AtomicU32::new(0)),
            base: Mutex::new(None),
            dead: AtomicBool::new(false),
        }
    }

    /// Begin an owner-side update (version goes odd).
    fn begin_write(&self) -> u64 {
        let v = self.version.load(Ordering::Relaxed);
        self.version.store(v.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        v
    }

    /// Finish an owner-side update (version returns even).
    fn end_write(&self, v: u64) {
        self.version.store(v.wrapping_add(2), Ordering::Release);
    }

    fn push(&self, id: u32) {
        let v = self.begin_write();
        let d = self.depth.load(Ordering::Relaxed);
        if d < MAX_FRAMES {
            self.frames[d].store(id, Ordering::Relaxed);
        }
        self.depth.store(d + 1, Ordering::Relaxed);
        self.end_write(v);
    }

    fn pop(&self) {
        let v = self.begin_write();
        let d = self.depth.load(Ordering::Relaxed);
        // Saturate: a pop of a span pushed before the profiler armed has
        // no mirrored frame to remove.
        self.depth.store(d.saturating_sub(1), Ordering::Relaxed);
        self.end_write(v);
    }

    fn set_base(&self, base: Option<String>) {
        let v = self.begin_write();
        *self.base.lock().expect("thread-stack base poisoned") = base;
        self.end_write(v);
    }

    /// Seqlock read: a consistent `(base, frame ids)` snapshot, or
    /// `None` after a few racing retries (the caller skips the sample)
    /// or when the stack was deeper than [`MAX_FRAMES`] at sample time.
    fn sample(&self) -> Option<(Option<String>, Vec<u32>)> {
        for _ in 0..4 {
            let v1 = self.version.load(Ordering::Acquire);
            if v1 % 2 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let base = self
                .base
                .lock()
                .expect("thread-stack base poisoned")
                .clone();
            let depth = self.depth.load(Ordering::Relaxed);
            let ids: Vec<u32> = self.frames[..depth.min(MAX_FRAMES)]
                .iter()
                .map(|f| f.load(Ordering::Relaxed))
                .collect();
            fence(Ordering::Acquire);
            if self.version.load(Ordering::Relaxed) != v1 {
                continue;
            }
            if depth > MAX_FRAMES {
                crate::counter("profiler.truncated_snapshots").inc();
                return None;
            }
            return Some((base, ids));
        }
        crate::counter("profiler.torn_snapshots").inc();
        None
    }
}

// ---------------------------------------------------------------------------
// Registry of live thread stacks + span-guard hooks
// ---------------------------------------------------------------------------

/// Armed once the first profiling ticker starts; never disarmed (see
/// the module docs for why stickiness matters).
static ACTIVE: AtomicBool = AtomicBool::new(false);

/// Arms span-stack mirroring process-wide (sticky).
pub(crate) fn arm() {
    ACTIVE.store(true, Ordering::Release);
}

fn threads() -> &'static Mutex<Vec<Arc<ThreadStack>>> {
    static THREADS: OnceLock<Mutex<Vec<Arc<ThreadStack>>>> = OnceLock::new();
    THREADS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Marks the stack dead when the owning thread's TLS is torn down.
struct Registration {
    stack: Arc<ThreadStack>,
}

impl Drop for Registration {
    fn drop(&mut self) {
        self.stack.dead.store(true, Ordering::Release);
    }
}

/// Source of the dense per-thread ids that key the sample rings.
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static MY_STACK: std::cell::RefCell<Option<Registration>> =
        const { std::cell::RefCell::new(None) };
}

fn with_stack(f: impl FnOnce(&ThreadStack)) {
    // `try_with` so span guards dropping during thread teardown (after
    // TLS destruction) degrade to a no-op instead of aborting.
    let _ = MY_STACK.try_with(|cell| {
        let mut slot = cell.borrow_mut();
        let reg = slot.get_or_insert_with(|| {
            let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            let stack = Arc::new(ThreadStack::new(tid));
            threads()
                .lock()
                .expect("thread-stack registry poisoned")
                .push(Arc::clone(&stack));
            Registration { stack }
        });
        f(&reg.stack);
    });
}

/// Span-guard hook: mirrors a span push. One relaxed load when no
/// profiler ever armed.
pub(crate) fn stack_push(name: &'static str) {
    if !ACTIVE.load(Ordering::Relaxed) {
        return;
    }
    let id = intern(name);
    with_stack(|s| s.push(id));
}

/// Span-guard hook: mirrors a span pop.
pub(crate) fn stack_pop() {
    if !ACTIVE.load(Ordering::Relaxed) {
        return;
    }
    with_stack(ThreadStack::pop);
}

/// Adopt hook: publishes (or restores) a worker's base span path.
pub(crate) fn stack_set_base(base: Option<&str>) {
    if !ACTIVE.load(Ordering::Relaxed) {
        return;
    }
    let owned = base.map(str::to_owned);
    with_stack(|s| s.set_base(owned.clone()));
}

// ---------------------------------------------------------------------------
// Stack samples and their folding
// ---------------------------------------------------------------------------

/// One recorded stack sample (interned base + frame ids).
struct SampleRec {
    /// Id into the run-local base-path interner.
    base: Option<u32>,
    frames: Vec<u32>,
}

/// The folded result of one profiling run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Profile {
    /// Sampling cadence the run was started with, Hz.
    pub hz: u32,
    /// Samples retained (the folded counts sum to this).
    pub samples: u64,
    /// Samples discarded because a per-thread ring overflowed
    /// (drop-oldest; also published as `profiler.dropped_samples`).
    pub dropped: u64,
    /// Threads that contributed at least one sample.
    pub threads: u64,
    /// Collapsed stacks: `a;b;c` → sample count.
    pub folded: BTreeMap<String, u64>,
}

impl Profile {
    /// Renders the canonical collapsed-stack text form, one
    /// `stack count` line per distinct stack, sorted by stack.
    #[must_use]
    pub fn folded_text(&self) -> String {
        let mut out = String::new();
        for (stack, count) in &self.folded {
            out.push_str(stack);
            out.push(' ');
            out.push_str(&count.to_string());
            out.push('\n');
        }
        out
    }

    /// Parses collapsed-stack text back into a folded map (duplicate
    /// stacks accumulate). The inverse of [`Profile::folded_text`].
    ///
    /// # Errors
    ///
    /// Rejects lines without a trailing integer count, naming the line.
    pub fn parse_folded(text: &str) -> Result<BTreeMap<String, u64>, String> {
        let mut folded = BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            let (stack, count) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("line {}: no sample count in `{line}`", i + 1))?;
            let count: u64 = count
                .parse()
                .map_err(|_| format!("line {}: bad sample count `{count}`", i + 1))?;
            *folded.entry(stack.to_owned()).or_insert(0) += count;
        }
        Ok(folded)
    }

    /// Builds the manifest's `profile` section: the `top_k` hottest
    /// stacks (0 = all) plus per-phase self/total sample shares derived
    /// from the folded stacks (a phase's *total* share counts every
    /// sample whose stack passes through it; its *self* share counts
    /// samples whose stack ends exactly there).
    #[must_use]
    pub fn to_section(&self, top_k: usize) -> crate::manifest::ProfileSection {
        let total: u64 = self.folded.values().sum();
        let share = |count: u64| {
            if total == 0 {
                0.0
            } else {
                count as f64 / total as f64
            }
        };
        let mut hot: Vec<(&String, &u64)> = self.folded.iter().collect();
        hot.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.cmp(b.0)));
        let take = if top_k == 0 { hot.len() } else { top_k };
        let hot_stacks = hot
            .into_iter()
            .take(take)
            .map(|(stack, &count)| crate::manifest::HotStack {
                stack: stack.clone(),
                count,
                share: share(count),
            })
            .collect();

        let mut self_counts: BTreeMap<String, u64> = BTreeMap::new();
        let mut total_counts: BTreeMap<String, u64> = BTreeMap::new();
        for (stack, &count) in &self.folded {
            let mut path = String::new();
            for frame in stack.split(';') {
                if !path.is_empty() {
                    path.push('/');
                }
                path.push_str(frame);
                *total_counts.entry(path.clone()).or_insert(0) += count;
            }
            *self_counts.entry(path).or_insert(0) += count;
        }
        let phases = total_counts
            .iter()
            .map(|(path, &tc)| crate::manifest::PhaseShare {
                path: path.clone(),
                self_share: share(self_counts.get(path).copied().unwrap_or(0)),
                total_share: share(tc),
            })
            .collect();

        crate::manifest::ProfileSection {
            hz: u64::from(self.hz),
            samples: self.samples,
            dropped: self.dropped,
            threads: self.threads,
            hot_stacks,
            phases,
        }
    }
}

/// The span-stack half of a [`crate::Ticker`]: bounded drop-oldest
/// rings of stack samples, one per thread, folded into a [`Profile`]
/// when the ticker stops.
pub(crate) struct StackRings {
    hz: u32,
    capacity: usize,
    rings: BTreeMap<u64, VecDeque<SampleRec>>,
    /// Run-local interner of adopted base paths.
    bases: Vec<String>,
    base_ids: HashMap<String, u32>,
    dropped: u64,
}

impl StackRings {
    pub(crate) fn new(hz: u32, capacity: usize) -> StackRings {
        StackRings {
            hz,
            capacity: capacity.max(1),
            rings: BTreeMap::new(),
            bases: Vec::new(),
            base_ids: HashMap::new(),
            dropped: 0,
        }
    }

    /// One profile tick: snapshot every live stack, record non-empty
    /// samples, track the loss counters and the sampled-RSS max gauge.
    pub(crate) fn tick(&mut self) {
        let stacks: Vec<Arc<ThreadStack>> = {
            let mut list = threads().lock().expect("thread-stack registry poisoned");
            // Dead threads can never publish again; their retained
            // samples already live in these rings.
            list.retain(|s| !s.dead.load(Ordering::Acquire));
            list.clone()
        };
        for stack in stacks {
            let Some((base, frames)) = stack.sample() else {
                continue;
            };
            if base.is_none() && frames.is_empty() {
                continue; // outside all spans: nothing to attribute
            }
            let base = base.map(|b| match self.base_ids.get(&b) {
                Some(&id) => id,
                None => {
                    let id = u32::try_from(self.bases.len()).expect("base count fits u32");
                    self.base_ids.insert(b.clone(), id);
                    self.bases.push(b);
                    id
                }
            });
            let ring = self.rings.entry(stack.tid).or_default();
            if ring.len() >= self.capacity {
                ring.pop_front();
                self.dropped += 1;
                crate::counter("profiler.dropped_samples").inc();
            }
            ring.push_back(SampleRec { base, frames });
        }
        crate::counter("profiler.ticks").inc();
        // Satellite of the same tick: the true transient RSS peak, not
        // just the end-of-run procfs high-water mark.
        let rss = crate::rss::current_rss_bytes();
        if rss > 0 {
            crate::gauge("rss.sampled_peak_bytes").set_max(rss);
        }
    }

    /// Folds the retained samples into collapsed stacks.
    pub(crate) fn fold(self) -> Profile {
        let mut folded: BTreeMap<String, u64> = BTreeMap::new();
        let mut samples = 0u64;
        let mut threads_seen = 0u64;
        for ring in self.rings.values() {
            let mut contributed = false;
            'rec: for rec in ring {
                let mut key = String::new();
                if let Some(b) = rec.base {
                    // Base paths are slash-separated span hierarchies;
                    // re-split so folded frames stay one span per frame.
                    for frame in self.bases[b as usize].split('/') {
                        if !key.is_empty() {
                            key.push(';');
                        }
                        key.push_str(frame);
                    }
                }
                for &id in &rec.frames {
                    let Some(name) = resolve(id) else {
                        continue 'rec; // torn id: skip, never mis-attribute
                    };
                    if !key.is_empty() {
                        key.push(';');
                    }
                    key.push_str(name);
                }
                if key.is_empty() {
                    continue;
                }
                *folded.entry(key).or_insert(0) += 1;
                samples += 1;
                contributed = true;
            }
            if contributed {
                threads_seen += 1;
            }
        }
        // Publish the retained/dropped totals so the manifest and the
        // --metrics-table footer can report the loss channel even when
        // the folded output goes unexported.
        crate::counter("profiler.samples").record_absolute(samples);
        crate::counter("profiler.dropped_samples").record_absolute(self.dropped);
        Profile {
            hz: self.hz,
            samples,
            dropped: self.dropped,
            threads: threads_seen,
            folded,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interner_is_stable_and_total() {
        let a = intern("profiler-test-a");
        let b = intern("profiler-test-b");
        assert_ne!(a, b);
        assert_eq!(intern("profiler-test-a"), a, "same static str, same id");
        assert_eq!(resolve(a), Some("profiler-test-a"));
        assert_eq!(resolve(u32::MAX), None, "unknown ids resolve to None");
    }

    #[test]
    fn thread_stack_push_pop_sample() {
        let s = ThreadStack::new(7);
        let a = intern("ts-a");
        let b = intern("ts-b");
        s.push(a);
        s.push(b);
        let (base, frames) = s.sample().expect("uncontended sample succeeds");
        assert_eq!(base, None);
        assert_eq!(frames, vec![a, b]);
        s.pop();
        let (_, frames) = s.sample().unwrap();
        assert_eq!(frames, vec![a]);
        s.pop();
        s.pop(); // over-pop saturates
        let (_, frames) = s.sample().unwrap();
        assert!(frames.is_empty());
    }

    #[test]
    fn thread_stack_base_is_published() {
        let s = ThreadStack::new(8);
        s.set_base(Some("root/worker".to_owned()));
        let (base, _) = s.sample().unwrap();
        assert_eq!(base.as_deref(), Some("root/worker"));
        s.set_base(None);
        let (base, _) = s.sample().unwrap();
        assert_eq!(base, None);
    }

    #[test]
    fn overdeep_stacks_are_skipped_not_torn() {
        let s = ThreadStack::new(9);
        let id = intern("ts-deep");
        for _ in 0..MAX_FRAMES + 3 {
            s.push(id);
        }
        assert!(s.sample().is_none(), "over-deep stacks yield no sample");
        for _ in 0..3 {
            s.pop();
        }
        let (_, frames) = s.sample().expect("back within bounds");
        assert_eq!(frames.len(), MAX_FRAMES);
    }

    #[test]
    fn folded_text_round_trips() {
        let mut folded = BTreeMap::new();
        folded.insert("a;b;c".to_owned(), 41u64);
        folded.insert("a;b".to_owned(), 7u64);
        let p = Profile {
            hz: 99,
            samples: 48,
            dropped: 0,
            threads: 1,
            folded: folded.clone(),
        };
        let text = p.folded_text();
        assert_eq!(text, "a;b 7\na;b;c 41\n");
        assert_eq!(Profile::parse_folded(&text).unwrap(), folded);
        assert!(Profile::parse_folded("no-count-line").is_err());
        assert!(Profile::parse_folded("a;b x").is_err());
        // Blank lines are tolerated; duplicates accumulate.
        let dup = Profile::parse_folded("a 1\n\na 2\n").unwrap();
        assert_eq!(dup["a"], 3);
    }

    #[test]
    fn section_shares_partition_correctly() {
        let mut folded = BTreeMap::new();
        folded.insert("run;predict".to_owned(), 30u64);
        folded.insert("run;profile".to_owned(), 60u64);
        folded.insert("run".to_owned(), 10u64);
        let p = Profile {
            hz: 99,
            samples: 100,
            dropped: 2,
            threads: 3,
            folded,
        };
        let s = p.to_section(2);
        assert_eq!(s.hz, 99);
        assert_eq!(s.samples, 100);
        assert_eq!(s.dropped, 2);
        assert_eq!(s.threads, 3);
        assert_eq!(s.hot_stacks.len(), 2, "top-k truncates");
        assert_eq!(s.hot_stacks[0].stack, "run;profile");
        assert!((s.hot_stacks[0].share - 0.6).abs() < 1e-12);

        let phase = |path: &str| s.phases.iter().find(|p| p.path == path).unwrap();
        assert!((phase("run").total_share - 1.0).abs() < 1e-12);
        assert!((phase("run").self_share - 0.1).abs() < 1e-12);
        assert!((phase("run/profile").total_share - 0.6).abs() < 1e-12);
        assert!((phase("run/profile").self_share - 0.6).abs() < 1e-12);
        assert!((phase("run/predict").total_share - 0.3).abs() < 1e-12);
    }

    #[test]
    fn empty_profile_has_empty_section() {
        let s = Profile::default().to_section(10);
        assert_eq!(s.samples, 0);
        assert!(s.hot_stacks.is_empty());
        assert!(s.phases.is_empty());
    }

    fn profile_with(hz: u32, ring_capacity: Option<usize>, body: impl FnOnce()) -> Profile {
        let schedule = crate::sampler::Schedule {
            profile_hz: Some(hz),
            ring_capacity,
            ..crate::sampler::Schedule::default()
        };
        let ticker = crate::Ticker::start(schedule, crate::global(), || {}).unwrap();
        body();
        ticker.stop().profile.expect("profiling was scheduled")
    }

    #[test]
    fn profiler_samples_spans_end_to_end() {
        let profile = profile_with(500, None, || {
            let _g = crate::span("profiler-e2e-root");
            std::thread::sleep(std::time::Duration::from_millis(40));
        });
        assert!(profile.samples > 0, "a 40 ms span at 500 Hz must be seen");
        assert!(
            profile
                .folded
                .keys()
                .any(|k| k.split(';').next_back() == Some("profiler-e2e-root")),
            "the open span is attributed: {:?}",
            profile.folded
        );
    }

    #[test]
    fn tiny_rings_drop_oldest_and_count() {
        let profile = profile_with(1000, Some(2), || {
            let _g = crate::span("profiler-drop-test");
            std::thread::sleep(std::time::Duration::from_millis(50));
        });
        assert!(
            profile.dropped > 0,
            "a 2-slot ring at 1 kHz over 50 ms must drop"
        );
        // Retained samples are bounded by the ring, per thread.
        assert!(profile.samples <= 2 * profile.threads.max(1));
        assert!(crate::counter("profiler.dropped_samples").get() >= profile.dropped);
    }
}
