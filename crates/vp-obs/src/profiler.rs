//! In-process sampling profiler over the span stack.
//!
//! Aggregate spans say how long each phase took *in total*; the sampling
//! profiler says **where wall time concentrates** while costing nothing
//! when it is off. Every thread that opens a [`crate::span()`] or
//! [`crate::span::adopt`]s a base path keeps its open-span stack under a
//! per-thread lock in one process-wide list (see
//! [`span`](mod@crate::span)); the background [`crate::Ticker`] thread
//! periodically locks and copies every registered stack into bounded
//! per-thread ring buffers (drop-oldest, accounted by the
//! `profiler.dropped_samples` counter) and, on [`crate::Ticker::stop`],
//! folds the samples into collapsed-stack form (`a;b;c <count>`), ready
//! for `flamegraph.pl` or speedscope and the manifest's `profile`
//! section.
//!
//! ## Cost contract
//!
//! - **Off (the default):** span guards pay one uncontended lock of
//!   their own thread's stack per open or close; nothing else.
//! - **On:** the ticker holds each stack's lock only while it clones
//!   it, so a span guard waits at most for that copy.
//! - **Snapshots are consistent:** a sample is a copy taken under the
//!   stack's lock, so it is always a real span path, never a mixture
//!   of two states, at any depth.
//!
//! Worker threads spawned by `parallel_map` adopt their parent's span
//! path ([`crate::span::adopt`]); the adopted base is part of the
//! stack, so worker samples fold under the same hierarchical stack a
//! serial run would produce. Spans already open when a ticker starts
//! are sampled like any other.

use std::collections::{BTreeMap, HashMap, VecDeque};

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
    /// Per-thread rings of ids into `keys`.
    rings: BTreeMap<u64, VecDeque<u32>>,
    /// Run-local table of the distinct collapsed stacks sampled.
    keys: Vec<String>,
    key_ids: HashMap<String, u32>,
    dropped: u64,
}

impl StackRings {
    pub(crate) fn new(hz: u32, capacity: usize) -> StackRings {
        StackRings {
            hz,
            capacity: capacity.max(1),
            rings: BTreeMap::new(),
            keys: Vec::new(),
            key_ids: HashMap::new(),
            dropped: 0,
        }
    }

    /// One profile tick: copy every live stack, record non-empty
    /// samples, track the loss counter and the sampled-RSS max gauge.
    pub(crate) fn tick(&mut self) {
        for (tid, stack) in crate::span::stacks() {
            // Base paths are slash-separated span hierarchies; re-split
            // so folded frames stay one span per frame.
            let key = stack
                .base
                .iter()
                .flat_map(|b| b.split('/'))
                .chain(stack.frames.iter().copied())
                .collect::<Vec<_>>()
                .join(";");
            if key.is_empty() {
                continue; // outside all spans: nothing to attribute
            }
            let id = match self.key_ids.get(&key) {
                Some(&id) => id,
                None => {
                    let id = u32::try_from(self.keys.len()).expect("stack count fits u32");
                    self.keys.push(key.clone());
                    self.key_ids.insert(key, id);
                    id
                }
            };
            let ring = self.rings.entry(tid).or_default();
            if ring.len() >= self.capacity {
                ring.pop_front();
                self.dropped += 1;
                crate::counter("profiler.dropped_samples").inc();
            }
            ring.push_back(id);
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
        for &id in self.rings.values().flatten() {
            *folded.entry(self.keys[id as usize].clone()).or_insert(0) += 1;
            samples += 1;
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
            threads: self.rings.len() as u64,
            folded,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_stack_push_pop_sample() {
        let mut rings = StackRings::new(99, 16);
        {
            let _a = crate::span("ts-a");
            {
                let _b = crate::span("ts-b");
                rings.tick();
            }
            rings.tick();
        }
        rings.tick();
        let folded = rings.fold().folded;
        assert_eq!(folded.get("ts-a;ts-b"), Some(&1));
        assert_eq!(
            folded.get("ts-a"),
            Some(&1),
            "a closed span leaves the stack"
        );
    }

    #[test]
    fn thread_stack_base_is_published() {
        let mut rings = StackRings::new(99, 16);
        {
            let _g = crate::span::adopt(Some("ts-root/worker".to_owned()));
            let _s = crate::span("ts-leaf");
            rings.tick();
        }
        rings.tick();
        let folded = rings.fold().folded;
        assert_eq!(folded.get("ts-root;worker;ts-leaf"), Some(&1));
        assert!(
            !folded.contains_key("ts-root;worker"),
            "a dropped adopt guard clears the base"
        );
    }

    #[test]
    fn deep_stacks_are_sampled_whole() {
        let mut rings = StackRings::new(99, 16);
        {
            let _guards: Vec<_> = (0..40).map(|_| crate::span("ts-deep")).collect();
            rings.tick();
        }
        let folded = rings.fold().folded;
        assert_eq!(folded.get(&vec!["ts-deep"; 40].join(";")), Some(&1));
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
