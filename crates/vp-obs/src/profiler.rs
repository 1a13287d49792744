//! The run's phase profile, built from exact span self times.
//!
//! Aggregate spans say how long each phase took *in total*; the profile
//! says **where thread time concentrates**. Every span close and every
//! dropped [`crate::span::adopt`] guard records its *self* time (see
//! [`span`](mod@crate::span)), so summed over span paths the self times
//! partition the time each thread spent inside spans exactly. A
//! [`Profile`] renders those self times, in microseconds, as collapsed
//! stacks (`a;b;c <µs>`, ready for `flamegraph.pl` or speedscope) and
//! as the manifest's `profile` section.
//!
//! Nothing samples: the profile costs no thread and no tick, and two
//! runs' profiles compare without sampling error. A span still open
//! when the profile is built contributes nothing. Worker threads
//! spawned by `parallel_map` adopt their parent's span path, so their
//! time, in spans or not, folds under the same stack a serial run
//! would produce; a parent blocked while its workers run counts too,
//! so a phase's share is a share of thread time.

use std::collections::BTreeMap;

use crate::registry::SpanStat;

/// The folded self times of one run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Profile {
    /// Threads that opened a span or adopted a base path.
    pub threads: u64,
    /// Collapsed stacks: `a;b;c` → self time in whole microseconds
    /// (stacks under 1 µs are left out).
    pub folded: BTreeMap<String, u64>,
}

impl Profile {
    /// Folds the self times of a registry snapshot's spans
    /// ([`crate::Snapshot::spans`]); `threads` is
    /// [`crate::span::thread_count`].
    #[must_use]
    pub fn from_spans(spans: &BTreeMap<String, SpanStat>) -> Profile {
        let mut folded = BTreeMap::new();
        for (path, stat) in spans {
            let us = stat.self_ns / 1_000;
            if us > 0 {
                *folded.entry(path.replace('/', ";")).or_insert(0) += us;
            }
        }
        Profile {
            threads: crate::span::thread_count(),
            folded,
        }
    }

    /// The summed self time, microseconds.
    #[must_use]
    pub fn total_us(&self) -> u64 {
        self.folded.values().sum()
    }

    /// Renders the canonical collapsed-stack text form, one
    /// `stack µs` line per distinct stack, sorted by stack.
    #[must_use]
    pub fn folded_text(&self) -> String {
        let mut out = String::new();
        for (stack, us) in &self.folded {
            out.push_str(stack);
            out.push(' ');
            out.push_str(&us.to_string());
            out.push('\n');
        }
        out
    }

    /// Parses collapsed-stack text back into a folded map (duplicate
    /// stacks accumulate). The inverse of [`Profile::folded_text`].
    ///
    /// # Errors
    ///
    /// Rejects lines without a trailing integer weight, naming the line.
    pub fn parse_folded(text: &str) -> Result<BTreeMap<String, u64>, String> {
        let mut folded = BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            let (stack, weight) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("line {}: no weight in `{line}`", i + 1))?;
            let weight: u64 = weight
                .parse()
                .map_err(|_| format!("line {}: bad weight `{weight}`", i + 1))?;
            *folded.entry(stack.to_owned()).or_insert(0) += weight;
        }
        Ok(folded)
    }

    /// Builds the manifest's `profile` section: the `top_k` stacks with
    /// the most self time (0 = all) plus per-phase self/total shares (a
    /// phase's *total* share counts the self time of every stack that
    /// passes through it; its *self* share only the stack that ends
    /// exactly there).
    #[must_use]
    pub fn to_section(&self, top_k: usize) -> crate::manifest::ProfileSection {
        let total_us = self.total_us();
        let share = |us: u64| {
            if total_us == 0 {
                0.0
            } else {
                us as f64 / total_us as f64
            }
        };
        let mut hot: Vec<(&String, &u64)> = self.folded.iter().collect();
        hot.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.cmp(b.0)));
        let take = if top_k == 0 { hot.len() } else { top_k };
        let hot_stacks = hot
            .into_iter()
            .take(take)
            .map(|(stack, &us)| crate::manifest::HotStack {
                stack: stack.clone(),
                us,
                share: share(us),
            })
            .collect();

        let mut self_us: BTreeMap<String, u64> = BTreeMap::new();
        let mut subtree_us: BTreeMap<String, u64> = BTreeMap::new();
        for (stack, &us) in &self.folded {
            let mut path = String::new();
            for frame in stack.split(';') {
                if !path.is_empty() {
                    path.push('/');
                }
                path.push_str(frame);
                *subtree_us.entry(path.clone()).or_insert(0) += us;
            }
            *self_us.entry(path).or_insert(0) += us;
        }
        let phases = subtree_us
            .iter()
            .map(|(path, &us)| crate::manifest::PhaseShare {
                path: path.clone(),
                self_share: share(self_us.get(path).copied().unwrap_or(0)),
                total_share: share(us),
            })
            .collect();

        crate::manifest::ProfileSection {
            total_us,
            threads: self.threads,
            hot_stacks,
            phases,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// The profile of this process's spans whose path starts with
    /// `prefix` (tests share the global registry).
    fn profile_under(prefix: &str) -> Profile {
        let mut spans = crate::global().snapshot().spans;
        spans.retain(|path, _| path.starts_with(prefix));
        Profile::from_spans(&spans)
    }

    #[test]
    fn thread_stack_push_pop_sample() {
        {
            let _a = crate::span("ts-a");
            {
                let _b = crate::span("ts-b");
                std::thread::sleep(Duration::from_millis(2));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let folded = profile_under("ts-a").folded;
        assert!(folded["ts-a;ts-b"] >= 2_000, "{folded:?}");
        assert!(
            folded["ts-a"] >= 2_000,
            "a closed span's time leaves its parent's self time: {folded:?}"
        );
    }

    #[test]
    fn thread_stack_base_is_published() {
        {
            let _g = crate::span::adopt(Some("ts-root/worker".to_owned()));
            std::thread::sleep(Duration::from_millis(2));
            let _s = crate::span("ts-leaf");
            std::thread::sleep(Duration::from_millis(2));
        }
        let folded = profile_under("ts-root").folded;
        assert!(folded["ts-root;worker;ts-leaf"] >= 2_000, "{folded:?}");
        assert!(
            folded["ts-root;worker"] >= 2_000,
            "time under the base outside spans is the base's: {folded:?}"
        );
        assert_eq!(folded.len(), 2);
    }

    #[test]
    fn deep_stacks_are_sampled_whole() {
        {
            let _guards: Vec<_> = (0..40).map(|_| crate::span("ts-deep")).collect();
            std::thread::sleep(Duration::from_millis(2));
        }
        let folded = profile_under("ts-deep").folded;
        assert!(folded[&vec!["ts-deep"; 40].join(";")] >= 2_000);
    }

    #[test]
    fn folded_text_round_trips() {
        let mut folded = BTreeMap::new();
        folded.insert("a;b;c".to_owned(), 41u64);
        folded.insert("a;b".to_owned(), 7u64);
        let p = Profile { threads: 1, folded };
        let text = p.folded_text();
        assert_eq!(text, "a;b 7\na;b;c 41\n");
        assert_eq!(Profile::parse_folded(&text).unwrap(), p.folded);
        assert!(Profile::parse_folded("no-weight-line").is_err());
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
        let p = Profile { threads: 3, folded };
        let s = p.to_section(2);
        assert_eq!(s.total_us, 100);
        assert_eq!(s.threads, 3);
        assert_eq!(s.hot_stacks.len(), 2, "top-k truncates");
        assert_eq!(s.hot_stacks[0].stack, "run;profile");
        assert_eq!(s.hot_stacks[0].us, 60);
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
        assert_eq!(s.total_us, 0);
        assert!(s.hot_stacks.is_empty());
        assert!(s.phases.is_empty());
    }

    #[test]
    fn profiler_samples_spans_end_to_end() {
        let r = crate::Registry::new();
        r.record_span("e2e", 5_000_000, 1_000_000);
        r.record_span("e2e/leaf", 4_000_000, 4_000_000);
        r.record_adopted("e2e", 500_000);
        // Sub-microsecond self time is left out.
        r.record_span("e2e/blink", 999, 999);
        let profile = Profile::from_spans(&r.snapshot().spans);
        assert_eq!(profile.folded.len(), 2);
        assert_eq!(profile.folded["e2e"], 1_500);
        assert_eq!(profile.folded["e2e;leaf"], 4_000);
        assert_eq!(profile.total_us(), 5_500);
    }
}
