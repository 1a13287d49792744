//! The one claim/wait cache behind every memoised artifact in the crate:
//! the `Suite`'s profile images, annotated binaries and sweep cells, and
//! the `TraceStore`'s traces.

use std::collections::{HashMap, HashSet};
use std::convert::Infallible;
use std::hash::Hash;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// A snapshot of a [`Memo`]'s usage counters, taken under its lock. Each
/// requested key (each occurrence in a batch) is one request, counted
/// once it is a hit or a miss.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct MemoStats {
    /// Requests answered with an already computed value, including
    /// ones that waited for another thread's compute.
    pub hits: u64,
    /// Requests that claimed their key to compute it (failed computes
    /// included).
    pub misses: u64,
    /// Calls that slept waiting for keys another thread had claimed.
    pub waits: u64,
    /// Values held at snapshot time.
    pub resident: u64,
}

/// A thread-safe get-or-compute cache with in-flight deduplication:
/// when two threads request the same missing key, one claims it and
/// computes while the other waits, and values are computed without
/// holding the lock. A compute that returns `Err` or unwinds releases its
/// claims and memoises nothing; waiters re-claim the keys.
pub(crate) struct Memo<K, V> {
    state: Mutex<State<K, V>>,
    available: Condvar,
}

struct State<K, V> {
    done: HashMap<K, V>,
    running: HashSet<K>,
    stats: MemoStats,
}

impl<K: Eq + Hash + Copy, V: Clone> Memo<K, V> {
    pub(crate) fn new() -> Self {
        Memo {
            state: Mutex::new(State {
                done: HashMap::new(),
                running: HashSet::new(),
                stats: MemoStats::default(),
            }),
            available: Condvar::new(),
        }
    }

    /// Locks the state. No code panics while holding the lock, but a
    /// poisoned lock is recovered anyway so one failed compute can never
    /// wedge the cache.
    fn lock(&self) -> MutexGuard<'_, State<K, V>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A consistent snapshot of the usage counters, taken under the lock.
    pub(crate) fn stats(&self) -> MemoStats {
        let state = self.lock();
        MemoStats {
            resident: state.done.len() as u64,
            ..state.stats
        }
    }

    /// The value of `key`, computing it if nobody has.
    pub(crate) fn get_or_compute(&self, key: K, compute: impl FnOnce() -> V) -> V {
        let Ok(value) = self.try_get_or_compute(key, || Ok::<_, Infallible>(compute()));
        value
    }

    /// The value of `key`, computing it if nobody has. A failed compute
    /// is returned to this caller and memoises nothing.
    pub(crate) fn try_get_or_compute<E>(
        &self,
        key: K,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E> {
        let mut compute = Some(compute);
        let mut values = self.get_or_compute_many(&[key], |_| {
            let compute = compute.take().expect("one key is computed at most once");
            Ok(vec![compute()?])
        })?;
        Ok(values.pop().expect("one value per key"))
    }

    /// The values of `keys`, in order. Under the lock it harvests
    /// finished keys and claims every key that nobody has computed or
    /// claimed; `compute_missing(claimed)` then computes the claimed keys
    /// together (one value per key, in order) and the loop waits for keys
    /// other threads claimed. A compute that returns `Err` or unwinds
    /// releases its claims without memoising anything, and waiters
    /// re-claim them; the error is returned to this caller.
    pub(crate) fn get_or_compute_many<E>(
        &self,
        keys: &[K],
        mut compute_missing: impl FnMut(&[K]) -> Result<Vec<V>, E>,
    ) -> Result<Vec<V>, E> {
        let mut results: Vec<Option<V>> = vec![None; keys.len()];
        let mut waited = false;
        loop {
            let (slots, claimed) = {
                let mut state = self.lock();
                loop {
                    let (mut slots, mut claimed) = (Vec::new(), Vec::new());
                    let mut missing = false;
                    for (i, (slot, key)) in results.iter_mut().zip(keys).enumerate() {
                        if slot.is_some() {
                            continue;
                        }
                        if let Some(v) = state.done.get(key).cloned() {
                            *slot = Some(v);
                            state.stats.hits += 1;
                        } else if state.running.insert(*key) {
                            state.stats.misses += 1;
                            slots.push(i);
                            claimed.push(*key);
                        } else {
                            missing = true;
                        }
                    }
                    if !claimed.is_empty() {
                        break (slots, claimed);
                    }
                    if !missing {
                        return Ok(results.into_iter().flatten().collect());
                    }
                    if !waited {
                        waited = true;
                        state.stats.waits += 1;
                    }
                    state = self
                        .available
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            let guard = ClaimGuard {
                memo: self,
                keys: &claimed,
            };
            let values = compute_missing(&claimed)?;
            let mut state = self.lock();
            for ((&slot, &key), value) in slots.iter().zip(&claimed).zip(values) {
                state.done.insert(key, value.clone());
                results[slot] = Some(value);
            }
            drop(state);
            drop(guard);
        }
    }
}

/// Releases a batch of claims on drop — after the values are stored, or
/// after a compute failed or unwound — and wakes every waiter.
struct ClaimGuard<'a, K: Eq + Hash + Copy, V: Clone> {
    memo: &'a Memo<K, V>,
    keys: &'a [K],
}

impl<K: Eq + Hash + Copy, V: Clone> Drop for ClaimGuard<'_, K, V> {
    fn drop(&mut self) {
        let mut state = self.memo.lock();
        for key in self.keys {
            state.running.remove(key);
        }
        drop(state);
        self.memo.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    fn tens(keys: &[u32]) -> Result<Vec<u32>, Infallible> {
        Ok(keys.iter().map(|k| k * 10).collect())
    }

    /// Returns once a second thread is blocked on a claimed key: the wait
    /// is counted under the same lock hold that starts the condvar wait.
    fn wait_for_waiter(memo: &Memo<u32, u32>) {
        while memo.stats().waits == 0 {
            thread::yield_now();
        }
    }

    #[test]
    fn memo_computes_each_key_once_in_request_order() {
        let memo: Memo<u32, u32> = Memo::new();
        let mut calls = Vec::new();
        let Ok(got) = memo.get_or_compute_many(&[3, 1, 3], |keys| {
            calls.push(keys.to_vec());
            tens(keys)
        });
        assert_eq!(got, [30, 10, 30]);
        assert_eq!(calls, [vec![3, 1]], "duplicates claim once, one batch");
        assert_eq!(memo.get_or_compute(1, || unreachable!("memoised")), 10);
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.misses), (2, 2));
        assert_eq!((stats.waits, stats.resident), (0, 2));
    }

    /// A compute that panics must release its claims; a thread waiting
    /// on those keys re-claims them and finishes instead of hanging.
    #[test]
    fn panicking_compute_releases_claims_to_waiters() {
        let memo: Arc<Memo<u32, u32>> = Arc::new(Memo::new());
        let (claimed_tx, claimed_rx) = mpsc::channel();
        let (fail_tx, fail_rx) = mpsc::channel::<()>();
        let first = {
            let memo = Arc::clone(&memo);
            thread::spawn(move || {
                memo.get_or_compute_many(&[1, 2], |_| -> Result<Vec<u32>, Infallible> {
                    claimed_tx.send(()).unwrap();
                    fail_rx.recv().unwrap();
                    panic!("compute failed");
                })
            })
        };
        claimed_rx.recv().unwrap();
        let (done_tx, done_rx) = mpsc::channel();
        {
            let memo = Arc::clone(&memo);
            thread::spawn(move || {
                let Ok(got) = memo.get_or_compute_many(&[2, 1], tens);
                done_tx.send(got).unwrap();
            });
        }
        wait_for_waiter(&memo);
        fail_tx.send(()).unwrap();
        assert!(first.join().is_err(), "the first compute panicked");
        let got = done_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("waiter re-claimed the released keys instead of hanging");
        assert_eq!(got, [20, 10]);
        assert!(memo.lock().running.is_empty());
    }

    /// A compute that returns `Err` hands the error to its caller,
    /// memoises nothing and releases its claim: a thread waiting on the
    /// key re-claims it and finishes.
    #[test]
    fn failed_compute_is_not_memoised_and_releases_claims_to_waiters() {
        let memo: Arc<Memo<u32, u32>> = Arc::new(Memo::new());
        let (claimed_tx, claimed_rx) = mpsc::channel();
        let (fail_tx, fail_rx) = mpsc::channel::<()>();
        let first = {
            let memo = Arc::clone(&memo);
            thread::spawn(move || {
                memo.try_get_or_compute(7, || {
                    claimed_tx.send(()).unwrap();
                    fail_rx.recv().unwrap();
                    Err("compute failed")
                })
            })
        };
        claimed_rx.recv().unwrap();
        let (done_tx, done_rx) = mpsc::channel();
        {
            let memo = Arc::clone(&memo);
            thread::spawn(move || {
                done_tx
                    .send(memo.try_get_or_compute(7, || Ok::<_, &str>(70)))
                    .unwrap();
            });
        }
        wait_for_waiter(&memo);
        fail_tx.send(()).unwrap();
        assert_eq!(first.join().unwrap(), Err("compute failed"));
        let got = done_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("waiter re-claimed the released key instead of hanging");
        assert_eq!(got, Ok(70));
        let stats = memo.stats();
        assert_eq!(stats.misses, 2, "the failed value was not memoised");
        assert_eq!((stats.hits, stats.waits), (0, 1));
        assert!(memo.lock().running.is_empty());
    }
}
