//! Streaming bounded-memory replay: simulate and predict concurrently.
//!
//! The batch path materialises a whole [`vp_sim::Trace`] before the fused
//! replay kernel touches it, so peak RSS grows with trace length even
//! though the paper's Phase-2 pass is conceptually a stream (the tracer
//! feeds the predictor one retired instruction at a time). This module
//! removes that coupling: a **producer** thread runs the simulation with
//! a tracer that packs destination writes into [`ValueBlock`]s of
//! [`VALUE_BLOCK`] (1024) value events, and the calling thread, the one
//! **consumer**, hands each received block unchanged to the same fused
//! kernel (`MatrixScanner`) the batch path feeds.
//!
//! ## Bounded queue
//!
//! The producer sends each full block through a [`sync_channel`] of
//! [`BLOCK_POOL`] blocks. When the queue is full the send blocks inside
//! [`Tracer::retire`] — the simulation itself stalls until the consumer
//! catches up. Live memory is at most [`BLOCK_POOL`] queued blocks plus
//! the one the consumer reads and the one being filled, independent of
//! trace length.
//!
//! ## Bit-identical results
//!
//! Both sources deliver the same blocks: the producer cuts the value
//! events where the resident trace's decoder
//! ([`vp_sim::TraceColumns::value_events`]) cuts them, every
//! [`VALUE_BLOCK`] events, and the consumer scans them in simulation
//! order. Streaming output is therefore bit-identical to batch replay —
//! property-tested here and in `tests/stream_replay.rs`, and fuzzed
//! continuously by the vp-verify oracle's streaming ≡ batch stage.
//!
//! ## Failure safety
//!
//! The channel hangs up by itself: the producer's exit — normal, faulted
//! or panicked — drops the sender, so the consumer drains the queue and
//! stops; the consumer's error or panic drops the receiver, so the
//! producer stops sending and never stalls on it.
//!
//! ## Observability
//!
//! Runs under a `"stream"` span and publishes `stream.blocks` (blocks
//! emitted), `stream.stalls` (blocks that found the queue full) and
//! `stream.producer_wait_ms` (total time the simulation spent blocked on
//! the full queue), alongside the same `replay.*` counters the batch
//! engine feeds.
//!
//! [`Tracer::retire`]: vp_sim::Tracer::retire
//! [`VALUE_BLOCK`]: vp_sim::VALUE_BLOCK

use std::io;
use std::mem;
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::thread;
use std::time::{Duration, Instant};

use vp_isa::{InstrAddr, Program};
use vp_sim::{Retirement, RunLimits, ValueBlock};

/// Queue depth, in blocks. Eight blocks absorb ordinary consumer jitter
/// without letting the producer run far ahead.
pub const BLOCK_POOL: usize = 8;

/// The producer: a [`vp_sim::Tracer`] that packs each retired
/// destination write into the current block and sends every full one to
/// the consumer while it is connected.
struct Producer {
    block: ValueBlock,
    consumer: Option<SyncSender<ValueBlock>>,
    blocks: u64,
    stalls: u64,
    waited: Duration,
}

impl Producer {
    fn new(consumer: SyncSender<ValueBlock>) -> Producer {
        Producer {
            block: ValueBlock::new(),
            consumer: Some(consumer),
            blocks: 0,
            stalls: 0,
            waited: Duration::ZERO,
        }
    }

    fn push(&mut self, addr: InstrAddr, value: u64) {
        self.block.push(addr, value);
        if self.block.is_full() {
            self.send();
        }
    }

    /// Sends the current block: without waiting where the queue has room,
    /// else blocking (one stall, the wait timed). A consumer that hung up
    /// is dropped.
    fn send(&mut self) {
        let block = mem::replace(&mut self.block, ValueBlock::new());
        self.blocks += 1;
        let Some(tx) = &self.consumer else { return };
        let sent = match tx.try_send(block) {
            Ok(()) => true,
            Err(TrySendError::Disconnected(_)) => false,
            Err(TrySendError::Full(block)) => {
                self.stalls += 1;
                let started = Instant::now();
                let sent = tx.send(block).is_ok();
                self.waited += started.elapsed();
                sent
            }
        };
        if !sent {
            self.consumer = None;
        }
    }

    /// Sends the trailing partial block, if any, and hangs up, so the
    /// consumer drains the queue and stops.
    fn finish(&mut self) {
        if !self.block.is_empty() {
            self.send();
        }
        self.consumer = None;
    }
}

impl vp_sim::Tracer for Producer {
    fn retire(&mut self, ev: &Retirement<'_>) {
        if let Some((_, _, value)) = ev.dest {
            self.push(ev.addr, value);
        }
    }
}

/// Spawns the producer (simulation) and hands each block it sends to
/// `scan` on the calling thread, in simulation order. A simulator fault
/// wins over the scan's own error; a panic on either side resumes on the
/// caller once the producer has stopped.
pub(super) fn run_streamed(
    program: &Program,
    limits: RunLimits,
    mut scan: impl FnMut(&ValueBlock) -> io::Result<()>,
) -> io::Result<()> {
    let (tx, rx) = sync_channel(BLOCK_POOL);
    let parent_span = vp_obs::span::current_path();
    let (producer, scanned) = thread::scope(|scope| {
        let producer = scope.spawn(move || {
            let _adopted = vp_obs::span::adopt(parent_span);
            let mut producer = Producer::new(tx);
            let outcome = vp_sim::run(program, &mut producer, limits);
            producer.finish();
            outcome.map(|_| producer)
        });
        // The loop owns the receiver, so leaving it (or unwinding) hangs
        // up.
        let scanned = rx.into_iter().try_for_each(|block| scan(&block));
        match producer.join() {
            Ok(producer) => (producer, scanned),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    });

    let stats = producer.map_err(io::Error::other)?;
    vp_obs::counter("stream.blocks").add(stats.blocks);
    vp_obs::counter("stream.stalls").add(stats.stalls);
    vp_obs::counter("stream.producer_wait_ms").add(stats.waited.as_millis() as u64);
    scanned
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::ReplayRequest;
    use vp_isa::asm::assemble;
    use vp_predictor::PredictorConfig;
    use vp_sim::{Trace, VALUE_BLOCK};

    fn sample() -> Program {
        assemble(
            "li r1, 0\nli r2, 3000\n\
             top: addi.st r1, r1, 1\nadd r3, r1, r1\nbne r1, r2, top\nhalt\n",
        )
        .unwrap()
    }

    #[test]
    fn streaming_matches_batch() {
        let p = sample();
        let limits = RunLimits::default();
        let trace = Trace::capture(&p, limits).unwrap();
        let cfg = PredictorConfig::spec_table_stride_fsm();
        let batch = ReplayRequest::batch(&trace)
            .single(&p, cfg)
            .run()
            .unwrap()
            .into_single();
        let streamed = ReplayRequest::stream(&p, limits)
            .single(&p, cfg)
            .run()
            .unwrap()
            .into_single();
        assert_eq!(streamed.outcome.stats, batch.outcome.stats);
        assert_eq!(streamed.outcome.occupancy, batch.outcome.occupancy);
    }

    #[test]
    fn producer_sends_the_blocks_the_trace_decoder_yields() {
        // ~3k value events: several full blocks plus a partial tail.
        let p = assemble(
            "li r1, 0\nli r2, 1500\n\
             top: addi r1, r1, 1\nadd r3, r1, r2\nbne r1, r2, top\nhalt\n",
        )
        .unwrap();
        let limits = RunLimits::default();
        let trace = Trace::capture(&p, limits).unwrap();

        let (tx, rx) = sync_channel(64);
        let mut producer = Producer::new(tx);
        vp_sim::run(&p, &mut producer, limits).unwrap();
        producer.finish();
        let streamed: Vec<ValueBlock> = rx.iter().collect();
        let decoded: Vec<ValueBlock> = trace.columns().value_events().collect();

        assert_eq!(streamed, decoded, "same events, cut at the same places");
        let (last, full) = streamed.split_last().expect("the trace has value events");
        assert!(
            full.iter().all(ValueBlock::is_full),
            "only the last block may be partial"
        );
        assert!(!last.is_full() && !last.is_empty(), "the tail is partial");
        assert!(full.len() >= 2, "test must exercise multiple full blocks");
        assert_eq!(producer.blocks, streamed.len() as u64);
    }

    #[test]
    fn finish_without_events_submits_nothing() {
        let p = assemble("halt\n").unwrap();
        let (tx, rx) = sync_channel(BLOCK_POOL);
        let mut producer = Producer::new(tx);
        vp_sim::run(&p, &mut producer, RunLimits::default()).unwrap();
        producer.finish();
        assert_eq!(rx.iter().count(), 0);
        assert_eq!(producer.blocks, 0);
    }

    /// A deliberately slow consumer must stall the producer (bounded
    /// queue, no unbounded queueing) and still observe every event in
    /// order — the starvation/backpressure stress test.
    #[test]
    fn slow_consumer_applies_backpressure_without_loss() {
        let (tx, rx) = sync_channel::<ValueBlock>(BLOCK_POOL);
        let blocks = 32usize;
        let events = blocks * VALUE_BLOCK;
        let (producer, seen) = thread::scope(|scope| {
            let consumer = scope.spawn(move || {
                let mut seen: Vec<(InstrAddr, u64)> = Vec::new();
                for block in rx {
                    // Slow consumer: hold the block while the producer
                    // races ahead into the queue limit.
                    thread::sleep(Duration::from_millis(2));
                    seen.extend(block.iter());
                }
                seen
            });
            let producer = scope.spawn(move || {
                let mut producer = Producer::new(tx);
                for i in 0..events {
                    producer.push(InstrAddr::new(i as u32), i as u64);
                }
                producer.finish();
                producer
            });
            (producer.join().unwrap(), consumer.join().unwrap())
        });
        assert_eq!(producer.blocks, blocks as u64);
        assert!(
            producer.stalls > 0,
            "a bounded queue against a sleeping consumer must stall"
        );
        assert!(producer.waited > Duration::ZERO);
        let expected: Vec<(InstrAddr, u64)> = (0..events)
            .map(|i| (InstrAddr::new(i as u32), i as u64))
            .collect();
        assert_eq!(seen, expected, "every event delivered, in order");
    }

    /// A consumer that dies early must not wedge the producer: its
    /// dropped receiver hangs up, and the producer skips it.
    #[test]
    fn detached_consumer_never_blocks_the_producer() {
        let (tx, rx) = sync_channel(BLOCK_POOL);
        thread::scope(|scope| {
            scope.spawn(move || {
                // Take one block, then bail (simulates an error path).
                let _ = rx.recv();
            });
            let producer = scope.spawn(move || {
                let mut producer = Producer::new(tx);
                // Far more blocks than the queue holds: would deadlock
                // if the dead consumer still took sends.
                for i in 0..64 * VALUE_BLOCK {
                    producer.push(InstrAddr::new(i as u32), i as u64);
                }
                producer.blocks
            });
            assert_eq!(producer.join().unwrap(), 64);
        });
    }

    /// A consumer that panics mid-stream must not wedge the stream: its
    /// receiver hangs up as it unwinds, the producer runs to the end, and
    /// the panic resumes on the caller.
    #[test]
    fn panicking_consumer_resumes_on_the_caller() {
        let p = assemble("li r1, 0\nli r2, 50000\ntop: addi r1, r1, 1\nbne r1, r2, top\nhalt\n")
            .unwrap();
        let (done, outcome) = std::sync::mpsc::channel();
        thread::spawn(move || {
            let streamed = std::panic::catch_unwind(|| {
                let mut blocks = 0;
                run_streamed(&p, RunLimits::default(), |_| {
                    blocks += 1;
                    assert!(blocks < 2, "consumer panics at the second block");
                    Ok(())
                })
            });
            let _ = done.send(streamed.is_err());
        });
        let panicked = outcome
            .recv_timeout(Duration::from_secs(30))
            .expect("stream hung");
        assert!(panicked, "the panic must resume on the caller");
    }

    #[test]
    fn budget_exhausted_streams_match_batch() {
        // An endless loop truncated by the instruction budget: the
        // streamed event prefix must equal the captured one.
        let p = assemble("li r1, 0\ntop: addi r1, r1, 1\nbeq r0, r0, top\nhalt\n").unwrap();
        let limits = RunLimits::with_max(10_000);
        let cfg = PredictorConfig::spec_table_stride_fsm();
        let streamed = ReplayRequest::stream(&p, limits)
            .single(&p, cfg)
            .run()
            .unwrap()
            .into_single();
        let trace = Trace::capture(&p, limits).unwrap();
        let batch = ReplayRequest::batch(&trace)
            .single(&p, cfg)
            .run()
            .unwrap()
            .into_single();
        assert_eq!(streamed.outcome.stats, batch.outcome.stats);
    }

    #[test]
    fn foreign_program_errors_do_not_hang_the_stream() {
        // The plan's directive table comes from a one-instruction
        // program, but the simulated program touches more PCs: the
        // consumer errors on the first out-of-range event. The stream
        // must surface the error, not deadlock.
        let p = sample();
        let other = assemble("halt\n").unwrap();
        let err = ReplayRequest::stream(&p, RunLimits::default())
            .single(&other, PredictorConfig::spec_table_stride_fsm())
            .run()
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
