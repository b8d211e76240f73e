//! The objective boundary, seen the way the tuned application sees it.
//!
//! [`BoundaryRecorder`] wraps an objective and stamps every `evaluate`
//! call and return with the calling thread. [`split_by_search`] then cuts
//! the stamps back into the plan's searches, using the executor's public
//! scheduling contract: stages run one after another, each search runs
//! all of its evaluations on one thread, and a stage's searches are dealt
//! to threads in fixed contiguous chunks. From that split come each
//! search's objective time and the tuner's think time: the gap from one
//! `evaluate` returning to the next call on the same thread, with each
//! search's first evaluation and the executor's final evaluation left out.

use cets_core::{Objective, Observation};
use cets_space::{Config, SearchSpace};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD: Cell<Option<usize>> = const { Cell::new(None) };
}

/// A small stable id for the calling thread.
fn thread_id() -> usize {
    THREAD.with(|t| match t.get() {
        Some(id) => id,
        None => {
            let id = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            t.set(Some(id));
            id
        }
    })
}

/// One `evaluate` call.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    pub thread: usize,
    pub start: Instant,
    pub end: Instant,
}

/// An objective wrapper that records every call's thread and timestamps.
pub struct BoundaryRecorder<'a, O: Objective + ?Sized> {
    inner: &'a O,
    calls: Mutex<Vec<Call>>,
}

impl<'a, O: Objective + ?Sized> BoundaryRecorder<'a, O> {
    pub fn new(inner: &'a O) -> Self {
        BoundaryRecorder {
            inner,
            calls: Mutex::new(Vec::with_capacity(512)),
        }
    }

    /// The recorded calls, in completion order.
    pub fn into_calls(self) -> Vec<Call> {
        self.calls
            .into_inner()
            .expect("the call log is never locked across a panic")
    }
}

impl<O: Objective + ?Sized> Objective for BoundaryRecorder<'_, O> {
    fn space(&self) -> &SearchSpace {
        self.inner.space()
    }

    fn routine_names(&self) -> Vec<String> {
        self.inner.routine_names()
    }

    fn evaluate(&self, cfg: &Config) -> Observation {
        let thread = thread_id();
        let start = Instant::now();
        let obs = self.inner.evaluate(cfg);
        let end = Instant::now();
        self.calls
            .lock()
            .expect("the call log is never locked across a panic")
            .push(Call { thread, start, end });
        obs
    }

    fn default_config(&self) -> Config {
        self.inner.default_config()
    }

    fn sample_valid(&self, rng: &mut dyn rand::Rng) -> Option<Config> {
        self.inner.sample_valid(rng)
    }
}

/// The recorded calls of one plan execution, split by search.
#[derive(Debug, Clone, Default)]
pub struct SearchSplit {
    /// Objective seconds per search, in plan order.
    pub objective_s: Vec<f64>,
    /// Think-time gaps in milliseconds.
    pub gaps_ms: Vec<f64>,
    /// Every call's duration summed, the final evaluation included.
    pub total_objective_s: f64,
}

/// Split the calls of one plan execution by search.
///
/// `stages[s][j]` is the number of evaluations search `j` of stage `s`
/// made, and `workers` the executor's worker budget. The calls must be
/// exactly those evaluations plus the executor's final evaluation.
pub fn split_by_search(
    calls: &[Call],
    stages: &[Vec<usize>],
    workers: usize,
) -> Result<SearchSplit, String> {
    let expected: usize = stages.iter().flatten().sum::<usize>() + 1;
    if calls.len() != expected {
        return Err(format!(
            "recorded {} objective calls, the plan accounts for {expected}",
            calls.len()
        ));
    }
    let mut sorted = calls.to_vec();
    sorted.sort_by_key(|c| c.start);
    let secs = |c: &Call| c.end.duration_since(c.start).as_secs_f64();
    let mut out = SearchSplit {
        total_objective_s: sorted.iter().map(secs).sum(),
        ..Default::default()
    };

    let mut at = 0;
    for counts in stages {
        let n_stage: usize = counts.iter().sum();
        let stage_calls = &sorted[at..at + n_stage];
        at += n_stage;

        // Per-thread call sequences, ordered by first call.
        let mut threads: Vec<(usize, Vec<Call>)> = Vec::new();
        for c in stage_calls {
            match threads.iter_mut().find(|(t, _)| *t == c.thread) {
                Some((_, seq)) => seq.push(*c),
                None => threads.push((c.thread, vec![*c])),
            }
        }

        // The executor's chunking of this stage's searches onto threads.
        let n = counts.len();
        let used = workers.max(1).min(n.max(1));
        let chunk = if used <= 1 || n <= 1 {
            n.max(1)
        } else {
            n.div_ceil(used)
        };
        let chunks: Vec<std::ops::Range<usize>> = (0..n)
            .step_by(chunk)
            .map(|lo| lo..(lo + chunk).min(n))
            .collect();
        if threads.len() != chunks.len() {
            return Err(format!(
                "a stage of {n} searches ran on {} threads, expected {}",
                threads.len(),
                chunks.len()
            ));
        }

        let mut stage_obj = vec![0.0; n];
        let mut taken = vec![false; chunks.len()];
        for (_, seq) in &threads {
            // Chunks with equal evaluation totals are interchangeable for
            // every statistic below except per-search attribution, where
            // the first free one in plan order is taken.
            let Some(ci) = (0..chunks.len()).find(|&ci| {
                !taken[ci] && chunks[ci].clone().map(|j| counts[j]).sum::<usize>() == seq.len()
            }) else {
                return Err(format!(
                    "a thread made {} calls, matching no chunk of the stage",
                    seq.len()
                ));
            };
            taken[ci] = true;
            let mut pos = 0;
            for j in chunks[ci].clone() {
                let search = &seq[pos..pos + counts[j]];
                pos += counts[j];
                stage_obj[j] = search.iter().map(secs).sum();
                for w in search.windows(2) {
                    out.gaps_ms
                        .push(w[1].start.saturating_duration_since(w[0].end).as_secs_f64() * 1e3);
                }
            }
        }
        out.objective_s.extend(stage_obj);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn call(thread: usize, t0: Instant, start_ms: u64, end_ms: u64) -> Call {
        Call {
            thread,
            start: t0 + Duration::from_millis(start_ms),
            end: t0 + Duration::from_millis(end_ms),
        }
    }

    #[test]
    fn gaps_skip_each_search_start_and_the_final_call() {
        let t0 = Instant::now();
        // Stage 0: one search of 3 calls on thread 0. Stage 1: two
        // searches (2 and 1 calls) on two workers, i.e. one per thread.
        // Then the final evaluation on thread 0.
        let calls = vec![
            call(0, t0, 0, 1),
            call(0, t0, 3, 4),
            call(0, t0, 6, 7),
            call(1, t0, 10, 11),
            call(2, t0, 10, 12),
            call(1, t0, 15, 16),
            call(0, t0, 30, 31),
        ];
        let split = split_by_search(&calls, &[vec![3], vec![2, 1]], 2).unwrap();
        assert_eq!(split.gaps_ms, vec![2.0, 2.0, 4.0]);
        assert_eq!(split.objective_s.len(), 3);
        assert!((split.objective_s[0] - 0.003).abs() < 1e-9);
        assert!((split.objective_s[2] - 0.002).abs() < 1e-9);
        assert!((split.total_objective_s - 0.008).abs() < 1e-9);
    }

    #[test]
    fn a_shared_thread_runs_its_chunk_in_plan_order() {
        let t0 = Instant::now();
        // Three searches on two workers: chunk size 2, so searches 0 and 1
        // share a thread and the boundary between them is not a gap.
        let calls = vec![
            call(5, t0, 0, 1),
            call(6, t0, 0, 1),
            call(5, t0, 2, 3),
            call(6, t0, 3, 4),
            call(5, t0, 5, 6),
            call(5, t0, 8, 9),
            call(7, t0, 20, 21),
        ];
        let split = split_by_search(&calls, &[vec![2, 2, 2]], 2).unwrap();
        assert_eq!(split.gaps_ms, vec![1.0, 2.0, 2.0]);
    }

    #[test]
    fn call_count_mismatch_is_an_error() {
        let t0 = Instant::now();
        let calls = vec![call(0, t0, 0, 1)];
        assert!(split_by_search(&calls, &[vec![3]], 1).is_err());
    }
}
