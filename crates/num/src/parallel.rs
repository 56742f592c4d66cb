//! Deterministic chunked parallel reductions and fills.
//!
//! The Stage-I solvers evaluate per-client expressions over populations of
//! up to millions of clients inside a bisection loop, so the inner passes
//! must be parallel *and* bit-reproducible. Both primitives here follow the
//! same discipline as the simulator's worker pool: the work is split into
//! fixed-width chunks whose boundaries depend only on the population size
//! (never on the thread count), each chunk is reduced sequentially, and the
//! per-chunk results are combined in chunk order. Floating-point addition is
//! not associative, but with a fixed chunking the summation tree is
//! identical whether one thread or sixteen execute it — `n_threads = 1` and
//! `n_threads = 16` produce bit-identical results.
//!
//! Each call spawns a scoped worker crew and distributes chunk indices
//! over a [`crossbeam::channel`] job queue, so uneven per-chunk cost (e.g.
//! clamped vs. interior clients) cannot idle workers behind a static
//! partition. Spawning is skipped entirely unless every worker would get
//! at least two chunks — below that the per-call thread/channel overhead
//! rivals the chunk work itself, and the inline path computes the
//! identical result (the summation tree is fixed by the chunking alone).
//! A thread sweep therefore needs at least four chunks before a second
//! worker spawns.
//!
//! The Stage-I solver runs every per-client pass as one [`chunked_sum`]
//! or [`chunked_fill`] over one set of population columns.

use crossbeam::channel;

/// Fixed chunk width used by the solvers' per-client passes.
///
/// Chosen so one chunk of `f64` parameters stays comfortably inside L2
/// while amortising the job-queue synchronisation; the exact value only
/// affects performance, never results — but changing it *does* change the
/// summation tree, so it is a compile-time constant rather than a knob.
pub const DEFAULT_CHUNK: usize = 8_192;

/// Resolve a thread-count knob: `0` means one worker per available core.
///
/// The core-count lookup is a syscall, and auto-threaded reductions can
/// sit in solver inner loops (the M-search calls one per gradient
/// evaluation), so the answer is cached for the life of the process.
pub fn resolve_threads(n_threads: usize) -> usize {
    static AVAILABLE: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    if n_threads > 0 {
        n_threads
    } else {
        *AVAILABLE.get_or_init(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    }
}

/// Number of fixed-width chunks covering `n` items.
fn chunk_count(n: usize, chunk: usize) -> usize {
    n.div_ceil(chunk)
}

/// Workers worth spawning for `chunks` chunks: each must get at least two
/// chunks, else run inline (1).
fn effective_workers(n_threads: usize, chunks: usize) -> usize {
    resolve_threads(n_threads).min(chunks / 2).max(1)
}

/// Sum `f(start..end)` over fixed-width chunks of `0..n`, deterministically.
///
/// `f` receives each chunk's half-open index range and returns its partial
/// sum; partials are combined in ascending chunk order, so the result is
/// independent of `n_threads`. With `n_threads <= 1` (after
/// [`resolve_threads`]) or a single chunk the reduction runs inline without
/// spawning.
pub fn chunked_sum<F>(n: usize, n_threads: usize, f: F) -> f64
where
    F: Fn(std::ops::Range<usize>) -> f64 + Sync,
{
    let chunk = DEFAULT_CHUNK;
    let chunks = chunk_count(n, chunk);
    let workers = effective_workers(n_threads, chunks);
    if workers <= 1 {
        let mut total = 0.0;
        for c in 0..chunks {
            let start = c * chunk;
            total += f(start..(start + chunk).min(n));
        }
        return total;
    }

    let (job_tx, job_rx) = channel::unbounded::<usize>();
    for c in 0..chunks {
        job_tx.send(c).expect("queue open");
    }
    drop(job_tx);

    let mut partials = vec![0.0f64; chunks];
    let collected: Vec<Vec<(usize, f64)>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let job_rx = job_rx.clone();
            let f = &f;
            handles.push(scope.spawn(move || {
                let mut local = Vec::new();
                while let Ok(c) = job_rx.recv() {
                    let start = c * chunk;
                    local.push((c, f(start..(start + chunk).min(n))));
                }
                local
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    for (c, partial) in collected.into_iter().flatten() {
        partials[c] = partial;
    }
    // Combine in chunk order: the summation tree is fixed by `chunk` alone.
    partials.into_iter().sum()
}

/// Fill `out` in parallel by fixed-width chunks.
///
/// `f` receives each chunk's starting index and the mutable sub-slice
/// `out[start..start + len]` to write. Chunks are disjoint, so the fill is
/// race-free without locking, and because every element is computed from
/// its own index the result is independent of `n_threads`.
pub fn chunked_fill<T, F>(out: &mut [T], n_threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let chunk = DEFAULT_CHUNK;
    let n = out.len();
    let chunks = chunk_count(n, chunk);
    let workers = effective_workers(n_threads, chunks);
    if workers <= 1 {
        for (c, slice) in out.chunks_mut(chunk).enumerate() {
            f(c * chunk, slice);
        }
        return;
    }

    let (job_tx, job_rx) = channel::unbounded::<(usize, &mut [T])>();
    for (c, slice) in out.chunks_mut(chunk).enumerate() {
        job_tx
            .send((c * chunk, slice))
            .map_err(|_| ())
            .expect("queue open");
    }
    drop(job_tx);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            let job_rx = job_rx.clone();
            let f = &f;
            scope.spawn(move || {
                while let Ok((start, slice)) = job_rx.recv() {
                    f(start, slice);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_sum_matches_serial_reference_on_small_inputs() {
        // Fewer items than one chunk: the reduction is the plain serial sum.
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin()).collect();
        let expected: f64 = xs.iter().sum();
        let got = chunked_sum(xs.len(), 4, |r| r.map(|i| xs[i]).sum());
        assert_eq!(got, expected);
    }

    #[test]
    fn chunked_sum_is_bitwise_thread_count_invariant() {
        // Enough items for many chunks, with values chosen so that the
        // summation order matters in the last ulps.
        let n = DEFAULT_CHUNK * 7 + 123;
        let xs: Vec<f64> = (0..n)
            .map(|i| 1.0 / (i as f64 + 1.0) * if i % 3 == 0 { -1.0 } else { 1.0 })
            .collect();
        let reference = chunked_sum(n, 1, |r| r.map(|i| xs[i]).sum());
        for threads in [2, 3, 4, 8] {
            let parallel = chunked_sum(n, threads, |r| r.map(|i| xs[i]).sum());
            assert_eq!(parallel.to_bits(), reference.to_bits(), "threads={threads}");
        }
    }

    #[test]
    fn chunked_sum_handles_empty_input() {
        assert_eq!(chunked_sum(0, 4, |_| unreachable!()), 0.0);
    }

    #[test]
    fn chunked_fill_writes_every_element() {
        let n = DEFAULT_CHUNK * 7 + 17;
        let mut out = vec![0.0f64; n];
        chunked_fill(&mut out, 4, |start, slice| {
            for (k, v) in slice.iter_mut().enumerate() {
                *v = (start + k) as f64;
            }
        });
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i as f64);
        }
    }

    #[test]
    fn chunked_fill_is_thread_count_invariant() {
        let n = DEFAULT_CHUNK * 8 + 5;
        let compute = |i: usize| ((i as f64) * 0.1).cos();
        let mut serial = vec![0.0f64; n];
        chunked_fill(&mut serial, 1, |start, slice| {
            for (k, v) in slice.iter_mut().enumerate() {
                *v = compute(start + k);
            }
        });
        let mut parallel = vec![0.0f64; n];
        chunked_fill(&mut parallel, 6, |start, slice| {
            for (k, v) in slice.iter_mut().enumerate() {
                *v = compute(start + k);
            }
        });
        assert_eq!(serial, parallel);
    }

    #[test]
    fn resolve_threads_zero_means_auto() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }
}
