//! One parallel region per solve: a team of lanes that meets at a barrier.
//!
//! The MTA-2 makes a parallel loop nearly free, so the paper's kernels open
//! one per phase. On commodity threads a phase-sized loop that spawns its
//! workers costs tens of microseconds, and a stepping solve runs a hundred
//! such phases. [`run`] pays for the threads once per solve instead: it
//! opens one [`std::thread::scope`], spawns `lanes − 1` threads, and runs
//! the caller's `leader` on the calling thread as lane 0. The leader keeps
//! every serial decision; each [`Team::phase`] it posts runs the caller's
//! `work` on every lane, between two crossings of a reusable barrier. This
//! is the shape of GARDENIA's OpenMP Δ-stepping: one `omp parallel`
//! region, barrier-separated phases, thread-local bins.
//!
//! The barrier spins for a few microseconds, then yields its core for a
//! short, fixed number of polls, and then parks on a [`Condvar`]. It yields
//! rather than spins because a spinning lane can take the only core from
//! the lane that holds the work when the host has fewer cores than lanes.
//!
//! A panic on any lane breaks the barrier, so the other lanes return
//! instead of waiting for it; [`run`] then joins every lane and resumes the
//! first lane's panic on the caller. A one-lane team spawns nothing: its
//! phases run inline on the calling thread.

use parking_lot::Mutex;
use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, PoisonError};

/// `spin_loop` hints a lane spends at the barrier before it starts to
/// yield: about 2.5 µs at 20 ns a hint on a 2-vCPU Xeon KVM guest, enough
/// for a lane on another core to arrive.
const SPIN: u32 = 128;

/// `yield_now` polls a lane makes after spinning, before it parks. On two
/// free cores a yield returns at once, in about 0.4 µs on the same guest,
/// so the spin and the polls wait about 30 µs: most of the leader's serial
/// work between two phases. On one core each yield hands the core to the
/// lane that holds the work, where a spin would keep it: an empty phase
/// costs about 10 µs there, against about 100 µs under a 40 µs spin.
const YIELDS: u32 = 64;

thread_local! {
    /// What the regions this thread opened have spawned.
    static SPAWNED: Cell<Spawns> = const { Cell::new(Spawns { regions: 0, threads: 0 }) };
}

/// What the multi-lane regions one thread has opened so far have spawned.
/// A one-lane region spawns nothing and is not counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Spawns {
    /// Regions opened.
    pub regions: u64,
    /// Threads they spawned: `lanes − 1` each.
    pub threads: u64,
}

/// What the regions the calling thread has opened so far have spawned.
/// Read it before and after a call to count the regions the call opened.
pub fn spawns() -> Spawns {
    SPAWNED.get()
}

/// The lanes of one parallel region, as the leader sees them. See the
/// module docs.
pub struct Team<'w, J> {
    lanes: usize,
    work: &'w (dyn Fn(usize, J) + Sync),
    barrier: Barrier,
    /// The phase the leader posted last; written only while every other
    /// lane waits at the barrier that opens the phase.
    job: Mutex<Option<J>>,
    /// The first payload a panicking lane other than the leader left.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl<J: Copy> Team<'_, J> {
    /// Runs `work(lane, job)` on every lane and returns once all lanes
    /// are done. Panics if another lane panicked; [`run`] then resumes
    /// that lane's payload instead.
    pub fn phase(&self, job: J) {
        if self.lanes == 1 {
            return (self.work)(0, job);
        }
        *self.job.lock() = Some(job);
        self.cross();
        (self.work)(0, job);
        self.cross();
    }

    fn cross(&self) {
        assert!(self.barrier.wait(), "a lane of the team panicked");
    }

    /// A spawned lane's life: wait for a phase, run it, report done, until
    /// the leader returns.
    fn serve(&self, lane: usize) {
        let served = catch_unwind(AssertUnwindSafe(|| {
            while self.barrier.wait() {
                let job = self.job.lock().expect("a phase is posted before it opens");
                (self.work)(lane, job);
                self.barrier.wait();
            }
        }));
        if let Err(payload) = served {
            self.panic.lock().get_or_insert(payload);
            self.barrier.close();
        }
    }
}

/// Runs `leader` on the calling thread as lane 0 of a team of `lanes`
/// lanes (at least one), with `work` as the body every lane runs for each
/// phase the leader posts, and returns the leader's result.
///
/// Spawns exactly `lanes − 1` threads, once, whatever the number of
/// phases; one lane spawns none. A panic on any lane surfaces here, after
/// every lane has returned.
pub fn run<J, R>(
    lanes: usize,
    leader: impl FnOnce(&Team<'_, J>) -> R,
    work: impl Fn(usize, J) + Sync,
) -> R
where
    J: Copy + Send,
{
    let lanes = lanes.max(1);
    let team = Team {
        lanes,
        work: &work,
        barrier: Barrier::new(lanes),
        job: Mutex::new(None),
        panic: Mutex::new(None),
    };
    if lanes == 1 {
        return leader(&team);
    }
    SPAWNED.set({
        let Spawns { regions, threads } = SPAWNED.get();
        Spawns {
            regions: regions + 1,
            threads: threads + lanes as u64 - 1,
        }
    });
    let led = catch_unwind(AssertUnwindSafe(|| {
        std::thread::scope(|scope| {
            // Closing on every exit, unwinding included, releases the
            // spawned lanes so the scope can join them.
            let _close = Close(&team.barrier);
            for lane in 1..lanes {
                let team = &team;
                scope.spawn(move || team.serve(lane));
            }
            leader(&team)
        })
    }));
    if let Some(payload) = team.panic.into_inner() {
        resume_unwind(payload);
    }
    led.unwrap_or_else(|payload| resume_unwind(payload))
}

/// Closes the barrier when dropped.
struct Close<'a>(&'a Barrier);

impl Drop for Close<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// A reusable barrier for a fixed number of lanes: spin, then park.
/// Closing it releases every waiter and makes every later wait return
/// `false` at once.
struct Barrier {
    lanes: usize,
    /// Lanes arrived at the current crossing.
    arrived: AtomicUsize,
    /// Crossings completed. A waiter leaves once it moves past the value it
    /// read on arrival; the last arriver resets `arrived` before moving it
    /// (release), so the next crossing starts from zero.
    crossings: AtomicUsize,
    closed: AtomicBool,
    /// Parked lanes. A waiter re-checks `crossings` and `closed` under
    /// this lock before it parks, and the waker takes it before it
    /// notifies, so a wake-up cannot fall between the check and the park.
    parked: std::sync::Mutex<usize>,
    wake: Condvar,
}

impl Barrier {
    fn new(lanes: usize) -> Self {
        Self {
            lanes,
            arrived: AtomicUsize::new(0),
            crossings: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            parked: std::sync::Mutex::new(0),
            wake: Condvar::new(),
        }
    }

    /// Waits until all lanes have arrived: `true` once they have, `false`
    /// once the barrier is closed.
    fn wait(&self) -> bool {
        if self.closed.load(Ordering::Acquire) {
            return false;
        }
        // Read before arriving: the crossing cannot complete until this
        // lane has arrived.
        let crossing = self.crossings.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.lanes {
            self.arrived.store(0, Ordering::Relaxed);
            self.crossings
                .store(crossing.wrapping_add(1), Ordering::Release);
            self.wake_all();
            return true;
        }
        let done = || -> Option<bool> {
            if self.crossings.load(Ordering::Acquire) != crossing {
                Some(true)
            } else if self.closed.load(Ordering::Acquire) {
                Some(false)
            } else {
                None
            }
        };
        for poll in 0..SPIN + YIELDS {
            if let Some(crossed) = done() {
                return crossed;
            }
            if poll < SPIN {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        // Only counter updates happen under this lock, so a poisoned guard
        // still holds a valid count.
        let mut parked = self.parked.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(crossed) = done() {
                return crossed;
            }
            *parked += 1;
            parked = self
                .wake
                .wait(parked)
                .unwrap_or_else(PoisonError::into_inner);
            *parked -= 1;
        }
    }

    fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.wake_all();
    }

    fn wake_all(&self) {
        let parked = self.parked.lock().unwrap_or_else(PoisonError::into_inner);
        if *parked > 0 {
            self.wake.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::mpsc;
    use std::thread::ThreadId;
    use std::time::Duration;

    /// Runs `f` on its own thread and fails the test if it has not
    /// returned within a minute: a lost wake-up shows as a failure, not as
    /// a hung test binary.
    fn within_a_minute(f: impl FnOnce() + Send + 'static) {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            f();
            let _ = tx.send(());
        });
        rx.recv_timeout(Duration::from_secs(60))
            .expect("the barrier hung: a wake-up was lost");
    }

    #[test]
    fn a_region_spawns_lanes_minus_one_threads_once_for_every_phase() {
        for lanes in [1usize, 2, 4] {
            let seen: Vec<Mutex<HashSet<ThreadId>>> =
                (0..lanes).map(|_| Mutex::new(HashSet::new())).collect();
            let phases = run(
                lanes,
                |team| {
                    for p in 0..50 {
                        team.phase(p);
                    }
                    50
                },
                |lane, _: usize| {
                    seen[lane].lock().insert(std::thread::current().id());
                },
            );
            assert_eq!(phases, 50);
            // Each lane ran on one thread in every phase, lane 0 on the
            // caller's, and no two lanes shared a thread.
            let threads: Vec<ThreadId> = seen
                .iter()
                .map(|s| {
                    let s = s.lock();
                    assert_eq!(s.len(), 1, "a lane moved between threads");
                    *s.iter().next().unwrap()
                })
                .collect();
            assert_eq!(threads[0], std::thread::current().id());
            let distinct: HashSet<_> = threads.iter().collect();
            assert_eq!(distinct.len(), lanes);
        }
    }

    #[test]
    fn spawns_counts_each_multi_lane_region_and_its_threads_once() {
        for lanes in [1usize, 2, 4] {
            for phases in [0, 1, 30] {
                let before = spawns();
                run(
                    lanes,
                    |team| (0..phases).for_each(|p| team.phase(p)),
                    |_, _: usize| {},
                );
                let after = spawns();
                let opened = u64::from(lanes > 1);
                assert_eq!(after.regions - before.regions, opened);
                assert_eq!(after.threads - before.threads, lanes as u64 - 1);
            }
        }
        // Another thread's regions are its own.
        let before = spawns();
        std::thread::spawn(|| run(3, |team| team.phase(()), |_, ()| {}))
            .join()
            .unwrap();
        assert_eq!(spawns(), before);
    }

    #[test]
    fn every_lane_finishes_a_phase_before_the_leader_moves_on() {
        within_a_minute(|| {
            let lanes = 4;
            let done = AtomicUsize::new(0);
            run(
                lanes,
                |team| {
                    for p in 1..=200 {
                        team.phase(p);
                        assert_eq!(done.load(Ordering::Relaxed), p * lanes);
                    }
                },
                |_, _: usize| {
                    done.fetch_add(1, Ordering::Relaxed);
                },
            );
        });
    }

    /// One lane at a time arrives late, long after the others have spun
    /// out and parked: each crossing still releases everyone, and nobody
    /// leaves a crossing before the late lane has arrived.
    #[test]
    fn a_late_lane_wakes_the_parked_lanes_at_every_crossing() {
        within_a_minute(|| {
            let lanes = 3;
            let rounds = 24;
            let barrier = Barrier::new(lanes);
            let arrivals = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for lane in 0..lanes {
                    let (barrier, arrivals) = (&barrier, &arrivals);
                    s.spawn(move || {
                        for round in 0..rounds {
                            if round % lanes == lane {
                                std::thread::sleep(Duration::from_millis(2));
                            }
                            arrivals.fetch_add(1, Ordering::SeqCst);
                            assert!(barrier.wait());
                            assert!(arrivals.load(Ordering::SeqCst) >= (round + 1) * lanes);
                        }
                    });
                }
            });
            assert_eq!(arrivals.load(Ordering::SeqCst), rounds * lanes);
        });
    }

    #[test]
    fn many_short_crossings_lose_nothing() {
        within_a_minute(|| {
            let lanes = 3;
            let rounds = 20_000;
            let barrier = Barrier::new(lanes);
            let arrivals = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for _ in 0..lanes {
                    let (barrier, arrivals) = (&barrier, &arrivals);
                    s.spawn(move || {
                        for round in 0..rounds {
                            arrivals.fetch_add(1, Ordering::SeqCst);
                            assert!(barrier.wait());
                            assert!(arrivals.load(Ordering::SeqCst) >= (round + 1) * lanes);
                            assert!(barrier.wait());
                        }
                    });
                }
            });
        });
    }

    #[test]
    fn closing_releases_a_parked_lane() {
        within_a_minute(|| {
            let barrier = Barrier::new(2);
            std::thread::scope(|s| {
                let waiter = s.spawn(|| barrier.wait());
                std::thread::sleep(Duration::from_millis(5));
                barrier.close();
                assert!(!waiter.join().unwrap(), "a closed barrier reports false");
            });
            assert!(!barrier.wait(), "and keeps reporting it");
        });
    }

    /// A panic on lane `bad` in phase 3, raised by the leader itself when
    /// `bad` is 0 and `in_work` is false.
    fn panic_on(lanes: usize, bad: usize, in_work: bool) -> String {
        let payload = catch_unwind(|| {
            run(
                lanes,
                |team| {
                    for p in 0..10 {
                        if p == 3 && bad == 0 && !in_work {
                            panic!("leader panic");
                        }
                        team.phase(p);
                    }
                },
                |lane, p: usize| {
                    if p == 3 && lane == bad && in_work {
                        panic!("lane {lane} panic");
                    }
                },
            )
        })
        .expect_err("the panic surfaces on the caller");
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn a_panic_on_any_lane_surfaces_with_its_own_payload() {
        within_a_minute(|| {
            assert_eq!(panic_on(3, 0, false), "leader panic");
            for bad in 0..3 {
                assert_eq!(panic_on(3, bad, true), format!("lane {bad} panic"));
            }
            // A team over the same inputs runs cleanly afterwards.
            let total = AtomicUsize::new(0);
            run(
                3,
                |team| (0..5).for_each(|p| team.phase(p)),
                |_, p: usize| {
                    total.fetch_add(p, Ordering::Relaxed);
                },
            );
            assert_eq!(total.load(Ordering::Relaxed), 3 * (0..5).sum::<usize>());
        });
    }
}
