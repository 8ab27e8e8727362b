//! Conservative virtual-time engine: a one-thread executor.
//!
//! The paper evaluates on up to 2,112 cores. To reproduce its scaling
//! figures on commodity hardware, worlds can run in *virtual-time* mode:
//! every PE owns a virtual clock (ns); local work advances only its own
//! clock, but every **shared-visible effect** (a one-sided operation on the
//! symmetric heap) is *gated* — it may only be applied when the issuing PE
//! holds the globally minimal `(clock, pe)` key among the PEs that can
//! still apply effects. Effects are therefore applied in non-decreasing
//! virtual-time order, which makes the execution serializable and —
//! together with seeded per-PE RNGs — completely deterministic.
//!
//! This is the classic conservative parallel-discrete-event-simulation
//! rule: the minimum-timestamp entity runs next. Every PE is a stackful
//! coroutine (`crate::coro`) and all of them run on the one OS thread
//! that called [`crate::run_world`]. Exactly one PE runs at a time; the
//! others are suspended in a min-heap keyed by their exact `(clock, pe)`.
//!
//! * `VClock::gate` returns at once when the running PE's key is below
//!   the heap minimum (no other PE could apply an earlier effect).
//!   Otherwise the PE pushes itself and switches to the minimum.
//! * `VClock::advance` only adds to the running PE's clock: nobody else
//!   runs until it gates again, so there is nothing to publish.
//! * `VClock::barrier` keeps arrivals out of the heap until the last
//!   live PE arrives and releases everyone at `max(entry clocks) + cost`.
//! * `VClock::exit` retires a PE: it releases a barrier that was only
//!   waiting for it, then switches to the next PE (or back to the host
//!   when none is left).
//!
//! Nothing may hold a lock across a gated op or a barrier: the PE that
//! would release it can only run on this same thread.
//!
//! Liveness requires every loop that waits on remote state to advance its
//! clock between probes; [`crate::ShmemCtx`] enforces a ≥1 ns cost on every
//! gated operation.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io;
use std::time::Instant;

use crate::coro::{self, Body, Stack};

/// Per-PE engine counters: how often a gated op was admitted at once vs.
/// after a switch, and how long the PE spent suspended.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Gated ops admitted at once: the PE already held the minimum.
    pub fast_ops: u64,
    /// Gated ops that first suspended the PE until it held the minimum.
    pub slow_ops: u64,
    /// Times the PE was suspended: every slow op and every barrier wait.
    pub switches: u64,
    /// Wall-clock ns spent suspended (including before the PE's first
    /// run).
    pub gate_wait_ns: u64,
}

impl EngineStats {
    /// Total gated operations.
    pub fn gated_ops(&self) -> u64 {
        self.fast_ops + self.slow_ops
    }

    /// Fraction of gated ops admitted without a switch (0 when none ran).
    pub fn fast_fraction(&self) -> f64 {
        let total = self.gated_ops();
        if total == 0 {
            0.0
        } else {
            self.fast_ops as f64 / total as f64
        }
    }

    /// Accumulate another PE's counters into this one.
    pub fn merge(&mut self, other: &EngineStats) {
        self.fast_ops += other.fast_ops;
        self.slow_ops += other.slow_ops;
        self.switches += other.switches;
        self.gate_wait_ns += other.gate_wait_ns;
    }
}

/// One PE as the executor sees it.
struct Pe {
    clock: Cell<u64>,
    /// Saved stack pointer while suspended (see [`coro::switch`]).
    sp: Cell<usize>,
    /// Wall clock at the last suspension.
    suspended_at: Cell<Instant>,
    stats: Cell<EngineStats>,
}

/// Barrier bookkeeping.
#[derive(Default)]
struct Barrier {
    /// PEs suspended in the pending barrier (not in the heap).
    waiting: Vec<usize>,
    max_clock: u64,
    /// Bumped by every release; a waiter resumed without a bump was woken
    /// by poison.
    generation: u64,
}

/// The virtual-time executor shared by all PEs of a world.
pub(crate) struct VClock {
    pes: Vec<Pe>,
    /// Suspended PEs that may apply effects, keyed by exact `(clock, pe)`.
    /// The running PE, barrier waiters and exited PEs are not in it.
    heap: RefCell<BinaryHeap<Reverse<(u64, usize)>>>,
    barrier: RefCell<Barrier>,
    /// PEs that have not exited.
    live: Cell<usize>,
    /// Set when any PE panics, so suspended peers bail out on resume.
    poisoned: Cell<bool>,
    /// The host's stack pointer (the context that called `run`) while
    /// PEs run.
    host_sp: Cell<usize>,
    /// The running context: a PE, or `None` for the host.
    current: Cell<Option<usize>>,
}

// SAFETY: a `VClock` is built only by `run_world`'s virtual-time path and
// reached only through that world's `ShmemCtx`s (not `Sync`, so they stay
// on their coroutines). All coroutines run one at a time on the thread
// that calls `VClock::run`, so no field (each a `Cell`, a `RefCell`, or
// `Pe`s made of `Cell`s) is ever accessed concurrently. `Sync` is needed
// only because `WorldShared`, which holds the engine, is shared across
// threads in threaded mode.
unsafe impl Sync for VClock {}

impl VClock {
    /// Engine for `n_pes` PEs, all clocks at 0.
    pub(crate) fn new(n_pes: usize) -> VClock {
        assert!(n_pes > 0);
        let now = Instant::now();
        VClock {
            pes: (0..n_pes)
                .map(|_| Pe {
                    clock: Cell::new(0),
                    sp: Cell::new(0),
                    suspended_at: Cell::new(now),
                    stats: Cell::new(EngineStats::default()),
                })
                .collect(),
            heap: RefCell::new((0..n_pes).map(|pe| Reverse((0, pe))).collect()),
            barrier: RefCell::new(Barrier::default()),
            live: Cell::new(n_pes),
            poisoned: Cell::new(false),
            host_sp: Cell::new(0),
            current: Cell::new(None),
        }
    }

    /// Run one coroutine per PE, `bodies[pe]` on PE `pe`'s stack, until
    /// every PE has exited. Each body must end with `VClock::exit`.
    pub(crate) fn run(&self, bodies: &mut [Body<'_>]) -> io::Result<()> {
        assert_eq!(bodies.len(), self.pes.len(), "one body per PE");
        assert_eq!(self.live.get(), self.pes.len(), "an executor runs once");
        let stacks = bodies
            .iter()
            .map(|_| Stack::new())
            .collect::<io::Result<Vec<Stack>>>()?;
        for ((pe, stack), body) in self.pes.iter().zip(&stacks).zip(bodies.iter_mut()) {
            pe.sp.set(stack.prepare(body));
        }
        self.switch(None, self.pop_next());
        assert_eq!(self.live.get(), 0, "the host resumed with PEs left");
        // Only now, with every PE exited, may the stacks be unmapped.
        drop(stacks);
        Ok(())
    }

    /// Current virtual time of `pe`, in ns.
    #[inline]
    pub(crate) fn now(&self, pe: usize) -> u64 {
        self.pes[pe].clock.get()
    }

    /// Engine counters for `pe`.
    pub(crate) fn engine_stats(&self, pe: usize) -> EngineStats {
        self.pes[pe].stats.get()
    }

    fn bump(&self, pe: usize, f: impl FnOnce(&mut EngineStats)) {
        let cell = &self.pes[pe].stats;
        let mut s = cell.get();
        f(&mut s);
        cell.set(s);
    }

    /// Mark the world poisoned (a PE panicked). Barrier waiters rejoin
    /// the heap so they, like every other suspended PE, resume and panic
    /// on their own stacks.
    pub(crate) fn poison(&self) {
        self.poisoned.set(true);
        let waiting = std::mem::take(&mut self.barrier.borrow_mut().waiting);
        let mut heap = self.heap.borrow_mut();
        for q in waiting {
            heap.push(Reverse((self.pes[q].clock.get(), q)));
        }
    }

    /// Whether the world has been poisoned by a peer panic.
    pub(crate) fn is_poisoned(&self) -> bool {
        self.poisoned.get()
    }

    fn poison_panic() -> ! {
        panic!("virtual-time world poisoned: a peer PE panicked");
    }

    /// Entry check of every switching operation. Returns `false` when the
    /// caller must not switch: it runs during a panic's unwinding, whose
    /// panic count belongs to this OS thread — resuming a peer would hand
    /// that peer a thread that looks like it is panicking. Such an entry
    /// poisons the world and lets the operation proceed unordered.
    fn may_switch(&self) -> bool {
        if std::thread::panicking() {
            self.poison();
            return false;
        }
        if self.poisoned.get() {
            Self::poison_panic();
        }
        true
    }

    /// Suspend the running PE `from` (or exit it) and resume `to`, or the
    /// host when `to` is `None`. One wall-clock read per switch feeds
    /// both sides' suspended time.
    fn switch(&self, from: Option<usize>, to: Option<usize>) {
        // Saving into the wrong slot would later resume a context that
        // does not exist; this check is what lets callers stay safe.
        assert_eq!(
            self.current.get(),
            from,
            "switch away from a context that is not running"
        );
        assert_ne!(from, to, "switch to the running context");
        self.current.set(to);
        let t = Instant::now();
        let save = match from {
            Some(pe) => {
                self.pes[pe].suspended_at.set(t);
                &self.pes[pe].sp
            }
            None => &self.host_sp,
        };
        let target = match to {
            Some(q) => {
                let waited = t.duration_since(self.pes[q].suspended_at.get());
                self.bump(q, |s| s.gate_wait_ns += waited.as_nanos() as u64);
                self.pes[q].sp.get()
            }
            None => self.host_sp.get(),
        };
        // SAFETY: `target` is the saved stack pointer of a context that
        // is suspended right now, and `save` belongs to the context that
        // is running (checked above). The target is the host
        // (suspended in `run` while any PE runs), or a PE just popped
        // from the heap: every heap entry is a PE that switched away (or
        // was prepared by `run`) and has not been resumed since. Stacks
        // and bodies stay in place until `run` returns, after every PE
        // has exited.
        unsafe { coro::switch(save, target) };
    }

    /// Pop the heap minimum: the PE that runs next.
    fn pop_next(&self) -> Option<usize> {
        self.heap.borrow_mut().pop().map(|Reverse((_, q))| q)
    }

    /// Suspend `pe` (already back in the heap or parked in a barrier)
    /// and run `next`. Returns when some PE resumes `pe`.
    fn suspend(&self, pe: usize, next: Option<usize>) {
        self.bump(pe, |s| s.switches += 1);
        debug_assert!(next.is_some(), "PE {pe} suspended with no runnable peer");
        self.switch(Some(pe), next);
    }

    /// Advance `pe`'s clock by `dt` ns without gating (local work: task
    /// execution, queue bookkeeping).
    #[inline]
    pub(crate) fn advance(&self, pe: usize, dt: u64) {
        let c = &self.pes[pe].clock;
        c.set(c.get().saturating_add(dt));
    }

    /// Return once `pe` holds the minimal `(clock, pe)` among the PEs that
    /// may apply effects. The caller may then apply one shared-visible
    /// effect, and must then call `VClock::advance` with the effect's
    /// nonzero cost.
    #[inline]
    pub(crate) fn gate(&self, pe: usize) {
        let key = (self.pes[pe].clock.get(), pe);
        let blocked = matches!(self.heap.borrow().peek(), Some(&Reverse(min)) if min < key);
        if blocked || self.poisoned.get() {
            self.gate_slow(pe, key);
        } else {
            self.bump(pe, |s| s.fast_ops += 1);
        }
    }

    #[cold]
    fn gate_slow(&self, pe: usize, key: (u64, usize)) {
        if !self.may_switch() {
            return;
        }
        self.bump(pe, |s| s.slow_ops += 1);
        // The heap minimum runs next and this PE takes its slot: one
        // sift instead of a push and a pop.
        let next = match self.heap.borrow_mut().peek_mut() {
            Some(mut top) => std::mem::replace(&mut *top, Reverse(key)).0 .1,
            // Unreachable: a blocked gate saw a smaller key in the heap.
            None => return,
        };
        self.suspend(pe, Some(next));
        if self.poisoned.get() {
            Self::poison_panic();
        }
    }

    /// Gate, apply `f`, advance by `cost` (clamped ≥ 1 ns), return `f`'s
    /// result. This is the one-stop shop used for remote operations.
    pub(crate) fn gated<R>(&self, pe: usize, cost: u64, f: impl FnOnce() -> R) -> R {
        self.gate(pe);
        let r = f();
        self.advance(pe, cost.max(1));
        r
    }

    /// Synchronize all live PEs: every clock jumps to
    /// `max(entry clocks) + cost`. PEs inside the barrier stay out of the
    /// heap (they apply no effects until release).
    pub(crate) fn barrier(&self, pe: usize, cost: u64) {
        if !self.may_switch() {
            return;
        }
        let gen = {
            let mut b = self.barrier.borrow_mut();
            b.waiting.push(pe);
            b.max_clock = b.max_clock.max(self.pes[pe].clock.get());
            b.generation
        };
        if self.maybe_release_barrier(cost, Some(pe)) {
            return;
        }
        self.suspend(pe, self.pop_next());
        // Resumed either by the release (generation bumped) or by poison.
        if self.barrier.borrow().generation == gen {
            Self::poison_panic();
        }
    }

    /// Release the pending barrier if every live PE has arrived: every
    /// waiter gets the synchronized clock, and all but `running` (the
    /// last arrival, which carries on) rejoin the heap. Returns whether it
    /// released.
    fn maybe_release_barrier(&self, cost: u64, running: Option<usize>) -> bool {
        let mut b = self.barrier.borrow_mut();
        if b.waiting.is_empty() || b.waiting.len() != self.live.get() {
            return false;
        }
        let new_t = b.max_clock.saturating_add(cost);
        let mut heap = self.heap.borrow_mut();
        for q in b.waiting.drain(..) {
            self.pes[q].clock.set(new_t);
            if Some(q) != running {
                heap.push(Reverse((new_t, q)));
            }
        }
        b.max_clock = 0;
        b.generation += 1;
        true
    }

    /// Retire `pe` for good: its clock freezes (still readable via
    /// `VClock::now`) and it no longer holds back the gate or barriers.
    /// A barrier that was waiting only for `pe` releases (at its max entry
    /// clock, with no cost: `pe` never arrived to name one). Then the next
    /// PE runs, or the host once every PE has exited.
    pub(crate) fn exit(&self, pe: usize) -> ! {
        self.live.set(self.live.get() - 1);
        self.maybe_release_barrier(0, None);
        self.switch(Some(pe), self.pop_next());
        // Nothing resumes an exited PE.
        std::process::abort()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Run `body(vc, pe)` on every PE of an `n`-PE executor; a panicking
    /// body poisons the world. Returns each PE's outcome and final clock.
    fn run_pes<T>(
        n: usize,
        body: impl Fn(&VClock, usize) -> T,
    ) -> (Vec<std::thread::Result<T>>, Vec<u64>) {
        let vc = VClock::new(n);
        let slots: Vec<RefCell<Option<std::thread::Result<T>>>> =
            (0..n).map(|_| RefCell::new(None)).collect();
        let mut bodies: Vec<Body<'_>> = (0..n)
            .map(|pe| {
                let (vc, slot, body) = (&vc, &slots[pe], &body);
                Box::new(move || {
                    let out = catch_unwind(AssertUnwindSafe(|| body(vc, pe)));
                    if out.is_err() {
                        vc.poison();
                    }
                    *slot.borrow_mut() = Some(out);
                    vc.exit(pe)
                }) as Body<'_>
            })
            .collect();
        vc.run(&mut bodies).unwrap();
        drop(bodies);
        let clocks = (0..n).map(|pe| vc.now(pe)).collect();
        let outs = slots.into_iter().map(|s| s.into_inner().unwrap()).collect();
        (outs, clocks)
    }

    #[test]
    fn single_pe_never_switches() {
        let (outs, clocks) = run_pes(1, |vc, pe| {
            vc.gate(pe);
            vc.advance(pe, 10);
            assert_eq!(vc.now(pe), 10);
            let r = vc.gated(pe, 5, || 42);
            vc.advance(pe, 0);
            (r, vc.engine_stats(pe))
        });
        let (r, es) = outs.into_iter().next().unwrap().unwrap();
        assert_eq!(r, 42);
        assert_eq!(clocks, vec![15]);
        assert_eq!((es.fast_ops, es.slow_ops, es.switches), (2, 0, 0));
    }

    /// For randomized per-PE cost schedules, gated effects must apply in
    /// nondecreasing (time, pe) order and the final clocks must equal the
    /// sum of each PE's costs; a rerun must produce the same log.
    #[test]
    fn gated_effects_are_ordered_for_any_schedule() {
        for case in 0..16u64 {
            let mut rng = SplitMix64::stream(0xC10C_0CA5, case);
            let n = rng.range(2, 9) as usize;
            let schedules: Vec<Vec<u64>> = (0..n)
                .map(|_| {
                    let len = rng.range(1, 30) as usize;
                    (0..len).map(|_| rng.range(1, 500)).collect()
                })
                .collect();
            let run = || {
                let log = RefCell::new(Vec::new());
                let (_, clocks) = run_pes(n, |vc, pe| {
                    for &c in &schedules[pe] {
                        let t = vc.now(pe);
                        vc.gated(pe, c, || log.borrow_mut().push((t, pe)));
                    }
                });
                (log.into_inner(), clocks)
            };
            let (log, clocks) = run();
            assert_eq!(
                log.len(),
                schedules.iter().map(Vec::len).sum::<usize>(),
                "case {case}"
            );
            for w in log.windows(2) {
                assert!(
                    w[0] <= w[1],
                    "case {case}: order violated: {:?} -> {:?}",
                    w[0],
                    w[1]
                );
            }
            for (pe, costs) in schedules.iter().enumerate() {
                assert_eq!(clocks[pe], costs.iter().sum::<u64>(), "case {case} pe {pe}");
            }
            assert_eq!(run(), (log, clocks), "case {case}: rerun diverged");
        }
    }

    #[test]
    fn barrier_synchronizes_clocks() {
        let (outs, _) = run_pes(4, |vc, pe| {
            vc.advance(pe, (pe as u64 + 1) * 100);
            vc.barrier(pe, 50);
            let t = vc.now(pe);
            // A second barrier right after the first reuses the state.
            vc.advance(pe, pe as u64);
            vc.barrier(pe, 1);
            (t, vc.now(pe))
        });
        let times: Vec<(u64, u64)> = outs.into_iter().map(Result::unwrap).collect();
        // max entry clock = 400, +50 barrier cost; then 453 + 1.
        assert!(times.iter().all(|&t| t == (450, 454)), "{times:?}");
    }

    #[test]
    fn finished_pes_do_not_block_gate_or_barrier() {
        // PE 0 exits at clock 1; PE 1 at clock 0 must pass the gate, and
        // PEs 1 and 2 must complete a barrier without PE 0.
        let (outs, clocks) = run_pes(3, |vc, pe| {
            if pe == 0 {
                vc.advance(pe, 1);
                return 0;
            }
            vc.gated(pe, 10, || ());
            vc.barrier(pe, 5);
            vc.now(pe)
        });
        assert!(outs.iter().all(Result::is_ok));
        assert_eq!(clocks, vec![1, 15, 15]);
    }

    #[test]
    fn exit_releases_a_barrier_waiting_on_it() {
        // PEs 0 and 1 wait in a barrier that PE 2 never enters: its exit
        // releases them at the max entry clock, with no cost.
        let (_, clocks) = run_pes(3, |vc, pe| {
            vc.advance(pe, 100 * (pe as u64 + 1));
            if pe < 2 {
                vc.barrier(pe, 7);
            }
        });
        assert_eq!(clocks, vec![200, 200, 300]);
    }

    #[test]
    fn poison_wakes_suspended_peers() {
        // PE 1 is suspended at a gate behind PE 0's lower clock, and PE 2
        // waits in a barrier, when PE 0 panics: both must fail with the
        // poison message instead of hanging.
        let (outs, _) = run_pes(3, |vc, pe| match pe {
            0 => {
                vc.gated(pe, 1, || ());
                panic!("deliberate test panic");
            }
            1 => {
                vc.advance(pe, 100);
                vc.gate(pe);
            }
            _ => vc.barrier(pe, 1),
        });
        let msg = |r: &std::thread::Result<()>| match r {
            Err(p) => p
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap(),
            Ok(()) => String::from("ok"),
        };
        assert!(msg(&outs[0]).contains("deliberate"));
        assert!(msg(&outs[1]).contains("poisoned"), "{}", msg(&outs[1]));
        assert!(msg(&outs[2]).contains("poisoned"), "{}", msg(&outs[2]));
    }

    #[test]
    fn gate_during_unwinding_does_not_switch() {
        // PE 0 panics while PE 1 (clock 0 < 5) would win the gate; the
        // gate entered from a destructor during unwinding must neither
        // switch nor panic again, and must poison the world.
        struct RemoteOpOnDrop<'a>(&'a VClock, &'a Cell<bool>);
        impl Drop for RemoteOpOnDrop<'_> {
            fn drop(&mut self) {
                self.0.gated(0, 1, || self.1.set(true));
            }
        }
        let applied = Cell::new(false);
        let (outs, _) = run_pes(2, |vc, pe| {
            if pe == 0 {
                vc.advance(pe, 5);
                let _guard = RemoteOpOnDrop(vc, &applied);
                panic!("deliberate test panic");
            }
            vc.advance(pe, 10);
            vc.gate(pe);
        });
        assert!(applied.get(), "the destructor's op ran without switching");
        assert!(outs[0].is_err());
        assert!(outs[1].is_err(), "PE 1 saw the poison");
    }
}
