//! Keeps the load generator off the engine's CPUs.
//!
//! The generator spins on the core it runs on. Left to the scheduler, the
//! engine's threads sometimes share that core and sometimes do not, and
//! turnaround differs by about 2× between the two placements. Pinning the
//! generator to one CPU and the engine to the rest makes the placement
//! the same in every run. Threads inherit the affinity of the thread that
//! spawns them, so the caller pins itself to the engine's CPUs before the
//! engine spawns its workers.

/// `cpu_set_t`: 1024 CPUs, one bit each.
type Mask = [u64; 16];

#[cfg(target_os = "linux")]
mod sys {
    extern "C" {
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
}

#[cfg(target_os = "linux")]
fn get() -> Option<Mask> {
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a writable `cpu_set_t`-sized buffer and the size
    // passed is its length in bytes; pid 0 names the calling thread.
    let rc = unsafe { sys::sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

#[cfg(target_os = "linux")]
fn set(mask: &Mask) {
    // SAFETY: `mask` is a readable `cpu_set_t`-sized buffer and the size
    // passed is its length in bytes; pid 0 names the calling thread.
    let rc = unsafe { sys::sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) };
    assert_eq!(
        rc, 0,
        "sched_setaffinity rejected a subset of the thread's own CPUs"
    );
}

#[cfg(not(target_os = "linux"))]
fn get() -> Option<Mask> {
    None
}

#[cfg(not(target_os = "linux"))]
fn set(_: &Mask) {}

/// The calling thread's CPUs, split into the generator's and the engine's.
pub struct Placement {
    all: Mask,
    engine: Mask,
    generator: Mask,
}

impl Placement {
    /// Gives the highest-numbered CPU of the calling thread to the
    /// generator and the others to the engine; `None` with fewer than two
    /// CPUs or where affinity is unavailable.
    pub fn split() -> Option<Placement> {
        let all = get()?;
        let (word, bit) = all
            .iter()
            .enumerate()
            .rev()
            .find(|(_, w)| **w != 0)
            .map(|(i, w)| (i, 63 - w.leading_zeros() as usize))?;
        let mut generator = [0u64; 16];
        generator[word] = 1 << bit;
        let mut engine = all;
        engine[word] &= !(1 << bit);
        engine.iter().any(|w| *w != 0).then_some(Placement {
            all,
            engine,
            generator,
        })
    }

    /// Pins the calling thread (and the threads it spawns) to the
    /// engine's CPUs.
    pub fn engine(&self) {
        set(&self.engine);
    }

    /// Pins the calling thread to the generator's CPU.
    pub fn generator(&self) {
        set(&self.generator);
    }

    /// Restores the calling thread's original CPUs.
    pub fn release(&self) {
        set(&self.all);
    }
}
