//! CPU affinity of the serve phase's threads.
//!
//! Connection R's client and the server thread answering it hand every
//! reply across a socket. On a 2-core VM, a read took about half as long
//! again in some stretches of reads as in others while the scheduler
//! placed the two, and not when both were pinned to one core. R's loop therefore runs with
//! R's client and R's server thread pinned to one core, so that every read
//! runs under the same placement. On systems other than Linux, or where
//! the calls are refused, nothing is pinned and the settings line says so.

/// A thread id (`0` is the calling thread).
pub type Tid = i32;

/// Words of a `cpu_set_t` (1024 CPUs).
const WORDS: usize = 16;

#[cfg(target_os = "linux")]
mod sys {
    use super::{Tid, WORDS};

    extern "C" {
        fn sched_getaffinity(pid: Tid, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: Tid, size: usize, mask: *const u64) -> i32;
    }

    pub fn get(tid: Tid) -> Option<[u64; WORDS]> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed.
        let rc = unsafe { sched_getaffinity(tid, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    pub fn set(tid: Tid, mask: &[u64; WORDS]) -> bool {
        // SAFETY: `mask` is a readable buffer of exactly the size passed.
        unsafe { sched_setaffinity(tid, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
    }

    pub fn threads() -> Vec<Tid> {
        let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
            return Vec::new();
        };
        let mut tids: Vec<Tid> = dir
            .filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
            .collect();
        tids.sort_unstable();
        tids
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::{Tid, WORDS};

    pub fn get(_: Tid) -> Option<[u64; WORDS]> {
        None
    }

    pub fn set(_: Tid, _: &[u64; WORDS]) -> bool {
        false
    }

    pub fn threads() -> Vec<Tid> {
        Vec::new()
    }
}

/// The CPUs the calling thread may run on, in increasing order.
pub fn allowed() -> Vec<usize> {
    let Some(mask) = sys::get(0) else {
        return Vec::new();
    };
    (0..WORDS * 64)
        .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Let thread `tid` run on `cpus` only. False if refused.
pub fn pin(tid: Tid, cpus: &[usize]) -> bool {
    let mut mask = [0u64; WORDS];
    for &cpu in cpus.iter().filter(|&&c| c < WORDS * 64) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    !cpus.is_empty() && sys::set(tid, &mask)
}

/// Ids of this process's threads, in increasing order.
pub fn threads() -> Vec<Tid> {
    sys::threads()
}

/// The one thread of `after` that is not in `before` and still in
/// `now`, if exactly one is.
pub fn new_thread(before: &[Tid], after: &[Tid], now: &[Tid]) -> Option<Tid> {
    let mut fresh = after
        .iter()
        .filter(|t| !before.contains(t) && now.contains(t));
    match (fresh.next(), fresh.next()) {
        (Some(&tid), None) => Some(tid),
        _ => None,
    }
}

/// Where connection R's threads run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// Every CPU the process may use.
    pub all: Vec<usize>,
    /// The CPU of connection R's client and of R's server thread.
    pub r_cpu: usize,
}

impl Placement {
    /// Pin `r`, the server thread of connection R, to the first allowed
    /// CPU. `None` if the system refuses.
    pub fn pin_server(r: Tid) -> Option<Placement> {
        let all = allowed();
        let r_cpu = *all.first()?;
        pin(r, &[r_cpu]).then_some(Placement { all, r_cpu })
    }

    /// Move the calling thread, connection R's client, onto R's CPU.
    pub fn enter_r(&self) {
        pin(0, &[self.r_cpu]);
    }

    /// Let the calling thread run anywhere again.
    pub fn leave_r(&self) {
        pin(0, &self.all);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_thread_needs_exactly_one() {
        assert_eq!(new_thread(&[1, 2], &[1, 2, 7], &[1, 2, 7]), Some(7));
        assert_eq!(new_thread(&[1, 2], &[1, 2], &[1, 2]), None);
        assert_eq!(new_thread(&[1], &[1, 5, 6], &[1, 5, 6]), None);
        assert_eq!(new_thread(&[1, 4], &[1, 9], &[1, 9]), Some(9));
        // A thread that has exited since does not count.
        assert_eq!(new_thread(&[1], &[1, 5, 6], &[1, 6]), Some(6));
    }

    /// The calling thread's id.
    #[cfg(target_os = "linux")]
    fn current() -> Option<Tid> {
        let link = std::fs::read_link("/proc/thread-self").ok()?;
        link.file_name()?.to_str()?.parse().ok()
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_thread_can_be_pinned_by_its_id() {
        let cpus = allowed();
        assert!(!cpus.is_empty());
        let (tx, rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let h = std::thread::spawn(move || {
            tx.send(current()).unwrap();
            done_rx.recv().unwrap();
            allowed()
        });
        let tid = rx.recv().unwrap().expect("thread id");
        assert!(threads().contains(&tid));
        assert!(pin(tid, &cpus[..1]));
        done_tx.send(()).unwrap();
        assert_eq!(h.join().unwrap(), cpus[..1].to_vec());
    }
}
