//! Pinning the calling thread to one processor, for timing set-up. On a
//! shared virtual machine one processor can run 30% slower than another
//! for minutes (whatever the host runs beside it), and a single-threaded
//! set-up stays on the processor it started on; timing it on each
//! processor in turn takes that out of `setup_s`.

/// Words of a `cpu_set_t` (1 024 processors).
const WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A set of processors a thread may run on.
#[derive(Clone)]
pub struct Mask([u64; WORDS]);

impl Mask {
    /// The processors the calling thread may run on now.
    pub fn current() -> Option<Mask> {
        let mut words = [0u64; WORDS];
        // SAFETY: `words` is a writable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&words), words.as_mut_ptr()) };
        (rc == 0).then_some(Mask(words))
    }

    /// The mask holding processor `cpu` alone.
    pub fn only(cpu: usize) -> Mask {
        let mut words = [0u64; WORDS];
        words[cpu / 64] |= 1 << (cpu % 64);
        Mask(words)
    }

    /// The processors in the mask, in order.
    pub fn cpus(&self) -> Vec<usize> {
        (0..WORDS * 64)
            .filter(|&cpu| self.0[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    }

    /// Restricts the calling thread (and threads it starts from now on)
    /// to the mask; `false` if the kernel refused.
    pub fn apply(&self) -> bool {
        // SAFETY: `self.0` is a readable buffer of exactly the size
        // passed; pid 0 names the calling thread.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&self.0), self.0.as_ptr()) };
        rc == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_list_their_processors() {
        assert_eq!(Mask::only(0).cpus(), vec![0]);
        assert_eq!(Mask::only(65).cpus(), vec![65]);
        let current = Mask::current().expect("affinity is readable");
        assert!(!current.cpus().is_empty());
    }
}
