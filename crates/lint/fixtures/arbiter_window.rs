//! Fixture: lock-order rule for the memory-arbiter window lock. Fed to
//! the linter under the path `crates/core/src/arbiter.rs`, where
//! `window` classifies as mem-arbiter (rank 12). Never compiled — this
//! file is raw input for the rule engine.

impl MemoryArbiter {
    // FINDING: window (12) re-acquired while already held — two
    // arbiters never coordinate, and rank >= rank is an ordering
    // violation by definition.
    fn backwards(&self, other: &MemoryArbiter) {
        let a = self.window.lock();
        let b = other.window.lock();
        b.touch(&a);
    }

    // Clean: the first guard's scope ends before the second
    // acquisition.
    fn scoped(&self, other: &MemoryArbiter) {
        {
            let a = self.window.lock();
            a.touch();
        }
        let b = other.window.lock();
        b.touch();
    }

    // Clean: explicit drop ends the guard first — this is the shape
    // `maybe_run` uses so pool resizing happens outside the lock.
    fn dropped(&self, other: &MemoryArbiter) {
        let a = self.window.lock();
        a.touch();
        drop(a);
        let b = other.window.lock();
        b.touch();
    }
}
