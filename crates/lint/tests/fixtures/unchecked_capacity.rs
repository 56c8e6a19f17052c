//! Unchecked-capacity fixture: panicking constructors where try_* exists.

pub fn build(n: usize) -> ProcessSet {
    ProcessSet::full(n)
}

// ProcessSet::full(n) in a comment must not fire.
pub const DOC: &str = "ProcessSet::singleton(p)";

pub fn fine(n: usize) -> Result<ProcessSet, CapacityError> {
    ProcessSet::try_full(n)
}

pub fn suppressed(p: ProcessId) -> ProcessSet {
    // kset-lint: allow(unchecked-capacity): fixture proves suppression works
    ProcessSet::singleton(p)
}

pub fn turbofish(inputs: Vec<u64>, plan: CrashPlan, oracle: O) -> Simulation<P, O> {
    Simulation::<P, O>::with_oracle(inputs, plan, oracle)
}

pub fn turbofish_suppressed(inputs: Vec<u64>) -> Simulation<P, Box<dyn Oracle<Sample = ()>>> {
    // kset-lint: allow(unchecked-capacity): fixture proves suppression works
    Simulation::<P, Box<dyn Oracle<Sample = ()>>>::new(inputs, CrashPlan::none())
}

pub fn turbofish_fine(inputs: Vec<u64>) -> Result<Simulation<P, O>, CapacityError> {
    let _ = Other::<P, O>::new(inputs.clone());
    Simulation::<P, O>::try_new(inputs, CrashPlan::none())
}

#[cfg(test)]
mod tests {
    pub fn in_tests() {
        let _ = ProcessSet::full(8);
    }
}
