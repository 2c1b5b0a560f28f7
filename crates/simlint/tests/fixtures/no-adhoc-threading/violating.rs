//! Fixture: ad-hoc thread creation outside the sanctioned pool module.
//! Raw spawns get none of the execute-once/join-once ledger, the
//! index-addressed slot writes, or the schedule-replay coverage of
//! simcore::parallel.
pub fn rebuild_in_background(work: impl FnOnce() + Send + 'static) {
    std::thread::spawn(work);
}
