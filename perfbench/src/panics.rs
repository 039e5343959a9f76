//! The benchmark's panic hook. Planned storm panics are counted without
//! being printed or backtraced, so durable-storm timings do not depend on
//! `RUST_BACKTRACE`; any other panic is reported and fails the run.

use std::sync::atomic::{AtomicU64, Ordering};

/// The message prefix of the panics a `TurbulentOracle` plan injects.
pub const PLANNED_PREFIX: &str = "injected mid-step panic";

static PLANNED: AtomicU64 = AtomicU64::new(0);
static UNPLANNED: AtomicU64 = AtomicU64::new(0);

pub fn install() {
    std::panic::set_hook(Box::new(|info| {
        let payload = info.payload();
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("<non-string panic payload>");
        if is_planned(message) {
            PLANNED.fetch_add(1, Ordering::Relaxed);
        } else {
            UNPLANNED.fetch_add(1, Ordering::Relaxed);
            let at = info
                .location()
                .map(|l| format!(" at {}:{}", l.file(), l.line()))
                .unwrap_or_default();
            eprintln!("perfbench: unplanned panic{at}: {message}");
        }
    }));
}

pub fn is_planned(message: &str) -> bool {
    message.starts_with(PLANNED_PREFIX)
}

/// Planned panics contained so far.
pub fn planned() -> u64 {
    PLANNED.load(Ordering::Relaxed)
}

/// Any other panic so far.
pub fn unplanned() -> u64 {
    UNPLANNED.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_storm_panics_are_planned() {
        assert!(is_planned("injected mid-step panic at oracle call 7"));
        assert!(!is_planned("index out of bounds"));
        assert!(!is_planned(
            "unrecoverable turbulence: spot instance revoked mid-run"
        ));
    }
}
