//! Messages between the application groups and the scheduler thread —
//! the request/grant protocol of §5.1.

use iosched_model::{AppId, Bytes, Time};

/// Application → scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ToScheduler {
    /// "I finished my compute phase and need to write `vol` bytes."
    Request {
        /// Requesting application.
        app: AppId,
        /// Volume of the I/O phase.
        vol: Bytes,
        /// Simulated time at which the request was issued.
        at: Time,
    },
}

/// Scheduler → application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ToApp {
    /// The requested transfer has fully completed; resume computing.
    Complete,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_plain_data() {
        let m = ToScheduler::Request {
            app: AppId(3),
            vol: Bytes::gib(1.0),
            at: Time::secs(2.0),
        };
        let copy = m;
        assert_eq!(m, copy);
        let c = ToApp::Complete;
        assert_eq!(c, ToApp::Complete);
    }
}
