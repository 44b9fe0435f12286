use std::fmt;

/// Identifier of a self-adaptive application.
///
/// Newtype over `u64` so application ids cannot be confused with
/// heartbeat indices or core ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AppId(pub u64);

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "app{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_id_display() {
        assert_eq!(AppId(3).to_string(), "app3");
    }
}
