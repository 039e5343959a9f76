//! Configurations: points of the search grid.

/// Opaque identifier of a configuration within its [`ConfigSpace`].
///
/// Ids enumerate the Cartesian grid in row-major order (the last declared
/// dimension varies fastest), so `0..space.len()` covers the whole space.
///
/// [`ConfigSpace`]: crate::ConfigSpace
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ConfigId(pub usize);

impl ConfigId {
    /// The raw index value.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for ConfigId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

impl From<usize> for ConfigId {
    fn from(value: usize) -> Self {
        ConfigId(value)
    }
}

/// A configuration: one level index per dimension of the space.
///
/// Configurations are meaningful only relative to the [`ConfigSpace`] that
/// produced them; the space converts them to human-readable values and to
/// feature vectors for the surrogate model.
///
/// [`ConfigSpace`]: crate::ConfigSpace
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Config {
    levels: Vec<usize>,
}

impl Config {
    /// Creates a configuration from per-dimension level indices.
    #[must_use]
    pub fn new(levels: Vec<usize>) -> Self {
        Self { levels }
    }

    /// Per-dimension level indices.
    #[must_use]
    pub fn levels(&self) -> &[usize] {
        &self.levels
    }

    /// Level index of dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is out of range.
    #[must_use]
    pub fn level(&self, dim: usize) -> usize {
        self.levels[dim]
    }

    /// Number of dimensions.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.levels.len()
    }
}

impl From<Vec<usize>> for Config {
    fn from(levels: Vec<usize>) -> Self {
        Config::new(levels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_id_display_and_conversions() {
        let id = ConfigId::from(17usize);
        assert_eq!(id.index(), 17);
        assert_eq!(id.to_string(), "#17");
        assert!(ConfigId(3) < ConfigId(4));
    }

    #[test]
    fn config_accessors() {
        let c = Config::from(vec![0, 2, 1]);
        assert_eq!(c.dims(), 3);
        assert_eq!(c.level(1), 2);
        assert_eq!(c.levels(), &[0, 2, 1]);
    }
}
