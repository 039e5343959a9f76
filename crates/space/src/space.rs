//! The configuration grid.

use crate::config::{Config, ConfigId};
use crate::domain::{Domain, Value};

/// Errors produced when building or querying a configuration space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpaceError {
    /// The space was built with no dimensions.
    Empty,
    /// Two dimensions share the same name.
    DuplicateDimension(String),
    /// A configuration refers to a dimension or level that does not exist.
    InvalidConfig(String),
}

impl std::fmt::Display for SpaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpaceError::Empty => write!(f, "configuration space has no dimensions"),
            SpaceError::DuplicateDimension(name) => {
                write!(f, "duplicate dimension name `{name}`")
            }
            SpaceError::InvalidConfig(reason) => write!(f, "invalid configuration: {reason}"),
        }
    }
}

impl std::error::Error for SpaceError {}

/// A finite Cartesian configuration grid.
///
/// The grid is the full Cartesian product of its dimensions' levels; ids
/// enumerate it in row-major order. Datasets with irregular spaces (e.g. the
/// Scout grid, where `xlarge` clusters stop at 24 instances) restrict the grid
/// with [`ConfigSpace::restrict`] and run the optimizer over the surviving
/// ids.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigSpace {
    dimensions: Vec<Domain>,
    /// Row-major strides, same length as `dimensions`.
    strides: Vec<usize>,
    size: usize,
}

impl ConfigSpace {
    /// Builds a space from its dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError::Empty`] if no dimension is given and
    /// [`SpaceError::DuplicateDimension`] if two dimensions share a name.
    pub fn new(dimensions: Vec<Domain>) -> Result<Self, SpaceError> {
        if dimensions.is_empty() {
            return Err(SpaceError::Empty);
        }
        for (i, d) in dimensions.iter().enumerate() {
            if dimensions[..i].iter().any(|other| other.name() == d.name()) {
                return Err(SpaceError::DuplicateDimension(d.name().to_owned()));
            }
        }
        let mut strides = vec![1usize; dimensions.len()];
        for i in (0..dimensions.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * dimensions[i + 1].cardinality();
        }
        let size = dimensions.iter().map(Domain::cardinality).product();
        Ok(Self {
            dimensions,
            strides,
            size,
        })
    }

    /// Number of configurations in the full grid.
    #[must_use]
    pub fn len(&self) -> usize {
        self.size
    }

    /// True if the grid is empty (never the case for a successfully
    /// constructed space, but required by convention).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// Number of dimensions.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.dimensions.len()
    }

    /// The dimensions of the grid, in declaration order.
    #[must_use]
    pub fn dimensions(&self) -> &[Domain] {
        &self.dimensions
    }

    /// Cardinality of each dimension, in declaration order.
    #[must_use]
    pub fn cardinalities(&self) -> Vec<usize> {
        self.dimensions.iter().map(Domain::cardinality).collect()
    }

    /// The configuration with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id >= self.len()`.
    #[must_use]
    pub fn config(&self, id: usize) -> Config {
        assert!(
            id < self.size,
            "configuration id {id} out of range ({})",
            self.size
        );
        let levels = self
            .strides
            .iter()
            .zip(&self.dimensions)
            .map(|(&stride, dim)| (id / stride) % dim.cardinality())
            .collect();
        Config::new(levels)
    }

    /// The configuration with the given [`ConfigId`].
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn config_of(&self, id: ConfigId) -> Config {
        self.config(id.index())
    }

    /// The id of a configuration, if it belongs to the grid.
    #[must_use]
    pub fn id_of(&self, config: &Config) -> Option<usize> {
        if config.dims() != self.dims() {
            return None;
        }
        let mut id = 0usize;
        for ((&level, stride), dim) in config
            .levels()
            .iter()
            .zip(&self.strides)
            .zip(&self.dimensions)
        {
            if level >= dim.cardinality() {
                return None;
            }
            id += level * stride;
        }
        Some(id)
    }

    /// Builds a configuration from named values.
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError::InvalidConfig`] if a dimension is missing, a
    /// name is unknown, or a value is not one of the dimension's levels.
    pub fn config_from_values(&self, values: &[(&str, Value)]) -> Result<Config, SpaceError> {
        let mut levels = vec![usize::MAX; self.dims()];
        for (name, value) in values {
            let dim_index = self
                .dimensions
                .iter()
                .position(|d| d.name() == *name)
                .ok_or_else(|| SpaceError::InvalidConfig(format!("unknown dimension `{name}`")))?;
            let level = self.dimensions[dim_index].level_of(value).ok_or_else(|| {
                SpaceError::InvalidConfig(format!("value `{value}` not in dimension `{name}`"))
            })?;
            levels[dim_index] = level;
        }
        if let Some(missing) = levels.iter().position(|&l| l == usize::MAX) {
            return Err(SpaceError::InvalidConfig(format!(
                "dimension `{}` not specified",
                self.dimensions[missing].name()
            )));
        }
        Ok(Config::new(levels))
    }

    /// The human-readable values of a configuration, in dimension order.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has the wrong number of dimensions or an
    /// out-of-range level.
    #[must_use]
    pub fn values(&self, config: &Config) -> Vec<(String, Value)> {
        assert_eq!(config.dims(), self.dims(), "dimension count mismatch");
        config
            .levels()
            .iter()
            .zip(&self.dimensions)
            .map(|(&level, dim)| (dim.name().to_owned(), dim.value(level)))
            .collect()
    }

    /// The feature vector of a configuration, as consumed by surrogate models.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has the wrong number of dimensions or an
    /// out-of-range level.
    #[must_use]
    pub fn features(&self, config: &Config) -> Vec<f64> {
        assert_eq!(config.dims(), self.dims(), "dimension count mismatch");
        config
            .levels()
            .iter()
            .zip(&self.dimensions)
            .map(|(&level, dim)| dim.feature(level))
            .collect()
    }

    /// The feature vector of the configuration with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn features_of(&self, id: ConfigId) -> Vec<f64> {
        self.features(&self.config_of(id))
    }

    /// Iterates over every configuration id of the full grid.
    pub fn ids(&self) -> impl Iterator<Item = ConfigId> + '_ {
        (0..self.size).map(ConfigId)
    }

    /// Iterates over every configuration of the full grid.
    pub fn iter(&self) -> impl Iterator<Item = Config> + '_ {
        (0..self.size).map(|id| self.config(id))
    }

    /// The ids of the configurations satisfying a predicate.
    ///
    /// Used to carve irregular spaces (e.g. "xlarge clusters only go up to 24
    /// instances") out of the full Cartesian grid.
    #[must_use]
    pub fn restrict<F>(&self, mut keep: F) -> Vec<ConfigId>
    where
        F: FnMut(&Config) -> bool,
    {
        self.ids().filter(|id| keep(&self.config_of(*id))).collect()
    }

    /// Looks up a dimension by name.
    #[must_use]
    pub fn dimension(&self, name: &str) -> Option<&Domain> {
        self.dimensions.iter().find(|d| d.name() == name)
    }

    /// Index of a dimension by name.
    #[must_use]
    pub fn dimension_index(&self, name: &str) -> Option<usize> {
        self.dimensions.iter().position(|d| d.name() == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SpaceBuilder;

    fn small_space() -> ConfigSpace {
        SpaceBuilder::new()
            .numeric("workers", [4.0, 8.0, 16.0])
            .categorical("vm", ["small", "large"])
            .numeric("batch", [16.0, 256.0])
            .build()
    }

    #[test]
    fn size_is_the_product_of_cardinalities() {
        let space = small_space();
        assert_eq!(space.len(), 12);
        assert!(!space.is_empty());
        assert_eq!(space.dims(), 3);
        assert_eq!(space.cardinalities(), vec![3, 2, 2]);
    }

    #[test]
    fn ids_round_trip_through_configs() {
        let space = small_space();
        for id in 0..space.len() {
            let config = space.config(id);
            assert_eq!(space.id_of(&config), Some(id));
        }
    }

    #[test]
    fn all_configs_are_distinct() {
        let space = small_space();
        let mut seen = std::collections::HashSet::new();
        for config in space.iter() {
            assert!(seen.insert(config.levels().to_vec()));
        }
        assert_eq!(seen.len(), space.len());
    }

    #[test]
    fn id_of_rejects_foreign_configs() {
        let space = small_space();
        assert_eq!(space.id_of(&Config::from(vec![0, 0])), None);
        assert_eq!(space.id_of(&Config::from(vec![5, 0, 0])), None);
    }

    #[test]
    fn features_use_numeric_values_and_category_indices() {
        let space = small_space();
        let config = space
            .config_from_values(&[
                ("workers", Value::Number(16.0)),
                ("vm", Value::Label("large".into())),
                ("batch", Value::Number(16.0)),
            ])
            .unwrap();
        assert_eq!(space.features(&config), vec![16.0, 1.0, 16.0]);
        let values = space.values(&config);
        assert_eq!(values[1].1, Value::Label("large".into()));
    }

    #[test]
    fn config_from_values_reports_problems() {
        let space = small_space();
        let missing = space.config_from_values(&[("workers", Value::Number(4.0))]);
        assert!(matches!(missing, Err(SpaceError::InvalidConfig(_))));
        let unknown = space.config_from_values(&[("gpu", Value::Number(1.0))]);
        assert!(matches!(unknown, Err(SpaceError::InvalidConfig(_))));
        let bad_value = space.config_from_values(&[
            ("workers", Value::Number(5.0)),
            ("vm", Value::Label("small".into())),
            ("batch", Value::Number(16.0)),
        ]);
        assert!(matches!(bad_value, Err(SpaceError::InvalidConfig(_))));
    }

    #[test]
    fn restriction_filters_the_grid() {
        let space = small_space();
        let only_small = space.restrict(|c| c.level(1) == 0);
        assert_eq!(only_small.len(), 6);
        for id in only_small {
            assert_eq!(space.config_of(id).level(1), 0);
        }
    }

    #[test]
    fn dimension_lookup_by_name() {
        let space = small_space();
        assert_eq!(space.dimension("vm").map(|d| d.cardinality()), Some(2));
        assert_eq!(space.dimension_index("batch"), Some(2));
        assert!(space.dimension("nope").is_none());
    }

    #[test]
    fn duplicate_and_empty_dimension_errors() {
        let err = ConfigSpace::new(vec![]).unwrap_err();
        assert_eq!(err, SpaceError::Empty);
        let err = ConfigSpace::new(vec![
            Domain::numeric("x", [1.0]),
            Domain::numeric("x", [2.0]),
        ])
        .unwrap_err();
        assert_eq!(err, SpaceError::DuplicateDimension("x".into()));
        assert!(err.to_string().contains('x'));
    }
}
