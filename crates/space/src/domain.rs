//! Dimensions of a configuration space.

/// The value taken by one dimension of a configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A numeric level (e.g. number of VMs, batch size, learning rate).
    Number(f64),
    /// A categorical label (e.g. a VM type or `sync`/`async` training mode).
    Label(String),
}

impl Value {
    /// Returns the numeric value, if this is a [`Value::Number`].
    #[must_use]
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Value::Number(x) => Some(*x),
            Value::Label(_) => None,
        }
    }

    /// Returns the label, if this is a [`Value::Label`].
    #[must_use]
    pub fn as_label(&self) -> Option<&str> {
        match self {
            Value::Number(_) => None,
            Value::Label(s) => Some(s),
        }
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Number(x) => write!(f, "{x}"),
            Value::Label(s) => write!(f, "{s}"),
        }
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Number(x)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Label(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Label(s)
    }
}

/// One dimension of a configuration space: a named, finite, ordered list of
/// levels.
///
/// Numeric domains carry their levels as `f64` (the surrogate model sees the
/// actual value, so e.g. 8 vs. 112 workers are far apart); categorical domains
/// carry labels and are encoded by level index.
#[derive(Debug, Clone, PartialEq)]
pub enum Domain {
    /// Discrete numeric levels, e.g. cluster sizes `{8, 16, 32, …}`.
    Numeric {
        /// Dimension name (e.g. `"workers"`).
        name: String,
        /// Ordered list of admissible values.
        levels: Vec<f64>,
    },
    /// Categorical labels, e.g. VM types.
    Categorical {
        /// Dimension name (e.g. `"vm_type"`).
        name: String,
        /// Admissible labels, in declaration order.
        labels: Vec<String>,
    },
}

impl Domain {
    /// Creates a numeric domain.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is empty or contains a non-finite value.
    #[must_use]
    pub fn numeric(name: impl Into<String>, levels: impl IntoIterator<Item = f64>) -> Self {
        let levels: Vec<f64> = levels.into_iter().collect();
        assert!(
            !levels.is_empty(),
            "a numeric domain needs at least one level"
        );
        assert!(
            levels.iter().all(|l| l.is_finite()),
            "numeric levels must be finite"
        );
        Domain::Numeric {
            name: name.into(),
            levels,
        }
    }

    /// Creates a categorical domain.
    ///
    /// # Panics
    ///
    /// Panics if `labels` is empty.
    #[must_use]
    pub fn categorical<S: Into<String>>(
        name: impl Into<String>,
        labels: impl IntoIterator<Item = S>,
    ) -> Self {
        let labels: Vec<String> = labels.into_iter().map(Into::into).collect();
        assert!(
            !labels.is_empty(),
            "a categorical domain needs at least one label"
        );
        Domain::Categorical {
            name: name.into(),
            labels,
        }
    }

    /// Dimension name.
    #[must_use]
    pub fn name(&self) -> &str {
        match self {
            Domain::Numeric { name, .. } | Domain::Categorical { name, .. } => name,
        }
    }

    /// Number of levels of this dimension.
    #[must_use]
    pub fn cardinality(&self) -> usize {
        match self {
            Domain::Numeric { levels, .. } => levels.len(),
            Domain::Categorical { labels, .. } => labels.len(),
        }
    }

    /// The value at a given level index.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    #[must_use]
    pub fn value(&self, level: usize) -> Value {
        match self {
            Domain::Numeric { levels, .. } => Value::Number(levels[level]),
            Domain::Categorical { labels, .. } => Value::Label(labels[level].clone()),
        }
    }

    /// Numeric encoding of a level, as seen by the surrogate model.
    ///
    /// Numeric domains encode as the level's value; categorical domains encode
    /// as the level index (regression trees split on thresholds, so an ordinal
    /// encoding of a handful of categories is adequate and is what the paper's
    /// Weka setup does).
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    #[must_use]
    pub fn feature(&self, level: usize) -> f64 {
        match self {
            Domain::Numeric { levels, .. } => levels[level],
            Domain::Categorical { labels, .. } => {
                assert!(level < labels.len(), "level {level} out of range");
                level as f64
            }
        }
    }

    /// Finds the level index of a value, if it belongs to the domain.
    ///
    /// Numeric values are matched with a small relative tolerance.
    #[must_use]
    pub fn level_of(&self, value: &Value) -> Option<usize> {
        match (self, value) {
            (Domain::Numeric { levels, .. }, Value::Number(x)) => levels
                .iter()
                .position(|l| (l - x).abs() <= 1e-9 * l.abs().max(1.0)),
            (Domain::Categorical { labels, .. }, Value::Label(s)) => {
                labels.iter().position(|l| l == s)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_domain_roundtrips_values() {
        let d = Domain::numeric("workers", [8.0, 16.0, 32.0]);
        assert_eq!(d.name(), "workers");
        assert_eq!(d.cardinality(), 3);
        assert_eq!(d.value(1), Value::Number(16.0));
        assert_eq!(d.feature(2), 32.0);
        assert_eq!(d.level_of(&Value::Number(16.0)), Some(1));
        assert_eq!(d.level_of(&Value::Number(20.0)), None);
        assert_eq!(d.level_of(&Value::Label("16".into())), None);
    }

    #[test]
    fn categorical_domain_roundtrips_labels() {
        let d = Domain::categorical("vm", ["small", "large"]);
        assert_eq!(d.cardinality(), 2);
        assert_eq!(d.value(0), Value::Label("small".into()));
        assert_eq!(d.feature(1), 1.0);
        assert_eq!(d.level_of(&Value::Label("large".into())), Some(1));
        assert_eq!(d.level_of(&Value::Label("huge".into())), None);
    }

    #[test]
    fn value_accessors_and_display() {
        let n = Value::Number(2.5);
        let l = Value::Label("sync".into());
        assert_eq!(n.as_number(), Some(2.5));
        assert_eq!(n.as_label(), None);
        assert_eq!(l.as_label(), Some("sync"));
        assert_eq!(l.as_number(), None);
        assert_eq!(n.to_string(), "2.5");
        assert_eq!(l.to_string(), "sync");
        assert_eq!(Value::from(3.0), Value::Number(3.0));
        assert_eq!(Value::from("a"), Value::Label("a".into()));
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn empty_numeric_domain_panics() {
        let _ = Domain::numeric("x", []);
    }

    #[test]
    #[should_panic(expected = "at least one label")]
    fn empty_categorical_domain_panics() {
        let _ = Domain::categorical::<&str>("x", []);
    }
}
