//! Virtual-machine shapes.

/// EC2-style instance families used across the paper's three datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VmFamily {
    /// Burstable general purpose (`t2`), used by the TensorFlow dataset.
    T2,
    /// Compute optimized (`c4`).
    C4,
    /// General purpose (`m4`).
    M4,
    /// Memory optimized (`r4`).
    R4,
    /// Memory optimized, previous generation (`r3`).
    R3,
    /// Storage optimized (`i2`).
    I2,
}

impl VmFamily {
    /// Lowercase family prefix used in instance names (e.g. `"c4"`).
    #[must_use]
    pub fn prefix(self) -> &'static str {
        match self {
            VmFamily::T2 => "t2",
            VmFamily::C4 => "c4",
            VmFamily::M4 => "m4",
            VmFamily::R4 => "r4",
            VmFamily::R3 => "r3",
            VmFamily::I2 => "i2",
        }
    }
}

impl std::fmt::Display for VmFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.prefix())
    }
}

/// Instance sizes used across the paper's datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum VmSize {
    /// `small` (t2 only).
    Small,
    /// `medium` (t2 only).
    Medium,
    /// `large`.
    Large,
    /// `xlarge`.
    Xlarge,
    /// `2xlarge`.
    Xlarge2,
}

impl VmSize {
    /// The suffix used in instance names (e.g. `"2xlarge"`).
    #[must_use]
    pub fn suffix(self) -> &'static str {
        match self {
            VmSize::Small => "small",
            VmSize::Medium => "medium",
            VmSize::Large => "large",
            VmSize::Xlarge => "xlarge",
            VmSize::Xlarge2 => "2xlarge",
        }
    }
}

impl std::fmt::Display for VmSize {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.suffix())
    }
}

/// One virtual-machine shape: capacity, relative speed and on-demand price.
///
/// The `relative_core_speed` and `network_gbps` fields feed the analytic job
/// simulators (they are not visible to the optimizer, which only ever sees
/// measured runtimes and prices).
#[derive(Debug, Clone, PartialEq)]
pub struct VmType {
    /// Instance family.
    pub family: VmFamily,
    /// Instance size.
    pub size: VmSize,
    /// Number of virtual CPUs.
    pub vcpus: u32,
    /// RAM in GiB.
    pub ram_gb: f64,
    /// On-demand price in dollars per hour.
    pub price_per_hour: f64,
    /// Per-core speed relative to an `m4` core (1.0).
    pub relative_core_speed: f64,
    /// Network bandwidth in Gbit/s.
    pub network_gbps: f64,
}

impl VmType {
    /// Full instance name, e.g. `"c4.xlarge"`.
    #[must_use]
    pub fn name(&self) -> String {
        format!("{}.{}", self.family.prefix(), self.size.suffix())
    }

    /// Price in dollars per second (per-second billing).
    #[must_use]
    pub fn price_per_second(&self) -> f64 {
        self.price_per_hour / 3600.0
    }
}

impl std::fmt::Display for VmType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({} vCPU, {} GB, ${}/h)",
            self.name(),
            self.vcpus,
            self.ram_gb,
            self.price_per_hour
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_vm() -> VmType {
        VmType {
            family: VmFamily::C4,
            size: VmSize::Xlarge,
            vcpus: 4,
            ram_gb: 7.5,
            price_per_hour: 0.199,
            relative_core_speed: 1.2,
            network_gbps: 1.0,
        }
    }

    #[test]
    fn names_are_composed_from_family_and_size() {
        assert_eq!(sample_vm().name(), "c4.xlarge");
        assert_eq!(VmFamily::T2.to_string(), "t2");
        assert_eq!(VmSize::Xlarge2.to_string(), "2xlarge");
    }

    #[test]
    fn per_second_price_is_hourly_price_divided_by_3600() {
        let vm = sample_vm();
        assert!((vm.price_per_second() * 3600.0 - vm.price_per_hour).abs() < 1e-12);
    }

    #[test]
    fn sizes_are_ordered() {
        assert!(VmSize::Small < VmSize::Medium);
        assert!(VmSize::Large < VmSize::Xlarge);
        assert!(VmSize::Xlarge < VmSize::Xlarge2);
    }

    #[test]
    fn display_mentions_the_name_and_price() {
        let text = sample_vm().to_string();
        assert!(text.contains("c4.xlarge"));
        assert!(text.contains("0.199"));
    }
}
