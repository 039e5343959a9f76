//! The VM catalog: every instance shape used by the paper's three datasets.

use crate::vm::{VmFamily, VmSize, VmType};

/// A catalog of VM shapes with name-based lookup.
///
/// [`Catalog::aws`] reproduces the instance types used by the paper's
/// evaluation with realistic (2018-era, us-east-1) on-demand prices. Absolute
/// prices only matter up to a scale factor — the evaluation metric (cost
/// normalized w.r.t. the optimum) is scale free — but keeping realistic
/// relative prices preserves the trade-offs between big-and-expensive and
/// small-and-slow clusters.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Catalog {
    vms: Vec<VmType>,
}

impl Catalog {
    /// An empty catalog.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The catalog of every instance type used in the paper's evaluation.
    #[must_use]
    pub fn aws() -> Self {
        let mut catalog = Self::new();
        let entries: &[(VmFamily, VmSize, u32, f64, f64, f64, f64)] = &[
            // (family, size, vcpus, ram_gb, $/h, rel core speed, net gbps)
            // t2 family (Table 2 of the paper).
            (VmFamily::T2, VmSize::Small, 1, 2.0, 0.023, 0.80, 0.5),
            (VmFamily::T2, VmSize::Medium, 2, 4.0, 0.0464, 0.80, 0.8),
            (VmFamily::T2, VmSize::Xlarge, 4, 16.0, 0.1856, 0.85, 1.5),
            (VmFamily::T2, VmSize::Xlarge2, 8, 32.0, 0.3712, 0.85, 2.2),
            // c4 family (compute optimized).
            (VmFamily::C4, VmSize::Large, 2, 3.75, 0.10, 1.25, 0.6),
            (VmFamily::C4, VmSize::Xlarge, 4, 7.5, 0.199, 1.25, 1.2),
            (VmFamily::C4, VmSize::Xlarge2, 8, 15.0, 0.398, 1.25, 2.0),
            // m4 family (general purpose).
            (VmFamily::M4, VmSize::Large, 2, 8.0, 0.10, 1.0, 0.55),
            (VmFamily::M4, VmSize::Xlarge, 4, 16.0, 0.20, 1.0, 0.95),
            (VmFamily::M4, VmSize::Xlarge2, 8, 32.0, 0.40, 1.0, 1.4),
            // r4 family (memory optimized, Scout).
            (VmFamily::R4, VmSize::Large, 2, 15.25, 0.133, 1.05, 0.8),
            (VmFamily::R4, VmSize::Xlarge, 4, 30.5, 0.266, 1.05, 1.2),
            (VmFamily::R4, VmSize::Xlarge2, 8, 61.0, 0.532, 1.05, 2.0),
            // r3 family (memory optimized, CherryPick).
            (VmFamily::R3, VmSize::Large, 2, 15.25, 0.166, 0.95, 0.6),
            (VmFamily::R3, VmSize::Xlarge, 4, 30.5, 0.333, 0.95, 0.9),
            (VmFamily::R3, VmSize::Xlarge2, 8, 61.0, 0.665, 0.95, 1.3),
            // i2 family (storage optimized, CherryPick).
            (VmFamily::I2, VmSize::Large, 2, 15.25, 0.426, 0.90, 0.6),
            (VmFamily::I2, VmSize::Xlarge, 4, 30.5, 0.853, 0.90, 0.9),
            (VmFamily::I2, VmSize::Xlarge2, 8, 61.0, 1.705, 0.90, 1.3),
        ];
        for &(family, size, vcpus, ram_gb, price, speed, net) in entries {
            catalog.push(VmType {
                family,
                size,
                vcpus,
                ram_gb,
                price_per_hour: price,
                relative_core_speed: speed,
                network_gbps: net,
            });
        }
        catalog
    }

    /// Adds a VM shape to the catalog.
    pub fn push(&mut self, vm: VmType) {
        self.vms.push(vm);
    }

    /// Looks up a shape by full name (e.g. `"m4.xlarge"`).
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&VmType> {
        self.vms.iter().find(|vm| vm.name() == name)
    }

    /// Looks up a shape by family and size.
    #[must_use]
    pub fn get_typed(&self, family: VmFamily, size: VmSize) -> Option<&VmType> {
        self.vms
            .iter()
            .find(|vm| vm.family == family && vm.size == size)
    }

    /// All shapes, in insertion order.
    #[must_use]
    pub fn vms(&self) -> &[VmType] {
        &self.vms
    }

    /// All shapes of a given family.
    #[must_use]
    pub fn family(&self, family: VmFamily) -> Vec<&VmType> {
        self.vms.iter().filter(|vm| vm.family == family).collect()
    }

    /// Number of shapes in the catalog.
    #[must_use]
    pub fn len(&self) -> usize {
        self.vms.len()
    }

    /// True if the catalog is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.vms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aws_catalog_contains_all_paper_families() {
        let catalog = Catalog::aws();
        assert_eq!(catalog.family(VmFamily::T2).len(), 4);
        for family in [
            VmFamily::C4,
            VmFamily::M4,
            VmFamily::R4,
            VmFamily::R3,
            VmFamily::I2,
        ] {
            assert_eq!(catalog.family(family).len(), 3, "family {family}");
        }
        assert_eq!(catalog.len(), 4 + 5 * 3);
    }

    #[test]
    fn lookups_by_name_and_by_type_agree() {
        let catalog = Catalog::aws();
        let by_name = catalog.get("r4.2xlarge").unwrap();
        let by_type = catalog.get_typed(VmFamily::R4, VmSize::Xlarge2).unwrap();
        assert_eq!(by_name, by_type);
        assert!(catalog.get("p3.16xlarge").is_none());
    }

    #[test]
    fn tensorflow_vms_match_table_2() {
        let catalog = Catalog::aws();
        let small = catalog.get("t2.small").unwrap();
        assert_eq!((small.vcpus, small.ram_gb), (1, 2.0));
        let medium = catalog.get("t2.medium").unwrap();
        assert_eq!((medium.vcpus, medium.ram_gb), (2, 4.0));
        let xlarge = catalog.get("t2.xlarge").unwrap();
        assert_eq!((xlarge.vcpus, xlarge.ram_gb), (4, 16.0));
        let xxlarge = catalog.get("t2.2xlarge").unwrap();
        assert_eq!((xxlarge.vcpus, xxlarge.ram_gb), (8, 32.0));
    }

    #[test]
    fn prices_increase_with_size_within_a_family() {
        let catalog = Catalog::aws();
        for family in [
            VmFamily::T2,
            VmFamily::C4,
            VmFamily::M4,
            VmFamily::R4,
            VmFamily::R3,
            VmFamily::I2,
        ] {
            let mut vms = catalog.family(family);
            vms.sort_by_key(|vm| vm.size);
            for pair in vms.windows(2) {
                assert!(
                    pair[0].price_per_hour < pair[1].price_per_hour,
                    "{} should be cheaper than {}",
                    pair[0].name(),
                    pair[1].name()
                );
            }
        }
    }

    #[test]
    fn bigger_sizes_have_more_cores_and_memory() {
        let catalog = Catalog::aws();
        for family in [VmFamily::C4, VmFamily::M4, VmFamily::R4] {
            let mut vms = catalog.family(family);
            vms.sort_by_key(|vm| vm.size);
            for pair in vms.windows(2) {
                assert!(pair[0].vcpus < pair[1].vcpus);
                assert!(pair[0].ram_gb < pair[1].ram_gb);
            }
        }
    }

    #[test]
    fn empty_catalog_reports_empty() {
        let empty = Catalog::new();
        assert!(empty.is_empty());
        assert_eq!(empty.len(), 0);
        assert!(!Catalog::aws().is_empty());
    }
}
