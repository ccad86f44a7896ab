//! Compilation targets: the pluggable backend descriptor of the `Session`
//! API.
//!
//! A [`Target`] bundles everything the instruction selector needs to know
//! about one execution platform:
//!
//! * a [`DeviceProfile`] — throughput/latency parameters, from which the
//!   default extraction cost model is *derived* (so extraction costs
//!   reflect the device the code is compiled for);
//! * a **placement policy** — which accelerator memory spaces the target
//!   can honor ([`Target::supports`]): placements in unsupported spaces are
//!   ignored by the selector, and the affected statements keep their
//!   (correct) vector fallback code;
//! * a **rule profile** ([`RuleProfile`]) — which rewrite-rule families the
//!   selector should load, so an AMX-only target never pays for (or
//!   saturates with) WMMA lowering rules.
//!
//! Three built-in families implement the trait — [`AmxTarget`],
//! [`WmmaTarget`] and the no-accelerator [`ScalarTarget`] — plus
//! [`SimTarget`], the permissive union of both accelerator families used by
//! the functional simulator (and the default of `hardboiled::Session`).
//! New backends are a plug-in: implement [`Target`] (and extend the rule
//! set if the backend needs its own lowering rules), no selector changes
//! required.

use hb_ir::types::MemoryType;

use crate::device::DeviceProfile;

/// Which rewrite-rule families a target wants loaded.
///
/// The concrete rule sets live in the selector crate (`hardboiled::rules`);
/// this enum only names the family so accelerator descriptions stay free of
/// e-graph machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleProfile {
    /// Every rule family (both accelerator backends).
    All,
    /// Axiomatic + app-specific + AMX lowering rules only.
    Amx,
    /// Axiomatic + app-specific + WMMA lowering rules only.
    Wmma,
    /// No accelerator lowering at all (scalar fallback).
    None,
}

/// One compilation target: device parameters + placement policy + rule
/// profile.
///
/// Implementations must be consistent: [`Target::supports`] should accept
/// exactly the memory spaces the [`Target::rule_profile`] can lower, or
/// statements will saturate without ever finding a movement-free form.
pub trait Target: Send + Sync {
    /// Human-readable target name (also the registry key, lowercase).
    fn name(&self) -> &str;

    /// Device parameters; the default extraction cost model is derived
    /// from these.
    fn device(&self) -> &DeviceProfile;

    /// Whether the target honors placements in `memory`. Non-accelerator
    /// spaces (heap, stack, GPU shared) are always honored.
    fn supports(&self, memory: MemoryType) -> bool {
        !memory.is_accelerator() || self.supported_memories().contains(&memory)
    }

    /// The accelerator register classes this target can place buffers in.
    fn supported_memories(&self) -> &[MemoryType];

    /// Which rewrite-rule families the selector should load.
    fn rule_profile(&self) -> RuleProfile;
}

/// Intel AMX tile units (the paper's §IV CPU platform).
#[derive(Debug, Clone)]
pub struct AmxTarget {
    device: DeviceProfile,
}

impl AmxTarget {
    /// The default AMX host (Sapphire Rapids-class, emulated).
    #[must_use]
    pub fn new() -> Self {
        AmxTarget {
            device: DeviceProfile::amx_host(),
        }
    }

    /// The same target with custom device parameters.
    #[must_use]
    pub fn with_device(device: DeviceProfile) -> Self {
        AmxTarget { device }
    }
}

impl Default for AmxTarget {
    fn default() -> Self {
        Self::new()
    }
}

impl Target for AmxTarget {
    fn name(&self) -> &str {
        "amx"
    }

    fn device(&self) -> &DeviceProfile {
        &self.device
    }

    fn supported_memories(&self) -> &[MemoryType] {
        &[MemoryType::AmxTile]
    }

    fn rule_profile(&self) -> RuleProfile {
        RuleProfile::Amx
    }
}

/// Nvidia Tensor Cores through the WMMA fragment API.
#[derive(Debug, Clone)]
pub struct WmmaTarget {
    device: DeviceProfile,
}

impl WmmaTarget {
    /// The paper's §IV ML-workload platform (A100).
    #[must_use]
    pub fn new() -> Self {
        WmmaTarget {
            device: DeviceProfile::a100(),
        }
    }

    /// The same target with custom device parameters (e.g.
    /// [`DeviceProfile::rtx4070_super`]).
    #[must_use]
    pub fn with_device(device: DeviceProfile) -> Self {
        WmmaTarget { device }
    }
}

impl Default for WmmaTarget {
    fn default() -> Self {
        Self::new()
    }
}

const WMMA_MEMORIES: &[MemoryType] = &[
    MemoryType::WmmaAccumulator,
    MemoryType::WmmaMatrixA,
    MemoryType::WmmaMatrixB,
];

impl Target for WmmaTarget {
    fn name(&self) -> &str {
        "wmma"
    }

    fn device(&self) -> &DeviceProfile {
        &self.device
    }

    fn supported_memories(&self) -> &[MemoryType] {
        WMMA_MEMORIES
    }

    fn rule_profile(&self) -> RuleProfile {
        RuleProfile::Wmma
    }
}

/// The no-accelerator fallback: every pipeline compiles to plain vector
/// code, no placements honored, no saturation performed.
#[derive(Debug, Clone)]
pub struct ScalarTarget {
    device: DeviceProfile,
}

impl ScalarTarget {
    /// A scalar target modeling the general-purpose cores of `device`.
    #[must_use]
    pub fn new() -> Self {
        ScalarTarget {
            device: DeviceProfile::amx_host(),
        }
    }

    /// The same target with custom device parameters.
    #[must_use]
    pub fn with_device(device: DeviceProfile) -> Self {
        ScalarTarget { device }
    }
}

impl Default for ScalarTarget {
    fn default() -> Self {
        Self::new()
    }
}

impl Target for ScalarTarget {
    fn name(&self) -> &str {
        "scalar"
    }

    fn device(&self) -> &DeviceProfile {
        &self.device
    }

    fn supported_memories(&self) -> &[MemoryType] {
        &[]
    }

    fn rule_profile(&self) -> RuleProfile {
        RuleProfile::None
    }
}

/// The functional simulator's rig: both accelerator families at once, every
/// placement honored, every rule family loaded. This is the default target
/// of `hardboiled::Session` and reproduces the selector's historical
/// behavior (AMX and WMMA workloads through one pipeline).
#[derive(Debug, Clone)]
pub struct SimTarget {
    device: DeviceProfile,
}

const SIM_MEMORIES: &[MemoryType] = &[
    MemoryType::AmxTile,
    MemoryType::WmmaAccumulator,
    MemoryType::WmmaMatrixA,
    MemoryType::WmmaMatrixB,
];

impl SimTarget {
    /// The default simulator target (A100 device parameters).
    #[must_use]
    pub fn new() -> Self {
        SimTarget {
            device: DeviceProfile::a100(),
        }
    }

    /// The same target with custom device parameters.
    #[must_use]
    pub fn with_device(device: DeviceProfile) -> Self {
        SimTarget { device }
    }
}

impl Default for SimTarget {
    fn default() -> Self {
        Self::new()
    }
}

impl Target for SimTarget {
    fn name(&self) -> &str {
        "sim"
    }

    fn device(&self) -> &DeviceProfile {
        &self.device
    }

    fn supported_memories(&self) -> &[MemoryType] {
        SIM_MEMORIES
    }

    fn rule_profile(&self) -> RuleProfile {
        RuleProfile::All
    }
}

/// Looks a built-in target up by registry name.
///
/// Known names: `"amx"`, `"wmma"`, `"scalar"`, `"sim"` (plus the device
/// aliases `"a100"` and `"rtx4070super"`, which select the WMMA target with
/// that device's parameters). Returns `None` for unknown names — the
/// `Session` builder turns that into its unknown-target error.
#[must_use]
pub fn by_name(name: &str) -> Option<Box<dyn Target>> {
    match name.to_ascii_lowercase().as_str() {
        "amx" => Some(Box::new(AmxTarget::new())),
        "wmma" => Some(Box::new(WmmaTarget::new())),
        "scalar" => Some(Box::new(ScalarTarget::new())),
        "sim" => Some(Box::new(SimTarget::new())),
        "a100" => Some(Box::new(WmmaTarget::with_device(DeviceProfile::a100()))),
        "rtx4070super" => Some(Box::new(WmmaTarget::with_device(
            DeviceProfile::rtx4070_super(),
        ))),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_policies_partition_the_memory_spaces() {
        let amx = AmxTarget::new();
        let wmma = WmmaTarget::new();
        let scalar = ScalarTarget::new();
        let sim = SimTarget::new();
        assert!(amx.supports(MemoryType::AmxTile));
        assert!(!amx.supports(MemoryType::WmmaAccumulator));
        assert!(wmma.supports(MemoryType::WmmaAccumulator));
        assert!(!wmma.supports(MemoryType::AmxTile));
        assert!(!scalar.supports(MemoryType::AmxTile));
        assert!(sim.supports(MemoryType::AmxTile));
        assert!(sim.supports(MemoryType::WmmaMatrixB));
        // Non-accelerator spaces are honored by everyone.
        for t in [&amx as &dyn Target, &wmma, &scalar, &sim] {
            assert!(t.supports(MemoryType::Heap), "{}", t.name());
            assert!(t.supports(MemoryType::Stack), "{}", t.name());
            assert!(t.supports(MemoryType::GpuShared), "{}", t.name());
        }
    }

    #[test]
    fn registry_resolves_known_names_case_insensitively() {
        for name in ["amx", "wmma", "scalar", "sim", "AMX", "Wmma"] {
            assert!(by_name(name).is_some(), "{name}");
        }
        assert_eq!(
            by_name("a100").unwrap().device().name,
            "NVIDIA A100 80GB SXM"
        );
        assert!(by_name("tpu").is_none());
    }

    #[test]
    fn rule_profiles_match_the_backends() {
        assert_eq!(AmxTarget::new().rule_profile(), RuleProfile::Amx);
        assert_eq!(WmmaTarget::new().rule_profile(), RuleProfile::Wmma);
        assert_eq!(ScalarTarget::new().rule_profile(), RuleProfile::None);
        assert_eq!(SimTarget::new().rule_profile(), RuleProfile::All);
    }
}
