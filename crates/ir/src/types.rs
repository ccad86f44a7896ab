//! Scalar and vector types of the IR, plus memory placement annotations.
//!
//! The IR follows Halide's convention: every expression has a [`Type`]
//! consisting of a scalar element type and a lane count. Scalars are vectors
//! with one lane.

use std::fmt;

/// Element type of an IR value.
///
/// The reproduction only needs the types exercised by the paper's case
/// studies: `bfloat16` and `float16` accelerator inputs, `float32`
/// accumulators, `int32` indices, and `bool` for predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ScalarType {
    /// 16-bit brain floating point (AMX input type).
    BF16,
    /// IEEE 754 half precision (WMMA input type).
    F16,
    /// IEEE 754 single precision (accumulator type).
    F32,
    /// 32-bit signed integer (index arithmetic).
    I32,
    /// Boolean (comparison results, select predicates).
    Bool,
}

impl ScalarType {
    /// Width of one element in bits.
    #[must_use]
    pub fn bits(self) -> u32 {
        match self {
            ScalarType::BF16 | ScalarType::F16 => 16,
            ScalarType::F32 | ScalarType::I32 => 32,
            ScalarType::Bool => 1,
        }
    }

    /// Width of one element in bytes (bools count as one byte in memory).
    #[must_use]
    pub fn bytes(self) -> u32 {
        match self {
            ScalarType::BF16 | ScalarType::F16 => 2,
            ScalarType::F32 | ScalarType::I32 => 4,
            ScalarType::Bool => 1,
        }
    }

    /// Whether the type is a floating-point type.
    #[inline]
    #[must_use]
    pub fn is_float(self) -> bool {
        matches!(self, ScalarType::BF16 | ScalarType::F16 | ScalarType::F32)
    }

    /// Whether the type is an integer type.
    #[inline]
    #[must_use]
    pub fn is_int(self) -> bool {
        matches!(self, ScalarType::I32)
    }
}

impl fmt::Display for ScalarType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ScalarType::BF16 => "bfloat16",
            ScalarType::F16 => "float16",
            ScalarType::F32 => "float32",
            ScalarType::I32 => "int32",
            ScalarType::Bool => "bool",
        };
        f.write_str(s)
    }
}

/// A (possibly vector) IR type: element type plus lane count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Type {
    /// Element type of each lane.
    pub elem: ScalarType,
    /// Number of lanes; `1` means scalar.
    pub lanes: u32,
}

impl Type {
    /// Creates a new type.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    #[inline]
    #[must_use]
    pub fn new(elem: ScalarType, lanes: u32) -> Self {
        assert!(lanes > 0, "a type must have at least one lane");
        Type { elem, lanes }
    }

    /// A scalar `bfloat16`.
    #[must_use]
    pub fn bf16() -> Self {
        Type::new(ScalarType::BF16, 1)
    }

    /// A scalar `float16`.
    #[must_use]
    pub fn f16() -> Self {
        Type::new(ScalarType::F16, 1)
    }

    /// A scalar `float32`.
    #[must_use]
    pub fn f32() -> Self {
        Type::new(ScalarType::F32, 1)
    }

    /// A scalar `int32`.
    #[inline]
    #[must_use]
    pub fn i32() -> Self {
        Type::new(ScalarType::I32, 1)
    }

    /// A scalar `bool`.
    #[must_use]
    pub fn bool() -> Self {
        Type::new(ScalarType::Bool, 1)
    }

    /// Returns the same element type with a different lane count.
    #[inline]
    #[must_use]
    pub fn with_lanes(self, lanes: u32) -> Self {
        Type::new(self.elem, lanes)
    }

    /// Whether this is a scalar type (exactly one lane).
    #[inline]
    #[must_use]
    pub fn is_scalar(self) -> bool {
        self.lanes == 1
    }

    /// Total size of a value of this type in bytes.
    #[must_use]
    pub fn bytes(self) -> u64 {
        u64::from(self.elem.bytes()) * u64::from(self.lanes)
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.lanes == 1 {
            write!(f, "{}", self.elem)
        } else {
            write!(f, "{}x{}", self.elem, self.lanes)
        }
    }
}

/// Where a buffer lives, set by the `store_in` scheduling directive.
///
/// Mirrors Halide's `MemoryType` extended with the accelerator register
/// classes used by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MemoryType {
    /// Host/device global memory (the default).
    #[default]
    Heap,
    /// Stack-allocated scratch (small local buffers).
    Stack,
    /// GPU shared memory.
    GpuShared,
    /// Intel AMX tile register.
    AmxTile,
    /// Nvidia Tensor Core WMMA accumulator fragment.
    WmmaAccumulator,
    /// Nvidia Tensor Core WMMA operand-A fragment.
    WmmaMatrixA,
    /// Nvidia Tensor Core WMMA operand-B fragment.
    WmmaMatrixB,
}

impl MemoryType {
    /// Whether the memory type is an accelerator register class.
    #[must_use]
    pub fn is_accelerator(self) -> bool {
        matches!(
            self,
            MemoryType::AmxTile
                | MemoryType::WmmaAccumulator
                | MemoryType::WmmaMatrixA
                | MemoryType::WmmaMatrixB
        )
    }

    /// The abstract [`Location`] data stored here lives in.
    #[must_use]
    pub fn location(self) -> Location {
        match self {
            MemoryType::Heap | MemoryType::Stack | MemoryType::GpuShared => Location::Mem,
            MemoryType::AmxTile => Location::Amx,
            MemoryType::WmmaAccumulator | MemoryType::WmmaMatrixA | MemoryType::WmmaMatrixB => {
                Location::Wmma
            }
        }
    }
}

impl fmt::Display for MemoryType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MemoryType::Heap => "Heap",
            MemoryType::Stack => "Stack",
            MemoryType::GpuShared => "GPUShared",
            MemoryType::AmxTile => "AMXTile",
            MemoryType::WmmaAccumulator => "WMMAAccumulator",
            MemoryType::WmmaMatrixA => "WMMAMatrixA",
            MemoryType::WmmaMatrixB => "WMMAMatrixB",
        };
        f.write_str(s)
    }
}

/// Abstract location of a value: host-visible memory or an accelerator
/// register file. Used by the `loc_to_loc` data-movement nodes (Fig. 9 of the
/// paper) so equality saturation never confuses a MatMul computed in memory
/// with one computed in a tensor register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Location {
    /// Ordinary addressable memory.
    Mem,
    /// AMX tile register file.
    Amx,
    /// WMMA fragment register file.
    Wmma,
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Location::Mem => "Mem",
            Location::Amx => "AMX",
            Location::Wmma => "WMMA",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_widths() {
        assert_eq!(ScalarType::BF16.bits(), 16);
        assert_eq!(ScalarType::F16.bytes(), 2);
        assert_eq!(ScalarType::F32.bytes(), 4);
        assert_eq!(ScalarType::I32.bits(), 32);
        assert_eq!(ScalarType::Bool.bytes(), 1);
    }

    #[test]
    fn float_and_int_predicates() {
        assert!(ScalarType::BF16.is_float());
        assert!(ScalarType::F16.is_float());
        assert!(ScalarType::F32.is_float());
        assert!(!ScalarType::I32.is_float());
        assert!(ScalarType::I32.is_int());
        assert!(!ScalarType::Bool.is_int());
    }

    #[test]
    fn type_total_bytes() {
        let t = Type::new(ScalarType::BF16, 512);
        assert_eq!(t.bytes(), 1024);
        assert!(Type::f32().is_scalar());
    }

    #[test]
    fn with_lanes_rescales() {
        let t = Type::f32().with_lanes(256);
        assert_eq!(t.lanes, 256);
        assert_eq!(t.elem, ScalarType::F32);
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lanes_rejected() {
        let _ = Type::new(ScalarType::F32, 0);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Type::f32().to_string(), "float32");
        assert_eq!(Type::bf16().with_lanes(8192).to_string(), "bfloat16x8192");
        assert_eq!(MemoryType::AmxTile.to_string(), "AMXTile");
        assert_eq!(Location::Wmma.to_string(), "WMMA");
    }

    #[test]
    fn memory_type_locations() {
        assert_eq!(MemoryType::Heap.location(), Location::Mem);
        assert_eq!(MemoryType::GpuShared.location(), Location::Mem);
        assert_eq!(MemoryType::AmxTile.location(), Location::Amx);
        assert_eq!(MemoryType::WmmaAccumulator.location(), Location::Wmma);
        assert!(MemoryType::AmxTile.is_accelerator());
        assert!(!MemoryType::Stack.is_accelerator());
    }
}
