// Package bf16 provides the BFLOAT16 numerics behind §VII: round-to-nearest
// -even conversion, the split hi/lo representation that Split-SGD-BF16 uses
// to store FP32 master precision as two 16-bit tensors, a bit-accurate
// software emulation of the Cooper Lake vdpbf16ps dot-product instruction,
// and the FP24 (1-8-15) quantizer of Fig. 16's FP24 curve.
package bf16

import "math"

// FromFloat32 converts an FP32 value to BF16 with round-to-nearest-even,
// returning the 16 most significant bits. NaNs are quieted so the truncated
// pattern stays a NaN.
func FromFloat32(f float32) uint16 {
	bits := math.Float32bits(f)
	if f != f { // NaN: force quiet bit, keep payload nonzero
		return uint16(bits>>16) | 0x0040
	}
	// RNE: add 0x7FFF + LSB of the surviving part.
	rounded := bits + 0x7FFF + (bits>>16)&1
	return uint16(rounded >> 16)
}

// ToFloat32 expands a BF16 value to FP32 (exact: BF16 aliases the upper half
// of FP32).
func ToFloat32(b uint16) float32 {
	return math.Float32frombits(uint32(b) << 16)
}

// Round returns f rounded to BF16 precision as an FP32 value.
func Round(f float32) float32 { return ToFloat32(FromFloat32(f)) }

// Dot emulates vdpbf16ps over two vectors: both operands are rounded to
// BF16 and the products are accumulated in FP32, matching the instruction's
// pairwise FP32 accumulation. The paper's Fig. 16 runs used exactly such a
// bit-accurate emulation ahead of silicon.
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("bf16: Dot length mismatch")
	}
	var acc float32
	for i := range a {
		acc += Round(a[i]) * Round(b[i])
	}
	return acc
}

// RoundFP24 rounds f to the non-standard 1-8-15 FP24 format (8 exponent
// bits like FP32/BF16, 15 explicit mantissa bits) with RNE, returned as
// FP32. This is the "FP24" curve of Fig. 16.
func RoundFP24(f float32) float32 {
	bits := math.Float32bits(f)
	if f != f {
		return f
	}
	// Drop the low 8 mantissa bits with RNE.
	rounded := bits + 0x7F + (bits>>8)&1
	return math.Float32frombits(rounded &^ 0xFF)
}
