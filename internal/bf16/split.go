package bf16

import "math"

// Split stores an FP32 tensor as two 16-bit tensors: Hi holds the 16 MSBs
// of every value (a valid BF16 number, used by forward/backward) and Lo the
// 16 LSBs (optimizer-only state). Hi and Lo together reproduce the FP32
// value exactly, so SGD updates run at full FP32 accuracy without a
// separate master-weight copy — the core trick of Split-SGD-BF16 (§VII).
type Split struct {
	Hi []uint16
	Lo []uint16
}

// NewSplit builds the split representation of w.
func NewSplit(w []float32) *Split {
	s := &Split{Hi: make([]uint16, len(w)), Lo: make([]uint16, len(w))}
	for i, f := range w {
		bits := math.Float32bits(f)
		s.Hi[i] = uint16(bits >> 16)
		s.Lo[i] = uint16(bits)
	}
	return s
}

// At reconstructs the exact FP32 value at index i.
func (s *Split) At(i int) float32 {
	return math.Float32frombits(uint32(s.Hi[i])<<16 | uint32(s.Lo[i]))
}

// SetFP32 stores the exact FP32 value at index i.
func (s *Split) SetFP32(i int, f float32) {
	bits := math.Float32bits(f)
	s.Hi[i] = uint16(bits >> 16)
	s.Lo[i] = uint16(bits)
}

// HiFloat returns the BF16 (Hi) part expanded to FP32 — the value the
// forward and backward passes see.
func (s *Split) HiFloat(i int) float32 { return ToFloat32(s.Hi[i]) }

// WriteHiTo materializes the BF16 view of the whole tensor into dst, which
// the model uses as its working weights. Two of the three training passes
// therefore move half the bytes of an FP32 model.
func (s *Split) WriteHiTo(dst []float32) {
	if len(dst) != len(s.Hi) {
		panic("bf16: WriteHiTo length mismatch")
	}
	for i := range dst {
		dst[i] = ToFloat32(s.Hi[i])
	}
}

// Compose materializes the exact FP32 tensor into dst.
func (s *Split) Compose(dst []float32) {
	if len(dst) != len(s.Hi) {
		panic("bf16: Compose length mismatch")
	}
	for i := range dst {
		dst[i] = s.At(i)
	}
}

// LoBits8 truncates the Lo tensor to its top 8 bits (zeroing the rest),
// modelling the "only 8 additional LSBs" ablation that §VII reports is not
// enough to train DLRM to accuracy.
func (s *Split) LoBits8() {
	for i := range s.Lo {
		s.Lo[i] &= 0xFF00
	}
}
