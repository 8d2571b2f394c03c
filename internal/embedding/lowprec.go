package embedding

import (
	"repro/internal/bf16"
	"repro/internal/par"
)

// splitBody applies the Split-SGD update for the rows tid owns.
func splitBody(arg any, tid, workers int) {
	t := arg.(*Table)
	b, dW, lr, split, e := t.ka.b, t.ka.dW, t.ka.lr, t.ka.split, t.E
	ns := b.NumLookups()
	mStart, mEnd := par.Chunk(t.M, workers, tid)
	for s := 0; s < ns; s++ {
		ind := int(b.Indices[s])
		if ind < mStart || ind >= mEnd {
			continue
		}
		src := dW[s*e : (s+1)*e]
		base := ind * e
		for i := 0; i < e; i++ {
			w := split.At(base+i) - float32(lr*src[i])
			split.SetFP32(base+i, w)
			t.W[base+i] = split.HiFloat(base + i)
		}
	}
}

// UpdateSplitRaceFree applies the sparse SGD update at full FP32 accuracy
// against a Split-SGD-BF16 table: t.W holds the BF16 (hi) working view used
// by forward/backward, split holds the exact hi/lo state. Touched rows are
// recomposed, updated in FP32, re-split, and their BF16 view refreshed —
// the embedding-table side of §VII, where the capacity savings matter most.
// Uses Algorithm 4's race-free row partitioning, so it is deterministic.
func (t *Table) UpdateSplitRaceFree(p *par.Pool, split *bf16.Split, b *Batch, dW []float32, lr float32) {
	if split.Len() != len(t.W) {
		panic("embedding: split length mismatch")
	}
	t.ka.b, t.ka.dW, t.ka.lr, t.ka.split = b, dW, lr, split
	p.ForEachWorkerArg(splitBody, t)
	t.ka.b, t.ka.dW, t.ka.split = nil, nil, nil
}

// quantBody applies the re-quantizing update for the rows tid owns.
func quantBody(arg any, tid, workers int) {
	t := arg.(*Table)
	b, dW, lr, quant, e := t.ka.b, t.ka.dW, t.ka.lr, t.ka.quant, t.E
	ns := b.NumLookups()
	mStart, mEnd := par.Chunk(t.M, workers, tid)
	for s := 0; s < ns; s++ {
		ind := int(b.Indices[s])
		if ind < mStart || ind >= mEnd {
			continue
		}
		row := t.Row(ind)
		src := dW[s*e : (s+1)*e]
		for i := range row {
			row[i] = quant(row[i] - float32(lr*src[i]))
		}
	}
}

// UpdateQuantRaceFree applies the sparse update with the weights stored in a
// reduced precision: each touched element is updated in FP32 and immediately
// re-quantized (e.g. quant = bf16.RoundFP24 for the FP24 curve of Fig. 16).
// Race-free row partitioning, deterministic.
func (t *Table) UpdateQuantRaceFree(p *par.Pool, b *Batch, dW []float32, lr float32, quant func(float32) float32) {
	t.ka.b, t.ka.dW, t.ka.lr, t.ka.quant = b, dW, lr, quant
	p.ForEachWorkerArg(quantBody, t)
	t.ka.b, t.ka.dW, t.ka.quant = nil, nil, nil
}

// QuantizeTable rounds every table element with quant (used to initialize
// reduced-precision tables).
func (t *Table) QuantizeTable(quant func(float32) float32) {
	for i := range t.W {
		t.W[i] = quant(t.W[i])
	}
}
