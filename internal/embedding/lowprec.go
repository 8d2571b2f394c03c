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

// fp16StochBody applies the stochastically-rounded FP16 update for the rows
// tid owns, drawing noise from a per-thread splitmix64 stream.
func fp16StochBody(arg any, tid, workers int) {
	t := arg.(*Table)
	b, dW, lr, e := t.ka.b, t.ka.dW, t.ka.lr, t.E
	ns := b.NumLookups()
	mStart, mEnd := par.Chunk(t.M, workers, tid)
	state := t.ka.seed ^ uint64(tid)*0x9E3779B97F4A7C15
	for s := 0; s < ns; s++ {
		ind := int(b.Indices[s])
		if ind < mStart || ind >= mEnd {
			continue
		}
		row := t.Row(ind)
		src := dW[s*e : (s+1)*e]
		for i := range row {
			state += 0x9E3779B97F4A7C15
			z := state
			z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
			z = (z ^ (z >> 27)) * 0x94D049BB133111EB
			z ^= z >> 31
			u := float32(z>>40) / float32(1<<24)
			row[i] = bf16.StochasticRoundFP16(row[i]-float32(lr*src[i]), u)
		}
	}
}

// UpdateFP16StochasticRaceFree applies the sparse update with the table
// stored in FP16 and stochastic rounding on every write — the
// low-precision embedding-table training of [13] that §VII reports could
// not train DLRM to state of the art with plain SGD. Race-free row
// partitioning; the rounding noise is drawn from a per-thread splitmix64
// stream seeded by the row index, so runs are reproducible.
func (t *Table) UpdateFP16StochasticRaceFree(p *par.Pool, b *Batch, dW []float32, lr float32, seed uint64) {
	t.ka.b, t.ka.dW, t.ka.lr, t.ka.seed = b, dW, lr, seed
	p.ForEachWorkerArg(fp16StochBody, t)
	t.ka.b, t.ka.dW = nil, nil
}
